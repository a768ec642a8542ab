import math

import numpy as np
import pytest

from conftest import BS, cosh_energy, solve_linear
from svplab import energetics as en
from svplab import frequency as fr
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st

PI = math.pi


def lam_profile(stations):
    return en.constant_rate_profile("lambda", 2.0, stations, PI**2)


def mu_profile(stations):
    return en.constant_rate_profile("mu", 2.0, stations, PI**2)


SYM_STATIONS = np.arange(-2.75, 2.751, 0.25)


class TestEnergy:
    def test_unit_gradient_slab(self, linear_16):
        # f = axial coordinate, |D0| = 1, p = 2
        assert en.energy(linear_16, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_gradient_p3(self):
        f = solve_linear(1 / 8)
        f3 = sv.ScalarField(mesh=f.mesh, values=2.0 * f.mesh.grid.nodes[:, 1],
                            op=st.constant_operator(3.0), bc=f.bc,
                            diagnostics=f.diagnostics)
        assert en.energy(f3, 0.0, 1.0) == pytest.approx(8.0, rel=1e-12)

    def test_cosh_energy_close_to_closed_form(self, cosh_dirichlet_16):
        val = en.energy(cosh_dirichlet_16, -1.0, 1.0)
        assert val == pytest.approx(cosh_energy(-1.0, 1.0), rel=0.05)

    def test_misaligned_bounds_rejected(self, linear_16):
        with pytest.raises(ValueError):
            en.energy(linear_16, 0.013, 0.5)

    def test_bounds_snapped_once(self, linear_16, monkeypatch):
        calls = []
        index = geo.Mesh.station_index
        monkeypatch.setattr(geo.Mesh, "station_index",
                            lambda self, *args, **kwargs: calls.append(args) or index(self, *args, **kwargs))
        assert en.energy(linear_16, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert len(calls) == 2

    @pytest.mark.parametrize("t, tau, message", [
        (0.013, 0.5, "off-grid by"),
        (0.0, 0.513, "off-grid by"),
        (-0.5, 1.5, "outside meshed range"),
        (0.5, 0.5, "need t < tau"),
        (0.75, 0.25, "need t < tau"),
        (0.5, 0.5 + 1e-12, "same grid line"),
    ])
    def test_bad_bounds_rejected(self, linear_16, t, tau, message):
        with pytest.raises(ValueError, match=message):
            en.energy(linear_16, t, tau)

    def test_additivity_exact(self, cosh_dirichlet_16):
        f = cosh_dirichlet_16
        total = en.energy(f, -2.0, 2.5)
        parts = en.energy(f, -2.0, 0.25) + en.energy(f, 0.25, 2.5)
        assert parts == pytest.approx(total, rel=1e-14)


class TestEnergyProfile:
    def test_linear_field_symmetric_energy_and_flag(self, linear_16):
        prof = en.energy_profile(linear_16, 0.0, [0.25, 0.5, 0.75],
                                 fit_window=(0.25, 0.75))
        assert np.allclose(prof.symmetric_energy, 2.0 * np.array([0.25, 0.5, 0.75]),
                           rtol=1e-12)
        assert prof.slope_flagged  # log(2 tau) is not an exponential profile

    def test_cosh_slope(self, cosh_dirichlet_16):
        stations = np.arange(0.25, 2.751, 0.25)
        prof = en.energy_profile(cosh_dirichlet_16, 0.0, stations, fit_window=(1.0, 2.5))
        assert prof.slope == pytest.approx(2.0 * PI, rel=0.02)
        assert not prof.slope_flagged

    def test_monotone_nondecreasing(self, cosh_dirichlet_16):
        prof = en.energy_profile(cosh_dirichlet_16, 0.0, np.arange(0.25, 2.751, 0.25))
        assert np.all(np.diff(prof.inner_energy) >= 0)

    def test_single_station_no_slope(self, cosh_dirichlet_16):
        prof = en.energy_profile(cosh_dirichlet_16, 0.0, [1.0])
        assert math.isnan(prof.slope)

    def test_slope_needs_two_stations(self, cosh_dirichlet_16):
        with pytest.raises(ValueError):
            en.energy_profile(cosh_dirichlet_16, 0.0, [1.0], fit_window=(0.5, 1.5))

    def test_coarea_consistency(self):
        rels = []
        for h in (1 / 16, 1 / 32):
            from conftest import solve_cosh_dirichlet
            f = solve_cosh_dirichlet(h)
            prof = en.energy_profile(f, 0.0, [1.0, 1.5, 2.0])
            rel = np.max(np.abs(prof.dI_dtau - prof.section_energies) / prof.section_energies)
            rels.append(rel)
        assert rels[0] <= 0.03
        assert rels[1] < rels[0]


class TestNeumannCheck:
    def test_cosh_mode_margins_match_closed_form(self, cosh_neumann_16):
        # closed-form lhs/rhs with C1(0) = (2/pi) cosh(0) / cosh(pi bs)
        prof = mu_profile(SYM_STATIONS)
        c1 = (2.0 / PI) / math.cosh(PI * BS)
        # h = 1/16: the O(h^2) discrete decay-rate error is amplified by the
        # axial distance from the caps, so 5% slack; acceptance re-checks at 1/64
        for (t, t1, t2) in [(0.0, 1.0, 2.0), (0.0, 1.0, 2.5), (0.0, 0.5, 2.5)]:
            chk = en.svp_check_neumann(cosh_neumann_16, prof, t, t1, t2)
            lhs_exact = cosh_energy(t, t1) + c1
            rhs_exact = (cosh_energy(t, t2) + c1) * math.exp(-PI * (t2 - t1))
            assert chk.lhs == pytest.approx(lhs_exact, rel=0.05)
            assert chk.rhs == pytest.approx(rhs_exact, rel=0.05)
            assert chk.passed
            assert chk.extra["rate_kind"] == "mu"

    def test_constant_field_passes_with_zero_margin(self, cosh_neumann_16):
        f = cosh_neumann_16.with_values(np.zeros(cosh_neumann_16.mesh.n_nodes))
        chk = en.svp_check_neumann(f, mu_profile(SYM_STATIONS), 0.0, 1.0, 2.0)
        assert chk.lhs == 0.0 and chk.rhs == 0.0
        assert chk.passed

    def test_corrupted_field_fails(self, cosh_neumann_16):
        rng = np.random.default_rng(5)
        noisy = cosh_neumann_16.values + rng.normal(scale=0.05, size=cosh_neumann_16.values.shape)
        chk = en.svp_check_neumann(cosh_neumann_16.with_values(noisy),
                                   mu_profile(SYM_STATIONS), 0.0, 1.0, 2.0)
        assert not chk.passed

    def test_wrong_boundary_kind_rejected(self, cosh_dirichlet_16):
        with pytest.raises(ValueError):
            en.svp_check_neumann(cosh_dirichlet_16, mu_profile(SYM_STATIONS), 0.0, 1.0, 2.0)


class TestDirichletCheck:
    def test_cosh_mode_passes(self, cosh_dirichlet_16):
        prof = lam_profile(SYM_STATIONS)
        for (t, t1, t2) in [(0.0, 0.5, 2.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.5)]:
            chk = en.svp_check_dirichlet(cosh_dirichlet_16, prof, t, t1, t2)
            # C2(0) = 0 by symmetry: pure energy-ratio bound
            rhs_exact = cosh_energy(t, t2) * math.exp(-PI * (t2 - t1))
            assert chk.rhs == pytest.approx(rhs_exact, rel=0.05)
            assert chk.passed

    def test_equal_stations_trivial_pass(self, cosh_dirichlet_16):
        chk = en.svp_check_dirichlet(cosh_dirichlet_16, lam_profile(SYM_STATIONS), 0.0, 2.0, 2.0)
        assert chk.extra["factor"] == 1.0
        assert chk.passed

    def test_wrong_boundary_kind_rejected(self, cosh_neumann_16):
        with pytest.raises(ValueError):
            en.svp_check_dirichlet(cosh_neumann_16, lam_profile(SYM_STATIONS), 0.0, 1.0, 2.0)


class TestSymmetricCheck:
    def test_cosh_mode_factors_equal_and_pass(self, cosh_dirichlet_16):
        chk = en.svp_symmetric_check(cosh_dirichlet_16, lam_profile(SYM_STATIONS), 1.0, 2.0)
        assert chk.extra["factor_left"] == pytest.approx(chk.extra["factor_right"], rel=1e-12)
        assert chk.passed

    def test_constant_field(self, cosh_neumann_16):
        f = cosh_neumann_16.with_values(np.full(cosh_neumann_16.mesh.n_nodes, 2.0))
        chk = en.svp_symmetric_check(f, mu_profile(SYM_STATIONS), 1.0, 2.0)
        assert chk.lhs == 0.0 and chk.rhs == 0.0
        assert chk.passed

    def test_linear_field_at_inner_stations(self):
        # closed form: lhs = 2 tau1, rhs = 2 tau2 exp(-pi (tau2 - tau1));
        # passes for small tau1 where growth is slower than the damping
        f = solve_linear(1 / 16)
        stations = np.arange(-0.9375, 0.94, 0.0625)
        prof = mu_profile(stations)
        chk = en.svp_symmetric_check(f, prof, 0.125, 0.25)
        lhs_exact = 2.0 * 0.125
        rhs_exact = 2.0 * 0.25 * math.exp(-PI * 0.125)
        assert chk.lhs == pytest.approx(lhs_exact, rel=1e-10)
        assert chk.rhs == pytest.approx(rhs_exact, rel=1e-10)
        assert chk.passed

    def test_radial_mode_rejected(self):
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 0.25)
        bc = sv.BoundarySpec(g_low=lambda x: np.zeros(len(x)),
                             g_high=lambda x: np.ones(len(x)),
                             lateral=("neumann", "neumann"))
        f = sv.solve(dom, mesh, st.constant_operator(2.0), bc)
        with pytest.raises(ValueError):
            en.svp_symmetric_check(f, mu_profile(np.array([1.5, 2.0])), 1.5, 2.0)


class TestRateProfile:
    def test_integral_constant_rate(self):
        prof = en.constant_rate_profile("mu", 2.0, np.arange(0.0, 2.1, 0.5), PI**2)
        assert prof.integral(0.5, 2.0) == pytest.approx(PI * 1.5, rel=1e-12)

    def test_integral_requires_profile_stations(self):
        prof = en.constant_rate_profile("mu", 2.0, np.array([0.0, 1.0]), 4.0)
        with pytest.raises(ValueError):
            prof.integral(0.0, 0.7)

    def test_rate_is_pth_root(self):
        prof = en.constant_rate_profile("lambda", 3.0, np.array([0.0, 1.0]), 8.0)
        assert prof.rates()[0] == pytest.approx(2.0, rel=1e-14)

    def test_from_frequency_results(self):
        dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                  alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 1 / 16)
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [0.0, 0.5], {})
        prof = en.rate_profile("mu", 2.0, pairs)
        assert prof.values[0] == pytest.approx(PI**2, rel=0.01)
