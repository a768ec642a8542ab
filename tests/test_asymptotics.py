import math
import os
import subprocess
import sys

import numpy as np
import pytest

import svplab
from conftest import (BS, cosh_section_mass, count_compute_calls, make_strip,
                      numeric_cutoff_minimum)
from svplab import asymptotics as asym
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st

PI = math.pi


class TestSectionMass:
    def test_constant_field_zero_mass(self, linear_16):
        f = linear_16.with_values(np.full(linear_16.mesh.n_nodes, 1.5))
        mass = asym.section_mass(f, 1.5, [0.0, 0.5])
        assert np.all(mass.values == 0.0)

    def test_linear_field_quadratic_mass(self, linear_16):
        mass = asym.section_mass(linear_16, 0.0, [0.25, 0.5, 0.75])
        assert np.allclose(mass.values, np.array([0.25, 0.5, 0.75]) ** 2, rtol=1e-12)

    def test_cosh_mode_matches_closed_form(self, cosh_dirichlet_16):
        # h = 1/16: discrete decay-rate error amplified by cap distance
        mass = asym.section_mass(cosh_dirichlet_16, 0.0, [1.0, 2.0])
        for tau, val in zip(mass.stations, mass.values):
            assert val == pytest.approx(cosh_section_mass(tau), rel=0.06)


class TestLogSumExp:
    @pytest.mark.parametrize("a", [
        [0.3],
        [1.0, 2.0, 3.0],
        [5.0, 5.0, -1.0, 5.0],  # tied maxima
        [800.0, 799.0, -800.0],  # exp would overflow
        [-np.inf, 0.0],
    ])
    def test_matches_scipy(self, a):
        from scipy.special import logsumexp
        ref = logsumexp(np.asarray(a))
        assert asym._logsumexp(np.asarray(a)) == pytest.approx(ref, rel=1e-15)

    def test_random_inputs_match_scipy(self):
        from scipy.special import logsumexp
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=rng.integers(1, 200))
            assert asym._logsumexp(a) == pytest.approx(logsumexp(a), rel=1e-14)

    def test_import_does_not_load_scipy_special(self):
        # a fresh interpreter that imports this svplab, installed or not
        src = os.path.dirname(os.path.dirname(svplab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, svplab; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "False"


class TestOptimalCutoff:
    def test_constant_mass(self):
        st_ = np.linspace(1.0, 2.5, 257)
        mass = asym.SectionMassProfile(st_, np.full(257, 5.0), 0.0, 2.0)
        res = asym.optimal_cutoff(mass, 1.0, 2.5, 2.0)
        assert res.value == pytest.approx(5.0 * 1.5 ** (1 - 2.0), rel=1e-12)
        # realizing cutoff is linear from 1 to 0
        assert np.allclose(res.psi, np.linspace(1.0, 0.0, 257), atol=1e-12)

    def test_linear_mass_log_integral(self):
        st_ = np.linspace(1.0, 2.0, 257)
        mass = asym.SectionMassProfile(st_, st_.copy(), 0.0, 2.0)
        res = asym.optimal_cutoff(mass, 1.0, 2.0, 2.0)
        assert res.value == pytest.approx(1.0 / math.log(2.0), rel=1e-4)

    def test_numeric_minimum_agrees(self):
        st_ = np.linspace(1.0, 2.0, 257)
        mass = asym.SectionMassProfile(st_, 1.0 + np.sin(st_) ** 2, 0.0, 3.0)
        res = asym.optimal_cutoff(mass, 1.0, 2.0, 3.0)
        numeric = numeric_cutoff_minimum(mass, 1.0, 2.0, 3.0)
        assert numeric == pytest.approx(res.value, rel=0.005)
        # closed form realizes the minimum: numeric search cannot beat it
        assert res.value <= numeric * (1.0 + 1e-9)

    def test_degenerate_mass_flagged(self):
        st_ = np.linspace(0.0, 1.0, 9)
        vals = np.ones(9)
        vals[4] = 0.0
        mass = asym.SectionMassProfile(st_, vals, 0.0, 2.0)
        res = asym.optimal_cutoff(mass, 0.0, 1.0, 2.0)
        assert res.degenerate
        assert res.value == 0.0

    def test_p_near_one_no_overflow(self):
        st_ = np.linspace(0.0, 1.0, 65)
        mass = asym.SectionMassProfile(st_, np.full(65, 1e-4), 0.0, 1.1)
        res = asym.optimal_cutoff(mass, 0.0, 1.0, 1.1)
        assert math.isfinite(res.value)
        assert res.value == pytest.approx(1e-4, rel=1e-10)  # m0 * 1^(1-p)

    def test_window_must_match_stations(self):
        st_ = np.linspace(0.0, 1.0, 9)
        mass = asym.SectionMassProfile(st_, np.ones(9), 0.0, 2.0)
        with pytest.raises(ValueError):
            asym.optimal_cutoff(mass, 0.033, 1.0, 2.0)


class TestCutoffBound:
    def test_constant_c7(self):
        assert asym.bound_constant(st.constant_operator(2.0)) == 8.0

    def test_c7_monotone_in_ellipticity_ratio(self, cosh_dirichlet_16):
        ops = [st.StructureOperator(p=2.0, nu1=1.0, nu2=nu2) for nu2 in (1.0, 2.0, 4.0)]
        c7s = [asym.bound_constant(op) for op in ops]
        assert c7s == sorted(c7s)
        base = asym.cutoff_bound(cosh_dirichlet_16, 0.0, 1.0, 2.0)
        assert base.passed
        # larger C7 keeps the verdict
        assert all(c7 * max(base.a_left, base.a_right) >= base.lhs for c7 in c7s)

    def test_constant_field_degenerate_pass(self, linear_16):
        f = linear_16.with_values(np.full(linear_16.mesh.n_nodes, 3.0))
        res = asym.cutoff_bound(f, 3.0, 0.5, 1.0)
        assert res.degenerate
        assert res.passed
        assert res.lhs == 0.0

    def test_cosh_mode_positive_margin(self, cosh_dirichlet_16):
        res = asym.cutoff_bound(cosh_dirichlet_16, 0.0, 1.0, 2.0)
        assert res.passed and res.margin > 0
        # closed form: A = [int sech^2-type integral]^-1 scaled
        # I(-1,1) ~ 420.6 / cosh(pi BS)^2, rhs ~ 3377 / cosh(pi BS)^2
        scale = math.cosh(PI * BS) ** 2
        assert res.lhs * scale == pytest.approx(420.6, rel=0.05)
        assert res.rhs * scale == pytest.approx(3377.0, rel=0.10)

    def test_window_ordering_validated(self, cosh_dirichlet_16):
        with pytest.raises(ValueError):
            asym.cutoff_bound(cosh_dirichlet_16, 0.0, 2.0, 1.0)


def _pl_setup(expr):
    dom = make_strip(("neumann", "neumann"), 2.0)
    bc = sv.BoundarySpec(g_low=expr, g_high=expr, lateral=("neumann", "neumann"))
    return dom, st.constant_operator(2.0), bc


class TestGrowthTrends:
    def test_bounded_family_forces_triviality(self):
        dom, op, bc = _pl_setup(lambda x: np.cos(PI * x[:, 0]))
        rep = asym.pl_check(dom, op, bc, [2.0, 3.0, 4.0], "starI", 1 / 16, {})
        assert rep.verdict == asym.FORCES_TRIVIALITY
        assert rep.slope <= -PI * (1.0 - 0.02)
        # inner energy trend corroborates: decreasing toward zero
        assert rep.inner_trend[-1] < rep.inner_trend[0]
        assert rep.inner_trend[-1] == pytest.approx(0.0, abs=1e-6)

    def test_growing_family_no_conclusion(self):
        dom, op, bc = _pl_setup(
            lambda x: np.cosh(PI * x[:, 1]) * np.cos(PI * x[:, 0]) / math.cosh(PI * BS)
        )
        rep = asym.pl_check(dom, op, bc, [2.0, 3.0, 4.0], "starI", 1 / 16, {})
        assert rep.verdict == asym.NO_CONCLUSION
        assert rep.slope > 0

    def test_dirichlet_forms_run(self):
        dom = make_strip(("dirichlet0", "dirichlet0"), 2.0)
        g = lambda x: np.sin(PI * x[:, 0])
        bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
        op = st.constant_operator(2.0)
        for form in ("starII", "starDirichlet"):
            rep = asym.pl_check(dom, op, bc, [2.0, 2.5, 3.0], form, 1 / 8, {})
            assert rep.verdict == asym.FORCES_TRIVIALITY
            assert rep.slope < 0

    def test_radial_forms_run(self):
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=4.0, lateral_bc=("neumann", "neumann"))
        bc = sv.BoundarySpec(g_low=lambda x: np.zeros(len(x)),
                             g_high=lambda x: np.cos(PI * x[:, 0]),
                             lateral=("neumann", "neumann"))
        rep = asym.pl_check(dom, st.constant_operator(2.0), bc,
                            [3.0, 3.5, 4.0], "eq7.12", 1 / 8, {}, tau_inner=1.5)
        assert len(rep.rows) == 3
        assert all(r.rhs > 0 for r in rep.rows)

    @pytest.mark.parametrize("form", ["starI", "starII", "starDirichlet"])
    def test_layer_frequency_computed_once(self, monkeypatch, form):
        # every truncation mesh of a layer family has the same section
        from svplab import frequency as fr
        calls = count_compute_calls(monkeypatch)
        lateral = ("neumann", "neumann") if form == "starI" else ("dirichlet0", "dirichlet0")
        dom = make_strip(lateral, 2.0)
        g = lambda x: np.cos(PI * x[:, 0])
        bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=lateral)
        rep = asym.pl_check(dom, st.constant_operator(1.5), bc, [2.0, 2.5, 3.0], form, 1 / 8, {})
        assert len(rep.rows) == 3
        assert [kind for kind, _ in calls] == [fr.SECOND if form == "starI" else fr.THIRD]

    def test_needs_three_truncations(self):
        dom, op, bc = _pl_setup(lambda x: np.cos(PI * x[:, 0]))
        with pytest.raises(ValueError):
            asym.pl_check(dom, op, bc, [2.0, 3.0], "starI", 1 / 8, {})

    def test_unknown_form_rejected(self):
        dom, op, bc = _pl_setup(lambda x: np.cos(PI * x[:, 0]))
        with pytest.raises(ValueError):
            asym.pl_check(dom, op, bc, [2.0, 3.0, 4.0], "starX", 1 / 8, {})

    def test_layer_rate_station_independent(self):
        from svplab import frequency as fr
        dom, op, bc = _pl_setup(lambda x: np.cos(PI * x[:, 0]))
        mesh = geo.build_mesh(dom, 1 / 8)
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [-1.0, 0.0, 1.0], {})
        vals = [r.value for _, r in pairs]
        assert max(vals) - min(vals) <= 1e-10 * max(vals)
