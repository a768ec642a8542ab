import math

import numpy as np
import pytest

from conftest import cg_from_zero, solve_linear
from svplab import energetics as en
from svplab import zones as zn

PI = math.pi


def mu_profile(stations, value=PI**2):
    return en.constant_rate_profile("mu", 2.0, stations, value)


def lam_profile(stations, value=PI**2):
    return en.constant_rate_profile("lambda", 2.0, stations, value)


class TestMeasuredZones:
    def test_constant_field_full_band(self, linear_16):
        f = linear_16.with_values(np.full(linear_16.mesh.n_nodes, 2.0))
        for s in (1e-8, 1e-2, 10.0):
            for fn in (zn.w1p_zone, zn.lp_zone, zn.sup_zone):
                rep = fn(f, s)
                assert rep.full_band
                assert rep.tau_meas == pytest.approx(1.0)

    def test_linear_w1p_closed_form(self, linear_16):
        # I2(-tau, tau) = 2 tau: s = 0.5 -> largest station strictly below 0.25
        rep = zn.w1p_zone(linear_16, 0.5)
        assert rep.tau_meas == pytest.approx(0.25 - 1 / 16, rel=1e-12)

    def test_linear_lp_closed_form(self, linear_16):
        # min_C slab integral = 2 tau^3 / 3: s = 2/3 -> tau just below 1
        rep = zn.lp_zone(linear_16, 2.0 / 3.0)
        assert rep.tau_meas == pytest.approx(1.0 - 1 / 16, rel=1e-12)
        assert rep.constant == pytest.approx(0.0, abs=1e-10)

    def test_linear_sup_closed_form(self, linear_16):
        # midrange constant is 0, max deviation on the band is tau
        rep = zn.sup_zone(linear_16, 0.25)
        assert rep.tau_meas == pytest.approx(0.25 - 1 / 16, rel=1e-12)

    def test_predicate_boundary(self, linear_16):
        # below s means below it by more than the tie guard
        rep = zn.w1p_zone(linear_16, 0.5)
        h = 1 / 16
        below = 0.5 * (1.0 - zn.TIE_RTOL)
        assert en.energy(linear_16, -rep.tau_meas, rep.tau_meas) < below
        nxt = rep.tau_meas + h
        assert en.energy(linear_16, -nxt, nxt) >= below

    @pytest.mark.parametrize("nudge", ["up", "down", "toward_zero", "away_from_zero"])
    @pytest.mark.parametrize("base", ["solved", "exact"])
    def test_one_ulp_leaves_tied_stations(self, linear_16, base, nudge):
        # each s below ties with the deviation at a station (0.25 or 1.0) in
        # exact arithmetic, and a tie is not below s, whatever its roundoff;
        # the solve reproduces the linear field to a few ulps, and its exact
        # nodal values sit on the ties themselves
        v = linear_16.values if base == "solved" else linear_16.mesh.grid.nodes[:, -1]
        target = {"up": np.inf, "down": -np.inf, "toward_zero": 0.0,
                  "away_from_zero": np.copysign(np.inf, v)}[nudge]
        nudged = linear_16.with_values(np.nextafter(v, target))
        h = 1 / 16
        for fn, s, tau in ((zn.w1p_zone, 0.5, 0.25 - h), (zn.lp_zone, 2.0 / 3.0, 1.0 - h),
                           (zn.sup_zone, 0.25, 0.25 - h)):
            assert fn(nudged, s).tau_meas == fn(linear_16, s).tau_meas
            assert fn(nudged, s).tau_meas == pytest.approx(tau, rel=1e-12)

    def test_tied_stations_under_cg(self):
        # the linear field as multigrid CG solves it, not the separable solve
        solved = solve_linear(1 / 16)
        values, iterations = cg_from_zero(solved.mesh, solved.op, solved.bc)
        assert len(iterations) == 1
        lin = solved.with_values(values)
        h = 1 / 16
        assert zn.w1p_zone(lin, 0.5).tau_meas == pytest.approx(0.25 - h, rel=1e-12)
        assert zn.lp_zone(lin, 2.0 / 3.0).tau_meas == pytest.approx(1.0 - h, rel=1e-12)
        assert zn.sup_zone(lin, 0.25).tau_meas == pytest.approx(0.25 - h, rel=1e-12)

    def test_monotone_in_s(self, cosh_dirichlet_16):
        sweep = np.logspace(-7, -2, 10)
        for fn in (zn.w1p_zone, zn.lp_zone, zn.sup_zone):
            taus = [fn(cosh_dirichlet_16, s).tau_meas for s in sweep]
            assert all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))

    def test_s_must_be_positive(self, linear_16):
        for fn in (zn.w1p_zone, zn.lp_zone, zn.sup_zone):
            with pytest.raises(ValueError):
                fn(linear_16, 0.0)

    def test_norm_ordering(self, cosh_dirichlet_16):
        # sup deviation < s on a slab of measure M forces Lp deviation < s M^(1/p)
        s = 1e-3
        rep = zn.sup_zone(cosh_dirichlet_16, s)
        tau = rep.tau_meas
        measure = 2.0 * tau  # |D0| = 1
        vals, w = cosh_dirichlet_16.slab_values(-tau, tau)
        c = 0.5 * (vals.max() + vals.min())
        lp_dev = float(np.sum(w * np.abs(vals - c) ** 2)) ** 0.5
        assert lp_dev < s * measure ** 0.5 + 1e-12


class TestPredictZone:
    def test_closed_form_inversion(self):
        # E = e^(2 pi) s with constant rate q = pi^2 gives tau2 - tau = 2/pi
        # literal constant rate q = mu = pi^2 fed verbatim
        s = 0.37
        tau = zn.predict_zone(math.exp(2 * PI) * s, PI**2, s, 3.0)
        assert 3.0 - tau == pytest.approx(2.0 / PI, rel=1e-12)
        # profile form: decay integrand is the p-th root of the frequency
        prof = mu_profile(np.arange(0.0, 3.1, 0.5))
        tau2 = zn.predict_zone(math.exp(2 * PI) * s, prof, s, 3.0)
        assert 3.0 - tau2 == pytest.approx(2.0, rel=1e-12)

    def test_already_zone_error(self):
        prof = mu_profile(np.arange(0.0, 3.1, 0.5))
        with pytest.raises(ValueError, match="already a zone"):
            zn.predict_zone(0.5, prof, 0.5, 3.0)

    def test_varying_rate_scan(self):
        stations = np.arange(0.0, 3.1, 0.5)
        values = (1.0 + stations) ** 2  # rate = 1 + tau
        profile = en.RateProfile(kind="mu", p=2.0, stations=stations, values=values)
        tau = zn.predict_zone(10.0, profile, 1.0, 3.0)
        # bound at returned station must pass and fail at the next one
        idx = np.flatnonzero(np.isclose(stations, tau))[0]
        integ = np.trapezoid(1.0 + stations[idx:], stations[idx:])
        assert 10.0 * math.exp(-integ) < 1.0
        if idx + 1 < stations.size - 1:
            integ2 = np.trapezoid(1.0 + stations[idx + 1:], stations[idx + 1:])
            assert 10.0 * math.exp(-integ2) >= 1.0

    def test_soundness_on_cosh_field(self, cosh_dirichlet_16):
        stations = np.arange(-2.75, 2.751, 0.25)
        prof = lam_profile(stations)
        for s in np.logspace(-7, -3, 8):
            rep = zn.w1p_zone(cosh_dirichlet_16, s, rate_profile=prof, tau_outer=2.5)
            if rep.tau_pred is not None:
                assert rep.tau_pred <= rep.tau_meas + 1e-12
                assert rep.verdict == "prediction-sound"


class TestEmbeddingPredictions:
    def test_lp_prediction_with_unit_constant(self, cosh_dirichlet_16):
        stations = np.arange(-2.75, 2.751, 0.25)
        prof = lam_profile(stations)
        rep = zn.lp_zone(cosh_dirichlet_16, 1e-5, C5=1.0, rate_profile=prof, tau_outer=2.5)
        assert rep.embedding_constant == 1.0
        assert rep.tau_pred is not None
        assert rep.tau_pred <= rep.tau_meas + 1e-12
        assert "deviation_readings" in rep.extra

    def test_sup_prediction_reports_both_forms(self, cosh_dirichlet_16):
        stations = np.arange(-2.75, 2.751, 0.25)
        prof = lam_profile(stations)
        rep = zn.sup_zone(cosh_dirichlet_16, 1e-2, C6=1.0, rate_profile=prof, tau_outer=2.5)
        assert rep.tau_pred is not None
        assert "tau_pred_verbatim" in rep.extra
        assert rep.tau_pred <= rep.tau_meas + 1e-12

    def test_no_prediction_without_constant(self, cosh_dirichlet_16):
        stations = np.arange(-2.75, 2.751, 0.25)
        prof = lam_profile(stations)
        rep = zn.lp_zone(cosh_dirichlet_16, 1e-5, rate_profile=prof, tau_outer=2.5)
        assert rep.tau_pred is None
