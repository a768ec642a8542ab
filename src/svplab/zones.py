"""Stagnation-zone detection in the gradient-energy, L^p and sup norms.

A zone is the largest symmetric band (-tau, tau) of axial grid stations
on which the field deviates from its best constant by less than s in the
chosen norm.  Measurement is direct; predictions invert the energy-decay
bound (and, for the L^p/sup kinds, route it through user-supplied
embedding constants, which are never computed here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energetics import energy
from .frequency import optimal_constant
from .geometry import LAYER


@dataclass(frozen=True)
class ZoneReport:
    kind: str                  # "w1p" | "lp" | "sup"
    s: float
    tau_meas: float            # 0.0 when even the smallest band fails
    full_band: bool
    constant: float            # best constant used (L^p / sup kinds)
    tau_pred: float = None
    embedding_constant: float = None
    verdict: str = "measured"
    extra: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "kind": self.kind,
            "s": self.s,
            "tau_meas": self.tau_meas,
            "full_band": self.full_band,
            "constant": self.constant,
            "tau_pred": self.tau_pred,
            "embedding_constant": self.embedding_constant,
            "verdict": self.verdict,
            "extra": self.extra,
        }


def _positive_stations(mesh):
    st = mesh.stations
    tol = 1e-12 * max(1.0, float(st[-1] - st[0]))
    pos = st[st > tol]
    if pos.size == 0:
        raise ValueError("mesh has no positive axial stations")
    return pos


def _largest_true(stations, predicate):
    """Bisection for the largest station satisfying a monotone predicate.

    Returns (tau, full_band): tau = 0.0 when the predicate already fails
    at the smallest station, full_band when it holds at the largest.
    """
    lo, hi = 0, stations.size - 1
    if predicate(stations[hi]):
        return float(stations[hi]), True
    if not predicate(stations[lo]):
        return 0.0, False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(stations[mid]):
            lo = mid
        else:
            hi = mid
    return float(stations[lo]), False


def _slab_node_values(field_, tau):
    """Nodal values on the closed band, including the band-edge sections."""
    st = field_.mesh.stations
    tol = 1e-12 * max(1.0, float(st[-1]))
    # nodes are C-ordered with the axial index last
    return field_.values.reshape(-1, st.size)[:, np.abs(st) <= tau + tol]


def _require_layer(field_):
    if field_.mesh.domain.axial_kind != LAYER:
        raise ValueError("symmetric zones need layer mode")


def w1p_zone(field_, s, rate_profile=None, tau_outer=None):
    """Largest symmetric band with gradient energy below s."""
    _require_layer(field_)
    if s <= 0:
        raise ValueError("deviation s must be positive")
    stations = _positive_stations(field_.mesh)
    energies = {}

    def band_energy(t):
        energies[t] = energy(field_, -t, t)
        return energies[t]

    tau, full = _largest_true(stations, lambda t: band_energy(t) < s)
    report = ZoneReport(
        kind="w1p", s=s, tau_meas=tau, full_band=full, constant=0.0,
        verdict="full-band" if full else "measured",
        extra={"energy_at_zone": energies[tau] if tau > 0 else 0.0},
    )
    if rate_profile is not None and tau_outer is not None and not full:
        report = _attach_prediction(report, field_, rate_profile, tau_outer,
                                    bound_scale=1.0, threshold=s)
    return report


def lp_zone(field_, s, C5=None, rate_profile=None, tau_outer=None):
    """Largest symmetric band with min_C of the slab integral of |f-C|^p below s.

    The measured quantity is the p-th power of the L^p deviation; the
    decay-bound prediction (available when the embedding constant C5 is
    supplied) compares C5^p times the damped outer energy against s, and
    the report records the deviation read both as s and as s^p.
    """
    _require_layer(field_)
    if s <= 0:
        raise ValueError("deviation s must be positive")
    p = field_.op.p
    stations = _positive_stations(field_.mesh)
    consts = {}
    devs = {}

    def deviation(t):
        vals, w = field_.slab_values(-t, t)
        c = optimal_constant(vals, w, p)
        consts[t] = c
        devs[t] = float(np.sum(w * np.abs(vals - c) ** p))
        return devs[t]

    tau, full = _largest_true(stations, lambda t: deviation(t) < s)
    c_used = consts[tau] if tau > 0 else 0.0
    report = ZoneReport(
        kind="lp", s=s, tau_meas=tau, full_band=full, constant=c_used,
        embedding_constant=C5,
        verdict="full-band" if full else "measured",
        extra={
            "deviation_pth_power": devs[tau] if tau > 0 else 0.0,
            "deviation_readings": {"as_s": s, "as_s_pth_root": s ** (1.0 / p)},
        },
    )
    if C5 is not None and rate_profile is not None and tau_outer is not None and not full:
        report = _attach_prediction(report, field_, rate_profile, tau_outer,
                                    bound_scale=C5**p, threshold=s)
    return report


def sup_zone(field_, s, C6=None, rate_profile=None, tau_outer=None):
    """Largest symmetric band with max |f - C| below s, C the slab midrange.

    With C6 supplied, both the verbatim embedding-bound reading
    C6^p * (damped outer energy) and its p-th-root correction are
    evaluated; the two disagree dimensionally, so the prediction uses the
    corrected form and the report flags the discrepancy.
    """
    _require_layer(field_)
    if s <= 0:
        raise ValueError("deviation s must be positive")
    stations = _positive_stations(field_.mesh)
    consts = {}
    devs = {}

    def deviation(t):
        # sup norm over the closed band: the piecewise-multilinear maximum
        # sits at a node, so nodal values (not quadrature points) are exact
        vals = _slab_node_values(field_, t)
        c = 0.5 * (float(vals.max()) + float(vals.min()))
        consts[t] = c
        devs[t] = float(np.max(np.abs(vals - c)))
        return devs[t]

    tau, full = _largest_true(stations, lambda t: deviation(t) < s)
    c_used = consts[tau] if tau > 0 else 0.0
    report = ZoneReport(
        kind="sup", s=s, tau_meas=tau, full_band=full, constant=c_used,
        embedding_constant=C6,
        verdict="full-band" if full else "measured",
        extra={"deviation": devs[tau] if tau > 0 else 0.0},
    )
    if C6 is not None and rate_profile is not None and tau_outer is not None and not full:
        p = field_.op.p
        # corrected form: (C6^p E damp)^(1/p) < s, i.e. C6^p E damp < s^p
        report = _attach_prediction(report, field_, rate_profile, tau_outer,
                                    bound_scale=C6**p, threshold=s**p,
                                    verbatim_threshold=s)
    return report


def _attach_prediction(report, field_, rate_profile, tau_outer, bound_scale,
                       threshold, verbatim_threshold=None):
    op = field_.op
    e_outer = energy(field_, -tau_outer, tau_outer)
    extra = dict(report.extra)
    extra["outer_energy"] = e_outer
    try:
        tau_pred = predict_zone(e_outer * bound_scale, rate_profile, threshold,
                                tau_outer, nu1=op.nu1, nu2=op.nu2)
    except ValueError as exc:
        extra["prediction_note"] = str(exc)
        return ZoneReport(
            kind=report.kind, s=report.s, tau_meas=report.tau_meas,
            full_band=report.full_band, constant=report.constant,
            tau_pred=None, embedding_constant=report.embedding_constant,
            verdict="prediction-unavailable", extra=extra,
        )
    if verbatim_threshold is not None:
        # verbatim reading compares the un-rooted bound against s directly
        try:
            extra["tau_pred_verbatim"] = predict_zone(
                e_outer * bound_scale, rate_profile, verbatim_threshold,
                tau_outer, nu1=op.nu1, nu2=op.nu2)
        except ValueError as exc:
            extra["tau_pred_verbatim"] = None
            extra["prediction_note"] = str(exc)
        extra["forms_disagree"] = extra.get("tau_pred_verbatim") != tau_pred
    sound = tau_pred <= report.tau_meas + 1e-12
    return ZoneReport(
        kind=report.kind, s=report.s, tau_meas=report.tau_meas,
        full_band=report.full_band, constant=report.constant,
        tau_pred=tau_pred, embedding_constant=report.embedding_constant,
        verdict="prediction-sound" if sound else "prediction-overclaims",
        extra=extra,
    )


def predict_zone(e_outer, rate_profile, s, tau_outer, nu1=1.0, nu2=1.0):
    """Largest tau with e_outer * exp[-(nu1/nu2) int_tau^tau_outer q] < s.

    rate_profile is either a RateProfile, whose decay integrand is the
    frequency's p-th root, or a plain number taken verbatim as a constant
    rate q.  With a station-independent rate the closed form
    tau = tau_outer - (nu2/nu1) ln(e_outer/s) / q is returned exactly;
    otherwise the bound is scanned over the profile stations and the
    largest passing station (or 0.0) is returned.  Raises when
    e_outer <= s: the whole band is already a zone.
    """
    if s <= 0:
        raise ValueError("deviation s must be positive")
    if e_outer <= s:
        raise ValueError("already a zone: outer bound does not exceed s")
    if isinstance(rate_profile, (int, float)):
        q = float(rate_profile)
        if q <= 0:
            raise ValueError("nonpositive decay rate")
        return float(tau_outer - (nu2 / nu1) * math.log(e_outer / s) / q)
    rates = rate_profile.rates()
    const = float(np.max(rates) - np.min(rates)) <= 1e-10 * max(abs(float(np.max(rates))), 1e-300)
    if const:
        q = float(rates[0])
        if q <= 0:
            raise ValueError("nonpositive decay rate")
        return float(tau_outer - (nu2 / nu1) * math.log(e_outer / s) / q)
    st = np.asarray(rate_profile.stations, dtype=float)
    sel = st <= tau_outer + 1e-12
    st = st[sel]
    rs = rates[sel]
    for j in range(st.size - 1, -1, -1):
        integral = float(np.trapezoid(rs[j:], st[j:]))
        if e_outer * math.exp(-(nu1 / nu2) * integral) < s:
            return float(st[j])
    return 0.0
