"""Slab energies, energy profiles and energy-decay inequality checks.

The decay checks compare the inner slab energy (plus a section flux
constant) against the outer energy damped by
exp[-(nu1/nu2) * integral of the cross-section decay rate].  The rate is
lambda_{p,Z}^{1/p} for fields with a Dirichlet-zero lateral subset and
mu_p^{1/p} for all-Neumann laterals; trapezoid quadrature on the station
grid evaluates the integral (exact in layer mode, where section
frequencies are station-independent).

Reported verdicts always carry a discretization tolerance: the
inequalities are exact only in the continuum, so pass means margin >=
-tol_disc with tol_disc calibrated from a two-resolution run
(runner._calibrated_entries).  A check object alone is uncalibrated: its
passed is margin >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frequency import optimal_constant
from .geometry import DIRICHLET0, LAYER, NEUMANN
from .solver import flux_integral, section_quad_trace
from .structure import squared_norm


@dataclass(frozen=True)
class RateProfile:
    """Section frequencies at stations, with the decay-rate convention.

    values are raw frequencies (lambda or mu); the decay-rate integrand
    is values**(1/p) for either kind.
    """

    kind: str                  # "mu" | "lambda"
    p: float
    stations: np.ndarray
    values: np.ndarray

    def rates(self):
        return np.asarray(self.values, dtype=float) ** (1.0 / self.p)

    def _slice(self, a, b):
        st = np.asarray(self.stations, dtype=float)
        tol = 1e-9 * max(1.0, float(st[-1] - st[0]))
        ia = np.flatnonzero(np.abs(st - a) <= tol)
        ib = np.flatnonzero(np.abs(st - b) <= tol)
        if ia.size == 0 or ib.size == 0:
            raise ValueError(f"rate profile has no stations at [{a}, {b}]")
        return int(ia[0]), int(ib[0])

    def integral(self, a, b):
        """Trapezoid integral of the decay rate over [a, b] (profile stations)."""
        ia, ib = self._slice(a, b)
        if ib < ia:
            raise ValueError("need a <= b")
        if ib == ia:
            return 0.0
        st = self.stations[ia : ib + 1]
        return float(np.trapezoid(self.rates()[ia : ib + 1], st))


def rate_profile(kind, p, pairs):
    """Build a RateProfile from frequency_profile output (tau, result) pairs."""
    stations = np.asarray([tau for tau, _ in pairs], dtype=float)
    values = np.asarray([res.value for _, res in pairs], dtype=float)
    return RateProfile(kind=kind, p=p, stations=stations, values=values)


def constant_rate_profile(kind, p, stations, value):
    stations = np.asarray(stations, dtype=float)
    return RateProfile(kind=kind, p=p, stations=stations, values=np.full(stations.shape, value))


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    params: dict
    lhs: float
    rhs: float
    extra: dict = field(default_factory=dict)

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.margin >= 0.0

    def as_dict(self):
        return {
            "name": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol_disc": 0.0,  # uncalibrated: runner._calibrated_entries sets it
            "passed": bool(self.passed),
            "extra": self.extra,
        }


def energy(field_, t, tau):
    """Slab energy integral of |grad f|^p between grid-aligned t < tau."""
    mesh = field_.mesh
    rows = mesh.slab_rows(field_.energy_density, t, tau, snap_tol=mesh.snap_tolerance())
    return float(np.sum(rows))


def section_energy(field_, tau):
    """Section integral of |grad f|^p, averaging the two one-sided traces."""
    mesh = field_.mesh
    j, _ = mesh.station_index(tau, snap_tol=mesh.snap_tolerance())
    sides = []
    if j > 0:
        sides.append("below")
    if j < mesh.grid.shape[-1] - 1:
        sides.append("above")
    vals = []
    for side in sides:
        _, w, _, gr = field_.trace(j, side)
        vals.append(float(np.sum(w * squared_norm(gr) ** (0.5 * field_.op.p))))
    return float(np.mean(vals))


def section_flux_constants(field_, tau, side="auto"):
    """The flux constants C1 and C2 at a station, and the optimal constant.

    c1 uses |f - C| |A(x, grad p_k)| with C the optimal constant on the
    section; c2 is the f-weighted flux.
    """
    mesh = field_.mesh
    z, w, fvals, _ = section_quad_trace(field_, tau, side=side)
    a = field_.op.a(mesh.domain.pk_of_axial(z))
    c_opt = optimal_constant(fvals, w, field_.op.p)
    c1 = float(np.sum(w * np.abs(fvals - c_opt) * a))
    c2 = flux_integral(field_, tau, weight="f", side=side).value
    return {"C1": c1, "C2": c2, "C_opt": c_opt}


@dataclass(frozen=True)
class EnergyProfile:
    field: object
    t: float
    stations: np.ndarray
    inner_energy: np.ndarray          # I(t, tau_j)
    symmetric_energy: np.ndarray      # I(-tau_j, tau_j), layer mode (else empty)
    section_energies: np.ndarray
    dI_dtau: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    slope: float
    slope_rms: float
    slope_flagged: bool
    fit_window: tuple


def energy_profile(field_, t, stations, fit_window=None):
    """Sample slab energies, section energies and flux constants at stations.

    Also least-squares fits the slope of log I(-tau, tau) against tau over
    fit_window (layer mode); the fit is flagged when the residual shows
    the profile is not exponential.
    """
    stations = np.asarray(sorted(float(s) for s in stations))
    if stations.size < 1:
        raise ValueError("need at least one station")
    mesh = field_.mesh
    tol = mesh.snap_tolerance()
    layer = mesh.domain.axial_kind == LAYER
    inner, sym, sece, c1s, c2s = [], [], [], [], []
    for tau in stations:
        mesh.station_index(tau, snap_tol=tol)
        inner.append(energy(field_, t, tau) if tau > t else 0.0)
        if layer and tau > 0:
            sym.append(energy(field_, -tau, tau))
        elif layer:
            sym.append(0.0)
        sece.append(section_energy(field_, tau))
        cc = section_flux_constants(field_, tau)
        c1s.append(cc["C1"])
        c2s.append(cc["C2"])
    inner = np.asarray(inner)
    sym = np.asarray(sym) if layer else np.empty(0)
    # dI/dtau by mesh-spacing central differences (one-sided at the ends)
    h = mesh.spacings[-1]
    lo, hi = mesh.stations[0], mesh.stations[-1]
    dI = np.empty(stations.shape)
    for i, tau in enumerate(stations):
        a = max(tau - h, lo)
        b = min(tau + h, hi)
        dI[i] = energy(field_, a, b) / (b - a) if b > a else np.nan

    slope = math.nan
    rms = math.nan
    flagged = False
    if layer and fit_window is not None:
        if stations.size < 2:
            raise ValueError("slope fit needs at least two stations")
        lo, hi = fit_window
        sel = (stations >= lo - tol) & (stations <= hi + tol) & (sym > 0)
        if sel.sum() < 2:
            raise ValueError("slope fit window selects fewer than two stations")
        x = stations[sel]
        y = np.log(sym[sel])
        coef = np.polyfit(x, y, 1)
        slope = float(coef[0])
        resid = y - np.polyval(coef, x)
        rms = float(np.sqrt(np.mean(resid**2)))
        flagged = rms > 0.02
    return EnergyProfile(
        field=field_,
        t=float(t),
        stations=stations,
        inner_energy=inner,
        symmetric_energy=sym,
        section_energies=np.asarray(sece),
        dI_dtau=np.asarray(dI),
        c1=np.asarray(c1s),
        c2=np.asarray(c2s),
        slope=slope,
        slope_rms=rms,
        slope_flagged=flagged,
        fit_window=tuple(fit_window) if fit_window else (),
    )


def _require_lateral(field_, what):
    lat = field_.mesh.domain.lateral_bc
    if what == "neumann" and any(k != NEUMANN for k in lat):
        raise ValueError("check requires an all-Neumann lateral boundary")
    if what == "dirichlet" and not any(k == DIRICHLET0 for k in lat):
        raise ValueError("check requires a Dirichlet-zero lateral subset")


def svp_check_neumann(field_, mu_profile, t, tau1, tau2):
    """Decay check for the all-Neumann lateral family.

    lhs = I(t, tau1) + C1(t)/nu1, rhs = (I(t, tau2) + C1(t)/nu1) times the
    damping factor built from the mu-rate integral over [tau1, tau2];
    C1(t) recenters f on the inner section by its optimal constant.
    """
    _require_lateral(field_, "neumann")
    if not (t <= tau1 <= tau2):
        raise ValueError("need t <= tau1 <= tau2")
    op = field_.op
    cc = section_flux_constants(field_, t, side="above")
    c1 = cc["C1"]
    fac = math.exp(-(op.nu1 / op.nu2) * mu_profile.integral(tau1, tau2))
    lhs = (energy(field_, t, tau1) if tau1 > t else 0.0) + c1 / op.nu1
    rhs = ((energy(field_, t, tau2) if tau2 > t else 0.0) + c1 / op.nu1) * fac
    return InequalityCheck(
        name="decay-neumann",
        params={"t": t, "tau1": tau1, "tau2": tau2},
        lhs=lhs,
        rhs=rhs,
        extra={"C1": c1, "C_opt": cc["C_opt"], "factor": fac, "rate_kind": mu_profile.kind},
    )


def svp_check_dirichlet(field_, lambda_profile, t, tau1, tau2):
    """Decay check for the Dirichlet-zero lateral family (lambda rate, C2 flux)."""
    _require_lateral(field_, "dirichlet")
    if not (t <= tau1 <= tau2):
        raise ValueError("need t <= tau1 <= tau2")
    op = field_.op
    c2 = flux_integral(field_, t, weight="f", side="above").value
    fac = math.exp(-(op.nu1 / op.nu2) * lambda_profile.integral(tau1, tau2))
    lhs = (energy(field_, t, tau1) if tau1 > t else 0.0) + c2 / op.nu1
    rhs = ((energy(field_, t, tau2) if tau2 > t else 0.0) + c2 / op.nu1) * fac
    return InequalityCheck(
        name="decay-dirichlet",
        params={"t": t, "tau1": tau1, "tau2": tau2},
        lhs=lhs,
        rhs=rhs,
        extra={"C2": c2, "factor": fac, "rate_kind": lambda_profile.kind},
    )


def svp_symmetric_check(field_, profile, tau1, tau2):
    """Symmetric-band decay check I(-tau1, tau1) <= I(-tau2, tau2) max{factors}.

    profile carries the family's rate (mu for Neumann laterals, lambda for
    Dirichlet); both one-sided damping factors are reported.
    """
    mesh = field_.mesh
    if mesh.domain.axial_kind != LAYER:
        raise ValueError("symmetric check needs layer mode")
    if not (0 < tau1 <= tau2):
        raise ValueError("need 0 < tau1 <= tau2")
    op = field_.op
    fac_right = math.exp(-(op.nu1 / op.nu2) * profile.integral(tau1, tau2))
    fac_left = math.exp(-(op.nu1 / op.nu2) * profile.integral(-tau2, -tau1))
    lhs = energy(field_, -tau1, tau1)
    outer = energy(field_, -tau2, tau2)
    rhs = outer * max(fac_left, fac_right)
    return InequalityCheck(
        name=f"decay-symmetric-{profile.kind}",
        params={"tau1": tau1, "tau2": tau2},
        lhs=lhs,
        rhs=rhs,
        extra={
            "outer_energy": outer,
            "factor_left": fac_left,
            "factor_right": fac_right,
            "rate_kind": profile.kind,
        },
    )
