"""Cutoff-function energy bounds and growth-alternative trend verdicts.

The inner gradient energy of a solution is bounded by
C7 * max{A_left, A_right} with C7 = 2 p^p (nu2/nu1)^p, where each A is
[ integral of m(tau)^(1/(1-p)) d tau ]^(1-p) over a one-sided axial
window and m(tau) is the section mass integral of |f - C|^p.  The
optimal cutoff realizing A has slope proportional to -m^(1/(1-p)).

Growth-alternative verdicts treat the unbounded-domain statements as
trends over increasing truncations: families of solves with matched
windows, a least-squares fit of log(bound) against the window position,
and a verdict of "forces triviality" only when the bound decays.  The
measured inner energy trend is always reported alongside as
corroboration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .energetics import energy, rate_profile
from .frequency import SECOND, THIRD, frequency_profile, optimal_constant
from .geometry import LAYER, build_mesh
from .solver import SolverError, section_quad_trace, solve

STAR_NEUMANN = "starI"
STAR_DIRICHLET_SUBSET = "starII"
STAR_DIRICHLET_FULL = "starDirichlet"
ONE_SIDED_NEUMANN = "eq7.12"
ONE_SIDED_DIRICHLET = "eq10.39"
PL_FORMS = (
    STAR_NEUMANN,
    STAR_DIRICHLET_SUBSET,
    STAR_DIRICHLET_FULL,
    ONE_SIDED_NEUMANN,
    ONE_SIDED_DIRICHLET,
)


def bound_constant(op):
    """C7 = 2 p^p (nu2/nu1)^p."""
    return 2.0 * op.p**op.p * (op.nu2 / op.nu1) ** op.p


@dataclass(frozen=True)
class SectionMassProfile:
    stations: np.ndarray
    values: np.ndarray
    constant: float
    p: float


def section_mass(field_, C, stations):
    """Section integrals of |f - C|^p at grid-aligned stations.

    Deviations below the rounding level of the nodal data are treated as
    exact zeros, so constant fields degenerate cleanly.
    """
    scale = max(abs(C), float(np.max(np.abs(field_.values))), 1e-300)
    floor = 16.0 * np.finfo(float).eps * scale
    vals = []
    for tau in stations:
        _, w, fvals, _ = section_quad_trace(field_, tau)
        dev = np.abs(fvals - C)
        dev[dev <= floor] = 0.0
        vals.append(float(np.sum(w * dev**field_.op.p)))
    return SectionMassProfile(
        stations=np.asarray([float(t) for t in stations]),
        values=np.asarray(vals),
        constant=float(C),
        p=field_.op.p,
    )


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-D array with a finite maximum, by the
    formula of scipy.special.logsumexp (scipy >= 1.15), to the bit: the
    largest entries are taken out of the sum of exp(a - max), and log1p
    adds them back."""
    a_max = np.max(a)
    top = a == a_max
    count = np.count_nonzero(top)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max)) / count
    return float(np.log1p(s) + np.log(count) + a_max)


@dataclass(frozen=True)
class CutoffResult:
    value: float               # A = [int m^(1/(1-p))]^(1-p), 0 when degenerate
    stations: np.ndarray
    psi: np.ndarray            # realizing cutoff, psi(tau1) = 1, psi(tau2) = 0
    degenerate: bool


def _mass_slice(mass, tau1, tau2):
    st = mass.stations
    tol = 1e-9 * max(1.0, float(abs(st[-1] - st[0])))
    i1 = np.flatnonzero(np.abs(st - tau1) <= tol)
    i2 = np.flatnonzero(np.abs(st - tau2) <= tol)
    if i1.size == 0 or i2.size == 0:
        raise ValueError("window endpoints must be mass-profile stations")
    i1, i2 = int(i1[0]), int(i2[0])
    if i2 <= i1:
        raise ValueError("need tau1 < tau2 with stations in between")
    return st[i1 : i2 + 1], mass.values[i1 : i2 + 1]


def optimal_cutoff(mass, tau1, tau2, p):
    """Window bound A and the cutoff realizing it.

    A = [trapezoid of m^(1/(1-p))]^(1-p), evaluated in log space so
    exponents 1/(1-p) far from -1 cannot overflow; psi decreases from 1
    to 0 with slope proportional to -m^(1/(1-p)).  A vanishing mass at a
    station degenerates the bound to 0 (flagged).
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    st, m = _mass_slice(mass, tau1, tau2)
    n = st.size
    if np.any(m <= 0.0):
        psi = np.linspace(1.0, 0.0, n)
        return CutoffResult(0.0, st, psi, True)

    expo = 1.0 / (1.0 - p)
    logm = np.log(m)
    # trapezoid weights on the station grid
    w = np.empty(n)
    w[0] = 0.5 * (st[1] - st[0])
    w[-1] = 0.5 * (st[-1] - st[-2])
    if n > 2:
        w[1:-1] = 0.5 * (st[2:] - st[:-2])
    log_integral = _logsumexp(expo * logm + np.log(w))
    value = math.exp((1.0 - p) * log_integral)

    dens = np.exp(expo * logm - np.max(expo * logm))  # scaled m^(1/(1-p))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(st))])
    psi = 1.0 - cum / cum[-1]
    psi[-1] = 0.0
    return CutoffResult(value, st, psi, False)


@dataclass(frozen=True)
class CutoffBoundResult:
    tau1: float
    tau2: float
    a_left: float
    a_right: float
    c7: float
    lhs: float
    rhs: float
    degenerate: bool

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.margin >= 0.0

    def as_dict(self):
        return {
            "name": "cutoff-bound",
            "params": {"tau1": self.tau1, "tau2": self.tau2},
            "A_left": self.a_left,
            "A_right": self.a_right,
            "C7": self.c7,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol_disc": 0.0,  # uncalibrated: runner._calibrated_entries sets it
            "passed": bool(self.passed),
            "degenerate": self.degenerate,
        }


def cutoff_bound(field_, C, tau1, tau2):
    """Inner-energy bound I(-tau1, tau1) <= C7 max{A_left, A_right}.

    A_left / A_right come from optimal_cutoff over [-tau2, -tau1] and
    [tau1, tau2]; for the Dirichlet-zero family take C = 0.  Constant
    fields with C equal to their value degenerate to 0 <= 0 (flagged
    pass).
    """
    if not (0 < tau1 < tau2):
        raise ValueError("need 0 < tau1 < tau2")
    mesh = field_.mesh
    if mesh.domain.axial_kind != LAYER:
        raise ValueError("two-sided cutoff bound needs layer mode")
    st = mesh.stations
    tol = mesh.snap_tolerance()
    right = st[(st >= tau1 - tol) & (st <= tau2 + tol)]
    left = st[(st >= -tau2 - tol) & (st <= -tau1 + tol)]
    mass_r = section_mass(field_, C, right)
    mass_l = section_mass(field_, C, left)
    p = field_.op.p
    cut_r = optimal_cutoff(mass_r, right[0], right[-1], p)
    cut_l = optimal_cutoff(mass_l, left[0], left[-1], p)
    c7 = bound_constant(field_.op)
    lhs = energy(field_, -tau1, tau1)
    rhs = c7 * max(cut_l.value, cut_r.value)
    return CutoffBoundResult(
        tau1=tau1, tau2=tau2,
        a_left=cut_l.value, a_right=cut_r.value,
        c7=c7, lhs=lhs, rhs=rhs,
        degenerate=cut_l.degenerate and cut_r.degenerate,
    )


@dataclass(frozen=True)
class TruncationRow:
    truncation: float
    tau1: float
    tau2: float
    inner_energy: float
    bracket: float
    damping: float
    rhs: float
    constant: float


@dataclass(frozen=True)
class PLReport:
    form: str
    rows: tuple
    slope: float
    verdict: str
    inner_trend: tuple

    def as_dict(self):
        return {
            "form": self.form,
            "rows": [r.__dict__ for r in self.rows],
            "slope": self.slope,
            "verdict": self.verdict,
            "inner_trend": list(self.inner_trend),
        }


FORCES_TRIVIALITY = "bound -> 0: forces triviality (f = const / f = 0)"
NO_CONCLUSION = "bound not decaying: no conclusion"


def _window_stations(mesh, lo, hi):
    st = mesh.stations
    tol = mesh.snap_tolerance()
    sel = st[(st >= lo - tol) & (st <= hi + tol)]
    if sel.size < 2:
        raise ValueError(f"window [{lo}, {hi}] has fewer than two stations")
    return sel


def pl_check(domain, op, bc, truncations, form, h, memo, tau_inner=1.0, window=1.0):
    """Growth-alternative trend over a family of increasing truncations.

    Layer forms solve on centered bands of half-width T for each
    truncation T, evaluate the selected bound with unit-length (window)
    outer brackets at tau2 = T - window, and fit the slope of log(rhs)
    against tau2.  Radial forms grow the outer radius instead and use the
    one-sided window [T - window, T].  Section frequencies come from
    frequency_profile through memo, so a section that recurs, on another
    truncation mesh or on the caller's meshes, is computed once: every
    layer truncation mesh has the same section (same base, same h).  The
    verdict reports only the bound trend; the measured inner energy is
    attached as corroboration.
    """
    if form not in PL_FORMS:
        raise ValueError(f"unknown growth-bound form {form!r}")
    if len(truncations) < 3:
        raise ValueError("need at least three truncation lengths")
    truncs = sorted(float(t) for t in truncations)
    if any(b <= a for a, b in zip(truncs, truncs[1:])):
        raise ValueError("truncation lengths must be strictly increasing")
    layer_form = form in (STAR_NEUMANN, STAR_DIRICHLET_SUBSET, STAR_DIRICHLET_FULL)
    rows = []
    for T in truncs:
        if layer_form:
            dom_t = replace(domain, alpha=domain.alpha, beta=domain.alpha + 2.0 * T)
        else:
            dom_t = replace(domain, beta=T)
        mesh = build_mesh(dom_t, h)
        field_ = solve(dom_t, mesh, op, bc)
        if not field_.diagnostics.converged:
            raise SolverError(f"solver did not converge at truncation {T}")
        rows.append(_evaluate_truncation(field_, form, tau_inner, window, memo))
    tau2s = np.asarray([r.tau2 for r in rows])
    rhss = np.asarray([r.rhs for r in rows])
    inner = tuple(float(r.inner_energy) for r in rows)
    if np.any(rhss <= 0.0):
        slope = -math.inf
        decaying = True
    else:
        slope = float(np.polyfit(tau2s, np.log(rhss), 1)[0])
        decaying = slope <= -0.05 and rhss[-1] < rhss[0]
    verdict = FORCES_TRIVIALITY if decaying else NO_CONCLUSION
    return PLReport(form=form, rows=tuple(rows), slope=slope, verdict=verdict,
                    inner_trend=inner)


def _evaluate_truncation(field_, form, tau_inner, window, memo):
    """One truncation's row; memo is frequency_profile's."""
    mesh = field_.mesh
    op = field_.op
    p = op.p
    layer_form = form in (STAR_NEUMANN, STAR_DIRICHLET_SUBSET, STAR_DIRICHLET_FULL)
    if layer_form:
        T = mesh.stations[-1]
        tau2 = T - window
        if tau2 < tau_inner - 1e-12:
            raise ValueError("truncation too short for the requested windows")
        right = _window_stations(mesh, tau2, tau2 + window)
        left = _window_stations(mesh, -tau2 - window, -tau2)
        if form == STAR_NEUMANN:
            vals_r, w_r = field_.slab_values(right[0], right[-1])
            vals_l, w_l = field_.slab_values(left[0], left[-1])
            c = optimal_constant(np.concatenate([vals_l, vals_r]),
                                 np.concatenate([w_l, w_r]), p)
        else:
            c = 0.0
        a_r = optimal_cutoff(section_mass(field_, c, right), right[0], right[-1], p)
        a_l = optimal_cutoff(section_mass(field_, c, left), left[0], left[-1], p)
        bracket = bound_constant(op) * max(a_l.value, a_r.value)
        if form == STAR_DIRICHLET_SUBSET:
            if tau2 - tau_inner < 1e-12:
                damping = 1.0
            else:
                stations = _window_stations(mesh, tau_inner, tau2)
                prof = rate_profile("lambda", p, frequency_profile(mesh, p, THIRD, stations, memo))
                damping = math.exp(-(op.nu1 / op.nu2) * prof.integral(stations[0], stations[-1]))
        else:
            kind = SECOND if form == STAR_NEUMANN else THIRD
            freq = frequency_profile(mesh, p, kind, right[:1], memo)[0][1]
            rate = freq.value ** (1.0 / p)
            damping = math.exp(-(op.nu1 / op.nu2) * rate * (tau2 - tau_inner))
        inner_energy = energy(field_, -tau_inner, tau_inner)
    else:
        T = mesh.stations[-1]
        tau2 = T
        tau1 = T - window
        if tau1 < tau_inner - 1e-12:
            raise ValueError("truncation too short for the requested windows")
        win = _window_stations(mesh, tau1, tau2)
        if form == ONE_SIDED_NEUMANN:
            c = optimal_constant(*field_.slab_values(win[0], win[-1]), p)
            kind = SECOND
        else:
            c = 0.0
            kind = THIRD
        a = optimal_cutoff(section_mass(field_, c, win), win[0], win[-1], p)
        bracket = 0.5 * bound_constant(op) * a.value   # C8 = C7 / 2, one-sided
        stations = _window_stations(mesh, tau_inner, tau1)
        prof = rate_profile("mu" if kind == SECOND else "lambda", p,
                            frequency_profile(mesh, p, kind, stations, memo))
        damping = math.exp(-(op.nu1 / op.nu2) * prof.integral(stations[0], stations[-1]))
        inner_energy = energy(field_, mesh.stations[0], tau_inner)
        c = float(c)
    return TruncationRow(
        truncation=float(T), tau1=float(tau_inner), tau2=float(tau2),
        inner_energy=float(inner_energy), bracket=float(bracket),
        damping=float(damping), rhs=float(bracket * damping), constant=float(c),
    )
