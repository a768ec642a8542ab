"""Cross-section frequencies by nonlinear Rayleigh-quotient minimization.

Three quotients on a section mesh O:

* first:  inf |grad u|_p^p / |u|_p^p over u vanishing on all of dO,
* third:  the same with u pinned only on a boundary subset P,
* second: inf over nonconstant u of |grad u|_p^p / min_C |u - C|_p^p.

The minimizer descends the quotient in a p = 2 stiffness metric with
Armijo backtracking, starting from the corresponding p = 2 eigenvector
(computed by deflated inverse iteration); for p = 2 that start is
already the discrete minimizer.  Seeded random restarts guard the
general-p runs against local minima.

``frequency_profile`` computes each distinct section of a mesh once and
keeps the results on the mesh: every layer section is the same section,
and a radial section is fixed by its radius.  The best constant
min_C |u - C|_p^p is the weighted mean at p = 2 and a one-dimensional
convex search otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import LAYER, TensorGrid
from .solver import SolverError
from .structure import guarded_power

FIRST = "first"
SECOND = "second"
THIRD = "third"


@dataclass(frozen=True)
class FrequencyResult:
    kind: str
    value: float
    minimizer: np.ndarray      # nodal, normalized to unit denominator
    optimal_c: float           # recentering constant (second kind), else 0
    dirichlet_ids: np.ndarray
    residual: float
    iterations: int
    degenerate: bool = False

    def as_row(self):
        return {
            "kind": self.kind,
            "value": self.value,
            "residual": self.residual,
            "iterations": self.iterations,
            "degenerate": self.degenerate,
        }


def optimal_constant(values, weights, p):
    """argmin over C of sum_i w_i |v_i - C|^p on the bracket [min v, max v].

    At p = 2 the minimizer is the weighted mean sum w v / sum w, clamped
    to the bracket against rounding.  Otherwise golden-section on the
    convex objective narrows the bracket; because
    comparison-based search stalls at sqrt(eps) on the flat quadratic
    bottom, the minimizer is then polished by bisection on the monotone
    derivative -p sum w |v - C|^(p-2) (v - C) down to 1e-13 of the value
    range.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    lo, hi = float(v.min()), float(v.max())
    if p == 2.0:
        return min(max(float(np.sum(w * v) / np.sum(w)), lo), hi)
    if hi - lo <= 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)):
        return 0.5 * (lo + hi)

    def obj(c):
        return float(np.sum(w * np.abs(v - c) ** p))

    def slope(c):
        d = v - c
        return -float(np.sum(w * guarded_power(np.abs(d), p - 2.0) * d))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = obj(x1), obj(x2)
    while b - a > 1e-2 * (hi - lo):
        width = b - a
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = obj(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = obj(x2)
        if b - a >= width:  # float spacing reached
            break
    # widen slightly so the sign change is inside, then bisect the slope
    pad = max(b - a, 1e-2 * (hi - lo))
    a = max(lo, a - pad)
    b = min(hi, b + pad)
    ga, gb = slope(a), slope(b)
    if ga > 0.0 or gb < 0.0:
        return 0.5 * (a + b)
    tol = 1e-13 * (hi - lo)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # float spacing reached
            break
        if slope(mid) <= 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


class _Quotient:
    """Discrete p-Rayleigh quotient on a section grid."""

    def __init__(self, grid: TensorGrid, p: float, recenter: bool):
        self.grid = grid
        self.p = p
        self.recenter = recenter
        self.w = grid.quad_weights

    def numerator(self, u):
        g = self.grid.grads_at_quads(u)
        s = np.sum(g**2, axis=-1)
        return float(np.sum(self.w * s ** (0.5 * self.p)))

    def center(self, u):
        if not self.recenter:
            return 0.0
        vq = self.grid.vals_at_quads(u)
        return optimal_constant(vq, self.w, self.p)

    def denominator(self, u, c):
        vq = self.grid.vals_at_quads(u)
        return float(np.sum(self.w * np.abs(vq - c) ** self.p))

    def value(self, u):
        c = self.center(u)
        den = self.denominator(u, c)
        if den == 0.0:
            return math.inf, c
        return self.numerator(u) / den, c

    def gradient(self, u, c, q):
        """Euclidean gradient of the quotient at u (denominator-normalized).

        Uses the envelope theorem for the recentered denominator: at the
        optimal constant the derivative through c vanishes.
        """
        p = self.p
        g = self.grid.grads_at_quads(u)
        fac = guarded_power(np.sum(g**2, axis=-1), 0.5 * (p - 2.0))
        gn = p * self.grid.assemble_gradient_form(fac[..., None] * g)
        vq = self.grid.vals_at_quads(u) - c
        gd = p * self.grid.assemble_scalar_form(guarded_power(np.abs(vq), p - 2.0) * vq)
        return gn - q * gd


def _factor(A):
    """Sparse LU; a singular section matrix is a numerical failure, not bad input."""
    try:
        return spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"singular section system: {exc}") from exc


def _p2_eigenpair(grid, K, M, pinned, neumann, tol=1e-14, max_iter=400):
    """Smallest nontrivial p = 2 eigenpair by deflated inverse iteration.

    Dirichlet case: smallest eigenvalue of the pinned pencil (K, M).
    Neumann case: smallest nonzero eigenvalue, deflating constants in the
    M-inner product each sweep; the factorization uses a small mass shift
    to keep the singular stiffness SPD.  K and M are the section's
    stiffness and mass matrices.
    """
    n = grid.n_nodes
    free = np.ones(n, dtype=bool)
    free[pinned] = False
    Kff = K[free][:, free].tocsc()
    Mff = M[free][:, free].tocsr()
    if neumann:
        shift = 1e-6 * float(Kff.diagonal().max())
        lu = _factor((Kff + shift * Mff).tocsc())
    else:
        lu = _factor(Kff)
    rng = np.random.default_rng(12345)
    if neumann:
        # coordinate ramp: nonzero overlap with the lowest nonconstant mode
        x = np.sum(grid.nodes, axis=-1)[free]
    else:
        x = np.ones(int(free.sum()))
    if neumann:
        ones = np.ones_like(x)
        m_ones = Mff @ ones
        denom = float(ones @ m_ones)

        def deflate(v):
            return v - (float(m_ones @ v) / denom) * ones

        x = deflate(x)
    nrm = math.sqrt(float(x @ (Mff @ x)))
    if nrm == 0.0:
        x = rng.normal(size=x.size)
        if neumann:
            x = deflate(x)
        nrm = math.sqrt(float(x @ (Mff @ x)))
    x /= nrm
    lam = float(x @ (Kff @ x))
    for _ in range(max_iter):
        y = lu.solve(Mff @ x)
        if neumann:
            y = deflate(y)
        nrm = math.sqrt(float(y @ (Mff @ y)))
        if nrm == 0.0:
            break
        y /= nrm
        lam_new = float(y @ (Kff @ y)) / float(y @ (Mff @ y))
        x = y
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    out = np.zeros(n)
    out[free] = x
    return lam, out


def _descent(grid, K, M, p, pinned, u0, recenter, seed, restarts, tol=1e-12, max_iter=2000):
    """Preconditioned projected descent on the quotient with Armijo steps."""
    quot = _Quotient(grid, p, recenter)
    n = grid.n_nodes
    free = np.ones(n, dtype=bool)
    free[pinned] = False
    if recenter:
        P = (K + M).tocsc()
        lu = _factor(P)
        solve_p = lu.solve
    else:
        Kff = K[free][:, free].tocsc()
        lu = _factor(Kff)

        def solve_p(gf):
            return lu.solve(gf)

    def normalize(u):
        if recenter:
            # subtracting the optimal constant makes the new center exactly 0
            # (translation invariance), and scaling preserves it
            u = u - quot.center(u)
            c = 0.0
        else:
            c = 0.0
            u = u.copy()
            u[pinned] = 0.0
        den = quot.denominator(u, c)
        if den <= 0.0:
            return u, c, den
        return u / den ** (1.0 / p), c, 1.0

    def run(u):
        u = u.copy()
        u[pinned] = 0.0
        u, c, den = normalize(u)
        if den <= 0.0:
            return math.inf, u, c, math.inf, 0
        q = quot.numerator(u) / den
        g = quot.gradient(u, c, q)
        iters = 0
        for _ in range(max_iter):
            gf = g[free]
            if recenter:
                full = np.zeros(n)
                full[free] = gf
                d = -solve_p(full)
                d[pinned] = 0.0
            else:
                d = np.zeros(n)
                d[free] = -solve_p(gf)
            slope = float(g @ d)
            if slope >= 0.0:
                break
            step = 1.0
            accepted = False
            for _ in range(60):
                u_try, c_try, den_try = normalize(u + step * d)
                if den_try > 0.0:
                    q_try = quot.numerator(u_try) / den_try
                    if q_try <= q + 1e-4 * step * slope:
                        accepted = True
                        break
                step *= 0.5
            if not accepted:
                break
            decrease = (q - q_try) / max(abs(q), 1e-300)
            u, c, q = u_try, c_try, q_try
            iters += 1
            g = quot.gradient(u, c, q)
            if decrease < tol:
                break
        scale = max(p * abs(q), 1e-300)
        residual = float(np.max(np.abs(g[free]))) / scale if free.any() else 0.0
        return q, u, c, residual, iters

    best = run(u0)
    if p != 2.0 and restarts > 0:
        rng = np.random.default_rng(seed)
        amp = 0.1 * float(np.max(np.abs(u0)) or 1.0)
        for _ in range(restarts):
            cand = run(u0 + rng.normal(scale=amp, size=n))
            if cand[0] < best[0]:
                best = cand
    return best


def _pinned_result(section, p, pinned, kind, seed, restarts, tol, max_iter):
    grid = section.grid
    K, M = grid.stiffness(), grid.mass()
    _, u0 = _p2_eigenpair(grid, K, M, pinned, neumann=False)
    if np.sum(u0) < 0:  # positive first eigenvector
        u0 = -u0
    q, u, _, res, iters = _descent(
        grid, K, M, p, pinned, u0, recenter=False,
        seed=seed, restarts=restarts, tol=tol, max_iter=max_iter,
    )
    return FrequencyResult(
        kind=kind, value=q, minimizer=u, optimal_c=0.0,
        dirichlet_ids=np.asarray(pinned), residual=res, iterations=iters,
    )


def first_frequency(section, p, seed=0, restarts=3, tol=1e-12, max_iter=2000):
    """First frequency: quotient with u pinned on the whole section boundary."""
    if p <= 1.0:
        raise ValueError("p must be > 1")
    pinned = section.grid.all_boundary_ids()
    if pinned.size == 0:
        raise ValueError("section has no boundary to pin")
    if pinned.size >= section.grid.n_nodes:
        raise ValueError("section has empty interior")
    return _pinned_result(section, p, pinned, FIRST, seed, restarts, tol, max_iter)


def third_frequency(section, p, pinned=None, seed=0, restarts=3, tol=1e-12, max_iter=2000):
    """Third frequency: quotient with u pinned only on the subset P.

    P defaults to the section's Dirichlet-zero trace set.  An empty P is
    degenerate (constants are admissible) and returns value 0 flagged.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    pinned = section.dirichlet_ids if pinned is None else np.asarray(pinned)
    if pinned.size == 0:
        u = np.full(section.grid.n_nodes, 1.0)
        den = _Quotient(section.grid, p, recenter=False).denominator(u, 0.0)
        return FrequencyResult(
            kind=THIRD, value=0.0, minimizer=u / den ** (1.0 / p),
            optimal_c=0.0, dirichlet_ids=pinned, residual=0.0,
            iterations=0, degenerate=True,
        )
    return _pinned_result(section, p, pinned, THIRD, seed, restarts, tol, max_iter)


def second_frequency(section, p, seed=0, restarts=3, tol=1e-12, max_iter=2000):
    """Second frequency: quotient over nonconstant u with the recentered
    denominator min_C sum w |u - C|^p (tensor sections are connected)."""
    if p <= 1.0:
        raise ValueError("p must be > 1")
    grid = section.grid
    K, M = grid.stiffness(), grid.mass()
    unpinned = np.empty(0, dtype=np.int64)
    _, u0 = _p2_eigenpair(grid, K, M, unpinned, neumann=True)
    q, u, c, res, iters = _descent(
        grid, K, M, p, unpinned, u0, recenter=True,
        seed=seed, restarts=restarts, tol=tol, max_iter=max_iter,
    )
    return FrequencyResult(
        kind=SECOND, value=q, minimizer=u, optimal_c=c,
        dirichlet_ids=unpinned, residual=res, iterations=iters,
    )


def compute_frequency(section, p, kind, pinned=None, seed=0, restarts=3):
    if kind == FIRST:
        return first_frequency(section, p, seed=seed, restarts=restarts)
    if kind == SECOND:
        return second_frequency(section, p, seed=seed, restarts=restarts)
    if kind == THIRD:
        return third_frequency(section, p, pinned=pinned, seed=seed, restarts=restarts)
    raise ValueError(f"unknown frequency kind {kind!r}")


def frequency_profile(mesh, p, kind, stations, seed=0, restarts=3):
    """Frequency of the requested kind on the section at each station.

    Returns a list of (tau, FrequencyResult), tau the snapped station.
    Each distinct section is computed once per mesh and the result is
    kept in ``mesh.frequency_memo``: layer sections are identical, so a
    layer profile is constant and costs one computation; radial sections
    vary with the station radius and are keyed on it.
    """
    out = []
    tol = mesh.snap_tolerance()
    memo = mesh.frequency_memo
    layer = mesh.domain.axial_kind == LAYER
    for tau in stations:
        j, _ = mesh.station_index(tau, snap_tol=tol)
        tau_snapped = float(mesh.stations[j])
        key = (kind, p, seed, restarts, None if layer else tau_snapped)
        if key not in memo:
            sec = mesh.cross_section(tau_snapped)
            memo[key] = compute_frequency(sec, p, kind, seed=seed, restarts=restarts)
        out.append((tau_snapped, memo[key]))
    return out


def rayleigh_quotient(section, p, u, recenter=False):
    """Recompute the quotient of a nodal field (diagnostic helper)."""
    quot = _Quotient(section.grid, p, recenter)
    q, _ = quot.value(np.asarray(u, dtype=float))
    return q
