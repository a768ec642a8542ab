"""Cross-section frequencies: minima of nonlinear Rayleigh quotients.

Three quotients on a section mesh O:

* first:  inf |grad u|_p^p / |u|_p^p over u vanishing on all of dO,
* third:  the same with u pinned only on the Dirichlet-zero faces P,
* second: inf over nonconstant u of |grad u|_p^p / min_C |u - C|_p^p.

Each kind starts from its p = 2 eigenvector (deflated inverse iteration;
at p = 2 it is the discrete minimizer) and runs inverse power iteration
for -Delta_p (Biezuner, Ercole & Martins, J. Funct. Anal. 257, 2009;
Hein & Buehler, NeurIPS 2010): with u centered (its best constant C
subtracted) and at unit denominator, and q its quotient, a step solves
-Delta_p v = |u|^(p-2) u by the solver's outer loop (solver._minimize)
from u q^(-1/(p-1)), where it leaves an eigenfunction, and normalizes v.
That loop regularizes by SECTION_EPS at unit denominator, so the
residual is max_i |<(|grad u|^2 + SECTION_EPS^2)^((p-2)/2) grad u, grad
phi_i> - q <|u|^(p-2) u, phi_i>| / q over the free nodes: the
unregularized flux is only Hoelder-(p-1) where grad u vanishes (at p =
1.2 a gradient of 1e-12 on a flat crest gives a flux of 4e-3).  The
iteration stops at residual TOL; still above it after MAX_ITER steps in
all, it raises SolverError.  The first and third kinds run the one start:
their minimum is simple with a positive minimizer, and every positive
critical point is the global minimum (hidden convexity).  The iteration
keeps its start's symmetries, so away from p = 2 the second kind can stop
at a saddle, where its Hessian has a negative eigenvalue
(_smallest_curvature); it then steps along the eigenvector and iterates
again, while the value falls (More & Sorensen, Math. Prog. 16, 1979).  A
frequency depends only on the section, p and the kind.  Section
matrices leave the grid's stencil arrays only through the solver's
free-box path (_free_box, _box_stencil, _dia): pinned nodes are whole
faces, periodic axes wrap.

``frequency_profile`` computes each distinct section once per memo that
its caller owns, keyed on what the section is built from
(Mesh.section_key), so meshes with equal sections share the results:
every layer section of a base and h is the same section, and a radial
section is fixed by its radius and the axial spacing.  When every
lateral face is dirichlet0, THIRD pins FIRST's nodes, and the two kinds
share one result.  The best constant min_C |u - C|_p^p is the weighted
mean at p = 2 and otherwise the root of its monotone slope, found by
bracketed regula falsi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .geometry import DIRICHLET0, TensorGrid
from .solver import (SolverError, _box_stencil, _dia, _free_box, _FreeSystem, _minimize,
                     _VCycle, factor_spd)
from .structure import guarded_power, squared_norm

FIRST = "first"
SECOND = "second"
THIRD = "third"
SECTION_SYSTEM = "section system"
MAX_ITER = 500      # inverse-iteration steps per frequency
TOL = 1e-9          # the iteration stops at this residual
SECTION_EPS = 1e-7  # gradient regularization at unit denominator


@dataclass(frozen=True)
class FrequencyResult:
    kind: str
    value: float
    minimizer: np.ndarray      # nodal, normalized to unit denominator
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
    to the bracket against rounding.  Otherwise it is the root of the
    slope s(C) = -sum w |v - C|^(p-2) (v - C), which is nondecreasing,
    <= 0 at min v and >= 0 at max v.  Regula falsi with the Illinois
    modification (Dowell & Jarratt 1971) narrows [min v, max v] around
    the sign change, bisecting when a step would leave the bracket,
    down to 1e-13 of the value range or to float spacing.
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

    def slope(c):
        d = v - c
        return -float(np.sum(w * guarded_power(np.abs(d), p - 2.0) * d))

    a, b = lo, hi
    sa, sb = slope(a), slope(b)
    side = 0  # which end the last step moved: -1 a, +1 b
    tol = 1e-13 * (hi - lo)
    while b - a > tol:
        c = (a * sb - b * sa) / (sb - sa)
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:  # float spacing reached
                break
        sc = slope(c)
        if sc == 0.0:
            return c
        if sc < 0.0:
            a, sa = c, sc
            if side < 0:  # a moved twice: halve the kept end's slope
                sb *= 0.5
            side = -1
        else:
            b, sb = c, sc
            if side > 0:
                sa *= 0.5
            side = 1
    return 0.5 * (a + b)


class _Quotient:
    """Discrete p-Rayleigh quotient on a section grid."""

    def __init__(self, grid: TensorGrid, p: float, recenter: bool):
        self.grid = grid
        self.p = p
        self.recenter = recenter
        self.w = grid.quad_weights

    def numerator(self, u):
        s = squared_norm(self.grid.grads_at_quads(u))
        return float(np.sum(self.w * s ** (0.5 * self.p)))

    def center(self, u):
        if not self.recenter:
            return 0.0
        vq = self.grid.vals_at_quads(u)
        return optimal_constant(vq, self.w, self.p)

    def denominator(self, u, c):
        vq = self.grid.vals_at_quads(u)
        return float(np.sum(self.w * np.abs(vq - c) ** self.p))

    def normalize(self, u):
        """u minus its best constant (recentering) and scaled to unit
        denominator; subtracting the constant makes the new one exactly 0
        (translation invariance), and scaling preserves it."""
        u = u - self.center(u)
        den = self.denominator(u, 0.0)
        if not den > 0.0:
            raise SolverError("section iterate has no denominator")
        return u / den ** (1.0 / self.p)

    def forms(self, u):
        """The numerator q of a centered u and the nodal forms <c grad u,
        grad phi_i>, c = (|grad u|^2 + SECTION_EPS^2)^((p-2)/2), and
        <|u|^(p-2) u, phi_i> (the regularized numerator's and the
        denominator's gradients over p), from one corner gather.  The flux
        c grad u is tested against the basis, rather than K(c) u formed: at
        p < 2, c reaches SECTION_EPS^(p-2) where grad u vanishes, and K(c) u
        would cancel terms of size c |u| / h there (on a 129-node interval
        at p = 1.2, to a residual floor of 3e-9 to 8e-9, above TOL)."""
        p, grid = self.p, self.grid
        ue = grid.corner_values(u)
        g = np.einsum("em,qdm->eqd", ue, grid.basis_grads)
        s = squared_norm(g)
        q = float(np.sum(self.w * s ** (0.5 * p)))
        flux = ((s + SECTION_EPS**2) ** (0.5 * (p - 2.0)))[..., None] * g
        vq = np.einsum("em,qm->eq", ue, grid.basis_vals)
        density = guarded_power(np.abs(vq), p - 2.0) * vq
        return (q,
                grid.corner_sums(np.einsum("eq,eqd,qdm->em", self.w, flux, grid.basis_grads)),
                grid.corner_sums(np.einsum("eq,eq,qm->em", self.w, density, grid.basis_vals)))


def _p2_eigenpair(grid, Kff, Mff, box, neumann):
    """Smallest nontrivial p = 2 eigenpair by deflated inverse iteration.

    Dirichlet case: smallest eigenvalue of the pencil (Kff, Mff), the
    section's stiffness and mass on the free box, as DIA blocks.
    Neumann case: smallest nonzero eigenvalue, deflating constants in the
    M-inner product each sweep; the factorization uses a small mass shift
    to keep the singular stiffness SPD.  Returns the eigenvalue and the
    nodal eigenvector.
    """
    A = Kff + 1e-6 * float(Kff.diagonal().max()) * Mff if neumann else Kff
    lu = factor_spd(A.tocsc(), SECTION_SYSTEM)
    if neumann:
        # coordinate ramp: nonzero overlap with the lowest nonconstant mode,
        # and nonconstant, since every axis has two increasing nodes
        x = np.sum(grid.nodes, axis=-1).reshape(grid.shape)[box].ravel()
        ones = np.ones_like(x)
        m_ones = Mff @ ones
        denom = float(ones @ m_ones)

        def deflate(v):
            return v - (float(m_ones @ v) / denom) * ones

        x = deflate(x)
    else:
        x = np.ones(Kff.shape[0])
    x /= math.sqrt(float(x @ (Mff @ x)))
    lam = float(x @ (Kff @ x))
    for _ in range(400):
        y = lu.solve(Mff @ x)
        if neumann:
            y = deflate(y)
        nrm = math.sqrt(float(y @ (Mff @ y)))
        if nrm == 0.0:
            break
        y /= nrm
        lam_new = float(y @ (Kff @ y)) / float(y @ (Mff @ y))
        x = y
        if abs(lam_new - lam) <= 1e-14 * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    out = np.zeros(grid.shape)
    out[box] = x.reshape(out[box].shape)
    return lam, out.ravel()


def _inverse_iteration(system, quot, u, steps):
    """Inverse power iteration for -Delta_p (see the module docstring) from
    the start u, until the residual is at most TOL or for `steps` steps.
    Returns (value, minimizer, residual, iterations)."""
    p = quot.p
    a_q = np.ones_like(quot.w)

    def state(u):
        q, flux, load = quot.forms(u)
        return q, load, float(np.max(np.abs(system._free(flux - q * load)))) / q

    u = quot.normalize(u)
    q, load, residual = state(u)
    iterations = 0
    while residual > TOL and iterations < steps:
        scale = q ** (-1.0 / (p - 1.0))
        v = _minimize(system, a_q, p, scale * u, scale * SECTION_EPS, load=load)[0]
        u = quot.normalize(v)
        q, load, residual = state(u)
        iterations += 1
    return q, u, residual, iterations


def _low_modes(grid):
    """Start block of _smallest_curvature: the products of each axis's modes
    1, cos(pi t) and cos(2 pi t), t = x / length (1, cos and sin of 2 pi t
    on a periodic axis, t = x / circumference), leaving out the constant,
    so that every reflection class of the section has a column."""
    modes = []
    for x, h, periodic in zip(grid.axes, grid.spacing, grid.periodic):
        t = math.pi * (x - x[0]) / (0.5 * x.size * h if periodic else x[-1] - x[0])
        modes.append((np.ones_like(t), np.cos(t), np.sin(t) if periodic else np.cos(2.0 * t)))
    return np.column_stack([reduce(np.multiply.outer, [m[j] for m, j in zip(modes, digits)]).ravel()
                            for digits in product(range(3), repeat=grid.dim) if any(digits)])


def _smallest_curvature(system, quot, mass, u, q):
    """Smallest eigenpair (lam, v) of the second kind's Hessian H = K(c) +
    (p-2) R - q (p-1) (W - W1 (W1)^T / 1.W1) at its critical point u of
    value q: c = s^((p-2)/2) and s = |grad u|^2 + SECTION_EPS^2 as in the
    iteration, R the solver's Newton term, W the mass matrix of weight
    |u|^(p-2), and the rank-one term the best constant C following u.  The
    quotient is invariant under scaling and constants (H u = H 1 = 0), so
    lam is the smallest eigenvalue of (H, mass) on the mass-orthogonal
    complement of Y = {u, 1}.  lobpcg runs on P^T H P, P the projection
    onto it, from _low_modes, preconditioned by the V-cycle of K(c) + (p-2)
    R + q (p-1) W, to residual sqrt(TOL) q; a pair it returns above that
    residual raises SolverError, and a section too small for its block is
    solved dense.  The second kind's box is the whole grid, so v is
    nodal."""
    grid, p, box = system.grid, quot.p, system.box
    g = grid.grads_at_quads(u)
    s = squared_norm(g) + SECTION_EPS**2
    c = s ** (0.5 * (p - 2.0))
    A = grid.stiffness_stencil(coeff=c)
    A += (p - 2.0) * grid.directional_stencil(g * np.sqrt(c / s)[..., None])
    W = grid.mass_stencil(coeff=guarded_power(np.abs(grid.vals_at_quads(u)), p - 2.0))
    W *= q * (p - 1.0)
    w1 = W.reshape(W.shape[0], -1).sum(axis=0)
    Hc = _dia(_box_stencil(A - W, box, grid.periodic), grid.periodic)  # H with C held fixed

    def H(x):
        return Hc @ x + np.multiply.outer(w1, w1 @ x) / w1.sum()

    Y = np.column_stack((u, np.ones_like(u)))
    MY = mass @ Y
    X = _low_modes(grid)
    if u.size - 2 < 5 * X.shape[1]:  # lobpcg's own bound for its block
        Z = scipy.linalg.null_space(MY.T)
        lam, V = scipy.linalg.eigh(Z.T @ H(Z), Z.T @ (mass @ Z))
        if not lam.size:  # u and 1 span a section of two nodes
            return math.inf, None
        return lam[0], Z @ V[:, 0]

    def projected(x):
        y = H(x - Y @ np.linalg.solve(Y.T @ MY, MY.T @ x))
        return y - MY @ np.linalg.solve(Y.T @ MY, Y.T @ y)

    cycle = _VCycle(_box_stencil(A + W, box, grid.periodic), system.hierarchy, grid.periodic)
    tol = math.sqrt(TOL) * q
    with warnings.catch_warnings():  # columns above the smallest may stop short of tol
        warnings.filterwarnings("ignore", "Exited", UserWarning)
        lam, V = spla.lobpcg(
            spla.LinearOperator(Hc.shape, matvec=projected, matmat=projected, dtype=float), X,
            B=mass, M=spla.LinearOperator(Hc.shape, matvec=cycle, dtype=float), Y=Y,
            tol=tol, largest=False)
    lam, v = lam.min(), V[:, lam.argmin()]
    residual = np.linalg.norm(projected(v) - lam * (mass @ v)) / math.sqrt(v @ (mass @ v))
    if not residual <= tol:
        raise SolverError(f"smallest section curvature did not converge (residual "
                          f"{residual:.3e} against {tol:.3e})")
    return lam, v


def _escape(system, quot, mass, u, q):
    """u + t v, v the eigenvector of _smallest_curvature at unit denominator
    and t the first of 1, 1/2, ... 2^-30 whose quotient is below q; None if
    the curvature is at least -sqrt(TOL) q or no such t exists."""
    lam, v = _smallest_curvature(system, quot, mass, u, q)
    if lam < -math.sqrt(TOL) * q:
        v = v / quot.denominator(v, 0.0) ** (1.0 / quot.p)
        for t in 0.5 ** np.arange(31):
            w = u + t * v
            if quot.numerator(w) < q * quot.denominator(w, quot.center(w)):
                return w
    return None


def compute_frequency(section, p, kind):
    """Frequency of the given kind (FIRST, SECOND or THIRD) on a section.

    The first and third kinds pin u on the whole section boundary and on
    the section's Dirichlet-zero trace set P.  An empty P is degenerate
    for the third kind (constants are admissible) and returns value 0
    flagged; a pinned set that holds every node leaves no admissible u
    and raises ValueError.  The second kind takes nonconstant u with the
    recentered denominator min_C sum w |u - C|^p (tensor sections are
    connected).  A frequency whose residual is still above TOL after
    MAX_ITER steps raises SolverError.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    grid = section.grid
    if kind == FIRST:
        pinned = grid.all_boundary_ids()
        if pinned.size == 0:
            raise ValueError("section has no boundary to pin")
    elif kind == THIRD:
        pinned = section.dirichlet_ids
        if pinned.size == 0:
            u = _Quotient(grid, p, recenter=False).normalize(np.ones(grid.n_nodes))
            return FrequencyResult(kind=THIRD, value=0.0, minimizer=u, dirichlet_ids=pinned,
                                   residual=0.0, iterations=0, degenerate=True)
    elif kind == SECOND:
        pinned = np.empty(0, dtype=np.int64)
    else:
        raise ValueError(f"unknown frequency kind {kind!r}")
    recenter = kind == SECOND
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[pinned] = True
    box = _free_box(grid, mask)
    if box is None:
        raise ValueError("section has empty interior")
    Kff = _dia(_box_stencil(grid.stiffness_stencil(), box, grid.periodic), grid.periodic)
    Mff = _dia(_box_stencil(grid.mass_stencil(), box, grid.periodic), grid.periodic)
    _, u0 = _p2_eigenpair(grid, Kff, Mff, box, neumann=recenter)
    if not recenter and np.sum(u0) < 0:  # positive first eigenvector
        u0 = -u0
    system = _FreeSystem(grid, mask, np.zeros(grid.n_nodes))
    quot = _Quotient(grid, p, recenter)
    q, u, res, iters = _inverse_iteration(system, quot, u0, MAX_ITER)
    while recenter and p != 2.0 and res <= TOL:  # restart below a saddle
        start = _escape(system, quot, Mff, u, q)
        if start is None:
            break
        cand = _inverse_iteration(system, quot, start, MAX_ITER - iters)
        iters += cand[3]
        if not cand[0] < q:
            break
        q, u, res = cand[:3]
    if not res <= TOL:
        raise SolverError(f"{kind} section frequency did not converge in {iters} "
                          f"iterations (residual {res:.3e})")
    return FrequencyResult(kind=kind, value=q, minimizer=u, dirichlet_ids=pinned,
                           residual=res, iterations=iters)


def frequency_profile(mesh, p, kind, stations, memo):
    """Frequency of the requested kind on the section at each station.

    Returns a list of (tau, FrequencyResult), tau the snapped station.
    memo is a dict that the caller owns and keeps for as long as results
    may be shared, one resolution pass of a run: each result is kept
    under (quotient, p, mesh.section_key(j)), and equal keys mean
    identical sections, on any mesh.  The quotient is the kind, except
    that THIRD is kept under FIRST when every lateral face is dirichlet0:
    it then pins exactly FIRST's nodes, so whichever of the two kinds is
    asked first is computed, and the other reads its result with the
    kind relabelled.  A layer profile is thus constant and costs one
    computation; radial sections vary with the station radius.
    """
    quotient = kind
    if kind == THIRD and all(bc == DIRICHLET0 for bc in mesh.domain.lateral_bc):
        quotient = FIRST
    out = []
    tol = mesh.snap_tolerance()
    for tau in stations:
        j, _ = mesh.station_index(tau, snap_tol=tol)
        tau_snapped = float(mesh.stations[j])
        key = (quotient, p, mesh.section_key(j))
        if key not in memo:
            memo[key] = compute_frequency(mesh.cross_section(tau_snapped), p, kind)
        res = memo[key]
        out.append((tau_snapped, res if res.kind == kind else replace(res, kind=kind)))
    return out


def rayleigh_quotient(section, p, u, recenter=False):
    """Recompute the quotient of a nodal field (diagnostic helper)."""
    quot = _Quotient(section.grid, p, recenter)
    u = np.asarray(u, dtype=float)
    den = quot.denominator(u, quot.center(u))
    return quot.numerator(u) / den if den else math.inf
