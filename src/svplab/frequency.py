"""Cross-section frequencies: minima of nonlinear Rayleigh quotients.

Three quotients on a section mesh O:

* first:  inf |grad u|_p^p / |u|_p^p over u vanishing on all of dO,
* third:  the same with u pinned only on the Dirichlet-zero faces P,
* second: inf over nonconstant u of |grad u|_p^p / min_C |u - C|_p^p.

Each kind starts from its p = 2 eigenvector (in closed form, _p2_start;
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
frequency depends only on the section, p and the kind.  A kind pins
whole faces, one (low, high) pair of flags per section axis (the third
kind's are SectionDescriptor.pinned), so its free nodes are a box, and
section matrices leave the grid's stencil arrays only through the
solver's free-box path (_free_box, _box_stencil, _dia); periodic axes
wrap.

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
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product

import numpy as np
import scipy.linalg

from .geometry import DIRICHLET0, TensorGrid
from .solver import SolverError, _box_stencil, _dia, _FreeSystem, _minimize, _VCycle
from .structure import guarded_power

FIRST = "first"
SECOND = "second"
THIRD = "third"
MAX_ITER = 500      # inverse-iteration steps per frequency
TOL = 1e-9          # the iteration stops at this residual
SECTION_EPS = 1e-7  # gradient regularization at unit denominator
CURVATURE_MAXITER = 40  # LOBPCG iterations of the second kind's curvature test
BASIS_DROP = 1e-10  # Gram eigenvalues below this, relative, leave the LOBPCG basis


@dataclass(frozen=True)
class FrequencyResult:
    kind: str
    value: float
    minimizer: np.ndarray      # nodal, normalized to unit denominator
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

    def center(self, vq):
        """The best constant of the quadrature values vq; 0 unless recentered."""
        return optimal_constant(vq, self.w, self.p) if self.recenter else 0.0

    def denominator(self, vq, c):
        return float(np.sum(self.w * np.abs(vq - c) ** self.p))

    def numerator(self, s):
        return float(np.sum(self.w * s ** (0.5 * self.p)))

    def parts(self, u):
        """The numerator and the (recentered) denominator of u's quotient,
        from one pass of the kernel."""
        vq, _, s = self.grid.quad_terms(u, vals=True, square_plus=0.0)
        return self.numerator(s), self.denominator(vq, self.center(vq))

    def normalize(self, v):
        """(u, terms): v minus its best constant (recentering) and scaled to
        unit denominator, and u's values, gradients and |grad u|^2 at the
        quadrature points.  The values are v's, from one kernel pass over v
        (which the constant and the denominator read), shifted and scaled
        as u is; the gradients come from a kernel pass over u itself, so
        that their rounding is that of the nodal u the next step starts
        from (scaled from v's, they stalled the 128-cell interval's second
        kind at p = 1.2 at residual 4e-9).  The kernel's cost is per output,
        so the two passes together cost about one pass for all three.
        Subtracting the constant makes the new one exactly 0 (translation
        invariance), and scaling preserves it."""
        vq = self.grid.vals_at_quads(v)
        c = self.center(vq)
        vq = vq - c
        den = self.denominator(vq, 0.0)
        if not den > 0.0:
            raise SolverError("section iterate has no denominator")
        r = den ** (1.0 / self.p)
        u = (v - c) / r
        _, g, s = self.grid.quad_terms(u, grads=True, square_plus=0.0)
        return u, (vq / r, g, s)

    def forms(self, terms):
        """The numerator q of a centered u and the nodal forms <c grad u,
        grad phi_i>, c = (|grad u|^2 + SECTION_EPS^2)^((p-2)/2), and
        <|u|^(p-2) u, phi_i> (the regularized numerator's and the
        denominator's gradients over p), from u's terms (see normalize).  The
        flux c grad u is tested against the basis, rather than K(c) u
        formed: at p < 2, c reaches SECTION_EPS^(p-2) where grad u
        vanishes, and K(c) u would cancel terms of size c |u| / h there (on
        a 129-node interval at p = 1.2, to a residual floor of 3e-9 to
        8e-9, above TOL)."""
        p, grid = self.p, self.grid
        vq, g, s = terms
        q = self.numerator(s)
        flux = ((s + SECTION_EPS**2) ** (0.5 * (p - 2.0)))[..., None] * g
        density = guarded_power(np.abs(vq), p - 2.0) * vq
        return (q,
                grid.corner_sums(np.einsum("eq,eqd,qdm->em", self.w, flux, grid.basis_grads)),
                grid.corner_sums(np.einsum("eq,eq,qm->em", self.w, density, grid.basis_vals)))


def _inverse_iteration(system, quot, u, steps):
    """Inverse power iteration for -Delta_p (see the module docstring) from
    the start u, until the residual is at most TOL or for `steps` steps.
    Returns (value, minimizer, residual, iterations)."""
    p = quot.p
    a_q = np.ones_like(quot.w)

    def state(terms):
        q, flux, load = quot.forms(terms)
        return q, load, float(np.max(np.abs(system._free(flux - q * load)))) / q

    u, terms = quot.normalize(u)
    q, load, residual = state(terms)
    iterations = 0
    while residual > TOL and iterations < steps:
        scale = q ** (-1.0 / (p - 1.0))
        v = _minimize(system, a_q, p, scale * u, scale * SECTION_EPS, load=load)[0]
        u, terms = quot.normalize(v)
        q, load, residual = state(terms)
        iterations += 1
    return q, u, residual, iterations


def _axis_modes(grid):
    """Per axis of a section grid, its angle t = pi x / length (2 pi x /
    circumference on a periodic axis, x from the first node) and its lowest
    modes with no pinned end: 1, cos t and cos 2t (1, cos t and sin t on a
    periodic axis).  Nodal sines and cosines are exact eigenvectors of the
    1-D Q1 stiffness and 2-point Gauss mass on a uniform axis."""
    out = []
    for x, h, periodic in zip(grid.axes, grid.spacing, grid.periodic):
        t = math.pi * (x - x[0]) / (0.5 * x.size * h if periodic else x[-1] - x[0])
        out.append((t, (np.ones_like(t), np.cos(t), np.sin(t) if periodic else np.cos(2.0 * t))))
    return out


def _p2_start(grid, box, neumann):
    """The p = 2 eigenvector that each kind starts from, nodal and zero off
    the free box: a section's pencil (a = 1) is the Kronecker sum of its
    axes' (_axis_modes), so products of axis modes are its eigenvectors.

    First and third kinds: sin t on an axis pinned at both ends, sin(t/2)
    or cos(t/2) on one pinned at its low or high end only, 1 on one with no
    pinned end.  Second kind (neumann): cos t (and sin t if periodic) on the
    axis of smallest lambda = 6 (1 - cos theta) / (h^2 (2 + cos theta)),
    theta its angle step, 1 on the others.  Modes within TOL of the
    smallest lambda, relative, are tied (a periodic axis's pair, equal
    axes), and the start is the mass-projection onto them of the coordinate
    ramp, where inverse iteration from the ramp converges."""
    axes = _axis_modes(grid)
    if neumann:
        lam = [6.0 * (1.0 - m[1][1]) / (h * h * (2.0 + m[1][1]))
               for (_, m), h in zip(axes, grid.spacing)]
        tied = [reduce(np.multiply.outer, [m[j if a == ax else 0] for a, (_, m) in enumerate(axes)])
                for ax, periodic in enumerate(grid.periodic) for j in ((1, 2) if periodic else (1,))
                if lam[ax] <= min(lam) * (1.0 + TOL)]
        ramp = np.sum(grid.nodes, axis=-1)

        def inner(u, v):  # the mass inner product, by the quadrature that builds M
            return float(np.sum(grid.quad_weights * grid.vals_at_quads(u) * grid.vals_at_quads(v)))

        return sum(inner(v, ramp) / inner(v, v) * v.ravel() for v in tied)
    factors = []
    for (t, m), b, n in zip(axes, box, grid.shape):
        low, high = b.start > 0, b.stop < n  # the axis's pinned ends
        factors.append(np.sin(t) if low and high else np.sin(0.5 * t) if low else
                       np.cos(0.5 * t) if high else m[0])
    out = np.zeros(grid.shape)
    out[box] = reduce(np.multiply.outer, factors)[box]
    return out.ravel()


def _low_modes(grid):
    """Start block of _smallest_curvature: the products of each axis's modes
    (_axis_modes), leaving out the constant, so that every reflection class
    of the section has a column."""
    modes = [m for _, m in _axis_modes(grid)]
    return np.column_stack([reduce(np.multiply.outer, [m[j] for m, j in zip(modes, digits)]).ravel()
                            for digits in product(range(3), repeat=grid.dim) if any(digits)])


def _smallest_pair(H, mass, precondition, Y, X, tol):
    """Smallest eigenpair (lam, v) of the pencil (H, mass) on the
    mass-orthogonal complement of the columns of Y, by block LOBPCG
    (Knyazev, SIAM J. Sci. Comput. 23, 2001) from the block X, until the
    pair's residual |P^T H v - lam mass v| / |v|_mass is at most tol, P the
    projection onto the complement; still above it after
    CURVATURE_MAXITER iterations, it raises SolverError.

    Each Rayleigh-Ritz step runs on a mass-orthonormal basis of the span of
    the iterates, the preconditioned residuals and the previous updates,
    all projected onto the complement.  The basis comes from the
    eigendecomposition of their Gram matrix, columns scaled to unit mass
    norm, with the directions whose eigenvalue is below BASIS_DROP times
    the largest left out (basis selection: Hetmaniuk & Lehoucq, J. Comput.
    Phys. 218, 2006; Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput. 40,
    2018).  A block whose columns fall linearly dependent, as a near-exact
    preconditioner makes them, thus loses those directions instead of
    breaking the orthonormalization, where scipy's lobpcg stopped with a
    failed Cholesky factorization.
    """
    MY = mass @ Y
    G = Y.T @ MY

    def project(Z):  # onto the mass-orthogonal complement of Y
        return Z - Y @ np.linalg.solve(G, MY.T @ Z)

    k = X.shape[1]
    X, W, P = project(X), None, None
    for _ in range(CURVATURE_MAXITER):
        S = np.column_stack([B for B in (X, W, P) if B is not None])
        MS = mass @ S
        d = np.sqrt(np.einsum("ij,ij->j", S, MS))
        d[d == 0.0] = 1.0  # a zero column leaves with its zero eigenvalue
        e, Q = scipy.linalg.eigh(S.T @ MS / np.outer(d, d))
        keep = e > BASIS_DROP * e[-1]
        basis = Q[:, keep] / np.sqrt(e[keep]) / d[:, None]  # S @ basis is mass-orthonormal
        V = project(S @ basis)
        HV = H(V)
        lam, C = scipy.linalg.eigh(0.5 * (V.T @ HV + HV.T @ V))
        coef = basis @ C[:, :k]
        X_new = V @ C[:, :k]
        R = HV @ C[:, :k]
        R -= MY @ np.linalg.solve(G, Y.T @ R)  # P^T H X_new
        R -= (mass @ X_new) * lam[:k]
        residual = np.linalg.norm(R[:, 0]) / math.sqrt(X_new[:, 0] @ (mass @ X_new[:, 0]))
        if residual <= tol:
            return lam[0], X_new[:, 0]
        W = project(np.column_stack([precondition(r) for r in R.T]))
        P = S[:, k:] @ coef[k:] if S.shape[1] > k else None  # the update beyond X
        X = X_new
    raise SolverError(f"smallest section curvature did not converge (residual "
                      f"{residual:.3e} against {tol:.3e})")


def _smallest_curvature(system, quot, u, q):
    """Smallest eigenpair (lam, v) of the second kind's Hessian H = K(c) +
    (p-2) R - q (p-1) (W - W1 (W1)^T / 1.W1) at its critical point u of
    value q: c = s^((p-2)/2) and s = |grad u|^2 + SECTION_EPS^2 as in the
    iteration, R the solver's Newton term, W the mass matrix of weight
    |u|^(p-2), and the rank-one term the best constant C following u.  The
    quotient is invariant under scaling and constants (H u = H 1 = 0), so
    lam is the smallest eigenvalue of (H, M), M the section's mass matrix,
    on the M-orthogonal complement of Y = {u, 1}: _smallest_pair, from
    _low_modes, preconditioned by the V-cycle of K(c) + (p-2) R + q (p-1)
    W, to residual sqrt(TOL) q.  The second kind's box is the whole grid, so v is
    nodal."""
    grid, p, box = system.grid, quot.p, system.box
    if u.size <= 2:  # u and 1 span a section of two nodes
        return math.inf, None
    vq, g, s = grid.quad_terms(u, vals=True, grads=True, square_plus=SECTION_EPS**2)
    c = s ** (0.5 * (p - 2.0))
    A = grid.stiffness_stencil(coeff=c)
    A += (p - 2.0) * grid.directional_stencil(g * np.sqrt(c / s)[..., None])
    W = grid.mass_stencil(coeff=guarded_power(np.abs(vq), p - 2.0))
    W *= q * (p - 1.0)
    mass = _dia(_box_stencil(grid.mass_stencil(), box, grid.periodic), grid.periodic)
    w1 = W.reshape(W.shape[0], -1).sum(axis=0)
    Hc = _dia(_box_stencil(A - W, box, grid.periodic), grid.periodic)  # H with C held fixed

    def H(x):
        return Hc @ x + np.multiply.outer(w1, w1 @ x) / w1.sum()

    cycle = _VCycle(_box_stencil(A + W, box, grid.periodic), system.hierarchy, grid.periodic)
    return _smallest_pair(H, mass, cycle, np.column_stack((u, np.ones_like(u))),
                          _low_modes(grid), math.sqrt(TOL) * q)


def _escape(system, quot, u, q):
    """u + t v, v the eigenvector of _smallest_curvature at unit denominator
    and t the first of 1, 1/2, ... 2^-30 whose quotient is below q; None if
    the curvature is at least -sqrt(TOL) q or no such t exists."""
    lam, v = _smallest_curvature(system, quot, u, q)
    if lam < -math.sqrt(TOL) * q:
        v = v / quot.denominator(quot.grid.vals_at_quads(v), 0.0) ** (1.0 / quot.p)
        for t in 0.5 ** np.arange(31):
            w = u + t * v
            num, den = quot.parts(w)
            if num < q * den:
                return w
    return None


def compute_frequency(section, p, kind):
    """Frequency of the given kind (FIRST, SECOND or THIRD) on a section.

    The first kind pins u on both faces of every non-periodic section
    axis, and the third on the faces flagged in section.pinned, the
    Dirichlet-zero trace set P.  An empty P is degenerate for the third
    kind (constants are admissible) and returns value 0 flagged; pinned
    faces that hold every node leave no admissible u and raise
    ValueError.  The second kind takes nonconstant u with the
    recentered denominator min_C sum w |u - C|^p (tensor sections are
    connected).  A frequency whose residual is still above TOL after
    MAX_ITER steps raises SolverError.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    grid = section.grid
    if kind == FIRST:
        if all(grid.periodic):
            raise ValueError("section has no boundary to pin")
        pinned = tuple((not per, not per) for per in grid.periodic)
    elif kind == THIRD:
        pinned = section.pinned
        if not any(map(any, pinned)):
            u = _Quotient(grid, p, recenter=False).normalize(np.ones(grid.n_nodes))[0]
            return FrequencyResult(kind=THIRD, value=0.0, minimizer=u, residual=0.0,
                                   iterations=0, degenerate=True)
    elif kind == SECOND:
        pinned = ((False, False),) * grid.dim
    else:
        raise ValueError(f"unknown frequency kind {kind!r}")
    recenter = kind == SECOND
    system = _FreeSystem(grid, pinned, np.zeros(grid.n_nodes))
    if system.box is None:
        raise ValueError("section has empty interior")
    quot = _Quotient(grid, p, recenter)
    q, u, res, iters = _inverse_iteration(system, quot, _p2_start(grid, system.box, recenter),
                                          MAX_ITER)
    while recenter and p != 2.0 and res <= TOL:  # restart below a saddle
        start = _escape(system, quot, u, q)
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
    return FrequencyResult(kind=kind, value=q, minimizer=u, residual=res, iterations=iters)


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
    num, den = _Quotient(section.grid, p, recenter).parts(np.asarray(u, dtype=float))
    return num / den if den else math.inf
