"""Discrete p-energy minimization on canonical meshes.

The solver minimizes sum_q w a(x) |grad f|^p / p over nodal fields
matching Dirichlet cap data, with lateral faces either natural (Neumann)
or pinned to zero.  It starts from the solve with the coefficient a(x)
alone (exact for p = 2), the cold solve; each outer step then solves one
symmetric positive-definite system built from c = a(x) s^((p-2)/2), s =
|grad f|^2 + eps^2, at the current iterate:

* p <= 2: the Kacanov (lagged-coefficient) matrix K(c), which majorizes
  the Hessian of the regularized energy, so the step lowers the energy;
* p > 2: the Hessian K(c) + (p-2) R of the regularized energy, with
  R = sum_q w (c/s) (grad f . grad phi_i)(grad f . grad phi_j), so the
  step is a Newton step.  Kacanov stalls here, because K(c) alone
  underestimates the curvature.

Each step is posed as its correction d from the iterate f, the textbook
inexact-Newton form (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996;
Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM,
1995): H d = -grad E(f) on the free nodes and d = 0 on the pinned ones,
H the step's matrix.  Its right-hand side is one stencil product, r = b
- K(c) f (b a nodal load, see below), taken before (p-2) R joins K(c).
The step then searches along f + theta d: theta starts at 1 and halves
until the energy rises by no more than rounding (ENERGY_ROUNDING,
relative).  A step that still raises it at theta = 2^-30, or gives a
non-finite energy, is rejected, and the loop stops unconverged at the
previous iterate.  It has converged once the relative energy decrease of
a step falls below TOL_ENERGY.  Each iterate's terms come from one pass of the grid's
sum-factorized kernel (TensorGrid.quad_terms): s, and grad f only at p >
2, as only a Newton step reads it.  Each iterate takes one fractional
power, t = s^((p-2)/2) (none at p = 2): the coefficient c = a t gives
the energy, sum_q w c s / p, and the next step's matrix, so an accepted
iterate's terms build that step.  This loop (_minimize) is the one nonlinear
kernel: section frequencies run it with a nodal load b, the energy then
less b . f; solve runs it with b = 0.  A system that pins no node (a
second-kind section) has a singular step matrix H, so each of its steps
solves (H + delta M) d = r, delta = PROXIMAL_REL max diag H, M the mass
matrix: a proximal step, whose term delta M d vanishes with d at the
fixed point.

The cold solve is direct, by separation of variables (_separable_solve).
A canonical domain is a cross-section times an axis, and a(x) and the
radial weight 2 pi r depend on the axial coordinate alone, so the cold
system's matrix is a Kronecker sum of 1-D Q1 stiffness and mass matrices
(_line_stencils), and its free block the Kronecker sum of their free
blocks.  The generalized eigenbases of the base axes' pairs turn it into
one tridiagonal axial system per base mode, and all of them are solved
as one banded system (fast diagonalization: Lynch, Rice & Thomas, Numer.
Math. 6, 1964; Deville, Fischer & Mund, High-Order Methods for
Incompressible Fluid Flow, 2002, sec. 4.5).  It builds no grid stencil,
multigrid hierarchy or CG, and a factorization that fails raises
SolverError.

A layer problem that is mirror-symmetric about t = 0 is solved on its
upper half layer (_half_layer): the mesh is in layer mode (no measure
factor), its axial cell count is even, the two cap planes carry the same
values and a(x) at the quadrature points equals its axial mirror, all bit
for bit.  Its minimizer is then even in t, so it is the half layer's
minimizer, with the cap end pinned and the centre plane natural, mirrored
(Bossavit, SIAM J. Appl. Math. 53, 1993).  solve runs the cold solve and
the outer loop, unchanged, on the half grid, whose spacing is the full
grid's to the bit, and one concatenation mirrors the half field into the
whole one.  The diagnostics then read mirrored: energy is twice the half
layer's, and the outer and CG counts are the half solve's.  Every other
input (radial meshes, unequal caps, an a(x) that is not even about the
centre, an odd axial cell count) is solved on the whole mesh.

Every outer step's system (K(c), with R added to it for p > 2) is
assembled as a grid stencil array, which holds each node's matrix entry
at each neighbour offset in {-1, 0, 1}^dim (TensorGrid.stiffness_stencil).  Cap
data and Dirichlet-zero laterals are whole faces, named by one (low,
high) pair of pinned flags per axis (dirichlet_data), so the free nodes
are the box that the flags cut from the grid, and the free-node block is
the stencil restricted to that box, with the entries that leave the box
masked, as a DIA matrix (_free_box, _box_stencil, _dia).  That is the
one way a matrix leaves a stencil array: section frequencies gather
their blocks through it too, and on their periodic axes, which the box
spans, the block wraps.  A solve holds one grid-sized stencil at a time:
_FreeSystem.restrict takes the step's right-hand side on the box and
writes the box block over the stencil's own buffer, plane by plane through
one box-sized scratch plane (_box_stencil consumes its argument), so the
box block lives in the step stencil's buffer and _FreeSystem.solve
works on it alone.  solve, _step and the section frequencies pass
temporaries, and the outer loop keeps no reference to the iterate's
gradient terms once the step's box system is formed, so they die before
the V-cycle is built.  Every such system with free nodes is solved by
conjugate gradients preconditioned by a symmetric geometric-multigrid
V-cycle (Briggs, Henson & McCormick, A Multigrid Tutorial, 2000).  Its
hierarchy is fixed once per solve from the box: per axis, linear interpolation coarsens by
2 where the cell count is even and is the identity elsewhere and on
periodic axes, restricted to the box ranges (a coarse node is free when
its fine twin is); the prolongation is the Kronecker product of the
axes, and coarsening stops at MG_COARSEST unknowns or fewer.  Each outer step
forms the Galerkin operators P^T A P by stencil arithmetic: linear
interpolation keeps a tensor-grid stencil a 3^dim stencil, so each
coarsened axis takes 13 slice adds (Trottenberg, Oosterlee & Schueller,
Multigrid, 2001, ch. 3).  The passes are cache-blocked (Douglas, Hu,
Kowarschik, Ruede & Weiss, ETNA 10, 2000): blocks of coarse rows of the
first coarsened axis run through every axis pass, so no intermediate
level is formed whole.  Every level that the V-cycle smooths, the finest
included, is a DIA matrix over its box; the finest one holds exactly the
entries of the free-node block, in ascending offset order.  The V-cycle
smooths with damped Jacobi and solves the coarsest level by LAPACK's
banded Cholesky factor (_BandPlan), scattered straight from its column
stencil, so the package has no sparse factorization.  Its node order is
planned once per box: the axes longest first, so the longest varies
slowest, and each periodic axis folded as 0, n - 1, 1, n - 2, ... and
ranked at half its length, which keeps the half-bandwidth at most about
twice the product of the faster axes' sizes (George & Liu, Computer
Solution of Large Sparse Positive Definite Systems, 1981).  On a grid of
at most MG_COARSEST free nodes the hierarchy is empty, the V-cycle is
that factor's solve, and CG takes one iteration.  CG runs
from d = 0 on the correction, whose right-hand side r is minus the
free-node gradient of the regularized energy at the iterate, and stops
once r is cut by CG_FORCING (the inexact-Newton forcing term): about 2
iterations per step.  A Kacanov step stays a descent step, since CG from
d = 0 lowers the quadratic majorant monotonically; a Newton step keeps
the energy line search.  The method used is reported as linear_solver:
'separable' for p = 2, which runs no CG, 'cg-mg' for p != 2, or 'none'
without free nodes, and the CG iterations of each outer step as
linear_iterations, which a p = 2 solve leaves empty.  A CG iterate that
is not finite raises SolverError at that iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import product

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import ASSEMBLY_CHUNK_BYTES, Mesh, TensorGrid, _box_pieces, _read_only
from .structure import guarded_power, squared_norm

EPS_REG_REL = 1e-8        # gradient regularization, relative to the cap-data scale
TOL_ENERGY = 1e-10        # stop once the relative energy decrease falls below this
ENERGY_ROUNDING = 1e-14   # a relative energy rise below this is rounding, not a rise
MAX_OUTER = 200
CG_FORCING = 1e-2         # CG stops once the step's right-hand side is cut by this factor
CG_MAXITER_PER_UNKNOWN = 40
MG_JACOBI_WEIGHT = 0.6    # damped-Jacobi smoothing weight of the V-cycle
MG_SWEEPS = 2             # smoothing sweeps before and after each coarse correction
MG_COARSEST = 1000        # coarsen until at most this many unknowns, then factor
PROXIMAL_REL = 1e-8       # proximal weight of an unpinned system, relative to max diag H


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoundarySpec:
    """Cap Dirichlet data plus the lateral-face condition kinds.

    g_low / g_high map mesh-point arrays of shape (N, dim) to values; the
    mesh coordinates are the cross-section axes followed by the axial
    coordinate (centered band coordinate in layer mode, radius in radial
    mode).  lateral must match the domain's lateral partition.  Where a
    Dirichlet-zero lateral face meets a cap, the zero condition wins.
    """

    g_low: callable
    g_high: callable
    lateral: tuple[str, ...]


@dataclass(frozen=True)
class SolverDiagnostics:
    outer_iterations: int
    converged: bool
    energy: float
    last_decrease: float
    eps_reg: float
    damping_final: float
    linear_solver: str
    linear_iterations: tuple  # CG iterations of each outer step
    mirrored: bool  # solved on the upper half layer and mirrored (see solve)


@dataclass(frozen=True)
class ScalarField:
    """Nodal solution with its boundary data and solver diagnostics.

    The field also keeps a quadrature ledger, built on first read: one
    pass of the grid's kernel (TensorGrid.quad_terms) gives the field's
    values and the weighted |grad f|^p density at every quadrature point
    (|grad f|^2 is not kept), and one more gives its values and one-sided
    gradients on every node plane across the axis (TensorGrid.face_terms).
    Slab integrals slice the quadrature arrays, and a station trace reads
    its plane from the plane arrays, instead of re-evaluating the field on
    the whole mesh.  The ledger arrays are read-only, and values must not
    change in place once the ledger is read: with_values starts a fresh
    ledger.
    """

    mesh: Mesh
    values: np.ndarray
    op: object
    bc: BoundarySpec
    diagnostics: SolverDiagnostics

    def with_values(self, values):
        return replace(self, values=np.asarray(values, dtype=float))

    @cached_property
    def _quad_ledger(self):
        """The field's values and weighted |grad f|^p at every quadrature
        point, shape (n_elems, n_quad) each, from one pass of the kernel."""
        vals, _, s = self.mesh.grid.quad_terms(self.values, vals=True, square_plus=0.0)
        return _read_only(vals), _read_only(self.mesh.grid.quad_weights * s ** (0.5 * self.op.p))

    @property
    def quad_values(self):
        """Values at every quadrature point, shape (n_elems, n_quad)."""
        return self._quad_ledger[0]

    @property
    def energy_density(self):
        """Quadrature weight times |grad f|^p, shape (n_elems, n_quad)."""
        return self._quad_ledger[1]

    def slab_values(self, t, tau):
        """Quadrature values and weights over the slab between t < tau."""
        mesh = self.mesh
        return (mesh.slab_rows(self.quad_values, t, tau),
                mesh.slab_rows(mesh.grid.quad_weights, t, tau))

    @cached_property
    def _planes(self):
        """The field's values and one-sided gradients on the lower node plane
        of every element and on the upper plane of the top cell layer
        (TensorGrid.face_terms, one pass each), as (base cells, layers,
        ...): every station's plane once."""
        grid = self.mesh.grid
        lower = grid.face_terms(self.values, 0)
        top = grid.face_terms(self.values, 1, slice(-1, None))
        return [tuple(_read_only(a.reshape((-1, n) + a.shape[1:])) for a in pair)
                for pair, n in ((lower, grid.cell_shape[-1]), (top, 1))]

    def trace(self, j, side):
        """One-sided (z, weights, f, grad f) on station j from 'below' or
        'above', z the station's axial coordinate.  Station j's plane is the
        lower plane of layer j, and from below, the upper plane of layer j -
        1: the two share its values and tangential derivatives, and the
        gradient from below takes the axial derivative of layer j - 1, which
        is constant across the layer."""
        cell, w = self.mesh.station_edge_tables(j, side)
        z = self.mesh.stations[j]
        (vals, grads), top = self._planes
        if side == "above":
            return z, w, vals[:, cell], grads[:, cell]
        if j == vals.shape[1]:  # the top station has no layer above it
            return (z, w) + tuple(a[:, 0] for a in top)
        below = grads[:, j].copy()
        below[..., -1] = grads[:, cell, :, -1]
        return z, w, vals[:, j], below


def dirichlet_data(mesh, bc):
    """Pinned faces and prescribed values (zero elsewhere).

    pinned holds one (low, high) pair of flags per grid axis: the
    Dirichlet-zero lateral faces, and both caps on the axial axis.  The
    values carry the cap data on the two axial end planes, and then 0 on
    every Dirichlet-zero lateral face.
    """
    if tuple(bc.lateral) != tuple(mesh.domain.lateral_bc):
        raise ValueError("boundary spec lateral kinds do not match the domain partition")
    g_low = np.asarray(bc.g_low(mesh.cap_points("low")), dtype=float)
    g_high = np.asarray(bc.g_high(mesh.cap_points("high")), dtype=float)
    if not (np.all(np.isfinite(g_low)) and np.all(np.isfinite(g_high))):
        raise ValueError("cap data must be finite on all cap nodes")
    pinned = mesh.domain.lateral_pinned + ((True, True),)
    vals = np.zeros(mesh.grid.shape)
    vals[..., 0] = g_low.reshape(vals.shape[:-1])
    vals[..., -1] = g_high.reshape(vals.shape[:-1])
    for ax, ends in enumerate(pinned[:-1]):
        for end, is_pinned in zip((0, -1), ends):
            if is_pinned:
                vals[(slice(None),) * ax + (end,)] = 0.0
    return pinned, vals.ravel()


def _interpolation_1d(n):
    """Linear interpolation onto one axis of n nodes, as an n x m CSR
    matrix: a factor-2 coarsening (m = n // 2 + 1) when the cell count
    n - 1 is even, the identity otherwise.  An even fine node copies its
    coarse twin and an odd one averages its two coarse neighbours."""
    if (n - 1) % 2:
        return sp.identity(n, format="csr")
    i = np.arange(n)
    odd = i[1::2]
    rows = np.concatenate((i, odd))
    cols = np.concatenate((i // 2, odd // 2 + 1))
    weights = np.where(rows % 2 == 1, 0.5, 1.0)
    return sp.csr_matrix((weights, (rows, cols)), shape=(n, n // 2 + 1))


def _free_box(grid, pinned):
    """The free nodes of a grid whose faces flagged in pinned, one (low,
    high) pair per axis, are Dirichlet: the box of one slice [lo, hi) per
    axis, or None when it is empty.  A periodic axis has no faces, so the
    box spans it."""
    box = tuple(slice(int(lo), n - int(hi)) for (lo, hi), n in zip(pinned, grid.shape))
    return None if any(b.start >= b.stop for b in box) else box


def _hierarchy(shape, box, periodic=None):
    """Coarse levels of the multigrid hierarchy of a free box of a grid of
    node shape `shape`, finest first: coarsen until at most MG_COARSEST
    unknowns are left or no axis coarsens.  An axis flagged in periodic,
    which the box spans, is not coarsened, as an axis of odd cell count.

    Each level is (P, axes).  P, the prolongation from the coarse box to
    the box above, is the Kronecker product, in C order, of the per-axis
    interpolations restricted to the box ranges; a coarse node is in the
    coarse box when its injected fine twin is in the box.  axes holds, per
    axis, None where the axis is not coarsened, else (parity, size): fine
    box node 2c + parity is the twin of coarse box node c, and size is the
    coarse box's node count on the axis.
    """
    levels = []
    while np.prod([b.stop - b.start for b in box]) > MG_COARSEST:
        mats, axes, coarse_shape, coarse_box = [], [], [], []
        for n, b, per in zip(shape, box, periodic or (False,) * len(shape)):
            interp = sp.identity(n, format="csr") if per else _interpolation_1d(n)
            m = interp.shape[1]
            cb = slice((b.start + 1) // 2, (b.stop + 1) // 2) if m < n else b
            mats.append(interp[b, cb])
            axes.append((b.start % 2, cb.stop - cb.start) if m < n else None)
            coarse_shape.append(m)
            coarse_box.append(cb)
        if tuple(coarse_shape) == tuple(shape):
            break
        P = reduce(lambda a, b: sp.kron(a, b, format="csr"), mats)
        P.sort_indices()
        levels.append((P, tuple(axes)))
        shape, box = tuple(coarse_shape), tuple(coarse_box)
    return levels


def _box_stencil(stencil, box, periodic=None):
    """The free-box block of a grid matrix as a column stencil, written over
    the grid stencil: the function consumes its argument.

    stencil is a grid stencil array (see TensorGrid.stiffness_stencil), whose
    [o, i] holds the entry A[i, i + o].  The result D, of shape
    (3**dim,) + box shape, holds at [o, j] the entry A[j - o, j] between box
    nodes, and zero where j - o leaves the box: D[o] is the DIA diagonal at
    offset o, indexed by column.  On the axes flagged in periodic, which the
    box spans, j - o wraps, and D[o] is stencil[o] rolled by o.

    D is a view of the front of the stencil's buffer.  Plane D[o] ends no
    later than stencil[o] does, so it only covers planes that are already
    read, and the one that is read into a box-sized scratch plane before
    D[o] is written; the caller's stencil is garbage afterwards.
    """
    periodic = periodic or (False,) * len(box)
    shape = tuple(b.stop - b.start for b in box)
    D = np.reshape(stencil, -1)[:len(stencil) * int(np.prod(shape))].reshape(
        (len(stencil),) + shape)
    plane = np.empty(shape)
    for k, digits in enumerate(product((-1, 0, 1), repeat=len(box))):
        source = stencil[k]
        pieces = [_box_pieces(o, b, n, per)
                  for o, b, n, per in zip(digits, box, stencil.shape[1:], periodic)]
        for ax, o in enumerate(digits):
            if o and not periodic[ax]:  # the box layer whose row j - o leaves the box
                plane[(slice(None),) * ax + (0 if o > 0 else -1,)] = 0.0
        for piece in product(*pieces):
            plane[tuple(dst for dst, _ in piece)] = source[tuple(src for _, src in piece)]
        D[k] = plane
    return D


# Galerkin terms of one coarsened axis, (sigma, s, r, weight): the coarse
# entry at offset sigma in column c gains weight times the fine entry at
# offset s in column 2c + parity + r.  The fine column interpolates from
# coarse c with weight w(r) and the fine row 2c + parity + r - s from coarse
# c - sigma with weight w(2 sigma + r - s), where w(0) = 1 and w(+-1) = 1/2.
_GALERKIN_TERMS = tuple(
    (sigma, s, r, (0.5 if r else 1.0) * (0.5 if u else 1.0))
    for sigma in (-1, 0, 1) for s in (-1, 0, 1) for r in (-1, 0, 1)
    for u in (2 * sigma + r - s,) if abs(u) <= 1)


def _galerkin_axis(D, ax, parity, size, lo, hi):
    """The coarse columns lo..hi-1, of size, of the column stencil D
    coarsened along the axis ax, whose fine box node 2c + parity is the twin
    of coarse node c: the 13 slice adds of _GALERKIN_TERMS, restricted to
    those columns.  An entry whose row leaves the coarse box is never
    written, so it stays zero."""
    dim = D.ndim - 1
    shape = (3,) * dim + D.shape[1:]
    out = np.zeros(shape[:dim + ax] + (hi - lo,) + shape[dim + ax + 1:])
    # views with the axis's offset digit first and its node index last
    fine = np.moveaxis(D.reshape(shape), (ax, dim + ax), (0, -1))
    coarse = np.moveaxis(out, (ax, dim + ax), (0, -1))
    n = fine.shape[-1]
    scaled = np.moveaxis(np.empty(out[(slice(None),) * ax + (0,)].shape), dim - 1 + ax, -1)
    for sigma, s, r, weight in _GALERKIN_TERMS:
        first = parity + r
        a = max(lo, sigma, -(first // 2))
        b = min(hi, size + min(0, sigma), (n - 1 - first) // 2 + 1)
        if b <= a:
            continue
        term = fine[s + 1, ..., 2 * a + first:2 * b - 1 + first:2]
        if weight != 1.0:
            term = np.multiply(term, weight, out=scaled[..., :b - a])
        coarse[sigma + 1, ..., a - lo:b - lo] += term
    return out.reshape((3**dim,) + out.shape[dim:])


def _galerkin(D, axes):
    """Column stencil of P^T A P for the column stencil D of A and the
    coarsened axes of P (see _hierarchy), one axis at a time.

    Linear interpolation keeps a three-point coupling three-point, so each
    coarsened axis takes the 13 slice adds of _GALERKIN_TERMS
    (_galerkin_axis).  The passes run on blocks of coarse rows of the first
    coarsened axis, each block through every axis pass and then into the
    coarse stencil, so that the first pass's output is a block, not a level.
    A block holds as many rows as keep its first-pass output within
    ASSEMBLY_CHUNK_BYTES, at least one.  Every coarse entry gets the terms
    and the order of adds of one pass over the whole level.
    """
    coarsened = [ax for ax, spec in enumerate(axes) if spec is not None]
    lead = coarsened[0]
    size = axes[lead][1]
    rows = max(1, ASSEMBLY_CHUNK_BYTES // max(1, D.nbytes // D.shape[1 + lead]))

    def block(lo, hi):
        B = D
        for ax in coarsened:
            parity, n = axes[ax]
            B = _galerkin_axis(B, ax, parity, n, *((lo, hi) if ax == lead else (0, n)))
        return B

    if size <= rows:
        return block(0, size)
    out = np.empty((len(D),) + tuple(n if spec is None else spec[1]
                                     for n, spec in zip(D.shape[1:], axes)))
    for lo in range(0, size, rows):
        out[(slice(None),) * (1 + lead) + (slice(lo, min(lo + rows, size)),)] = \
            block(lo, min(lo + rows, size))
    return out


def _dia(D, periodic=None):
    """DIA matrix of a column stencil D (see _box_stencil), its diagonals in
    ascending offset order.

    On an axis flagged in periodic, of n nodes and stride s, the columns of
    D[o] whose row wraps (node 0 for the digit 1, node n - 1 for -1) move
    to a diagonal of their own, at the offset shifted by -o n s, one such
    axis after another.  On a box with an axis of at most two nodes (after
    the first), offsets of different digits coincide or fall out of order.
    Those are sorted, and coinciding diagonals are summed: at most one of
    them is nonzero in any column, since a box node has one flat index.
    """
    shape = D.shape[1:]
    n = int(np.prod(shape))
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    digits = np.indices((3,) * len(shape)).reshape(len(shape), -1).T - 1
    offsets = digits @ strides
    for ax in np.flatnonzero(periodic or ()):
        rows = np.flatnonzero(digits[:, ax])
        D = np.concatenate((D, np.zeros((rows.size,) + shape)))
        for new, k in enumerate(rows, start=len(digits)):
            edge = (slice(None),) * ax + (0 if digits[k, ax] == 1 else shape[ax] - 1,)
            D[new][edge] = D[k][edge]
            D[k][edge] = 0.0
        wrapped = offsets[rows] - digits[rows, ax] * shape[ax] * strides[ax]
        offsets = np.concatenate((offsets, wrapped))
        digits = np.concatenate((digits, digits[rows]))
    data = D.reshape(len(D), n)
    if np.any(np.diff(offsets) <= 0):
        order = np.argsort(offsets, kind="stable")
        offsets, first, counts = np.unique(offsets[order], return_index=True, return_counts=True)
        merged = data[order[first]]
        # row by row: np.add.reduceat along axis 0 takes about 14 times as long
        for i in np.flatnonzero(counts > 1):
            for k in order[first[i] + 1:first[i] + counts[i]]:
                merged[i] += data[k]
        data = merged
    return sp.dia_matrix((data, offsets), shape=(n, n))


class _BandPlan:
    """Node order and scatter of the banded Cholesky factor of a column
    stencil on a box of node shape `shape`, wrapped on the axes flagged in
    periodic: the plan of the V-cycle's coarsest level.

    A 3^dim stencil on a box is a narrow band in a good node order (George
    & Liu, Computer Solution of Large Sparse Positive Definite Systems,
    1981).  The order places the axes longest first, so that the longest
    axis varies slowest, and folds each periodic axis of n nodes as 0, n -
    1, 1, n - 2, ..., so that its wrap joins band neighbours; a folded axis
    ranks at half its length.  Stencil neighbours are then at most 1 apart
    along a plain axis and 2 along a folded one, so the half-bandwidth is
    at most the sum of those steps times the axes' strides: about twice
    the product of the faster axes' sizes at most.  (In plain C order a
    periodic axis's wrap makes the band about as wide as the box.)

    position holds each box node's band position, C order in, and inverse
    the box node at each band position.  LAPACK upper band storage of
    half-bandwidth width holds A[i, j], i <= j in band positions, at [width
    + i - j, j]; D's flat entries src go to the flat band entries dst, one
    to one, as a periodic axis has at least three nodes.
    """

    def __init__(self, shape, periodic):
        dim = len(shape)
        # each axis's node positions: 0, 1, ..., or folded on a periodic axis
        steps = [np.minimum(2 * i, 2 * (n - 1 - i) + 1) if per else i
                 for n, per in zip(shape, periodic) for i in (np.arange(n),)]
        strides, stride = [0] * dim, 1
        # fastest first: the shortest axis, a folded one at half its length; ties in C order
        for ax in sorted(range(dim), key=lambda ax: (shape[ax] / (1 + periodic[ax]), -ax)):
            strides[ax], stride = stride, stride * shape[ax]
        index = np.indices(shape).reshape(dim, -1)
        col = sum(step[i] * s for step, i, s in zip(steps, index, strides))
        n = col.size
        src, rows, cols = [], [], []
        for k, digits in enumerate(product((-1, 0, 1), repeat=dim)):
            row, keep = np.zeros(n, dtype=col.dtype), np.ones(n, dtype=bool)
            for ax, o in enumerate(digits):
                i = index[ax] - o  # D[o, j] is the entry A[j - o, j]
                if periodic[ax]:
                    i %= shape[ax]
                else:
                    keep &= (i >= 0) & (i < shape[ax])
                    i = np.clip(i, 0, shape[ax] - 1)
                row += steps[ax][i] * strides[ax]
            keep &= row <= col
            src.append(k * n + np.flatnonzero(keep))
            rows.append(row[keep])
            cols.append(col[keep])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self.width = int(np.max(cols - rows, initial=0))
        self.src = np.concatenate(src)
        self.dst = (self.width + rows - cols) * n + cols
        self.position, self.inverse = col, np.argsort(col)

    def factor(self, D):
        """The solve r -> A^-1 r of the matrix A of the column stencil D on
        the plan's box, by one banded Cholesky factor; SolverError when A
        is not positive definite."""
        band = np.zeros((self.width + 1, self.position.size))
        band.ravel()[self.dst] = np.take(D, self.src)
        try:
            chol = sla.cholesky_banded(band, overwrite_ab=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise SolverError(f"singular coarse multigrid system: {exc}") from exc
        return lambda r: sla.cho_solve_banded((chol, False), r[self.inverse], overwrite_b=True,
                                              check_finite=False)[self.position]


class _VCycle:
    """Symmetric geometric-multigrid V-cycle for one SPD free-box matrix.

    D is the finest level's column stencil (see _box_stencil) on the free
    box of system, a _FreeSystem, whose hierarchy holds the coarse levels
    (see _hierarchy) and whose band the plan of the coarsest one (see
    _BandPlan).  Each level below the finest is the Galerkin operator P^T
    A P of the level above, formed by _galerkin, and every level but the
    coarsest is a DIA matrix over its box, wrapped on the grid's periodic
    axes, which no level coarsens; matrix is the finest one.  Every level
    but the coarsest runs MG_SWEEPS damped-Jacobi sweeps (weight
    MG_JACOBI_WEIGHT) before and after its coarse correction, so the cycle
    is a symmetric positive-definite preconditioner.  The coarsest level is
    solved by a banded Cholesky factor, scattered straight from its column
    stencil in the plan's narrow-band order, whose half-bandwidth is at
    most about twice the product of the box's faster axes' sizes.  A
    nonpositive diagonal entry of the finest level raises SolverError, and
    so does a coarsest level that is not positive definite.
    """

    def __init__(self, D, system):
        if np.any(D[len(D) // 2] <= 0):
            raise SolverError("singular inner system: nonpositive diagonal")
        periodic = system.grid.periodic
        A = self.matrix = _dia(D, periodic)
        self.levels = []
        for level, (P, axes) in enumerate(system.hierarchy):
            if level:
                A = _dia(D, periodic)
            # P.T is a CSC view of P's arrays: built once, it costs no memory
            self.levels.append((A, MG_JACOBI_WEIGHT / D[len(D) // 2].ravel(), P, P.T))
            D = _galerkin(D, axes)
        self.coarse = system.band.factor(D)

    def __call__(self, r):
        return self._cycle(0, np.asarray(r).ravel())

    def _cycle(self, level, r):
        if level == len(self.levels):
            return self.coarse(r)
        A, wdinv, P, R = self.levels[level]
        x = wdinv * r
        for _ in range(MG_SWEEPS - 1):
            x += wdinv * (r - A @ x)
        x += P @ self._cycle(level + 1, R @ (r - A @ x))
        for _ in range(MG_SWEEPS):
            x += wdinv * (r - A @ x)
        return x


class _FreeSystem:
    """The free-node block of one Dirichlet split of a grid, on which each
    outer step solves for its correction.

    The free nodes form a box of the grid (see _free_box), which spans its
    periodic axes.  A step's matrix comes as a grid stencil array, and
    restrict turns it into the box's column stencil, wrapped on the
    periodic axes, so no CSR pattern is built.  solve then runs CG on it
    from zero, preconditioned by a multigrid V-cycle, whose hierarchy and
    coarsest-level band plan depend only on the grid and the box, so they
    are built once, at the first solve.  Each solve appends its CG
    iteration count to linear_iterations.
    pinned, one (low, high) pair of flags per axis, names the Dirichlet
    faces, and the attribute pinned tells whether there is any.
    """

    def __init__(self, grid, pinned):
        self.box = _free_box(grid, pinned)
        self.grid = grid
        self.pinned = any(map(any, pinned))
        self.linear_iterations = []
        self.method = "cg-mg" if self.box is not None else "none"

    @cached_property
    def hierarchy(self):
        return _hierarchy(self.grid.shape, self.box, self.grid.periodic)

    @cached_property
    def band(self):
        """The band plan of the hierarchy's coarsest box (see _BandPlan)."""
        shape = [b.stop - b.start for b in self.box]
        for _, axes in self.hierarchy:
            shape = [n if spec is None else spec[1] for n, spec in zip(shape, axes)]
        return _BandPlan(shape, self.grid.periodic)

    def _free(self, x):
        """The free-box entries of the nodal vector x, in C order."""
        return np.reshape(x, self.grid.shape)[self.box].ravel()

    def restrict(self, K, r):
        """The free-box system of the stencil array K and the nodal
        right-hand side r: r on the box, and the column stencil of K_ff (see
        _box_stencil); None without free nodes.  It consumes K: the column
        stencil is written over K's buffer."""
        if self.method == "none":
            return None
        return self._free(r), _box_stencil(K, self.box, self.grid.periodic)

    def solve(self, restricted):
        """Nodal correction d, zero off the free box, of a system from
        restrict, (r, D): CG runs from zero on D d = r and stops once ||r -
        D d|| <= CG_FORCING ||r||."""
        d = np.zeros(self.grid.n_nodes)
        if restricted is None:
            return d
        r, D = restricted
        cycle = _VCycle(D, self)
        A = cycle.matrix
        M = spla.LinearOperator(A.shape, matvec=cycle, dtype=float)
        iterations = 0

        def count(xk):
            # a non-finite iterate stays non-finite: stop now, not at maxiter
            nonlocal iterations
            iterations += 1
            if not np.isfinite(xk).all():
                raise SolverError(f"conjugate gradient iterate not finite at iteration {iterations}")

        # inexact inner solve: r is minus the free-node gradient of the
        # regularized energy at the iterate, and CG only cuts it by CG_FORCING
        x, info = spla.cg(A, r, rtol=0.0, atol=CG_FORCING * float(np.linalg.norm(r)),
                          maxiter=CG_MAXITER_PER_UNKNOWN * r.size, M=M, callback=count)
        self.linear_iterations.append(iterations)
        if info != 0:
            raise SolverError(f"conjugate gradient did not converge (info={info})")
        d.reshape(self.grid.shape)[self.box] = x.reshape([sl.stop - sl.start for sl in self.box])
        return d


def _line_stencils(grid, a_q):
    """Per axis of a canonical mesh's grid, the stencil arrays (S, M) of the
    1-D Q1 stiffness and mass of that axis alone, whose Kronecker sum is the
    grid's stiffness with the coefficient a_q:

        K = sum_ax M_0 x ... x S_ax x ... x M_last.

    The quadrature is the tensor product of each axis's 2-point Gauss rule,
    and a(x) and the 2 pi r measure factor depend on the axial coordinate
    alone, so the axial pair carries both: a_q on the first base cell's
    axial column, which holds every axial Gauss point, and the grid's
    measure factor on the axial line.
    """
    lines = [(TensorGrid([axis]), None) for axis in grid.axes[:-1]]
    lines.append((TensorGrid([grid.axes[-1]], weight=grid.weight), a_q[:grid.cell_shape[-1], :2]))
    return [(line.stiffness_stencil(coeff=a), line.mass_stencil(coeff=a)) for line, a in lines]


def _line_block(stencil, b):
    """The block [b, b] of a 1-D stencil array's matrix, dense."""
    s = stencil[:, b]
    return np.diag(s[1]) + np.diag(s[2, :-1], 1) + np.diag(s[0, 1:], -1)


def _along(mats, x):
    """x with mats[ax] applied along each leading axis ax."""
    for ax, A in enumerate(mats):
        x = np.moveaxis(np.tensordot(A, x, axes=(1, ax)), 0, ax)
    return x


def _separable_solve(system, vals, a_q):
    """Nodal solution of K_ff x = -K_fc g, with x = g, the Dirichlet values
    vals, on the pinned nodes, for the stiffness with the coefficient a_q,
    by separation of variables (fast diagonalization: Lynch, Rice &
    Thomas, Numer. Math. 6, 1964).  The cold solve is the only reader of
    the Dirichlet values: every outer step solves for a correction.

    K is the Kronecker sum of _line_stencils, and the free box is one range
    per axis, so K_ff is the Kronecker sum of the 1-D free blocks.  On each
    base axis, the M-orthonormal eigenbasis V of S V = M V diag(lambda)
    turns it into one axial system (S_z + Lambda_k M_z) y_k = b_k per base
    mode k, Lambda_k the sum of the mode's base eigenvalues.  A cap pins an
    axial end, and a natural end (the centre plane of a half layer) adds
    nothing; the cap data g vanish on Dirichlet-zero laterals, so -K_fc g
    only enters the free axial row next to each pinned end, as the mode's
    end value V^T M g of that cap's data times that system's coupling to
    the cap.  All axial systems are tridiagonal and solved as one
    block-diagonal banded system; x is V y on every base axis.  A
    factorization that fails raises SolverError.
    """
    out = vals.copy()
    if system.box is None:
        return out
    grid, box = system.grid, system.box
    *base, (S, M) = _line_stencils(grid, a_q)
    bz = box[-1]
    # per pinned axial end: its cap plane, the free node next to it, and the
    # stencil plane of the offset from that node to the cap
    ends = [end for end, pinned in (((bz.start - 1, bz.start, 0), bz.start > 0),
                                    ((bz.stop, bz.stop - 1, 2), bz.stop < grid.shape[-1]))
            if pinned]
    blocks = [(_line_block(Sb, b), _line_block(Mb, b)) for (Sb, Mb), b in zip(base, box)]
    try:
        pairs = [sla.eigh(Sb, Mb) for Sb, Mb in blocks]
        lam = reduce(np.add.outer, [w for w, _ in pairs]).ravel()[:, None]
        caps = np.reshape(vals, grid.shape)[box[:-1] + ([plane for plane, _, _ in ends],)]
        modal = _along([V.T @ Mb for (_, V), (_, Mb) in zip(pairs, blocks)], caps).reshape(
            -1, len(ends))
        # row j of a mode's axial system couples to row j - 1 through [0, j]
        off = S[0, bz] + lam * M[0, bz]
        rhs = np.zeros(off.shape)
        for (_, node, k), cap in zip(ends, modal.T):
            rhs[:, node - bz.start] -= cap * (S[k, node] + lam[:, 0] * M[k, node])
        off[:, 0] = 0.0  # the modes do not couple
        y = sla.solveh_banded(np.stack((off.ravel(), (S[1, bz] + lam * M[1, bz]).ravel())),
                              rhs.ravel())
    except sla.LinAlgError as exc:
        raise SolverError(f"separable solve failed: {exc}") from exc
    shape = [b.stop - b.start for b in box]
    out.reshape(grid.shape)[box] = _along([V for _, V in pairs], y.reshape(shape))
    return out


def _gradient_terms(grid, values, eps, p, a_q):
    """(grad f, s, c) at every quadrature point: s = |grad f|^2 + eps^2 and
    the step coefficient c = a s^((p-2)/2), the iterate's one fractional
    power, which is a_q itself at p = 2.  At p <= 2 no step reads grad f,
    so it is None, and the kernel forms s alone (TensorGrid.quad_terms)."""
    _, g, s = grid.quad_terms(values, grads=p > 2.0, square_plus=eps**2)
    c = a_q if p == 2.0 else a_q * s ** (0.5 * (p - 2.0))
    return g, s, c


def _regularized_energy(grid, p, terms):
    """sum_q w a (|grad f|^2 + eps^2)^(p/2) / p, as sum_q w c s / p from the
    terms (grad f, s, c) of _gradient_terms.  The products are formed and
    summed block by block in one buffer, each block whole elements whose
    products take at most ASSEMBLY_CHUNK_BYTES, so that no temporary grows
    past a block; np.sum sums each block pairwise, which keeps the rounding
    of the energy well below ENERGY_ROUNDING (a running sum, as einsum's,
    does not)."""
    _, s, c = terms
    w = grid.quad_weights
    rows = max(1, ASSEMBLY_CHUNK_BYTES // (8 * s.shape[1]))
    buffer = np.empty((min(rows, len(s)), s.shape[1]))
    total = 0.0
    for lo in range(0, len(s), rows):
        block = np.multiply(c[lo:lo + rows], s[lo:lo + rows], out=buffer[:min(rows, len(s) - lo)])
        block *= w[lo:lo + rows]
        total += float(block.sum())
    return total / p


def _step_system(grid, f, p, terms):
    """Matrix, as a grid stencil array, and right-hand side -K(c) f of one
    outer step at the iterate f.

    With c = a s^((p-2)/2) and s = |grad f|^2 + eps^2, K(c) f is the
    gradient of the regularized energy, and the right-hand side is its one
    stencil product, taken before (p-2) R joins the matrix.  For p <= 2
    the matrix is the Kacanov matrix K(c).  For p > 2 it is the Hessian
    K(c) + (p-2) R, R = sum_q w (c/s) (grad f . grad phi_i)(grad f . grad
    phi_j), so the correction is a Newton step.  terms is (grad f, s, c) at
    f, from _gradient_terms; grad f is read only for p > 2.
    """
    g, s, coeff = terms
    # (p-2) R is the directional stiffness along sqrt((p-2) c/s) grad f,
    # assembled before K(c), so that its (E, Q, dim) direction is freed
    # before the two stencils are alive together
    newton = p > 2.0
    pR = grid.directional_stencil(g * np.sqrt((p - 2.0) * coeff / s)[..., None]) if newton else None
    H = grid.stiffness_stencil(coeff=coeff)
    r = -grid.apply_stencil(H, f)
    if newton:
        H += pR
    return H, r


def _step(system, f, p, terms, load, mass):
    """The free-box system (see _FreeSystem.restrict) of one outer step's
    correction at the iterate f: _step_system's matrix and right-hand side,
    the nodal load b added to the latter, and on an unpinned system the
    proximal term of the mass stencil added to the former.  The step's
    matrix becomes the buffer of the box block; its other stencil arrays
    die when it returns."""
    H, r = _step_system(system.grid, f, p, terms)
    if load is not None:
        r += load
    if mass is not None:
        H += PROXIMAL_REL * float(H[len(H) // 2].max()) * mass
    return system.restrict(H, r)


def _minimize(system, a_q, p, f, eps, load=None, steps=MAX_OUTER - 1):
    """The outer loop (see the module docstring) from the start f, on the
    regularized energy minus load . f, for at most `steps` steps.  Returns
    (f, energy, steps taken, converged, last decrease, theta).  Through a
    step's solve it holds the step's free-box system, in the buffer of the
    step's matrix, and not the iterate's gradient terms."""
    grid = system.grid
    mass = None if system.pinned else grid.mass_stencil()

    def evaluate(values):  # the accepted iterate's terms build the next step
        terms = _gradient_terms(grid, values, eps, p, a_q)
        energy = _regularized_energy(grid, p, terms)
        return terms, energy if load is None else energy - float(load @ values)

    terms, energy = evaluate(f)
    theta, decrease, taken, converged = 1.0, 0.0, 0, False
    while not converged and taken < steps:
        step = _step(system, f, p, terms, load, mass)
        terms = terms_new = None  # an accepted iterate brings its own
        d = system.solve(step)
        step = None  # the box block dies with the V-cycle, not at the next step
        taken += 1
        theta = 1.0
        ceiling = energy + ENERGY_ROUNDING * abs(energy)  # a smaller rise is rounding
        while True:
            f_new = f + theta * d
            terms_new, e_new = evaluate(f_new)
            if e_new <= ceiling or theta <= 2**-30:
                break
            theta *= 0.5
        if not e_new <= ceiling:
            break  # no damping lowers the energy, or it is not finite: keep f, not converged
        decrease = (energy - e_new) / max(abs(energy), 1e-300)
        f, energy, terms = f_new, e_new, terms_new
        converged = decrease < TOL_ENERGY
    return f, energy, taken, converged, decrease, theta


def _half_layer(mesh, vals, a_q):
    """The upper half of a mirror-symmetric layer problem, or None.

    A layer mesh (no measure factor) of an even axial cell count, whose two
    cap planes carry the same values and whose a_q equals its axial mirror
    (cells reversed and the two axial Gauss points swapped), all bit for
    bit, has a minimizer that is even in t.  It is then the minimizer on
    the upper half layer, with the cap end pinned and the centre plane
    natural, mirrored (Bossavit, SIAM J. Appl. Math. 53, 1993).  Returns
    (grid, pinned, vals, a_q) of that half: the base axes and the axial
    nodes j h, j = 0..n/2, so its spacing is the full grid's, bit for bit.
    """
    grid = mesh.grid
    n = grid.cell_shape[-1]
    if grid.weight is not None or n % 2:
        return None
    planes = np.reshape(vals, grid.shape)
    if planes[..., 0].tobytes() != planes[..., -1].tobytes():
        return None
    cells = np.reshape(a_q, (-1, n, grid.n_quad // 2, 2))
    if not np.array_equal(cells.view(np.uint64), cells[:, ::-1, :, ::-1].view(np.uint64)):
        return None
    half = TensorGrid(grid.axes[:-1] + (grid.spacing[-1] * np.arange(n // 2 + 1),))
    pinned = mesh.domain.lateral_pinned + ((False, True),)
    return (half, pinned, planes[..., n // 2:].ravel(),
            cells[:, n // 2:].reshape(-1, grid.n_quad))


def solve(domain, mesh, op, bc):
    """Minimize the p-Dirichlet energy for the given caps and laterals.

    Returns a ScalarField; non-convergence is reported through the
    diagnostics rather than raised.  For p = 2 the coefficient does not
    depend on the iterate and the cold solve is exact.  The regularization
    eps is EPS_REG_REL times the largest |cap value| (times 1 when all are
    0), so that cap data s g give s times the field of g and s^p times its
    energy, up to rounding.

    A mirror-symmetric layer problem (see _half_layer) is solved on its
    upper half, and the half field is mirrored into the whole one; the
    diagnostics then read mirrored, the energy is twice the half layer's,
    and the outer and CG counts are the half solve's.
    """
    if mesh.domain is not domain and mesh.domain != domain:
        raise ValueError("mesh was built on a different domain")
    pinned, vals = dirichlet_data(mesh, bc)
    # f = 0 when every cap value is 0, and then the unit scale serves
    scale = float(np.max(np.abs(vals), initial=0.0))
    eps = EPS_REG_REL * (scale if scale > 0.0 else 1.0)

    a_q = op.a(mesh.pk_at_quads())
    half = _half_layer(mesh, vals, a_q)
    grid = mesh.grid
    if half is not None:
        grid, pinned, vals, a_q = half
    system = _FreeSystem(grid, pinned)
    f = _separable_solve(system, vals, a_q)
    exact = op.p == 2.0
    f, energy, steps, converged, decrease, theta = _minimize(
        system, a_q, op.p, f, eps, steps=0 if exact else MAX_OUTER - 1)
    if half is not None:
        f = f.reshape(grid.shape)
        f = np.concatenate((f[..., :0:-1], f), axis=-1).ravel()
        energy *= 2.0
    diag = SolverDiagnostics(
        outer_iterations=1 + steps, converged=exact or converged, energy=energy,
        last_decrease=decrease, eps_reg=eps, damping_final=theta,
        linear_solver="separable" if exact and system.box is not None else system.method,
        linear_iterations=tuple(system.linear_iterations), mirrored=half is not None)
    return ScalarField(mesh=mesh, values=f, op=op, bc=bc, diagnostics=diag)


@dataclass(frozen=True)
class FluxResult:
    value: float
    tau: float
    side: str
    weight: str


def _station(field, tau, side):
    """Station index of tau and the resolved side; 'auto' faces the axial midpoint."""
    mesh = field.mesh
    j, _ = mesh.station_index(tau, snap_tol=mesh.snap_tolerance())
    if side == "auto":
        mid = 0.5 * (mesh.stations[0] + mesh.stations[-1])
        side = "above" if mesh.stations[j] <= mid else "below"
    return j, side


def flux_integral(field, tau, weight="one", side="auto", C=0.0):
    """Section flux integral of w(f) <A(x, grad f), grad p_k>.

    weight is 'one', 'f' or 'f_minus_C' (with the constant C); grad p_k
    is the unit axial direction, so the integrand reduces to the axial
    component of A(x, grad f).  The gradient is taken one-sided from the
    requested slab side ('below' or 'above' the section; 'auto' picks the
    side facing the axial midpoint) and the side used is recorded.
    """
    mesh = field.mesh
    j, side = _station(field, tau, side)
    z, w, fvals, fgrads = field.trace(j, side)
    a = field.op.a(mesh.domain.pk_of_axial(z))
    fac = guarded_power(squared_norm(fgrads), 0.5 * (field.op.p - 2.0))
    axial_flux = a * fac * fgrads[..., -1]
    if weight == "one":
        wf = np.ones_like(fvals)
    elif weight == "f":
        wf = fvals
    elif weight == "f_minus_C":
        wf = fvals - C
    else:
        raise ValueError(f"unknown weight {weight!r}")
    value = float(np.sum(w * wf * axial_flux))
    return FluxResult(value=value, tau=float(mesh.stations[j]), side=side, weight=weight)


def section_quad_trace(field, tau, side="auto"):
    """Section quadrature (z, weights, f, grad f) with one-sided gradients, z
    the snapped station."""
    return field.trace(*_station(field, tau, side))
