"""Canonical layer/cylinder domains and structured tensor-product meshes.

Domains are cross-section-times-axis cylinders.  In layer mode the axial
coordinate is the centered band coordinate running over (-beta*, beta*)
with beta* = (beta - alpha)/2; in radial (axisymmetric) mode it is the
radius running over (alpha, beta) and every volume integral carries the
2*pi*r measure factor.  Meshes are uniform tensor grids of multilinear
elements with 2-point Gauss quadrature per direction; axial sections and
slabs therefore align exactly with grid lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

_GAUSS = (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))

# Assembly adds local entries chunk by chunk, each chunk whole first-axis
# cell layers whose entries take at most about this many bytes.  On 3-D
# grids with h <= 1/16 a chunk is smaller than the stencil array, so that the
# stencil array and the gathered data, not the local entries, set an
# assembly's peak memory.
ASSEMBLY_CHUNK_BYTES = 1 << 20

LAYER = "layer"
RADIAL = "radial"
NEUMANN = "neumann"
DIRICHLET0 = "dirichlet0"


def _read_only(a):
    a.setflags(write=False)
    return a


def _axis_offsets(n, periodic):
    """The offsets -1, 0, 1 along an axis of n nodes, as the stencil array
    stores them: on a periodic axis of 2 nodes, -1 and 1 reach the same
    node, and both are stored at -1."""
    off = np.array([-1, 0, 1], dtype=np.int32)
    return (off + 1) % n - 1 if periodic else off


def _wrapped_slices(lo, hi, corner, n, periodic):
    """(cell, node) slice pairs that place the cells lo..hi-1 of an axis of
    n nodes, counted from lo, onto their nodes at corner (0 or 1); the last
    cell of a periodic axis wraps onto node 0."""
    if not periodic or hi + corner <= n:
        return [(slice(0, hi - lo), slice(lo + corner, hi + corner))]
    pairs = [(slice(0, hi - lo - 1), slice(lo + 1, n)), (slice(hi - lo - 1, hi - lo), slice(0, 1))]
    return [pair for pair in pairs if pair[1].stop > pair[1].start]


# the weight of a cell's upper node at each of its two Gauss points
_GAUSS_UPPER = np.array([0.5 * (1.0 + xi) for xi in _GAUSS])


def _along(A, ax, at):
    """A, of shape (points, nodes...), taken from nodes to cells along the
    node axis ax: to the cell's two Gauss points, a + w (b - a) from its
    lower and upper node values a and b with w in _GAUSS_UPPER, each point
    a new last point index; or, for at 0 or 1, to the cell's lower or upper
    node, a slice."""
    pre = (slice(None),) * (ax + 1)
    if at is not None:
        return A[pre + (slice(at, A.shape[ax + 1] - 1 + at),)]
    lower = A[pre + (slice(0, -1),)][:, None]
    out = A[pre + (slice(1, None),)][:, None] - lower
    out = out * _GAUSS_UPPER.reshape((1, 2) + (1,) * (A.ndim - 1))
    out += lower
    return out.reshape((-1,) + out.shape[2:])


def _tensor_terms(u, spacing, at, vals, grads, square_plus):
    """Values (cells, points), gradients (cells, points, dim) and |grad u|^2
    + square_plus (cells, points) of the multilinear field of the
    grid-shaped node values u, each None unless asked for (see
    TensorGrid.quad_terms).  Every axis of u holds its cells' both nodes
    (periodic axes come wrapped), and at[ax] picks an axis's points: None
    for its two Gauss points, 0 or 1 for the cell's lower or upper node.
    Cells and points are numbered in C order of their per-axis indices.

    Sum factorization: in a cell, the derivative along an axis d is the
    node difference along d times 1/h_d, the same at each point of d, and
    it is taken to the points of every other axis by _along; values go
    through _along on every axis.  Chunks of whole first-axis cell layers
    are formed in turn, each with the points as leading axes, and written
    into the outputs by one strided copy.
    """
    dim = u.ndim
    cells = tuple(n - 1 for n in u.shape)
    npts = tuple(2 if a is None else 1 for a in at)
    nq = math.prod(npts)
    v_out = np.empty(cells + (nq,)) if vals else None
    g_out = np.empty(cells + (nq, dim)) if grads else None
    s_out = np.empty(cells + (nq,)) if square_plus is not None else None
    # a chunk's (points, cells) arrays take half the budget each, as about two
    # are alive at a time
    step = max(1, ASSEMBLY_CHUNK_BYTES // (16 * nq * math.prod(cells[1:])))
    points_first = tuple(range(dim, 2 * dim)) + tuple(range(dim))
    for lo in range(0, cells[0], step):
        hi = min(lo + step, cells[0])
        block = u[None, lo:hi + 1]
        chunk = (hi - lo,) + cells[1:]

        def rows(out):  # the chunk's rows of out, as (points..., cells...)
            return out[lo:hi].reshape(chunk + npts).transpose(points_first)

        if vals:
            A = block
            for ax in range(dim):
                A = _along(A, ax, at[ax])
            np.copyto(rows(v_out), A.reshape(npts + chunk))
        if not grads and square_plus is None:
            continue
        s = None
        for d in range(dim):
            pre = (slice(None),) * (d + 1)
            A = block[pre + (slice(1, None),)] - block[pre + (slice(0, -1),)]
            A *= 1.0 / spacing[d]
            for ax in range(dim):
                if ax != d:
                    A = _along(A, ax, at[ax])
            A = A.reshape(npts[:d] + (1,) + npts[d + 1:] + chunk)
            if grads:
                np.copyto(rows(g_out[..., d]), A)
            if square_plus is not None:
                np.multiply(A, A, out=A)
                if s is None:
                    s = np.empty(npts + chunk)
                    np.copyto(s, A)
                else:
                    s += A
        if s is not None:
            s += square_plus
            np.copyto(rows(s_out), s)
    flat = (math.prod(cells), nq)
    return (None if v_out is None else v_out.reshape(flat),
            None if g_out is None else g_out.reshape(flat + (dim,)),
            None if s_out is None else s_out.reshape(flat))


def _box_pieces(o, b, n, periodic):
    """(box, grid) slice pairs along one axis that place stencil rows j - o
    of the grid axis of n nodes onto box columns j of the range b; on a
    periodic axis, which the box spans, j - o wraps, as np.roll by o."""
    if not periodic:
        return [(slice(max(0, o), b.stop - b.start - max(0, -o)),
                 slice(b.start + max(0, -o), b.stop - max(0, o)))]
    o %= n
    if o == 0:
        return [(slice(0, n), slice(0, n))]
    return [(slice(o, n), slice(0, n - o)), (slice(0, o), slice(n - o, n))]


class TensorGrid:
    """Uniform tensor-product grid of multilinear elements.

    Parameters
    ----------
    axes : sequence of 1-D arrays
        Node coordinates per axis, uniformly spaced.  A periodic axis
        stores its distinct nodes only (no duplicated endpoint); the last
        cell wraps around.
    periodic : tuple of bool, optional
        Periodicity flag per axis.
    weight : callable, optional
        Extra measure factor, evaluated on point arrays of shape
        (..., dim).  Used for the 2*pi*r factor of axisymmetric meshes.
    """

    def __init__(self, axes, periodic=None, weight=None):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.dim = len(self.axes)
        self.periodic = tuple(periodic) if periodic is not None else (False,) * self.dim
        self.weight = weight
        for a in self.axes:
            if a.size < 2:
                raise ValueError("each axis needs at least two nodes")
        self.spacing = tuple(float(a[1] - a[0]) for a in self.axes)
        self.shape = tuple(a.size for a in self.axes)
        self.cell_shape = tuple(
            a.size if per else a.size - 1 for a, per in zip(self.axes, self.periodic)
        )
        self.n_nodes = int(np.prod(self.shape))
        self.n_elems = int(np.prod(self.cell_shape))
        self.n_local = 2**self.dim
        self._corners = tuple(product((0, 1), repeat=self.dim))
        self._build_basis_tables()

    def _build_basis_tables(self):
        # local multilinear basis on [-1, 1]^dim at tensor Gauss-2 points
        qpts = list(product(_GAUSS, repeat=self.dim))
        self.n_quad = len(qpts)
        self.basis_vals, self.basis_grads = self.basis_tables(qpts)
        self._quad_local = np.asarray(qpts)
        # local matrix entries (i, j), flattened row-major, per quadrature point
        self._stiffness_table = np.einsum(
            "qdi,qdj->qij", self.basis_grads, self.basis_grads).reshape(self.n_quad, -1)
        self._mass_table = np.einsum(
            "qi,qj->qij", self.basis_vals, self.basis_vals).reshape(self.n_quad, -1)

    def basis_tables(self, points):
        """Local basis values (Q, m) and physical gradients (Q, dim, m) at
        reference points of [-1, 1]^dim."""
        vals = np.empty((len(points), self.n_local))
        grads = np.empty((len(points), self.dim, self.n_local))
        for q, xi in enumerate(points):
            for m, off in enumerate(self._corners):
                factors = [0.5 * (1.0 + (2 * off[ax] - 1) * xi[ax]) for ax in range(self.dim)]
                vals[q, m] = np.prod(factors)
                for ax in range(self.dim):
                    dfac = factors.copy()
                    dfac[ax] = 0.5 * (2 * off[ax] - 1)
                    # physical gradient: chain rule 2/h per axis
                    grads[q, ax, m] = np.prod(dfac) * 2.0 / self.spacing[ax]
        return vals, grads

    @cached_property
    def nodes(self):
        """Node coordinates, shape (n_nodes, dim), C-order over axes."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @cached_property
    def quad_points(self):
        """Physical quadrature points, shape (n_elems, n_quad, dim)."""
        cell_idx = np.indices(self.cell_shape).reshape(self.dim, -1)
        lows = np.stack(
            [self.axes[ax][cell_idx[ax]] for ax in range(self.dim)], axis=-1
        )  # (E, dim)
        half = np.asarray(self.spacing) / 2.0
        centers = lows + half
        return centers[:, None, :] + self._quad_local[None, :, :] * half[None, None, :]

    @cached_property
    def quad_weights(self):
        """Quadrature weights incl. measure factor, shape (n_elems, n_quad).

        Read-only.  Without a measure factor every weight is w0, and the
        array is w0 broadcast to the shape, which holds one value.
        """
        w0 = np.prod(self.spacing) / self.n_quad
        if self.weight is None:
            return np.broadcast_to(w0, (self.n_elems, self.n_quad))
        return _read_only(w0 * self.weight(self.quad_points))

    def _wrapped(self, u):
        """u grid-shaped, with a copy of the first node layer appended on each
        periodic axis, so that every cell has its two nodes on every axis."""
        u = np.reshape(u, self.shape)
        for ax in np.flatnonzero(self.periodic):
            u = np.concatenate((u, u[(slice(None),) * ax + (slice(0, 1),)]), axis=ax)
        return u

    def corner_sums(self, entries):
        """Node i sums the entries (n_elems, n_local) of the element corners
        at it, elements in C order over cell_shape and corners in C order of
        their 0/1 digits.  Corners are added by slices in descending order,
        so a node sums in ascending element order, except on the wrapped
        nodes of a periodic axis."""
        entries = np.reshape(entries, self.cell_shape + (self.n_local,))
        out = np.zeros(self.shape)
        for m in reversed(range(self.n_local)):
            for pieces in product(*(_wrapped_slices(0, c, corner, n, per) for c, corner, n, per in
                                    zip(self.cell_shape, self._corners[m], self.shape,
                                        self.periodic))):
                out[tuple(nodes for _, nodes in pieces)] += \
                    entries[tuple(cells for cells, _ in pieces) + (m,)]
        return out.ravel()

    def quad_terms(self, u, vals=False, grads=False, square_plus=None):
        """(values, gradients, squares) of the nodal vector u at the
        quadrature points: values (n_elems, n_quad) if vals, gradients
        (n_elems, n_quad, dim) if grads, and |grad u|^2 + square_plus
        (n_elems, n_quad) unless square_plus is None; each None unless
        asked for.

        The one evaluation of nodal data at quadrature points, by sum
        factorization (Orszag, J. Comput. Phys. 37, 1980) on the grid-shaped
        u (_tensor_terms): no element corners are gathered.  The squares
        add in axis order and then square_plus, as squared_norm(gradients)
        + square_plus does, to the bit.  The work goes chunk by chunk, each
        chunk whole first-axis cell layers whose (n_quad, cells) arrays take
        at most half of ASSEMBLY_CHUNK_BYTES (and at least one layer), so
        that a chunk's temporaries stay within it.
        """
        return _tensor_terms(self._wrapped(u), self.spacing, (None,) * self.dim,
                             vals, grads, square_plus)

    def face_terms(self, u, at, layers=slice(None)):
        """Values (elements, n_quad / 2) and gradients (elements, n_quad / 2,
        dim) of the nodal vector u on one node plane of every element in the
        range layers of cell layers across the last axis: its lower (at 0)
        or upper (at 1) plane, at the Gauss points of the other axes, with
        the element's one-sided gradient.  The kernel is quad_terms', on
        the layers' node planes only; elements and points are in C order."""
        lo, hi, _ = layers.indices(self.cell_shape[-1])
        vals, grads, _ = _tensor_terms(self._wrapped(u)[..., lo:hi + 1], self.spacing,
                                       (None,) * (self.dim - 1) + (at,), True, True, None)
        return vals, grads

    def vals_at_quads(self, u):
        return self.quad_terms(u, vals=True)[0]

    def _stored_offset(self, digits):
        """The stencil plane of the offset digits in {-1, 0, 1}^dim, stored as
        _axis_offsets does."""
        k = 0
        for d, n, per in zip(digits, self.shape, self.periodic):
            k = 3 * k + int(_axis_offsets(n, per)[d + 1]) + 1
        return k

    @cached_property
    def _mirror_plan(self):
        """The lower half of the stencil offsets, filled by _assemble_local
        from the upper half: per offset o whose mirror -o is stored in a
        later plane, (o's plane, -o's plane, the (target, source) slices by
        which plane o is plane -o shifted by o).  A symmetric matrix's entry
        at row r and offset o is its entry at row r + o and offset -o.  An
        offset that a periodic axis of 2 nodes stores in another plane has
        no entry of its own."""
        plan = []
        for k, digits in enumerate(product((-1, 0, 1), repeat=self.dim)):
            mirror = self._stored_offset([-d for d in digits])
            if self._stored_offset(digits) == k and mirror > k:
                # plane k at node r is plane mirror at node r + o: rows r + o onto columns r
                pieces = product(*(_box_pieces(-o, slice(0, n), n, per)
                                   for o, n, per in zip(digits, self.shape, self.periodic)))
                plan.append((k, mirror, [(tuple(dst for dst, _ in piece),
                                          tuple(src for _, src in piece)) for piece in pieces]))
        return plan

    @cached_property
    def _fill_plan(self):
        """How _assemble_local adds local entries to the stencil array.

        Returns one (rows, shape, adds) per chunk of whole first-axis cell
        layers whose local entries take at most ASSEMBLY_CHUNK_BYTES (and
        at least one layer): rows is the chunk's element slice, shape the
        shape (m*m, layers, cells...) of its entries, and adds the (target,
        source) index pairs of the slice adds, with local pairs (i, j) in
        order of descending i.  The target of pair (i, j) is the stencil
        slice at offset corner_j - corner_i, stored as _axis_offsets does,
        and at the nodes of corner i.  Only the pairs whose offset lies in
        the upper half (the centre included) are added; _mirror_plan fills
        the rest.
        """
        m, n_layers = self.n_local, self.cell_shape[0]
        layer = self.n_elems // n_layers
        step = max(1, ASSEMBLY_CHUNK_BYTES // (layer * m * m * 8))
        corners = self._corners
        pair_offsets = [[self._stored_offset([b - a for a, b in zip(corners[i], corners[j])])
                         for j in range(m)] for i in range(m)]
        lower = {k for k, _, _ in self._mirror_plan}
        # per local node: its (cells, nodes) slices on the axes after the first
        tails = [[(tuple(cells for cells, _ in pieces), tuple(nodes for _, nodes in pieces))
                  for pieces in product(*(
                      _wrapped_slices(0, c, corner, n, per) for c, corner, n, per in zip(
                          self.cell_shape[1:], self._corners[i][1:], self.shape[1:],
                          self.periodic[1:])))]
                 for i in range(m)]
        plan = []
        for lo in range(0, n_layers, step):
            hi = min(lo + step, n_layers)
            adds = []
            for i in reversed(range(m)):
                first = _wrapped_slices(lo, hi, self._corners[i][0], self.shape[0],
                                        self.periodic[0])
                places = [((cells,) + cells_tail, (nodes,) + nodes_tail)
                          for cells, nodes in first for cells_tail, nodes_tail in tails[i]]
                for j in range(m):
                    if pair_offsets[i][j] not in lower:
                        adds.extend(((pair_offsets[i][j],) + nodes, (i * m + j,) + cells)
                                    for cells, nodes in places)
            plan.append((slice(lo * layer, hi * layer), (m * m, hi - lo) + self.cell_shape[1:],
                         adds))
        return plan

    def stiffness_stencil(self, coeff=None):
        """The weighted stiffness matrix sum_q w c grad(phi_i).grad(phi_j) as a
        stencil array.

        A stencil array, the one matrix format of the grid, has shape
        (3**dim,) + shape: [o, r] holds the entry of row node r at offset o
        in {-1, 0, 1}**dim, the column r + o (wrapped on periodic axes), and
        o is numbered in C order of its per-axis digits.  Entries whose
        column leaves a non-periodic axis are zero.  On a periodic axis of
        2 nodes the offsets -1 and 1 reach the same node, and the entry is
        stored at -1 (see _axis_offsets).  A matrix leaves the stencil array
        only as a free-box DIA block (solver._box_stencil and solver._dia).
        """
        return self._assemble(self._stiffness_table, coeff)

    def mass_stencil(self, coeff=None):
        """The weighted mass matrix sum_q w c phi_i phi_j as a stencil array
        (see stiffness_stencil)."""
        return self._assemble(self._mass_table, coeff)

    def directional_stencil(self, direction):
        """The matrix sum_q w (v.grad(phi_i)) (v.grad(phi_j)) for directions v
        (E, Q, dim), as a stencil array (see stiffness_stencil).

        Each element's entries are a Gram matrix of sqrt(w) v.grad(phi_i),
        formed per chunk of first-axis cell layers, so the matrix is
        symmetric to the last bit, except on a periodic axis of 2 nodes,
        whose two wraps add to one entry in a different order for its row
        and for its column.
        """
        m = self.n_local

        def local(rows):
            u = np.einsum("eqd,qdm->eqm", direction[rows], self.basis_grads)
            u *= np.sqrt(self.quad_weights[rows])[..., None]
            return np.einsum("eqi,eqj->eij", u, u).reshape(-1, m * m).T

        return self._assemble_local(local)

    def apply_stencil(self, stencil, x):
        """The product of a stencil array's matrix with the nodal vector x.

        The offsets are added in C order of their digits, which on a
        non-periodic grid is the ascending column order of a CSR product;
        a periodic axis wraps.
        """
        return self._product_rows(stencil, x, tuple(slice(0, n) for n in self.shape))

    def _product_rows(self, stencil, x, rows):
        """The rows of apply_stencil(stencil, x) picked by rows, one slice per
        axis (whose step may pick layers), in C order and with the same
        arithmetic."""
        padded = np.pad(np.reshape(x, self.shape), 1, mode="wrap")
        for ax, per in enumerate(self.periodic):
            if not per:
                padded[(slice(None),) * ax + (0,)] = 0.0
                padded[(slice(None),) * ax + (-1,)] = 0.0
        shape = stencil[0][rows].shape
        y = np.zeros(shape)
        term = np.empty(shape)
        for k, digits in enumerate(product(range(3), repeat=self.dim)):
            y += np.multiply(stencil[k][rows], padded[tuple(slice(r.start + d, r.stop + d, r.step)
                                                            for d, r in zip(digits, rows))],
                             out=term)
        return y.ravel()

    def _assemble(self, table, coeff=None):
        """Stencil array with local entries table.T @ w.T, for the weights w =
        quad_weights (times coeff)."""

        def local(rows):
            w = self.quad_weights[rows]
            if coeff is not None:
                w = w * coeff[rows]
            return table.T @ w.T

        return self._assemble_local(local)

    def _assemble_local(self, local):
        """Stencil array (see stiffness_stencil) summed from symmetric local
        entries.

        local(rows) gives the entries (m*m, E_rows) of the elements in the
        slice rows, their pairs (i, j) row-major, with entry (j, i) equal to
        (i, j).  Chunk by chunk, the entries of each pair whose offset lies
        in the upper half are added to a slice of the stencil array, and
        then each lower offset's plane is one shifted copy of its mirror's
        (see _fill_plan and _mirror_plan).  An entry's terms are thus summed
        in ascending element order, as a bincount over the elements would
        sum them, except on the wrapped rows of a periodic axis; an entry
        and its mirror are equal, except where a periodic axis of 2 nodes
        stores two offsets in one plane.
        """
        stencil = np.zeros((3**self.dim,) + self.shape)
        for rows, shape, adds in self._fill_plan:
            entries = local(rows).reshape(shape)
            for target, source in adds:
                stencil[target] += entries[source]
            del entries  # freed before the next chunk's entries are formed
        for k, mirror, pieces in self._mirror_plan:
            for dst, src in pieces:
                stencil[k][dst] = stencil[mirror][src]
        return stencil


@dataclass(frozen=True)
class CanonicalDomain:
    """Cross-section-times-axis domain with a lateral boundary partition.

    base holds one (lo, hi) pair per cross-section axis: an interval for
    k = 1, a rectangle for k = 2.  lateral_bc assigns 'neumann' or
    'dirichlet0' to each lateral face in the order
    (axis0 low, axis0 high, axis1 low, axis1 high, ...); the two kinds
    partition the lateral boundary.
    """

    n: int
    k: int
    base: tuple[tuple[float, float], ...]
    axial_kind: str
    alpha: float
    beta: float
    lateral_bc: tuple[str, ...]

    def __post_init__(self):
        if not (0 < self.k < self.n):
            raise ValueError("need 0 < k < n")
        if self.axial_kind not in (LAYER, RADIAL):
            raise ValueError(f"unknown axial_kind {self.axial_kind!r}")
        if self.axial_kind == LAYER and self.n - self.k != 1:
            raise ValueError("layer mode needs n - k = 1")
        if self.axial_kind == RADIAL and not (self.n == 3 and self.k == 1):
            raise ValueError("radial mode needs n = 3, k = 1")
        if not (0 < self.alpha < self.beta):
            raise ValueError("need 0 < alpha < beta")
        if len(self.base) != self.k:
            raise ValueError("base needs one interval per cross-section axis")
        for lo, hi in self.base:
            if not hi > lo:
                raise ValueError("base intervals must have positive length")
        if len(self.lateral_bc) != 2 * self.k:
            raise ValueError("lateral_bc needs one entry per lateral face")
        for kind in self.lateral_bc:
            if kind not in (NEUMANN, DIRICHLET0):
                raise ValueError(f"unknown lateral condition {kind!r}")

    @property
    def beta_star(self):
        return 0.5 * (self.beta - self.alpha)

    @property
    def center(self):
        return 0.5 * (self.alpha + self.beta)

    @property
    def axial_range(self):
        if self.axial_kind == LAYER:
            return (-self.beta_star, self.beta_star)
        return (self.alpha, self.beta)

    @property
    def dim(self):
        """Dimension of the (possibly reduced) computational mesh."""
        return self.k + 1

    @property
    def lateral_pinned(self):
        """One (low, high) pair per cross-section axis, True on a
        Dirichlet-zero face."""
        bc = self.lateral_bc
        return tuple((bc[2 * ax] == DIRICHLET0, bc[2 * ax + 1] == DIRICHLET0)
                     for ax in range(self.k))

    def pk_of_axial(self, s):
        """Map the mesh axial coordinate to the distance p_k."""
        if self.axial_kind == LAYER:
            return np.asarray(s) + self.center
        return np.asarray(s)


def axial_distance(domain, x, shifted=False):
    """Distance p_k(x) = (sum_{j>k} x_j^2)^(1/2) of an ambient point.

    With shifted=True returns the centered variant p*_k = p_k - (alpha+beta)/2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.n:
        raise ValueError(f"expected {domain.n} coordinates, got {x.shape[-1]}")
    pk = np.sqrt(np.sum(x[..., domain.k :] ** 2, axis=-1))
    if shifted:
        pk = pk - domain.center
    return float(pk) if pk.ndim == 0 else pk


def _axis_cells(length, h):
    m = length / h
    r = round(m)
    if r >= 1 and abs(m - r) <= 1e-12 * max(1.0, abs(m)):
        return int(r)
    return int(math.ceil(m))


@dataclass(frozen=True)
class Mesh:
    """Structured mesh over a canonical domain; axial axis comes last."""

    domain: CanonicalDomain
    grid: TensorGrid
    requested_h: float

    @property
    def spacings(self):
        return self.grid.spacing

    @property
    def stations(self):
        """Axial grid-line coordinates."""
        return self.grid.axes[-1]

    @property
    def n_nodes(self):
        return self.grid.n_nodes

    @property
    def n_elems(self):
        return self.grid.n_elems

    def pk_at_quads(self):
        """p_k at every quadrature point, shape (n_elems, n_quad): formed per
        axial cell with the arithmetic of grid.quad_points[..., -1], without
        the (E, Q, dim) points, and written over the base cells of a fresh
        array, as the axial cell comes last in the elements' C order."""
        grid = self.grid
        half = grid.spacing[-1] / 2.0
        n_ax = grid.cell_shape[-1]
        centers = grid.axes[-1][:n_ax] + half
        out = np.empty((self.n_elems, grid.n_quad))
        out.reshape(-1, n_ax, grid.n_quad)[:] = self.domain.pk_of_axial(
            centers[:, None] + grid._quad_local[:, -1] * half)
        return out

    def station_index(self, tau, snap_tol=None):
        """Nearest axial grid line index and the snap distance."""
        ax = self.stations
        lo, hi = ax[0], ax[-1]
        span = hi - lo
        out_tol = 1e-9 * span
        if tau < lo - out_tol or tau > hi + out_tol:
            raise ValueError(f"axial value {tau} outside meshed range [{lo}, {hi}]")
        j = int(np.argmin(np.abs(ax - tau)))
        snap = float(abs(ax[j] - tau))
        if snap_tol is not None and snap > snap_tol:
            raise ValueError(f"axial value {tau} off-grid by {snap}, beyond tolerance {snap_tol}")
        return j, snap

    def snap_tolerance(self):
        span = self.stations[-1] - self.stations[0]
        return 1e-9 * span

    def _slab_cells(self, t, tau, snap_tol=None):
        """Axial cell range [jt, jtau) of the slab between the grid lines nearest
        t < tau; with snap_tol, a bound off-grid by more than it is rejected."""
        if t >= tau:
            raise ValueError("need t < tau")
        jt, _ = self.station_index(t, snap_tol)
        jtau, _ = self.station_index(tau, snap_tol)
        if jt >= jtau:
            raise ValueError("slab bounds snap to the same grid line")
        return jt, jtau

    def slab_rows(self, x, t, tau, snap_tol=None):
        """Rows of a per-element array x over the slab between t < tau (bounds
        checked against snap_tol as in _slab_cells).

        Elements are numbered in C order over the cell shape with the axial
        cell last, so the slab is an axial slice of x viewed as (base cells,
        axial cells, ...).  The result is a fresh C-contiguous array equal,
        byte for byte and in order, to x indexed by the slab's element ids.
        """
        jt, jtau = self._slab_cells(t, tau, snap_tol)
        x = np.asarray(x)
        tail = x.shape[1:]
        layers = x.reshape((-1, self.grid.cell_shape[-1]) + tail)
        return np.array(layers[:, jt:jtau], order="C").reshape((-1,) + tail)

    def cap_points(self, which):
        """Coordinates of the low/high cap nodes, shape (N, dim), in C order
        of the base axes: the rows of grid.nodes on that end plane, taken
        from the axes."""
        axial = self.stations[[0 if which == "low" else -1]]
        grids = np.meshgrid(*self.grid.axes[:-1], axial, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def cross_section(self, tau):
        return cross_section(self, tau)

    def section_key(self, j):
        """What cross_section builds the section at axial grid line j from:
        the base axes' bytes and the lateral kinds, and in radial mode the
        radius and the axial spacing.  Equal keys, on any meshes, mean
        identical sections."""
        key = (tuple(a.tobytes() for a in self.grid.axes[:-1]), self.domain.lateral_bc)
        if self.domain.axial_kind == RADIAL:
            key += (float(self.stations[j]), self.grid.spacing[-1])
        return key

    def station_edge_tables(self, j, side):
        """One-sided trace data at axial grid line j.

        Returns (cell, weights) where cell is the axial cell index of the
        adjacent element layer on the requested side ('below' or 'above'):
        its elements are the axial slice [:, cell] of a per-element array
        viewed as (base cells, axial cells, ...), ordered like the base
        grid's elements, and grid.face_terms evaluates a field on their
        faces.  weights, shape (base cells, base Gauss points), are the
        section quadrature weights, which carry the radial measure factor
        in radial mode.
        """
        if side == "below":
            cell = j - 1
        elif side == "above":
            cell = j
        else:
            raise ValueError("side must be 'below' or 'above'")
        grid = self.grid
        if cell < 0 or cell >= grid.cell_shape[-1]:
            raise ValueError(f"no element layer on side {side!r} of station {j}")
        nq = 2 ** (grid.dim - 1)
        w = np.full((math.prod(grid.cell_shape[:-1]), nq), np.prod(grid.spacing[:-1]) / nq)
        if self.domain.axial_kind == RADIAL:
            w = w * (2.0 * math.pi * self.stations[j])
        return cell, w


@dataclass(frozen=True)
class SectionDescriptor:
    """Axial cross-section snapped to a grid line.

    grid is the section mesh used for frequency computations (for radial
    domains an interval-times-circle grid with circumference 2*pi*tau).
    pinned holds one (low, high) pair of flags per section axis, True on
    a face that carries the Dirichlet-zero condition; a periodic axis has
    no faces and holds (False, False).
    """

    tau: float
    grid: TensorGrid
    pinned: tuple[tuple[bool, bool], ...]


def build_mesh(domain, resolution):
    """Build a structured tensor mesh with grid spacing close to resolution.

    Axis cell counts are length/resolution when that is an integer (within
    1e-12 relative), otherwise rounded up; the actual spacings are exposed
    on the mesh.  Radial-mode quadrature weights carry the factor 2*pi*r.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    lo_ax, hi_ax = domain.axial_range
    spans = [(lo, hi) for lo, hi in domain.base] + [(lo_ax, hi_ax)]
    axes = []
    for lo, hi in spans:
        cells = _axis_cells(hi - lo, resolution)
        axes.append(np.linspace(lo, hi, cells + 1))
    weight = None
    if domain.axial_kind == RADIAL:
        weight = lambda pts: 2.0 * math.pi * pts[..., -1]
    grid = TensorGrid(axes, weight=weight)
    return Mesh(domain=domain, grid=grid, requested_h=float(resolution))


def cross_section(mesh, tau):
    """Section at the axial grid line j nearest tau.

    It reads only what mesh.section_key(j) holds: the base axes and the
    lateral kinds, and in radial mode the radius and the axial spacing.
    """
    j, _ = mesh.station_index(tau)
    tau_snapped = float(mesh.stations[j])
    dom = mesh.domain
    base_axes = mesh.grid.axes[:-1]
    if dom.axial_kind == LAYER:
        section = TensorGrid(base_axes)
    else:
        radius = tau_snapped
        h_ax = mesh.grid.spacing[-1]
        m = max(8, int(math.ceil(2.0 * math.pi * radius / h_ax)))
        arc = np.arange(m) * (2.0 * math.pi * radius / m)
        section = TensorGrid([base_axes[0], arc], periodic=(False, True))
    pinned = dom.lateral_pinned + ((False, False),) * (section.dim - dom.k)
    return SectionDescriptor(tau=tau_snapped, grid=section, pinned=pinned)


def interval_section(length, cells, dirichlet="both"):
    """Standalone 1-D section mesh, mainly for frequency studies; dirichlet
    ('both', 'low', 'high' or 'none') names its pinned ends."""
    ends = {"both": (True, True), "low": (True, False), "high": (False, True),
            "none": (False, False)}
    if dirichlet not in ends:
        raise ValueError(f"dirichlet must be one of {', '.join(map(repr, ends))}, "
                         f"got {dirichlet!r}")
    grid = TensorGrid([np.linspace(0.0, length, cells + 1)])
    return SectionDescriptor(tau=0.0, grid=grid, pinned=(ends[dirichlet],))


def rectangle_section(lengths, cells, dirichlet="all"):
    """Standalone 2-D rectangular section mesh; dirichlet ('all' or 'none')
    tells whether its four sides are pinned."""
    if dirichlet not in ("all", "none"):
        raise ValueError(f"dirichlet must be 'all' or 'none', got {dirichlet!r}")
    grid = TensorGrid([np.linspace(0.0, L, c + 1) for L, c in zip(lengths, cells)])
    return SectionDescriptor(tau=0.0, grid=grid, pinned=((dirichlet == "all",) * 2,) * 2)
