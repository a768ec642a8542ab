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
import scipy.sparse as sp

_GAUSS = (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))

LAYER = "layer"
RADIAL = "radial"
NEUMANN = "neumann"
DIRICHLET0 = "dirichlet0"


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
        self._build_elements()
        self._build_basis_tables()

    def _build_elements(self):
        cell_idx = np.indices(self.cell_shape).reshape(self.dim, -1)  # (dim, E)
        conn = np.empty((self.n_elems, self.n_local), dtype=np.int64)
        for m, off in enumerate(self._corners):
            node_idx = []
            for ax in range(self.dim):
                ni = cell_idx[ax] + off[ax]
                if self.periodic[ax]:
                    ni = ni % self.shape[ax]
                node_idx.append(ni)
            conn[:, m] = np.ravel_multi_index(node_idx, self.shape)
        self.elem_nodes = conn

    def _build_basis_tables(self):
        # local multilinear basis on [-1, 1]^dim at tensor Gauss-2 points
        qpts = list(product(_GAUSS, repeat=self.dim))
        self.n_quad = len(qpts)
        self.basis_vals, self.basis_grads = self.basis_tables(qpts)
        self._quad_local = np.asarray(qpts)

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
        """Quadrature weights incl. measure factor, shape (n_elems, n_quad)."""
        w0 = np.prod(self.spacing) / self.n_quad
        w = np.full((self.n_elems, self.n_quad), w0)
        if self.weight is not None:
            w = w * self.weight(self.quad_points)
        return w

    def vals_at_quads(self, u):
        ue = np.asarray(u)[self.elem_nodes]  # (E, m)
        return np.einsum("em,qm->eq", ue, self.basis_vals)

    def grads_at_quads(self, u):
        ue = np.asarray(u)[self.elem_nodes]
        return np.einsum("em,qdm->eqd", ue, self.basis_grads)

    def stiffness(self, coeff=None, elems=None):
        """Assemble the weighted stiffness matrix sum_q w c grad(phi_i).grad(phi_j)."""
        w = self.quad_weights
        if coeff is not None:
            w = w * coeff
        if elems is not None:
            w = w[elems]
            conn = self.elem_nodes[elems]
        else:
            conn = self.elem_nodes
        ke = np.einsum("eq,qdi,qdj->eij", w, self.basis_grads, self.basis_grads)
        return self._scatter(ke, conn)

    def mass(self, elems=None):
        w = self.quad_weights
        if elems is not None:
            w = w[elems]
            conn = self.elem_nodes[elems]
        else:
            conn = self.elem_nodes
        me = np.einsum("eq,qi,qj->eij", w, self.basis_vals, self.basis_vals)
        return self._scatter(me, conn)

    def _scatter(self, local, conn):
        m = conn.shape[1]
        rows = np.repeat(conn, m, axis=1).ravel()
        cols = np.tile(conn, (1, m)).ravel()
        mat = sp.coo_matrix(
            (local.ravel(), (rows, cols)), shape=(self.n_nodes, self.n_nodes)
        )
        return mat.tocsr()

    def assemble_gradient_form(self, flux, elems=None, weights=None):
        """Nodal vector R_i = sum_q w <flux, grad phi_i> for a field flux (E, Q, dim)."""
        w = self.quad_weights if weights is None else weights
        if elems is not None:
            w = w[elems]
            conn = self.elem_nodes[elems]
            flux = flux[elems] if flux.shape[0] == self.n_elems else flux
        else:
            conn = self.elem_nodes
        re = np.einsum("eq,eqd,qdm->em", w, flux, self.basis_grads)
        out = np.zeros(self.n_nodes)
        np.add.at(out, conn, re)
        return out

    def assemble_scalar_form(self, density, elems=None):
        """Nodal vector R_i = sum_q w density phi_i for density (E, Q)."""
        w = self.quad_weights
        if elems is not None:
            w = w[elems]
            conn = self.elem_nodes[elems]
            density = density[elems] if density.shape[0] == self.n_elems else density
        else:
            conn = self.elem_nodes
        re = np.einsum("eq,eq,qm->em", w, density, self.basis_vals)
        out = np.zeros(self.n_nodes)
        np.add.at(out, conn, re)
        return out

    def boundary_node_ids(self, axis, side):
        """Node ids on the face of a non-periodic axis; side is 'low' or 'high'."""
        if self.periodic[axis]:
            raise ValueError("periodic axis has no boundary")
        idx = [np.arange(n) for n in self.shape]
        idx[axis] = np.asarray([0 if side == "low" else self.shape[axis] - 1])
        grids = np.meshgrid(*idx, indexing="ij")
        return np.ravel_multi_index([g.ravel() for g in grids], self.shape)

    def all_boundary_ids(self):
        ids = []
        for ax in range(self.dim):
            if self.periodic[ax]:
                continue
            ids.append(self.boundary_node_ids(ax, "low"))
            ids.append(self.boundary_node_ids(ax, "high"))
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(ids))


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

    def pk_of_axial(self, s):
        """Map the mesh axial coordinate to the distance p_k."""
        if self.axial_kind == LAYER:
            return np.asarray(s) + self.center
        return np.asarray(s)

    def base_measure(self):
        out = 1.0
        for lo, hi in self.base:
            out *= hi - lo
        return out


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

    @cached_property
    def elem_axial_cell(self):
        cells = np.indices(self.grid.cell_shape).reshape(self.grid.dim, -1)
        return cells[-1]

    @cached_property
    def frequency_memo(self):
        """Section frequency results of this mesh, filled by frequency_profile."""
        return {}

    def pk_at_quads(self):
        return self.domain.pk_of_axial(self.grid.quad_points[..., -1])

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

    def station_node_ids(self, j):
        idx = [np.arange(n) for n in self.grid.shape]
        idx[-1] = np.asarray([j])
        grids = np.meshgrid(*idx, indexing="ij")
        return np.ravel_multi_index([g.ravel() for g in grids], self.grid.shape)

    def slab_elements(self, t, tau):
        """Element ids of the slab between the grid lines nearest t < tau."""
        if t >= tau:
            raise ValueError("need t < tau")
        jt, _ = self.station_index(t)
        jtau, _ = self.station_index(tau)
        if jt >= jtau:
            raise ValueError("slab bounds snap to the same grid line")
        mask = (self.elem_axial_cell >= jt) & (self.elem_axial_cell < jtau)
        return np.flatnonzero(mask)

    def cap_node_ids(self, which):
        """Node ids of the low/high axial cap."""
        j = 0 if which == "low" else self.grid.shape[-1] - 1
        return self.station_node_ids(j)

    def lateral_node_ids(self, kind=None):
        """Node ids on lateral faces, optionally only those of one bc kind."""
        ids = []
        for ax in range(self.domain.k):
            for s, side in enumerate(("low", "high")):
                face_kind = self.domain.lateral_bc[2 * ax + s]
                if kind is not None and face_kind != kind:
                    continue
                ids.append(self.grid.boundary_node_ids(ax, side))
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(ids))

    def cross_section(self, tau):
        return cross_section(self, tau)

    def station_edge_tables(self, j, side):
        """One-sided trace data at axial grid line j.

        Returns (elem_ids, points, weights, vals_table, grads_table) where
        elem_ids is the adjacent element layer on the requested side
        ('below' or 'above'), ordered like the base grid's elements;
        points/weights are the section quadrature (weights carry the
        radial measure factor in radial mode); vals_table (Qb, m) and
        grads_table (Qb, dim, m) evaluate the volume basis on the edge.
        """
        n_ax_cells = self.grid.cell_shape[-1]
        if side == "below":
            c = j - 1
            xi_ax = 1.0
        elif side == "above":
            c = j
            xi_ax = -1.0
        else:
            raise ValueError("side must be 'below' or 'above'")
        if c < 0 or c >= n_ax_cells:
            raise ValueError(f"no element layer on side {side!r} of station {j}")
        elem_ids = np.flatnonzero(self.elem_axial_cell == c)
        # base-quadrature points on the section
        d = self.grid.dim
        base_q = list(product(_GAUSS, repeat=d - 1))
        nq = len(base_q)
        vals, grads = self.grid.basis_tables([xib + (xi_ax,) for xib in base_q])
        # physical points: tensor over base cells
        base_cells = self.grid.cell_shape[:-1]
        cell_idx = np.indices(base_cells).reshape(d - 1, -1)
        lows = np.stack(
            [self.grid.axes[ax][cell_idx[ax]] for ax in range(d - 1)], axis=-1
        )
        half = np.asarray(self.grid.spacing[: d - 1]) / 2.0
        centers = lows + half
        qb = np.asarray(base_q).reshape(nq, d - 1)
        pts_base = centers[:, None, :] + qb[None, :, :] * half[None, None, :]
        tau = self.stations[j]
        pts = np.concatenate(
            [pts_base, np.full(pts_base.shape[:-1] + (1,), tau)], axis=-1
        )
        w0 = np.prod(self.grid.spacing[: d - 1]) / nq if d > 1 else 1.0
        w = np.full(pts.shape[:-1], w0)
        if self.domain.axial_kind == RADIAL:
            w = w * (2.0 * math.pi * tau)
        return elem_ids, pts, w, vals, grads


@dataclass(frozen=True)
class SectionDescriptor:
    """Axial cross-section snapped to a grid line.

    grid is the section mesh used for frequency computations (for radial
    domains an interval-times-circle grid with circumference 2*pi*tau);
    trace_grid integrates fields of the reduced problem over the section
    and equals grid in layer mode.  dirichlet_ids are the section-grid
    nodes on lateral faces carrying the Dirichlet-zero condition.
    """

    tau: float
    snap_distance: float
    station: int
    volume_node_ids: np.ndarray
    grid: TensorGrid
    trace_grid: TensorGrid
    dirichlet_ids: np.ndarray


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
    """Section at the axial grid line nearest tau, with snap distance."""
    j, snap = mesh.station_index(tau)
    tau_snapped = float(mesh.stations[j])
    dom = mesh.domain
    vol_ids = mesh.station_node_ids(j)
    base_axes = mesh.grid.axes[:-1]
    if dom.axial_kind == LAYER:
        section = TensorGrid(base_axes)
        trace = section
    else:
        radius = tau_snapped
        h_ax = mesh.grid.spacing[-1]
        m = max(8, int(math.ceil(2.0 * math.pi * radius / h_ax)))
        arc = np.arange(m) * (2.0 * math.pi * radius / m)
        section = TensorGrid([base_axes[0], arc], periodic=(False, True))
        trace = TensorGrid(
            [base_axes[0]], weight=lambda pts, r=radius: np.full(pts.shape[:-1], 2.0 * math.pi * r)
        )
    dir_ids = []
    for ax in range(dom.k):
        for s, side in enumerate(("low", "high")):
            if dom.lateral_bc[2 * ax + s] == DIRICHLET0:
                dir_ids.append(section.boundary_node_ids(ax, side))
    dir_ids = (
        np.unique(np.concatenate(dir_ids)) if dir_ids else np.empty(0, dtype=np.int64)
    )
    return SectionDescriptor(
        tau=tau_snapped,
        snap_distance=snap,
        station=j,
        volume_node_ids=vol_ids,
        grid=section,
        trace_grid=trace,
        dirichlet_ids=dir_ids,
    )


def interval_section(length, cells, dirichlet="both"):
    """Standalone 1-D section mesh, mainly for frequency studies."""
    grid = TensorGrid([np.linspace(0.0, length, cells + 1)])
    ids = {
        "both": np.asarray([0, cells]),
        "low": np.asarray([0]),
        "high": np.asarray([cells]),
        "none": np.empty(0, dtype=np.int64),
    }[dirichlet]
    return SectionDescriptor(
        tau=0.0,
        snap_distance=0.0,
        station=0,
        volume_node_ids=np.empty(0, dtype=np.int64),
        grid=grid,
        trace_grid=grid,
        dirichlet_ids=ids,
    )


def rectangle_section(lengths, cells, dirichlet="all"):
    """Standalone 2-D rectangular section mesh."""
    axes = [np.linspace(0.0, L, c + 1) for L, c in zip(lengths, cells)]
    grid = TensorGrid(axes)
    ids = grid.all_boundary_ids() if dirichlet == "all" else np.empty(0, dtype=np.int64)
    return SectionDescriptor(
        tau=0.0,
        snap_distance=0.0,
        station=0,
        volume_node_ids=np.empty(0, dtype=np.int64),
        grid=grid,
        trace_grid=grid,
        dirichlet_ids=ids,
    )
