import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from svplab import frequency as fr
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st

BS = 3.0


def count_compute_calls(monkeypatch):
    """Record (kind, section tau) of every compute_frequency call."""
    calls = []
    compute = fr.compute_frequency

    def counting(section, p, kind):
        calls.append((kind, section.tau))
        return compute(section, p, kind)

    monkeypatch.setattr(fr, "compute_frequency", counting)
    return calls


def make_strip(lateral, beta_star=BS):
    return geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                               alpha=1.0, beta=1.0 + 2.0 * beta_star, lateral_bc=lateral)


def solve_cosh_dirichlet(h, beta_star=BS, p=2.0):
    dom = make_strip(("dirichlet0", "dirichlet0"), beta_star)
    mesh = geo.build_mesh(dom, h)
    g = lambda x: np.sin(np.pi * x[:, 0])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
    return sv.solve(dom, mesh, st.constant_operator(p), bc)


def solve_cosh_neumann(h, beta_star=BS, p=2.0):
    dom = make_strip(("neumann", "neumann"), beta_star)
    mesh = geo.build_mesh(dom, h)
    g = lambda x: np.cos(np.pi * x[:, 0])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("neumann", "neumann"))
    return sv.solve(dom, mesh, st.constant_operator(p), bc)


def solve_linear(h=1 / 16, beta_star=1.0):
    dom = make_strip(("neumann", "neumann"), beta_star)
    mesh = geo.build_mesh(dom, h)
    bc = sv.BoundarySpec(g_low=lambda x: np.full(len(x), -beta_star),
                         g_high=lambda x: np.full(len(x), beta_star),
                         lateral=("neumann", "neumann"))
    return sv.solve(dom, mesh, st.constant_operator(2.0), bc)


def cosh_energy(t, tau, beta_star=BS):
    """Closed form of the slab integral of |grad f|^2 for both cosh modes."""
    return (math.pi / 4.0) * (math.sinh(2 * math.pi * tau) - math.sinh(2 * math.pi * t)) \
        / math.cosh(math.pi * beta_star) ** 2


def cosh_section_energy(tau, beta_star=BS):
    return (math.pi**2 / 2.0) * math.cosh(2 * math.pi * tau) / math.cosh(math.pi * beta_star) ** 2


def cosh_section_mass(tau, beta_star=BS):
    """Closed form of the section integral of |f|^2 (C = 0) for cosh modes."""
    return 0.5 * math.cosh(math.pi * tau) ** 2 / math.cosh(math.pi * beta_star) ** 2


def gather_csr(grid, stencil):
    """The CSR matrix of a stencil array over the whole grid: the full-box DIA
    matrix of solver._box_stencil and solver._dia, as the second kind's
    curvature test gathers its blocks, as CSR with sorted indices.  It gathers from
    a copy, since _box_stencil consumes its argument."""
    box = tuple(slice(0, n) for n in grid.shape)
    A = sv._dia(sv._box_stencil(stencil.copy(), box, grid.periodic), grid.periodic).tocsr()
    A.sort_indices()
    return A


def reference_box_stencil(stencil, box, periodic=None):
    """solver._box_stencil as it was before it wrote over its argument: the
    box block copied into a fresh zeroed array, each periodic offset's
    plane rolled whole by np.roll first."""
    periodic = periodic or (False,) * len(box)
    shape = tuple(b.stop - b.start for b in box)
    D = np.zeros((len(stencil),) + shape)
    for k, digits in enumerate(itertools.product((-1, 0, 1), repeat=len(box))):
        wrap = [ax for ax, o in enumerate(digits) if o and periodic[ax]]
        source = stencil[k]
        if wrap:
            source = np.roll(source, [digits[ax] for ax in wrap], axis=wrap)
        digits = [0 if per else o for o, per in zip(digits, periodic)]
        D[k][tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(digits, shape))] = \
            source[tuple(slice(b.start + max(0, -o), b.stop - max(0, o))
                         for o, b in zip(digits, box))]
    return D


def reference_galerkin(D, axes):
    """solver._galerkin as it was before its passes were blocked: each
    coarsened axis's 13 slice adds over the whole level, one axis after
    another."""
    dim = len(axes)
    for ax, spec in enumerate(axes):
        if spec is None:
            continue
        parity, size = spec
        shape = (3,) * dim + D.shape[1:]
        out = np.zeros(shape[:dim + ax] + (size,) + shape[dim + ax + 1:])
        fine = np.moveaxis(D.reshape(shape), (ax, dim + ax), (0, -1))
        coarse = np.moveaxis(out, (ax, dim + ax), (0, -1))
        n = fine.shape[-1]
        for sigma, s, r, weight in sv._GALERKIN_TERMS:
            first = parity + r
            lo = max(0, sigma, -(first // 2))
            hi = min(size + min(0, sigma), (n - 1 - first) // 2 + 1)
            if hi > lo:
                term = fine[s + 1, ..., 2 * lo + first:2 * hi - 1 + first:2]
                coarse[sigma + 1, ..., lo:hi] += term * weight if weight != 1.0 else term
        D = out.reshape((3**dim,) + out.shape[dim:])
    return D


def grads_at_quads(grid, u):
    """Gradients (n_elems, n_quad, dim) of the nodal vector u at the
    quadrature points, from one pass of the grid's kernel."""
    return grid.quad_terms(u, grads=True)[1]


def reference_gradient_s(grid, u, eps):
    """s = |grad f|^2 + eps^2 from the whole (E, Q, dim) gradient."""
    return st.squared_norm(grads_at_quads(grid, u)) + eps**2


def pin(dim, faces):
    """The per-axis (low, high) pinned flags of the faces (axis, side) of a
    grid of dimension dim, side 0 or -1."""
    return tuple(((ax, 0) in faces, (ax, -1) in faces) for ax in range(dim))


def face_mask(grid, pinned):
    """Dirichlet mask of the faces flagged in pinned, one (low, high) pair
    per axis: the mask form of a Dirichlet set, for CSR references."""
    mask = np.zeros(grid.shape, dtype=bool)
    for ax, ends in enumerate(pinned):
        for end, flagged in zip((0, -1), ends):
            if flagged:
                mask[(slice(None),) * ax + (end,)] = True
    return mask.ravel()


def reference_free_box(grid, mask):
    """solver._free_box as it was built from a Dirichlet mask: per axis the
    range of the free nodes (the whole axis if periodic), or None when
    every node is Dirichlet; free nodes that do not form that box raise
    ValueError."""
    free = ~np.reshape(mask, grid.shape)
    if not free.any():
        return None
    box = []
    for ax in range(grid.dim):
        hit = np.flatnonzero(free.any(axis=tuple(b for b in range(grid.dim) if b != ax)))
        box.append(slice(0, grid.shape[ax]) if grid.periodic[ax]
                   else slice(int(hit[0]), int(hit[-1]) + 1))
    box = tuple(box)
    if np.count_nonzero(free) != free[box].size:
        raise ValueError("the free nodes must form a box of the grid")
    return box


def face_node_ids(grid, axis, side):
    """Node ids on the face of a non-periodic axis; side is 'low' or 'high'."""
    idx = [np.arange(n) for n in grid.shape]
    idx[axis] = np.asarray([0 if side == "low" else grid.shape[axis] - 1])
    grids = np.meshgrid(*idx, indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in grids], grid.shape)


def reference_dirichlet_data(mesh, bc):
    """solver.dirichlet_data as it was built from node ids: a boolean mask
    and the values, the cap data written to the ids of the two axial end
    planes (evaluated at their rows of grid.nodes), and then 0 to the ids
    of every Dirichlet-zero lateral face."""
    grid = mesh.grid
    mask = np.zeros(grid.n_nodes, dtype=bool)
    vals = np.zeros(grid.n_nodes)
    for side, g in (("low", bc.g_low), ("high", bc.g_high)):
        ids = face_node_ids(grid, grid.dim - 1, side)
        mask[ids] = True
        vals[ids] = np.asarray(g(grid.nodes[ids]), dtype=float)
    for ax in range(mesh.domain.k):
        for s, side in enumerate(("low", "high")):
            if mesh.domain.lateral_bc[2 * ax + s] == geo.DIRICHLET0:
                ids = face_node_ids(grid, ax, side)
                mask[ids] = True
                vals[ids] = 0.0
    return mask, vals


def corner_values(grid, u):
    """The values of the nodal vector u at each element's corners, shape
    (n_elems, n_local), elements in C order over cell_shape and corners in
    C order of their 0/1 digits: the reference gather, which corner_sums
    scatters back.  Gathered by one slice of the grid-shaped u per corner,
    wrapped on periodic axes (TensorGrid._wrapped).  The strided per-corner
    writes go chunk by chunk, each chunk whole first-axis cell layers whose
    result takes at most geo.ASSEMBLY_CHUNK_BYTES (and at least one
    layer)."""
    u = grid._wrapped(u)
    out = np.empty(grid.cell_shape + (grid.n_local,), dtype=u.dtype)
    n_layers = grid.cell_shape[0]
    step = max(1, geo.ASSEMBLY_CHUNK_BYTES // max(1, out.nbytes // n_layers))
    for lo in range(0, n_layers, step):
        hi = min(lo + step, n_layers)
        for m, corner in enumerate(grid._corners):
            out[lo:hi, ..., m] = u[(slice(corner[0] + lo, corner[0] + hi),) + tuple(
                slice(c, c + n) for c, n in zip(corner[1:], grid.cell_shape[1:]))]
    return out.reshape(grid.n_elems, grid.n_local)


def reference_quad_terms(grid, u):
    """Values (E, Q) and gradients (E, Q, dim) at the quadrature points by
    the element-gather einsum that TensorGrid.quad_terms replaced: each
    element's corner values (corner_values, which TestCornerGather holds to
    the connectivity), contracted with the basis tables."""
    ue = corner_values(grid, u)
    return (np.einsum("em,qm->eq", ue, grid.basis_vals),
            np.einsum("em,qdm->eqd", ue, grid.basis_grads))


def reference_assemble_local(grid, local):
    """TensorGrid._assemble_local as it was before the half stencil: every
    local pair (i, j), in order of descending i, added to the stencil plane
    of its offset at the nodes of corner i, chunk by chunk."""
    m = grid.n_local
    stencil = np.zeros((3**grid.dim,) + grid.shape)
    for rows, shape, _ in grid._fill_plan:
        entries = local(rows).reshape(shape)
        lo = rows.start // (grid.n_elems // grid.cell_shape[0])
        hi = lo + shape[1]
        for i in reversed(range(m)):
            places = [((cells,) + tuple(c for c, _ in rest), (nodes,) + tuple(n for _, n in rest))
                      for cells, nodes in geo._wrapped_slices(
                          lo, hi, grid._corners[i][0], grid.shape[0], grid.periodic[0])
                      for rest in itertools.product(*(
                          geo._wrapped_slices(0, c, corner, n, per) for c, corner, n, per in zip(
                              grid.cell_shape[1:], grid._corners[i][1:], grid.shape[1:],
                              grid.periodic[1:])))]
            for j in range(m):
                k = grid._stored_offset([b - a for a, b in zip(grid._corners[i], grid._corners[j])])
                for cells, nodes in places:
                    stencil[(k,) + nodes] += entries[(i * m + j,) + cells]
    return stencil


def reference_elem_nodes(grid):
    """The element connectivity (n_elems, n_local), the node ids of each
    element's corners in the order of corner_values: per corner,
    the cell indices shifted by the corner's digits, wrapped on periodic
    axes, and raveled."""
    cell_idx = np.indices(grid.cell_shape).reshape(grid.dim, -1)  # (dim, E)
    conn = np.empty((grid.n_elems, grid.n_local), dtype=np.int64)
    for m, off in enumerate(itertools.product((0, 1), repeat=grid.dim)):
        node_idx = []
        for ax in range(grid.dim):
            ni = cell_idx[ax] + off[ax]
            if grid.periodic[ax]:
                ni = ni % grid.shape[ax]
            node_idx.append(ni)
        conn[:, m] = np.ravel_multi_index(node_idx, grid.shape)
    return conn


def reference_gradient_form(grid, flux):
    """Nodal vector R_i = sum_q w <flux, grad phi_i> for a field flux (E, Q,
    dim), scattered through the connectivity by np.add.at."""
    re = np.einsum("eq,eqd,qdm->em", grid.quad_weights, flux, grid.basis_grads)
    out = np.zeros(grid.n_nodes)
    np.add.at(out, reference_elem_nodes(grid), re)
    return out


def reference_scalar_form(grid, density):
    """Nodal vector R_i = sum_q w density phi_i for density (E, Q), scattered
    through the connectivity by np.add.at."""
    re = np.einsum("eq,eq,qm->em", grid.quad_weights, density, grid.basis_vals)
    out = np.zeros(grid.n_nodes)
    np.add.at(out, reference_elem_nodes(grid), re)
    return out


def reference_csr_pattern(grid):
    """The CSR pattern (indptr, indices) of the matrices that gather_csr
    gathers, and the map slots (n_elems, m*m) from each local entry (i, j),
    flattened row-major, to its position in the CSR data, built by one
    stable argsort of the element entries' (row, col) keys."""
    n, m = grid.n_nodes, grid.n_local
    conn = reference_elem_nodes(grid)
    keys = (conn[:, :, None] * n + conn[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    slots = np.empty(order.size, dtype=np.int32)
    slots[order] = np.cumsum(first, dtype=np.int32) - 1
    rows, cols = np.divmod(keys[first], n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(np.int32), slots.reshape(grid.n_elems, m * m)


def pattern_grids():
    """One small grid of each kind, named for the assembly tests."""
    k2 = geo.CanonicalDomain(n=3, k=2, base=((0.0, 1.0), (0.0, 2.0)), axial_kind="layer",
                             alpha=1.0, beta=2.0, lateral_bc=("dirichlet0",) * 4)
    radial = geo.build_mesh(
        geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial", alpha=1.0,
                            beta=3.0, lateral_bc=("neumann", "neumann")), 1 / 4)
    return {
        "1d": geo.interval_section(1.0, 7).grid,
        "2d": geo.build_mesh(make_strip(("neumann", "neumann"), 1.0), 1 / 4).grid,
        "3d": geo.build_mesh(k2, 1 / 4).grid,
        "radial-volume": radial.grid,
        "periodic-section": radial.cross_section(2.0).grid,
        # an odd cell count, and periodic axes whose wrap repeats entries
        "short-periodic": geo.TensorGrid(
            [np.linspace(0.0, 1.0, 4), np.arange(2.0), np.arange(3.0)],
            periodic=(False, True, True)),
        # periodic first axes: assembly chunks wrap onto node 0
        "periodic-first": geo.TensorGrid(
            [np.arange(2.0), np.arange(3.0), np.linspace(0.0, 1.0, 3)],
            periodic=(True, True, False)),
    }


def slab_meshes():
    """A 2-D layer, a 3-D k = 2 layer and a radial mesh, for the slab and
    section tests."""
    k2 = geo.CanonicalDomain(n=3, k=2, base=((0.0, 1.0), (0.0, 0.5)), axial_kind="layer",
                             alpha=1.0, beta=2.0, lateral_bc=("dirichlet0",) * 4)
    radial = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                 alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
    return {
        "layer-2d": geo.build_mesh(make_strip(("neumann", "neumann"), 1.0), 1 / 4),
        "layer-3d": geo.build_mesh(k2, 1 / 4),
        "radial": geo.build_mesh(radial, 1 / 4),
    }


def station_meshes():
    """The README mesh at h = 1/16, its k = 2 variant at h = 1/8 and the
    radial benchmark mesh at h = 1/8, for the trace and section-form tests."""
    readme = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer", alpha=1.0,
                                 beta=7.0, lateral_bc=("dirichlet0",) * 2)
    k2 = dataclasses.replace(readme, n=3, k=2, base=((0.0, 1.0), (0.0, 1.0)),
                             lateral_bc=("dirichlet0",) * 4)
    radial = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial", alpha=1.0,
                                 beta=4.0, lateral_bc=("neumann", "neumann"))
    return {"readme-h16": geo.build_mesh(readme, 1 / 16),
            "readme-k2-h8": geo.build_mesh(k2, 1 / 8),
            "radial-h8": geo.build_mesh(radial, 1 / 8)}


def reference_slab_elements(mesh, t, tau):
    """Slab element ids by a mask over every element's axial cell."""
    jt, _ = mesh.station_index(t)
    jtau, _ = mesh.station_index(tau)
    cell = np.indices(mesh.grid.cell_shape).reshape(mesh.grid.dim, -1)[-1]
    return np.flatnonzero((cell >= jt) & (cell < jtau))


def reference_station_edge_tables(mesh, j, side):
    """Mesh.station_edge_tables built from scratch for station j alone: the
    element ids of the layer, the section quadrature points with the
    station as last coordinate, the weights, and the basis tables on the
    layer's face."""
    grid = mesh.grid
    c, xi_ax = (j - 1, 1.0) if side == "below" else (j, -1.0)
    elem_ids = np.flatnonzero(
        np.indices(grid.cell_shape).reshape(grid.dim, -1)[-1] == c)
    d = grid.dim
    base_q = list(itertools.product(geo._GAUSS, repeat=d - 1))
    vals, grads = grid.basis_tables([xib + (xi_ax,) for xib in base_q])
    cell_idx = np.indices(grid.cell_shape[:-1]).reshape(d - 1, -1)
    lows = np.stack([grid.axes[ax][cell_idx[ax]] for ax in range(d - 1)], axis=-1)
    half = np.asarray(grid.spacing[: d - 1]) / 2.0
    qb = np.asarray(base_q).reshape(len(base_q), d - 1)
    pts_base = (lows + half)[:, None, :] + qb[None, :, :] * half[None, None, :]
    tau = mesh.stations[j]
    pts = np.concatenate([pts_base, np.full(pts_base.shape[:-1] + (1,), tau)], axis=-1)
    w = np.full(pts.shape[:-1], np.prod(grid.spacing[: d - 1]) / len(base_q))
    if mesh.domain.axial_kind == geo.RADIAL:
        w = w * (2.0 * math.pi * tau)
    return elem_ids, pts, w, vals, grads


def reference_trace(mesh, values, j, side):
    """ScalarField.trace from reference_station_edge_tables, the element
    layer's corners gathered through the connectivity table; z is the one
    axial coordinate of the section points."""
    elem_ids, pts, w, vals, grads = reference_station_edge_tables(mesh, j, side)
    (z,) = np.unique(pts[..., -1])
    ue = values[reference_elem_nodes(mesh.grid)[elem_ids]]
    return z, w, np.einsum("em,qm->eq", ue, vals), np.einsum("em,qdm->eqd", ue, grads)


def reference_kernel_trace(mesh, values, j, side):
    """ScalarField.trace by the kernel over the whole mesh: every axial cell
    layer's values and gradients on the node plane of station j's side, in
    one pass, and the station's layer sliced from them."""
    grid = mesh.grid
    cell, at = (j - 1, 1) if side == "below" else (j, 0)
    vals, grads = grid.face_terms(values, at)
    layers = (-1, grid.cell_shape[-1], vals.shape[1])
    _, pts, w, _, _ = reference_station_edge_tables(mesh, j, side)
    (z,) = np.unique(pts[..., -1])
    return (z, w, vals.reshape(layers)[:, cell],
            grads.reshape(layers + (grid.dim,))[:, cell])


def reference_pk_at_quads(mesh):
    """Mesh.pk_at_quads by per-element arithmetic: each element's axial cell,
    its center and the axial Gauss points, as grid.quad_points[..., -1]."""
    grid = mesh.grid
    half = grid.spacing[-1] / 2.0
    cell = np.arange(mesh.n_elems) % grid.cell_shape[-1]
    centers = grid.axes[-1][cell] + half
    return mesh.domain.pk_of_axial(centers[:, None] + grid._quad_local[:, -1] * half)


def cg_from_zero(mesh, op, bc):
    """The field and CG iteration counts of multigrid CG on the stiffness with
    op's a(x), from zero on the free nodes to CG_RTOL of the right-hand
    side: the p = 2 solve as a cold CG solve ran it, which a warm solve
    from the Dirichlet data with CG_FORCING = 0 repeats step for step."""
    pinned, vals = sv.dirichlet_data(mesh, bc)
    system = sv._FreeSystem(mesh.grid, pinned, vals)
    K = mesh.grid.stiffness_stencil(coeff=op.a(mesh.pk_at_quads()))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sv, "CG_FORCING", 0.0)
        x = system.solve(system.restrict(K), vals)
    return x, tuple(system.linear_iterations)


def whole_layer_solve(domain, mesh, op, bc):
    """solver.solve as it was before the half-layer path: the cold solve and
    the outer loop on the whole mesh, whatever the symmetry of the data."""
    pinned, vals = sv.dirichlet_data(mesh, bc)
    scale = float(np.max(np.abs(vals), initial=0.0))
    eps = sv.EPS_REG_REL * (scale if scale > 0.0 else 1.0)
    a_q = op.a(mesh.pk_at_quads())
    system = sv._FreeSystem(mesh.grid, pinned, vals)
    f = sv._separable_solve(system, a_q)
    exact = op.p == 2.0
    f, energy, steps, converged, decrease, theta = sv._minimize(
        system, a_q, op.p, f, eps, steps=0 if exact else sv.MAX_OUTER - 1)
    diag = sv.SolverDiagnostics(
        outer_iterations=1 + steps, converged=exact or converged, energy=energy,
        last_decrease=decrease, eps_reg=eps, damping_final=theta,
        linear_solver="separable" if exact and system.box is not None else system.method,
        linear_iterations=tuple(system.linear_iterations), mirrored=False)
    return sv.ScalarField(mesh=mesh, values=f, op=op, bc=bc, diagnostics=diag)


def half_layer_reduction(mesh, op, bc):
    """The upper half of a mirror-symmetric layer problem, built from its
    definition: (grid, pinned, vals, a_q, mirror).  The grid has the base
    axes and the axial nodes 0, h, ..., (n/2) h, with the full grid's
    spacing to the bit; the cap end is pinned and the centre plane is
    natural; vals and a_q are the upper halves of the whole problem's; and
    mirror(f) indexes the whole field from a half one, node plane |j - n/2|
    of the half at whole plane j."""
    grid = mesh.grid
    m = grid.cell_shape[-1] // 2
    half = geo.TensorGrid(list(grid.axes[:-1]) + [np.arange(m + 1) * grid.spacing[-1]])
    assert half.spacing == grid.spacing
    pinned, vals = sv.dirichlet_data(mesh, bc)
    a_q = op.a(mesh.pk_at_quads())
    planes = np.abs(np.arange(-m, m + 1))
    return (half, pinned[:-1] + ((False, True),),
            np.reshape(vals, grid.shape)[..., m:].ravel(),
            np.reshape(a_q, (-1, 2 * m, grid.n_quad))[:, m:].reshape(-1, grid.n_quad),
            lambda f: np.reshape(f, half.shape)[..., planes].ravel())


def unequal_caps(problem):
    """The problem (domain, mesh, op, bc) with g_high = 2 g_low, which the
    half-layer path declines."""
    dom, mesh, op, bc = problem
    g = bc.g_low
    return dom, mesh, op, dataclasses.replace(bc, g_high=lambda x: 2.0 * g(x))


@pytest.fixture
def vcycle_levels(monkeypatch):
    """Coarse-level count of every multigrid V-cycle built during the test."""
    levels = []

    class Recording(sv._VCycle):
        def __init__(self, D, hierarchy, *periodic):
            super().__init__(D, hierarchy, *periodic)
            levels.append(len(self.levels))

    monkeypatch.setattr(sv, "_VCycle", Recording)
    return levels


@pytest.fixture
def nan_vcycle(monkeypatch):
    """Every multigrid V-cycle returns NaN, so that CG's first iterate is
    not finite."""
    monkeypatch.setattr(sv._VCycle, "__call__", lambda self, r: np.full(np.size(r), np.nan))


def numeric_cutoff_minimum(mass, tau1, tau2, p):
    """Reference for optimal_cutoff: min over piecewise-linear psi with
    psi(tau1) = 1, psi(tau2) = 0 of sum |psi'|^p int m, by L-BFGS-B."""
    sel = (mass.stations >= tau1) & (mass.stations <= tau2)
    st_, m = mass.stations[sel], mass.values[sel]
    dt = np.diff(st_)
    mbar = 0.5 * (m[1:] + m[:-1]) * dt  # per-interval mass integral

    def fun(interior):
        psi = np.concatenate([[1.0], interior, [0.0]])
        slope = np.diff(psi) / dt
        val = float(np.sum(np.abs(slope) ** p * mbar))
        dval_dslope = p * np.abs(slope) ** (p - 2.0) * slope * mbar / dt
        return val, dval_dslope[:-1] - dval_dslope[1:]

    x0 = np.linspace(1.0, 0.0, st_.size)[1:-1]
    if x0.size == 0:
        return float(np.sum(np.abs(-1.0 / dt) ** p * mbar))
    res = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
    )
    return float(res.fun)


@pytest.fixture(scope="session")
def cosh_dirichlet_16():
    return solve_cosh_dirichlet(1 / 16)


@pytest.fixture(scope="session")
def cosh_neumann_16():
    return solve_cosh_neumann(1 / 16)


@pytest.fixture(scope="session")
def linear_16():
    return solve_linear(1 / 16)
