import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (corner_values, face_mask, face_node_ids, gather_csr, grads_at_quads,
                      pattern_grids, reference_assemble_local, reference_csr_pattern,
                      reference_elem_nodes, reference_pk_at_quads, reference_kernel_trace,
                      reference_quad_terms, reference_slab_elements,
                      reference_station_edge_tables, reference_trace, slab_meshes,
                      station_meshes)
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st


def strip_domain(lateral=("neumann", "neumann"), alpha=1.0, beta=3.0):
    return geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                               alpha=alpha, beta=beta, lateral_bc=lateral)


def radial_domain(alpha=1.0, beta=3.0, L=1.0):
    return geo.CanonicalDomain(n=3, k=1, base=((0.0, L),), axial_kind="radial",
                               alpha=alpha, beta=beta, lateral_bc=("neumann", "neumann"))


class TestAxialDistance:
    def test_single_coordinate(self):
        assert geo.axial_distance(strip_domain(), (0.3, 2.0)) == 2.0

    def test_two_coordinate(self):
        d = radial_domain()
        assert geo.axial_distance(d, (1.0, 2.0, 2.0)) == pytest.approx(math.sqrt(8.0), rel=1e-15)

    def test_shifted_midline(self):
        d = strip_domain(alpha=1.0, beta=3.0)  # center 2
        assert geo.axial_distance(d, (0.7, 2.0), shifted=True) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            geo.axial_distance(strip_domain(), (1.0, 2.0, 3.0))


class TestDomainValidation:
    def test_alpha_beta_order(self):
        with pytest.raises(ValueError):
            strip_domain(alpha=3.0, beta=1.0)

    def test_beta_star(self):
        assert strip_domain(alpha=1.0, beta=7.0).beta_star == 3.0

    def test_layer_needs_n_minus_k_one(self):
        with pytest.raises(ValueError):
            geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))

    def test_lateral_partition_size(self):
        with pytest.raises(ValueError):
            strip_domain(lateral=("neumann",))

    def test_bad_lateral_kind(self):
        with pytest.raises(ValueError):
            strip_domain(lateral=("neumann", "clamped"))


class TestBuildMesh:
    def test_node_and_element_counts(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        assert mesh.n_nodes == 15
        assert mesh.n_elems == 8

    def test_fine_counts(self):
        mesh = geo.build_mesh(strip_domain(), 1.0 / 64.0)
        assert mesh.grid.shape == (65, 129)

    def test_zero_resolution(self):
        with pytest.raises(ValueError):
            geo.build_mesh(strip_domain(), 0.0)

    def test_non_divisible_rounds_up(self):
        mesh = geo.build_mesh(strip_domain(), 0.3)
        # 1/0.3 -> 4 cells, 2/0.3 -> 7 cells; actual spacings reported
        assert mesh.grid.cell_shape == (4, 7)
        assert mesh.spacings[0] == pytest.approx(0.25)

    def test_stations_hit_exact_multiples(self):
        mesh = geo.build_mesh(strip_domain(alpha=1.0, beta=7.0), 1.0 / 64.0)
        j, snap = mesh.station_index(0.25)
        assert snap == 0.0
        assert mesh.stations[j] == 0.25

    @pytest.mark.parametrize("domain", [strip_domain(beta=3.7), radial_domain(beta=3.3)],
                             ids=["layer", "radial"])
    def test_pk_at_quads_is_the_axial_quad_coordinate(self, domain):
        mesh = geo.build_mesh(domain, 0.15)
        pk = mesh.pk_at_quads()
        ref = domain.pk_of_axial(mesh.grid.quad_points[..., -1])
        assert pk.shape == ref.shape and pk.dtype == ref.dtype
        assert pk.tobytes() == ref.tobytes()


def same_section(a, b):
    """Equal section axes (byte for byte), periodicity and pinned faces."""
    return (len(a.grid.axes) == len(b.grid.axes)
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.grid.axes, b.grid.axes))
            and a.grid.periodic == b.grid.periodic
            and a.pinned == b.pinned)


class TestCrossSection:
    def test_exact_station(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        sec = mesh.cross_section(0.0)
        assert sec.tau == 0.0
        assert sec.grid.shape == (3,)

    def test_snaps_to_nearest(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        # stations are -1, -0.5, 0, 0.5, 1: nearest line to 0.24 is 0.0
        sec = mesh.cross_section(0.24)
        assert sec.tau == 0.0
        sec2 = mesh.cross_section(0.26)
        assert sec2.tau == 0.5

    def test_out_of_range(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        with pytest.raises(ValueError):
            mesh.cross_section(2.0)

    def test_snap_idempotent(self):
        mesh = geo.build_mesh(strip_domain(), 0.25)
        rng = np.random.default_rng(7)
        for tau in rng.uniform(-1.0, 1.0, size=20):
            sec = mesh.cross_section(tau)
            again = mesh.cross_section(sec.tau)
            assert again.tau == sec.tau
            assert same_section(sec, again)

    def test_dirichlet_trace_set(self):
        mesh = geo.build_mesh(strip_domain(lateral=("dirichlet0", "neumann")), 0.25)
        sec = mesh.cross_section(0.0)
        assert sec.pinned == ((True, False),)
        assert np.flatnonzero(face_mask(sec.grid, sec.pinned)).tolist() == [0]

    def test_radial_section_pins_its_dirichlet_end_only(self):
        dom = replace(radial_domain(), lateral_bc=("neumann", "dirichlet0"))
        sec = geo.build_mesh(dom, 0.25).cross_section(2.0)
        assert sec.pinned == ((False, True), (False, False))

    def test_interval_section_rejects_unknown_dirichlet(self):
        ends = {"both": (True, True), "low": (True, False), "high": (False, True),
                "none": (False, False)}
        for name, pair in ends.items():
            assert geo.interval_section(1.0, 4, dirichlet=name).pinned == (pair,)
        with pytest.raises(ValueError, match="'both', 'low', 'high', 'none'.*'Both'"):
            geo.interval_section(1.0, 4, dirichlet="Both")

    def test_rectangle_section_rejects_unknown_dirichlet(self):
        assert geo.rectangle_section((1, 1), (4, 4)).pinned == ((True, True),) * 2
        assert geo.rectangle_section((1, 1), (4, 4), "none").pinned == ((False, False),) * 2
        with pytest.raises(ValueError, match="'all' or 'none'.*'both'"):
            geo.rectangle_section((1, 1), (4, 4), dirichlet="both")

    def test_radial_section_is_periodic_cylinder(self):
        mesh = geo.build_mesh(radial_domain(), 0.25)
        sec = mesh.cross_section(2.0)
        assert sec.grid.periodic == (False, True)
        # arc axis circumference is 2 pi tau
        m = sec.grid.shape[1]
        circumference = m * sec.grid.spacing[1]
        assert circumference == pytest.approx(2.0 * math.pi * 2.0, rel=1e-12)


def readme_domain():
    """The README example's domain: the band (-3, 3) over the unit interval."""
    return geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer", alpha=1.0,
                               beta=7.0, lateral_bc=("dirichlet0", "dirichlet0"))


class TestSectionKey:
    """Equal section keys mean identical sections, on any mesh."""

    @staticmethod
    def sections_by_key(meshes):
        """{key: section} over every station of the meshes, checking that
        each station's section equals the first one built for its key."""
        by_key = {}
        for mesh in meshes:
            for j, tau in enumerate(mesh.stations):
                sec = mesh.cross_section(tau)
                assert same_section(by_key.setdefault(mesh.section_key(j), sec), sec)
        return by_key

    def test_layer_stations_share_one_key(self):
        mesh = geo.build_mesh(strip_domain(lateral=("dirichlet0", "neumann")), 1 / 8)
        assert len(self.sections_by_key([mesh])) == 1

    def test_layer_pl_truncations_share_the_run_section(self):
        # the README run mesh and its pl truncation meshes (truncations 2 3 4)
        dom = readme_domain()
        meshes = [geo.build_mesh(dom, 1 / 8)] + [
            geo.build_mesh(replace(dom, beta=dom.alpha + 2.0 * T), 1 / 8) for T in (2.0, 3.0, 4.0)]
        assert len(self.sections_by_key(meshes)) == 1

    def test_radial_pl_truncations_share_their_radii(self):
        # radial-pl.cfg's truncation meshes (outer radii 3 3.5 4) at h = 1/8
        dom = radial_domain(beta=4.0)
        meshes = [geo.build_mesh(replace(dom, beta=T), 1 / 8) for T in (3.0, 3.5, 4.0)]
        by_key = self.sections_by_key(meshes)
        radii = {float(r) for mesh in meshes for r in mesh.stations}
        assert len(by_key) == len(radii) == 25
        assert sorted(sec.tau for sec in by_key.values()) == sorted(radii)

    def test_radial_key_holds_the_axial_spacing(self):
        # the same base and radius 1 at axial spacings 1/4 and 2.1/9
        a = geo.build_mesh(radial_domain(beta=3.0), 0.25)
        b = geo.build_mesh(radial_domain(beta=3.1), 0.25)
        assert a.grid.axes[0].tobytes() == b.grid.axes[0].tobytes()
        assert a.stations[0] == b.stations[0] == 1.0
        assert a.section_key(0) != b.section_key(0)
        assert not same_section(a.cross_section(1.0), b.cross_section(1.0))


def slab_elements(mesh, t, tau):
    """Element ids of the slab between the grid lines nearest t < tau."""
    return mesh.slab_rows(np.arange(mesh.n_elems), t, tau)


class TestSlab:
    def test_whole_range(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        assert slab_elements(mesh, -1.0, 1.0).size == mesh.n_elems

    def test_counting(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        assert slab_elements(mesh, 0.0, 0.5).size == 2

    def test_empty_interval(self):
        mesh = geo.build_mesh(strip_domain(), 0.5)
        with pytest.raises(ValueError):
            slab_elements(mesh, 0.2, 0.2)

    def test_partition(self):
        mesh = geo.build_mesh(strip_domain(), 0.25)
        whole = set(slab_elements(mesh, -1.0, 1.0).tolist())
        left = set(slab_elements(mesh, -1.0, 0.25).tolist())
        right = set(slab_elements(mesh, 0.25, 1.0).tolist())
        assert left | right == whole
        assert not (left & right)

    def test_measure_layer(self):
        mesh = geo.build_mesh(strip_domain(), 0.25)
        w = mesh.grid.quad_weights[slab_elements(mesh, -0.5, 0.75)]
        assert np.sum(w) == pytest.approx(1.0 * 1.25, rel=1e-13)

    def test_measure_radial(self):
        mesh = geo.build_mesh(radial_domain(L=0.5), 0.125)
        t, tau = 1.5, 2.5
        w = mesh.grid.quad_weights[slab_elements(mesh, t, tau)]
        expected = 2.0 * math.pi * 0.5 * (tau**2 - t**2) / 2.0
        assert np.sum(w) == pytest.approx(expected, rel=1e-13)

    def test_radial_weights_positive(self):
        mesh = geo.build_mesh(radial_domain(), 0.25)
        assert np.all(mesh.grid.quad_weights > 0)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["layer-2d", "layer-3d", "radial"])
class TestAxialSlabsAndSections:
    """Slab slices and shared section tables against from-scratch builds."""

    def test_slab_rows_equal_fancy_indexing(self, name):
        mesh = slab_meshes()[name]
        rng = np.random.default_rng(0)
        arrays = (mesh.grid.quad_weights, reference_elem_nodes(mesh.grid),
                  rng.normal(size=(mesh.n_elems, mesh.grid.n_quad, mesh.grid.dim)))
        stations = mesh.stations
        for i, t in enumerate(stations):
            for tau in stations[i + 1:]:
                elems = reference_slab_elements(mesh, t, tau)
                assert same_bytes(slab_elements(mesh, t, tau), elems)
                for x in arrays:
                    rows = mesh.slab_rows(x, t, tau)
                    assert rows.flags.c_contiguous and rows.flags.writeable
                    assert same_bytes(rows, x[elems])

    def test_slab_rows_errors(self, name):
        mesh = slab_meshes()[name]
        x = mesh.grid.quad_weights
        mid = mesh.stations[mesh.stations.size // 2]
        with pytest.raises(ValueError, match="t < tau"):
            mesh.slab_rows(x, mid, mid)
        with pytest.raises(ValueError, match="same grid line"):
            mesh.slab_rows(x, mid, mid + 1e-3 * mesh.spacings[-1])
        with pytest.raises(ValueError, match="outside meshed range"):
            mesh.slab_rows(x, mid, mesh.stations[-1] + 1.0)

    def test_station_edge_tables_equal_per_station_build(self, name):
        mesh = slab_meshes()[name]
        last = mesh.stations.size - 1
        for j in range(last + 1):
            for side in ("below", "above"):
                if (side, j) in (("below", 0), ("above", last)):
                    with pytest.raises(ValueError, match="no element layer"):
                        mesh.station_edge_tables(j, side)
                    continue
                cell, w = mesh.station_edge_tables(j, side)
                elem_ids, _, want, _, _ = reference_station_edge_tables(mesh, j, side)
                layers = np.arange(mesh.n_elems).reshape(-1, mesh.grid.cell_shape[-1])
                assert same_bytes(layers[:, cell], elem_ids)
                assert same_bytes(w, want)
        with pytest.raises(ValueError, match="side must be"):
            mesh.station_edge_tables(1, "left")

    def test_tracing_every_station_builds_section_tables_once(self, name, monkeypatch):
        """The traces slice the field's node-plane arrays, one kernel pass on
        the lower planes and one on the top layer's upper plane: no basis
        table is built."""
        mesh = slab_meshes()[name]
        calls = []
        tables = geo.TensorGrid.basis_tables
        monkeypatch.setattr(geo.TensorGrid, "basis_tables",
                            lambda self, points: calls.append(self) or tables(self, points))
        faces = []
        face_terms = geo.TensorGrid.face_terms
        monkeypatch.setattr(geo.TensorGrid, "face_terms",
                            lambda self, u, at, *layers: faces.append(at)
                            or face_terms(self, u, at, *layers))
        values = np.random.default_rng(1).normal(size=mesh.n_nodes)
        field = sv.ScalarField(mesh=mesh, values=values, op=st.constant_operator(2.0),
                               bc=None, diagnostics=None)
        last = mesh.stations.size - 1
        for j in range(last + 1):
            for side, has_layer in (("below", j > 0), ("above", j < last)):
                if has_layer:
                    field.trace(j, side)
        assert faces == [0, 1]  # the lower planes, then the top
        assert not calls


@pytest.mark.parametrize("name", list(pattern_grids()))
def test_constant_tables_are_read_only_broadcasts(name):
    """Without a measure factor the quadrature weights are one value
    broadcast to (E, Q), as is a constant a(x); both are read-only, and the
    stiffness and mass stencils keep the bytes of materialized weights."""
    grid = pattern_grids()[name]
    w = grid.quad_weights
    full = np.full((grid.n_elems, grid.n_quad), np.prod(grid.spacing) / grid.n_quad)
    assert not w.flags.writeable
    if grid.weight is None:
        assert w.strides == (0, 0) and same_bytes(np.ascontiguousarray(w), full)
    else:
        assert same_bytes(w, full * grid.weight(grid.quad_points))
    for table, stencil in ((grid._stiffness_table, grid.stiffness_stencil()),
                           (grid._mass_table, grid.mass_stencil())):
        ref = grid._assemble_local(lambda rows: table.T @ np.array(w[rows]).T)
        assert same_bytes(stencil, ref)
    pk = np.random.default_rng(0).uniform(0.0, 2.0, size=w.shape)
    a = st.Coefficient("constant", (1.5,), 1.0, 2.0)(pk)
    assert not a.flags.writeable and a.strides == (0, 0)
    assert same_bytes(np.ascontiguousarray(a), np.full_like(pk, 1.5))


@pytest.mark.parametrize("name", list(pattern_grids()))
class TestCornerGather:
    """Element corner values by slices of the grid-shaped vector, against
    the connectivity table as it was built eagerly."""

    def test_corner_values_of_node_ids_are_the_connectivity(self, name):
        grid = pattern_grids()[name]
        assert same_bytes(corner_values(grid, np.arange(grid.n_nodes)), reference_elem_nodes(grid))

    def test_corner_values_equal_connectivity_gather(self, name):
        """The quadrature values and gradients no longer come from the
        corners: TestQuadKernel compares them with this gather's einsum."""
        grid = pattern_grids()[name]
        u = np.random.default_rng(2).normal(size=grid.n_nodes)
        ue = u[reference_elem_nodes(grid)]
        gathered = corner_values(grid, u)
        assert gathered.flags.c_contiguous
        assert same_bytes(gathered, ue)
        with pytest.MonkeyPatch.context() as mp:  # one first-axis cell layer a chunk
            mp.setattr(geo, "ASSEMBLY_CHUNK_BYTES", 1)
            assert same_bytes(corner_values(grid, u), ue)

    def test_corner_sums_equal_connectivity_scatter(self, name):
        """The bytes of np.add.at through the connectivity, except on a
        periodic grid, whose wrapped nodes sum in another order."""
        grid = pattern_grids()[name]
        entries = np.random.default_rng(5).normal(size=(grid.n_elems, grid.n_local))
        want = np.zeros(grid.n_nodes)
        np.add.at(want, reference_elem_nodes(grid), entries)
        got = grid.corner_sums(entries)
        if any(grid.periodic):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        else:
            assert same_bytes(got, want)


def kernel_grids():
    """The assembly tests' grids (1-, 2- and 3-D, a radial volume grid with
    its 2 pi r weight, periodic sections, periodic axes of two and three
    nodes, and periodic first axes), and the README grid at h = 1/64 and
    the k = 2 layer at h = 1/32, which the kernel takes in several chunks."""
    readme = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer", alpha=1.0,
                                 beta=7.0, lateral_bc=("dirichlet0",) * 2)
    k2 = replace(readme, n=3, k=2, base=((0.0, 1.0), (0.0, 1.0)), lateral_bc=("dirichlet0",) * 4)
    return {**pattern_grids(), "readme-h64": geo.build_mesh(readme, 1 / 64).grid,
            "k2-h32": geo.build_mesh(k2, 1 / 32).grid}


@pytest.mark.parametrize("name", list(kernel_grids()))
class TestQuadKernel:
    """The sum-factorized kernel (TensorGrid.quad_terms) against the
    element-gather einsum it replaced, and on fields it must get exactly."""

    def test_matches_the_element_gather(self, name):
        grid = kernel_grids()[name]
        u = np.random.default_rng(2).normal(size=grid.n_nodes)
        vals, grads = reference_quad_terms(grid, u)
        for chunk_bytes in (geo.ASSEMBLY_CHUNK_BYTES, 1):  # 1: one cell layer a chunk
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geo, "ASSEMBLY_CHUNK_BYTES", chunk_bytes)
                v, g, s = grid.quad_terms(u, vals=True, grads=True, square_plus=0.25)
            assert v.flags.c_contiguous and g.flags.c_contiguous and s.flags.c_contiguous
            assert v.shape == vals.shape and g.shape == grads.shape
            assert np.max(np.abs(v - vals)) <= 1e-13 * np.max(np.abs(vals))
            assert np.max(np.abs(g - grads)) <= 1e-13 * np.max(np.abs(grads))
            # the squares add in axis order, then the shift: squared_norm's sum
            assert same_bytes(s, st.squared_norm(g) + 0.25)
            assert same_bytes(v, grid.vals_at_quads(u)) and same_bytes(g, grads_at_quads(grid, u))
        assert grid.quad_terms(u) == (None, None, None)
        _, none, alone = grid.quad_terms(u, square_plus=0.25)
        assert none is None and same_bytes(alone, s)

    def test_constant_field_is_exact(self, name):
        """A constant's differences vanish and its interpolation is a + w 0:
        exact zeros, where a BLAS contraction leaves rounding."""
        grid = kernel_grids()[name]
        v, g, s = grid.quad_terms(np.full(grid.n_nodes, 0.7), vals=True, grads=True,
                                  square_plus=0.0)
        assert np.all(v == 0.7) and not g.any() and not s.any()


@pytest.mark.parametrize("name", [name for name, grid in kernel_grids().items()
                              if not any(grid.periodic)])
def test_multilinear_field_is_the_closed_form(name):
    """A multilinear field (periodic axes wrap, so only on grids without
    them) is the element's own: its values and gradients
    at the quadrature points are the closed form's, to rounding, and
    the gradient of an affine field with dyadic slopes on a dyadic grid
    is exact."""
    grid = kernel_grids()[name]
    x = grid.nodes
    slopes = np.array([2.0, -0.5, 4.0])[:grid.dim]
    coupling = np.prod(x, axis=-1)  # x0 x1 ..., multilinear
    v, g, _ = grid.quad_terms(1.0 + x @ slopes + 3.0 * coupling, vals=True, grads=True)
    pts = grid.quad_points
    want_v = 1.0 + pts @ slopes + 3.0 * np.prod(pts, axis=-1)
    want_g = slopes + 3.0 * np.stack([np.prod(np.delete(pts, d, axis=-1), axis=-1)
                                      for d in range(grid.dim)], axis=-1)
    assert np.max(np.abs(v - want_v)) <= 1e-14 * np.max(np.abs(want_v))
    assert np.max(np.abs(g - want_g)) <= 1e-14 * np.max(np.abs(want_g))
    dyadic = geo.TensorGrid([np.arange(n) * 0.25 for n in grid.shape])
    _, g, _ = dyadic.quad_terms(dyadic.nodes @ slopes, grads=True)
    assert np.array_equal(g, np.broadcast_to(slopes, g.shape))


@pytest.mark.parametrize("name", list(pattern_grids()))
def test_half_stencil_equals_the_full_plan(name):
    """Assembly adds the upper half of the offsets and copies each lower
    plane from its mirror: the stiffness, mass and directional stencils of
    the plan that added every local pair, bit for bit, except where a
    periodic axis of 2 nodes stores both of its neighbours' entries in one
    plane, summed in another order for a row and its mirror."""
    grid = pattern_grids()[name]
    rng = np.random.default_rng(9)
    coeff = rng.uniform(0.5, 2.0, size=grid.quad_weights.shape)
    direction = rng.normal(size=grid.quad_weights.shape + (grid.dim,))
    sqrt_w = np.sqrt(grid.quad_weights)

    def gram(rows):
        u = np.einsum("eqd,qdm->eqm", direction[rows], grid.basis_grads)
        u *= sqrt_w[rows][..., None]
        return np.einsum("eqi,eqj->eij", u, u).reshape(u.shape[0], -1).T

    cases = ((grid.stiffness_stencil(coeff=coeff),
              lambda rows: grid._stiffness_table.T @ (grid.quad_weights[rows] * coeff[rows]).T),
             (grid.mass_stencil(), lambda rows: grid._mass_table.T @ grid.quad_weights[rows].T),
             (grid.directional_stencil(direction), gram))
    two_node_wrap = 2 in [n for n, per in zip(grid.shape, grid.periodic) if per]
    for stencil, local in cases:
        full = reference_assemble_local(grid, local)
        if two_node_wrap:
            assert np.max(np.abs(stencil - full)) <= 1e-15 * np.max(np.abs(full))
        else:
            assert same_bytes(stencil, full)
    assert len(grid._mirror_plan) == (3**grid.dim - 1) // 2 or two_node_wrap


@pytest.mark.parametrize("name", ["readme-h16", "readme-k2-h8", "radial-h8"])
def test_traces_equal_connectivity_gather(name):
    """A station trace reads its element layer as an axial slice of the
    field's face arrays: the bytes of the kernel over every layer of the
    mesh, sliced at the station's layer, and within 1e-13 of the gather
    through the connectivity of the per-station element ids, at every
    station and side; the station's axial coordinate z and the weights
    keep their bytes."""
    mesh = station_meshes()[name]
    values = np.random.default_rng(3).normal(size=mesh.n_nodes)
    field = sv.ScalarField(mesh=mesh, values=values, op=st.constant_operator(2.0), bc=None,
                           diagnostics=None)
    last = mesh.stations.size - 1
    for j in range(last + 1):
        for side in ("below", "above"):
            if (side, j) in (("below", 0), ("above", last)):
                with pytest.raises(ValueError, match="no element layer"):
                    field.trace(j, side)
                continue
            got = field.trace(j, side)
            assert all(same_bytes(a, b) for a, b in zip(got, reference_kernel_trace(
                mesh, values, j, side)))
            want = reference_trace(mesh, values, j, side)
            assert all(same_bytes(a, b) for a, b in zip(got[:2], want[:2]))
            for a, b in zip(got[2:], want[2:]):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    with pytest.raises(ValueError, match="side must be"):
        field.trace(1, "left")


@pytest.mark.parametrize("name", ["layer-2d", "layer-3d", "radial"])
class TestMeshTablesWithoutNodes:
    def test_elem_axial_cell_owns_its_data(self, name):
        """The per-element axial data, p_k at the quadrature points, is a
        fresh array (not a view of its per-axial-cell rows), whose element
        e holds the row of its axial cell, the last index of C order."""
        mesh = slab_meshes()[name]
        pk = mesh.pk_at_quads()
        assert pk.flags.owndata and pk.base is None and pk.flags.writeable
        grid = mesh.grid
        cells = np.indices(grid.cell_shape).reshape(grid.dim, -1)[-1]
        assert same_bytes(pk, pk[:grid.cell_shape[-1]][cells])

    def test_pk_at_quads_equal_per_element_arithmetic(self, name):
        mesh = slab_meshes()[name]
        pk = mesh.pk_at_quads()
        assert pk.flags.c_contiguous
        assert same_bytes(pk, reference_pk_at_quads(mesh))

    def test_cap_points_equal_node_rows(self, name):
        mesh = slab_meshes()[name]
        points = {which: mesh.cap_points(which) for which in ("low", "high")}
        assert "nodes" not in mesh.grid.__dict__
        for which, pts in points.items():
            ids = face_node_ids(mesh.grid, mesh.grid.dim - 1, which)
            assert same_bytes(pts, mesh.grid.nodes[ids])


class TestSliceIndex:
    def test_stations_cover_all_nodes_once(self):
        # every node lies on the one station its axial coordinate snaps to
        mesh = geo.build_mesh(strip_domain(), 0.25)
        seen = np.zeros(mesh.stations.size, dtype=int)
        for node in mesh.grid.nodes:
            j, snap = mesh.station_index(node[-1])
            assert snap == 0.0
            seen[j] += 1
        assert np.all(seen == mesh.n_nodes // mesh.stations.size)


def coo_reference(grid, local):
    """Scatter element matrices (E, m, m) through COO -> CSR."""
    conn = reference_elem_nodes(grid)
    m = conn.shape[1]
    rows = np.repeat(conn, m, axis=1).ravel()
    cols = np.tile(conn, (1, m)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(grid.n_nodes,) * 2).tocsr()


def reference_stiffness(grid, coeff=None):
    w = grid.quad_weights if coeff is None else grid.quad_weights * coeff
    return coo_reference(grid, np.einsum("eq,qdi,qdj->eij", w, grid.basis_grads, grid.basis_grads))


def reference_mass(grid):
    return coo_reference(grid, np.einsum("eq,qi,qj->eij", grid.quad_weights, grid.basis_vals,
                                         grid.basis_vals))


def bincount_data(grid, local_entries):
    """CSR data of the reference pattern by one bincount over its slots, with
    the local entries (m*m, rows) of each of grid's assembly chunks."""
    _, indices, slots = reference_csr_pattern(grid)
    local = np.concatenate([local_entries(rows).T for rows, _, _ in grid._fill_plan])
    return np.bincount(slots.ravel(), weights=local.ravel(), minlength=indices.size)


def assert_reference_pattern(grid, K):
    """K has the reference pattern of grid, int32 and canonical."""
    assert K.has_canonical_format
    for a, ref in zip((K.indptr, K.indices), reference_csr_pattern(grid)):
        assert a.dtype == np.int32 and np.array_equal(a, ref)


class TestFixedPatternAssembly:
    @pytest.fixture(scope="class")
    def grids(self):
        return pattern_grids()

    @staticmethod
    def assert_matches(K, ref):
        assert K.shape == ref.shape
        assert abs(K - ref).max() <= 1e-14 * abs(ref).max()

    @pytest.mark.parametrize("name", list(pattern_grids()))
    def test_stiffness_and_mass_match_coo(self, grids, name):
        grid = grids[name]
        rng = np.random.default_rng(3)
        coeff = rng.uniform(0.5, 2.0, size=grid.quad_weights.shape)
        self.assert_matches(gather_csr(grid, grid.stiffness_stencil()), reference_stiffness(grid))
        self.assert_matches(gather_csr(grid, grid.stiffness_stencil(coeff=coeff)),
                            reference_stiffness(grid, coeff))
        self.assert_matches(gather_csr(grid, grid.mass_stencil()), reference_mass(grid))

    @pytest.mark.parametrize("chunk_bytes", [geo.ASSEMBLY_CHUNK_BYTES, 1])
    @pytest.mark.parametrize("name", [name for name, grid in pattern_grids().items()
                                      if not any(grid.periodic)])
    def test_data_is_a_bincount_over_the_elements(self, name, chunk_bytes, monkeypatch):
        # chunk_bytes = 1 makes each first-axis cell layer its own chunk
        monkeypatch.setattr(geo, "ASSEMBLY_CHUNK_BYTES", chunk_bytes)
        grid = pattern_grids()[name]
        rng = np.random.default_rng(5)
        coeff = rng.uniform(0.5, 2.0, size=grid.quad_weights.shape)
        direction = rng.normal(size=grid.quad_weights.shape + (grid.dim,))
        sqrt_w = np.sqrt(grid.quad_weights)

        def gram(rows):
            u = np.einsum("eqd,qdm->eqm", direction[rows], grid.basis_grads)
            u *= sqrt_w[rows][..., None]
            return np.einsum("eqi,eqj->eij", u, u).reshape(u.shape[0], -1).T

        cases = (
            (gather_csr(grid, grid.stiffness_stencil(coeff=coeff)),
             lambda rows: grid._stiffness_table.T @ (grid.quad_weights[rows] * coeff[rows]).T),
            (gather_csr(grid, grid.mass_stencil()),
             lambda rows: grid._mass_table.T @ grid.quad_weights[rows].T),
            (gather_csr(grid, grid.directional_stencil(direction)), gram),
        )
        if chunk_bytes == 1:
            assert len(grid._fill_plan) == grid.cell_shape[0]
        for K, local_entries in cases:
            assert_reference_pattern(grid, K)
            assert K.data.tobytes() == bincount_data(grid, local_entries).tobytes()

    @pytest.mark.parametrize("name", [name for name, grid in pattern_grids().items()
                                      if any(grid.periodic)])
    def test_periodic_grids_in_layer_chunks_match_coo(self, name, monkeypatch):
        monkeypatch.setattr(geo, "ASSEMBLY_CHUNK_BYTES", 1)
        grid = pattern_grids()[name]
        assert len(grid._fill_plan) == grid.cell_shape[0]
        rng = np.random.default_rng(6)
        coeff = rng.uniform(0.5, 2.0, size=grid.quad_weights.shape)
        direction = rng.normal(size=grid.quad_weights.shape + (grid.dim,))
        u = np.einsum("eqd,qdm,eq->eqm", direction, grid.basis_grads, np.sqrt(grid.quad_weights))
        self.assert_matches(gather_csr(grid, grid.stiffness_stencil(coeff=coeff)),
                            reference_stiffness(grid, coeff))
        self.assert_matches(gather_csr(grid, grid.mass_stencil()), reference_mass(grid))
        self.assert_matches(gather_csr(grid, grid.directional_stencil(direction)),
                            coo_reference(grid, np.einsum("eqi,eqj->eij", u, u)))

    @pytest.mark.parametrize("name", [name for name, grid in pattern_grids().items()
                                      if any(grid.periodic)])
    def test_wrapped_free_box_dia_matches_coo(self, grids, name):
        """The free box of a periodic grid spans its periodic axes, and the
        box's DIA block wraps them: it is the free block of the COO
        reference, with distinct offsets in ascending order."""
        grid = grids[name]
        coeff = np.random.default_rng(8).uniform(0.5, 2.0, size=grid.quad_weights.shape)
        pinned = tuple((not per, False) for per in grid.periodic)
        mask = face_mask(grid, pinned)
        box = sv._free_box(grid, pinned)
        assert all(b == slice(0, n) for b, n, per in zip(box, grid.shape, grid.periodic) if per)
        cases = ((grid.stiffness_stencil(coeff=coeff), reference_stiffness(grid, coeff)),
                 (grid.mass_stencil(), reference_mass(grid)))
        for stencil, ref in cases:
            A = sv._dia(sv._box_stencil(stencil, box, grid.periodic), grid.periodic)
            assert np.all(np.diff(A.offsets) > 0)
            self.assert_matches(A.tocsr(), ref[~mask][:, ~mask])

    def test_one_assembly_peaks_below_its_local_entries(self):
        """A stiffness assembly on the k = 2 layer at h = 1/16 holds less than
        the (E, m*m) array of all its local entries would take."""
        k2 = geo.CanonicalDomain(n=3, k=2, base=((0.0, 1.0), (0.0, 1.0)), axial_kind="layer",
                                 alpha=1.0, beta=3.0, lateral_bc=("dirichlet0",) * 4)
        grid = geo.build_mesh(k2, 1 / 16).grid
        coeff = np.random.default_rng(0).uniform(0.5, 2.0, size=grid.quad_weights.shape)
        grid.stiffness_stencil(coeff=coeff)  # builds the cached weights and plan
        tracemalloc.start()
        try:
            stencil = grid.stiffness_stencil(coeff=coeff)
            assembly_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_reference_pattern(grid, gather_csr(grid, stencil))
        assert assembly_peak < grid.n_elems * grid.n_local**2 * 8

    @pytest.mark.parametrize("name", list(pattern_grids()))
    def test_pattern_is_canonical_and_shared(self, grids, name):
        """Every matrix gather_csr gathers on a grid has the grid's one pattern."""
        grid = grids[name]
        K = gather_csr(grid, grid.stiffness_stencil())
        for matrix in (K, gather_csr(grid, grid.mass_stencil())):
            assert_reference_pattern(grid, matrix)
        assert K.nnz == reference_stiffness(grid).nnz
        # one distinct stencil entry per CSR entry: the slots that assembly
        # fills, given distinct values, each land in the data once
        filled = grid._assemble(grid._mass_table) != 0
        stencil = np.random.default_rng(4).uniform(1.0, 2.0, size=filled.shape) * filled
        data = gather_csr(grid, stencil).data
        assert data.size == np.count_nonzero(filled) == np.unique(data).size
        assert np.isin(data, stencil[filled]).all()
