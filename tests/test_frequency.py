import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import (count_compute_calls, face_mask, gather_csr, grads_at_quads,
                      reference_gradient_form, reference_scalar_form, station_meshes)
from svplab import frequency as fr
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st

PI2 = math.pi**2


def kind_pinned(section, kind):
    """The (low, high) pinned flags per section axis of a frequency kind:
    every face for the first kind, the section's for the third, none for
    the second."""
    grid = section.grid
    return {fr.FIRST: tuple((not per, not per) for per in grid.periodic),
            fr.THIRD: section.pinned,
            fr.SECOND: ((False, False),) * grid.dim}[kind]


def dense_interval_matrices(length, cells, bc):
    """Hand-built 1-D P1 stiffness/mass pencil, independent of the package.

    bc: 'dirichlet' (both ends removed), 'left' (x=0 removed), 'neumann'.
    """
    h = length / cells
    n = cells + 1
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for e in range(cells):
        K[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[e:e + 2, e:e + 2] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    keep = {
        "dirichlet": slice(1, n - 1),
        "left": slice(1, n),
        "neumann": slice(0, n),
    }[bc]
    return K[keep, keep], M[keep, keep]


def dense_eigs(K, M):
    return np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))


def dense_circle_matrices(circumference, cells):
    h = circumference / cells
    K = np.zeros((cells, cells))
    M = np.zeros((cells, cells))
    for e in range(cells):
        idx = [e, (e + 1) % cells]
        K[np.ix_(idx, idx)] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[np.ix_(idx, idx)] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return K, M


class TestFirstFrequency:
    def test_unit_interval_against_dense_oracle(self):
        sec = geo.interval_section(1.0, 256)
        res = fr.compute_frequency(sec, 2.0, fr.FIRST)
        K, M = dense_interval_matrices(1.0, 256, "dirichlet")
        oracle = dense_eigs(K, M)[0]
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.value == pytest.approx(PI2, rel=0.005)

    def test_length_two_interval(self):
        sec = geo.interval_section(2.0, 256)
        res = fr.compute_frequency(sec, 2.0, fr.FIRST)
        K, M = dense_interval_matrices(2.0, 256, "dirichlet")
        assert res.value == pytest.approx(dense_eigs(K, M)[0], rel=1e-8)
        assert res.value == pytest.approx(PI2 / 4.0, rel=0.005)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaling_law(self, p):
        v1 = fr.compute_frequency(geo.interval_section(1.0, 256), p, fr.FIRST).value
        v2 = fr.compute_frequency(geo.interval_section(2.0, 256), p, fr.FIRST).value
        assert v2 == pytest.approx(v1 / 2.0**p, rel=1e-8)

    def test_p3_against_brute_force(self):
        cells = 128
        sec = geo.interval_section(1.0, cells)
        res = fr.compute_frequency(sec, 3.0, fr.FIRST)
        oracle = brute_force_quotient_min(sec, 3.0)
        assert res.value == pytest.approx(oracle, rel=0.01)
        # reference: (p-1) * (pi_p / L)^p for the continuum problem
        pip = 2.0 * math.pi / (3.0 * math.sin(math.pi / 3.0))
        assert res.value == pytest.approx(2.0 * pip**3, rel=0.01)

    def test_minimizer_quotient_reproduces_value(self):
        sec = geo.interval_section(1.0, 64)
        res = fr.compute_frequency(sec, 3.0, fr.FIRST)
        assert fr.rayleigh_quotient(sec, 3.0, res.minimizer) == pytest.approx(res.value, rel=1e-10)

    def test_minimizer_pinned(self):
        sec = geo.interval_section(1.0, 64)
        res = fr.compute_frequency(sec, 2.5, fr.FIRST)
        assert np.all(res.minimizer[face_mask(sec.grid, kind_pinned(sec, fr.FIRST))] == 0.0)


def brute_force_quotient_min(section, p):
    """Dense quotient minimization by L-BFGS from a generic start."""
    grid = section.grid
    w = grid.quad_weights
    free = ~face_mask(grid, section.pinned)

    def quotient(ufree):
        u = np.zeros(grid.n_nodes)
        u[free] = ufree
        g = grads_at_quads(grid, u)
        num = float(np.sum(w * np.sum(g**2, axis=-1) ** (p / 2)))
        vq = grid.vals_at_quads(u)
        den = float(np.sum(w * np.abs(vq) ** p))
        return num / den

    x = np.linspace(0.0, 1.0, grid.n_nodes)[free]
    x = np.sin(math.pi * x)  # generic positive start
    res = scipy.optimize.minimize(quotient, x, method="L-BFGS-B",
                                  options={"maxiter": 20000, "ftol": 1e-14})
    return float(res.fun)


class TestThirdFrequency:
    def test_one_pinned_end(self):
        sec = geo.interval_section(1.0, 256, dirichlet="low")
        res = fr.compute_frequency(sec, 2.0, fr.THIRD)
        K, M = dense_interval_matrices(1.0, 256, "left")
        assert res.value == pytest.approx(dense_eigs(K, M)[0], rel=1e-8)
        assert res.value == pytest.approx(PI2 / 4.0, rel=0.005)

    def test_full_boundary_equals_first(self):
        sec = geo.interval_section(1.0, 128)
        full = fr.compute_frequency(sec, 2.5, fr.THIRD)
        first = fr.compute_frequency(sec, 2.5, fr.FIRST)
        assert full.value == pytest.approx(first.value, rel=1e-10)

    def test_empty_set_degenerate(self):
        sec = geo.interval_section(1.0, 64, dirichlet="none")
        res = fr.compute_frequency(sec, 2.0, fr.THIRD)
        assert res.value == 0.0
        assert res.degenerate

    def test_every_node_pinned_rejected(self):
        sec = geo.interval_section(1.0, 1)
        with pytest.raises(ValueError, match="empty interior"):
            fr.compute_frequency(sec, 2.0, fr.FIRST)
        with pytest.raises(ValueError, match="empty interior"):
            fr.compute_frequency(sec, 2.0, fr.THIRD)

    def test_monotone_in_pinned_set(self):
        small = fr.compute_frequency(geo.interval_section(1.0, 128, dirichlet="low"), 2.0,
                                     fr.THIRD)
        large = fr.compute_frequency(geo.interval_section(1.0, 128, dirichlet="both"), 2.0,
                                     fr.THIRD)
        assert small.value <= large.value + 1e-12


class TestSecondFrequency:
    def test_unit_interval_against_dense_oracle(self):
        sec = geo.interval_section(1.0, 256)
        res = fr.compute_frequency(sec, 2.0, fr.SECOND)
        K, M = dense_interval_matrices(1.0, 256, "neumann")
        oracle = dense_eigs(K, M)[1]  # first nonzero
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.value == pytest.approx(PI2, rel=0.005)

    def test_unit_square_against_tensor_oracle(self):
        sec = geo.rectangle_section((1.0, 1.0), (48, 48))
        res = fr.compute_frequency(sec, 2.0, fr.SECOND)
        K, M = dense_interval_matrices(1.0, 48, "neumann")
        eigs1d = dense_eigs(K, M)
        sums = np.sort([a + b for a in eigs1d[:4] for b in eigs1d[:4]])
        oracle = sums[sums > 1e-10][0]
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.value == pytest.approx(PI2, rel=0.01)

    def test_radial_section_tensor_oracle(self):
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=5.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 1 / 16)
        sec = mesh.cross_section(2.0)
        res = fr.compute_frequency(sec, 2.0, fr.SECOND)
        Ki, Mi = dense_interval_matrices(1.0, sec.grid.shape[0] - 1, "neumann")
        Kc, Mc = dense_circle_matrices(2.0 * math.pi * 2.0, sec.grid.shape[1])
        ei = dense_eigs(Ki, Mi)
        ec = dense_eigs(Kc, Mc)
        sums = np.sort([a + b for a in ei[:3] for b in ec[:3]])
        oracle = sums[sums > 1e-10][0]
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.value == pytest.approx(min(PI2, 0.25), rel=0.01)

    def test_recentering_constant_first_order_condition(self):
        sec = geo.interval_section(1.0, 64)
        p = 3.0
        res = fr.compute_frequency(sec, p, fr.SECOND)
        vq = sec.grid.vals_at_quads(res.minimizer)
        w = sec.grid.quad_weights
        deriv = float(np.sum(w * np.abs(vq) ** (p - 2.0) * vq))
        scale = float(np.sum(w * np.abs(vq) ** (p - 1.0)))
        assert abs(deriv) / scale <= 1e-8

    def test_second_not_above_first(self):
        sec = geo.interval_section(1.0, 128)
        for p in (1.2, 1.5, 2.0, 3.0):
            second = fr.compute_frequency(sec, p, fr.SECOND).value
            first = fr.compute_frequency(sec, p, fr.FIRST).value
            assert second <= first + 1e-10

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_scaling_law_general_p(self, p):
        v1 = fr.compute_frequency(geo.interval_section(1.0, 128), p, fr.SECOND).value
        v2 = fr.compute_frequency(geo.interval_section(2.0, 128), p, fr.SECOND).value
        assert v2 == pytest.approx(v1 / 2.0**p, rel=1e-8)

    def test_restarts_escape_the_p2_start(self, monkeypatch):
        # from the p = 2 eigenvector alone the iteration stops at 14.570743 on
        # this rectangle, a saddle; the curvature test finds a direction of
        # negative curvature there, and the iteration restarts below it
        sec = geo.rectangle_section((1.0, 1.5), (8, 12), "none")
        assert fr.compute_frequency(sec, 4.0, fr.SECOND).value == pytest.approx(14.481051, abs=1e-6)
        monkeypatch.setattr(fr, "_smallest_curvature", lambda *args: (0.0, None))
        assert fr.compute_frequency(sec, 4.0, fr.SECOND).value == pytest.approx(14.570743, abs=1e-6)


class TestRadialSectionOracle:
    """p = 2 frequencies of an interval-times-circle section with a Dirichlet
    lateral face, against a dense eigh of the Kronecker-product pencil of
    the hand-built 1-D matrices."""

    def test_three_kinds_match_dense_eigh(self):
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=2.0, lateral_bc=("dirichlet0", "neumann"))
        sec = geo.build_mesh(dom, 1 / 8).cross_section(1.0)
        ni, nc = sec.grid.shape
        Ki, Mi = dense_interval_matrices(1.0, ni - 1, "neumann")
        Kc, Mc = dense_circle_matrices(2.0 * math.pi, nc)
        K = np.kron(Ki, Mc) + np.kron(Mi, Kc)
        M = np.kron(Mi, Mc)
        low = np.arange(nc)
        high = (ni - 1) * nc + low
        cases = ((fr.FIRST, np.concatenate((low, high)), 0), (fr.THIRD, low, 0),
                 (fr.SECOND, np.empty(0, dtype=int), 1))  # the second skips the constant
        for kind, pinned, index in cases:
            res = fr.compute_frequency(sec, 2.0, kind)
            free = np.ones(sec.grid.n_nodes, dtype=bool)
            free[pinned] = False
            assert np.array_equal(face_mask(sec.grid, kind_pinned(sec, kind)), ~free)
            oracle = dense_eigs(K[np.ix_(free, free)], M[np.ix_(free, free)])[index]
            assert res.value == pytest.approx(oracle, rel=1e-10)
            # the value is the quotient of the p = 2 start, so check the
            # start alone through its quotient on the gathered blocks
            box, periodic = sv._free_box(sec.grid, kind_pinned(sec, kind)), sec.grid.periodic
            Kb, Mb = [sv._dia(sv._box_stencil(s, box, periodic), periodic)
                      for s in (sec.grid.stiffness_stencil(), sec.grid.mass_stencil())]
            x = fr._p2_start(sec.grid, box, kind == fr.SECOND).reshape(sec.grid.shape)[box].ravel()
            assert (x @ (Kb @ x)) / (x @ (Mb @ x)) == pytest.approx(oracle, rel=1e-10)


@functools.lru_cache(maxsize=None)
def p2_start_sections():
    """Sections of every kind of axis end: intervals pinned at both ends
    and at one, rectangles with unequal and equal (tied) axes, and radial
    sections, whose periodic angle axis ties its cos and sin modes."""
    out = {f"interval-{d}": geo.interval_section(1.0, 16, d) for d in ("both", "low", "high")}
    for cells in ((8, 12), (8, 8)):
        for d in ("all", "none"):
            lengths = tuple(c / 8 for c in cells)
            out[f"rectangle-{cells[0]}x{cells[1]}-{d}"] = geo.rectangle_section(lengths, cells, d)
    for lateral in ("DD", "DN", "NN"):
        bc = tuple({"D": "dirichlet0", "N": "neumann"}[c] for c in lateral)
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=5.0, lateral_bc=bc)
        mesh = geo.build_mesh(dom, 1 / 8)
        for r in (1.5, 4.0):
            out[f"radial-{lateral}-r{r}"] = mesh.cross_section(r)
    return out


P2_START_CASES = [(name, kind) for name, sec in p2_start_sections().items()
                  for kind in (fr.FIRST, fr.THIRD, fr.SECOND)
                  if kind != fr.THIRD or any(map(any, sec.pinned))]


DENSE_PENCILS = {}


def dense_section_pencil(name, kind):
    """The section's pencil (K, M) on the free nodes of the kind, dense and
    gathered from the grid's stencils, with its four lowest eigenpairs."""
    sec = p2_start_sections()[name]
    grid = sec.grid
    free = ~face_mask(grid, kind_pinned(sec, kind))
    # the radial sections of one radius share their grid and pinned sets
    key = (grid.shape, grid.spacing, grid.periodic, free.tobytes())
    if key not in DENSE_PENCILS:
        K, M = (gather_csr(grid, s)[free][:, free].toarray()
                for s in (grid.stiffness_stencil(), grid.mass_stencil()))
        DENSE_PENCILS[key] = K, M, scipy.linalg.eigh(K, M, subset_by_index=[0, 3])
    return (free,) + DENSE_PENCILS[key]


class TestP2Start:
    """The closed-form p = 2 start of each kind against a dense eigh of the
    section's pencil: an eigenvector of its smallest eigenvalue (smallest
    nonzero for the second kind), positive for the first and third kinds,
    and for the second the mass-projection of the coordinate ramp onto
    that eigenvalue's eigenspace, which the tied square and radial
    sections make two-dimensional."""

    @pytest.mark.parametrize("name, kind", P2_START_CASES)
    def test_start_is_the_lowest_mode(self, name, kind):
        sec = p2_start_sections()[name]
        grid = sec.grid
        free, K, M, (lam, V) = dense_section_pencil(name, kind)
        box = sv._free_box(grid, kind_pinned(sec, kind))
        u = fr._p2_start(grid, box, kind == fr.SECOND)
        assert np.all(u[~free] == 0.0)
        x = u[free]
        q = (x @ K @ x) / (x @ M @ x)
        # relative to the size of the terms, |K| |x|, as Kx cancels at low q
        scale = np.abs(K).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(K @ x - q * (M @ x)).max() <= 1e-12 * scale
        index = 1 if kind == fr.SECOND else 0  # the second skips the constant
        assert q == pytest.approx(lam[index], rel=1e-12)
        if kind != fr.SECOND:
            assert np.all(x > 0.0)
            return
        tied = np.abs(lam - lam[1]) <= 1e-8 * lam[1]
        ramp = np.sum(grid.nodes, axis=-1)
        projection = V[:, tied] @ (V[:, tied].T @ (M @ ramp))
        assert np.abs(x - projection).max() <= 1e-10 * np.abs(projection).max()
        square_or_circle = name.startswith(("rectangle-8x8", "radial"))
        assert np.count_nonzero(tied) == (2 if square_or_circle else 1)


class TestOptimalConstant:
    def test_mean_for_p2(self):
        assert fr.optimal_constant([0.0, 2.0], [1.0, 1.0], 2.0) == pytest.approx(1.0, abs=1e-11)

    def test_symmetry_for_p4(self):
        vals = np.array([0.0, 0.5, 1.5, 2.0])
        assert fr.optimal_constant(vals, np.ones(4), 4.0) == pytest.approx(1.0, abs=1e-11)

    def test_constant_input(self):
        assert fr.optimal_constant(np.full(5, 3.25), np.ones(5), 2.5) == 3.25

    def test_weighted_mean(self):
        c = fr.optimal_constant([0.0, 1.0], [3.0, 1.0], 2.0)
        assert c == pytest.approx(0.25, abs=1e-11)

    def test_p2_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=500) * 10.0 ** rng.uniform(-3, 3)
            w = rng.uniform(0.1, 2.0, size=500)
            c = fr.optimal_constant(v, w, 2.0)
            mean = float(np.sum(w * v) / np.sum(w))
            assert abs(c - mean) <= 1e-15 * abs(mean)
            assert v.min() <= c <= v.max()

    def test_p2_clamped_to_range(self):
        # the weighted mean of a constant rounds off; the clamp returns it exactly
        v = np.full(7, 0.1)
        w = np.array([0.3, 1.7, 0.2, 2.9, 0.7, 1.1, 0.13])
        assert fr.optimal_constant(v, w, 2.0) == 0.1

    @staticmethod
    def bisection_reference(v, w, p):
        """Bisection on the slope sum w sign(v - C) |v - C|^(p-1) to float spacing."""
        a, b = float(v.min()), float(v.max())
        while True:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                return mid
            d = v - mid
            if np.sum(w * np.sign(d) * np.abs(d) ** (p - 1.0)) >= 0.0:
                a = mid
            else:
                b = mid

    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 3.0, 4.0, 10.0])
    def test_general_p_against_bisection(self, p):
        rng = np.random.default_rng(11)
        data = [rng.normal(size=300) * s + 5.0 * s for s in (1e-3, 1.0, 1e3)]
        data += [
            np.exp(rng.normal(scale=4.0, size=300)),   # log-normal, over decades
            np.repeat([-1.0, 2.0], 40),                # two equal halves
            np.r_[np.zeros(99), 1.0],                  # one outlier among zeros
            np.array([-2.0, 5.0]),                     # two points
        ]
        for v in data:
            w = rng.uniform(0.1, 3.0, size=v.size)
            c = fr.optimal_constant(v, w, p)
            assert v.min() <= c <= v.max()
            ref = self.bisection_reference(v, w, p)
            assert abs(c - ref) <= 1e-13 * (v.max() - v.min())

    def test_general_p_slope_passes(self, monkeypatch):
        # one guarded_power call is one slope pass over the data
        passes = []
        power, best = fr.guarded_power, fr.optimal_constant
        count = [0]

        def counting_power(x, e):
            count[0] += 1
            return power(x, e)

        def counting_best(*args):
            start = count[0]
            c = best(*args)
            passes.append(count[0] - start)
            return c

        monkeypatch.setattr(fr, "guarded_power", counting_power)
        monkeypatch.setattr(fr, "optimal_constant", counting_best)
        sec = geo.interval_section(1.0, 32, "none")
        for p in (1.5, 4.0):
            passes.clear()
            fr.compute_frequency(sec, p, fr.SECOND)
            assert passes
            assert sum(passes) / len(passes) <= 10.0


class TestFrequencyProfile:
    def test_layer_profile_constant(self):
        dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                  alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 0.25)
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [-0.5, 0.0, 0.5], {})
        vals = [r.value for _, r in pairs]
        assert max(vals) - min(vals) <= 1e-10 * max(vals)

    def test_radial_profile_monotone(self):
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=5.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 1 / 8)
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [2.0, 4.0], {})
        assert pairs[1][1].value <= pairs[0][1].value

    def test_single_station(self):
        dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                  alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 0.25)
        pairs = fr.frequency_profile(mesh, 2.0, fr.FIRST, [0.0], {})
        assert len(pairs) == 1
        assert pairs[0][0] == 0.0


def same_result(a, b):
    return (a.kind == b.kind and a.value == b.value
            and a.residual == b.residual and a.iterations == b.iterations
            and a.degenerate == b.degenerate
            and np.array_equal(a.minimizer, b.minimizer))


def layer_mesh(h=0.25):
    dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                              alpha=1.0, beta=3.0, lateral_bc=("dirichlet0", "neumann"))
    return geo.build_mesh(dom, h)


def radial_mesh():
    dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                              alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
    return geo.build_mesh(dom, 1 / 4)


class TestFrequencyMemo:
    def test_layer_profile_computes_once_per_kind(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        mesh = layer_mesh()
        memo = {}
        stations = [-0.75, -0.25, 0.0, 0.5, 1.0]
        for kind in (fr.FIRST, fr.SECOND, fr.THIRD):
            pairs = fr.frequency_profile(mesh, 2.0, kind, stations, memo)
            assert [t for t, _ in pairs] == stations
            assert len({id(r) for _, r in pairs}) == 1
        fr.frequency_profile(mesh, 2.0, fr.SECOND, [0.25, 0.75], memo)
        assert sorted(k for k, _ in calls) == [fr.FIRST, fr.SECOND, fr.THIRD]

    def test_layer_memo_keyed_on_p(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        mesh = layer_mesh()
        memo = {}
        fr.frequency_profile(mesh, 2.0, fr.FIRST, [0.0, 0.5], memo)
        fr.frequency_profile(mesh, 3.0, fr.FIRST, [0.0, 0.5], memo)
        fr.frequency_profile(mesh, 3.0, fr.FIRST, [0.75], memo)
        fr.frequency_profile(mesh, 2.0, fr.FIRST, [0.25], memo)
        assert len(calls) == 2
        key = mesh.section_key(0)
        assert sorted(memo) == [(fr.FIRST, 2.0, key), (fr.FIRST, 3.0, key)]

    def test_layer_memo_matches_fresh_computation(self):
        mesh = layer_mesh()
        memo = {}
        for kind in (fr.FIRST, fr.SECOND, fr.THIRD):
            for tau, res in fr.frequency_profile(mesh, 1.5, kind, [0.0, 0.75], memo):
                fresh = fr.compute_frequency(mesh.cross_section(tau), 1.5, kind)
                assert same_result(res, fresh)

    def test_radial_radii_not_collapsed(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        mesh = radial_mesh()
        radii = [1.5, 2.0, 2.5, 2.0]
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, radii, {})
        assert [t for t, _ in pairs] == radii
        assert sorted(t for _, t in calls) == [1.5, 2.0, 2.5]
        assert pairs[1][1] is pairs[3][1]
        assert len({r.value for _, r in pairs}) == 3
        for tau, res in pairs:
            fresh = fr.compute_frequency(mesh.cross_section(tau), 2.0, fr.SECOND)
            assert same_result(res, fresh)

    def test_new_mesh_recomputes(self, monkeypatch):
        # two meshes of one domain have one section: a shared memo computes
        # it once, separate memos twice
        calls = count_compute_calls(monkeypatch)
        a, b = layer_mesh(), layer_mesh()
        memo = {}
        ra = fr.frequency_profile(a, 2.0, fr.SECOND, [0.0], memo)[0][1]
        rb = fr.frequency_profile(b, 2.0, fr.SECOND, [0.5], memo)[0][1]
        assert len(calls) == 1
        assert ra is rb
        calls.clear()
        ra = fr.frequency_profile(a, 2.0, fr.SECOND, [0.0], {})[0][1]
        rb = fr.frequency_profile(b, 2.0, fr.SECOND, [0.0], {})[0][1]
        assert len(calls) == 2
        assert ra is not rb
        assert same_result(ra, rb)

    def test_off_grid_station_rejected(self):
        with pytest.raises(ValueError):
            fr.frequency_profile(layer_mesh(), 2.0, fr.FIRST, [0.1], {})


def readme_mesh(h):
    dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                              alpha=1.0, beta=7.0, lateral_bc=("dirichlet0", "dirichlet0"))
    return geo.build_mesh(dom, h)


class TestRestartsSecondKindOnly:
    """The pinned kinds run one inverse iteration from the p = 2 start.  Only
    the second kind away from p = 2 tests its critical point for negative
    curvature, and restarts from below it; no kind draws a random number."""

    @staticmethod
    def count_starts(monkeypatch):
        starts, rngs = [], []
        iteration, default_rng = fr._inverse_iteration, np.random.default_rng

        def counting_iteration(*args):
            out = iteration(*args)
            starts.append((args[-1], out))
            return out

        def counting_rng(*args):
            rngs.append(args)
            return default_rng(*args)

        monkeypatch.setattr(fr, "_inverse_iteration", counting_iteration)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        return starts, rngs

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("kind", [fr.FIRST, fr.THIRD])
    def test_pinned_kinds_make_one_start(self, monkeypatch, p, kind):
        starts, rngs = self.count_starts(monkeypatch)
        fr.compute_frequency(geo.interval_section(1.0, 16, "low"), p, kind)
        assert [steps for steps, _ in starts] == [fr.MAX_ITER] and rngs == []

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("kind", [fr.FIRST, fr.SECOND, fr.THIRD])
    def test_no_kind_draws_random_numbers(self, monkeypatch, kind, p):
        _, rngs = self.count_starts(monkeypatch)
        fr.compute_frequency(geo.interval_section(1.0, 16, "low"), p, kind)
        assert rngs == []

    @pytest.mark.parametrize("kind", [fr.FIRST, fr.SECOND, fr.THIRD])
    def test_curvature_tested_for_the_second_kind_away_from_p2(self, monkeypatch, kind):
        tests = []
        smallest = fr._smallest_curvature

        def counting(system, quot, u, q):
            out = smallest(system, quot, u, q)
            tests.append(out[0] / q)
            return out

        monkeypatch.setattr(fr, "_smallest_curvature", counting)
        starts, _ = self.count_starts(monkeypatch)
        for p in (1.5, 2.0, 3.0):
            tests.clear()
            starts.clear()
            res = fr.compute_frequency(geo.interval_section(1.0, 16, "low"), p, kind)
            # the interval's p = 2 start ends at a minimum: one test, one start
            assert len(tests) == (kind == fr.SECOND and p != 2.0)
            assert all(lam > 0.0 for lam in tests)
            assert [steps for steps, _ in starts] == [fr.MAX_ITER]
            assert res.iterations == starts[0][1][3]
        if kind == fr.SECOND:
            # the saddle of test_restarts_escape_the_p2_start: one restart
            # from below it, and the minimum it reaches passes the test
            tests.clear()
            starts.clear()
            sec = geo.rectangle_section((1.0, 1.5), (8, 12), "none")
            res = fr.compute_frequency(sec, 4.0, fr.SECOND)
            assert len(tests) == 2 and tests[0] < 0.0 < tests[1]
            first, second = starts[0][1], starts[1][1]
            assert [steps for steps, _ in starts] == [fr.MAX_ITER, fr.MAX_ITER - first[3]]
            assert second[0] < first[0] and res.value == second[0]
            assert res.iterations == first[3] + second[3] and res.residual <= fr.TOL


class TestSmallestCurvature:
    """The second kind's smallest curvature from lobpcg (or, on a section too
    small for its block, dense) against a dense eigh of the same pencil,
    H = K(c) + (p-2) R - q (p-1) (W - W1 (W1)^T / 1.W1) against the mass
    matrix, projected onto the mass-orthogonal complement of {u, 1} by a
    null-space basis."""

    @staticmethod
    def pencil(grid, p, u, q):
        g = grads_at_quads(grid, u)
        s = np.sum(g**2, axis=-1) + fr.SECTION_EPS**2
        c = s ** (0.5 * (p - 2.0))
        K = gather_csr(grid, grid.stiffness_stencil(coeff=c)).toarray()
        R = gather_csr(grid, grid.directional_stencil(g * np.sqrt(c / s)[..., None])).toarray()
        weight = st.guarded_power(np.abs(grid.vals_at_quads(u)), p - 2.0)
        W = gather_csr(grid, grid.mass_stencil(coeff=weight)).toarray()
        M = gather_csr(grid, grid.mass_stencil()).toarray()
        w1 = W.sum(axis=1)
        return K + (p - 2.0) * R - q * (p - 1.0) * (W - np.outer(w1, w1) / w1.sum()), M

    def check(self, section, p, u, q):
        """The sparse and the dense smallest curvature, over q."""
        grid = section.grid
        H, M = self.pencil(grid, p, u, q)
        # the best constant follows u, so H kills the constants
        assert np.abs(H.sum(axis=1)).max() <= 1e-9 * q
        Z = scipy.linalg.null_space((M @ np.column_stack((u, np.ones_like(u)))).T)
        dense = scipy.linalg.eigh(Z.T @ H @ Z, Z.T @ M @ Z, eigvals_only=True)[0]
        system = sv._FreeSystem(grid, ((False, False),) * grid.dim, np.zeros(grid.n_nodes))
        lam, v = fr._smallest_curvature(system, fr._Quotient(grid, p, True), u, q)
        assert lam == pytest.approx(dense, abs=1e-6 * q)
        # v lies in the complement and is an eigenvector there
        assert np.abs(v @ M @ np.column_stack((u, np.ones_like(u)))).max() <= 1e-10 * np.sqrt(v @ M @ v)
        assert (v @ H @ v) / (v @ M @ v) == pytest.approx(dense, abs=1e-6 * q)
        return lam / q, dense / q

    @staticmethod
    def minimum(section, p):
        res = fr.compute_frequency(section, p, fr.SECOND)
        return res.minimizer, res.value

    @pytest.mark.parametrize("cells", [4, 16])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_interval(self, p, cells):
        # four cells take the dense path, sixteen lobpcg's
        sec = geo.interval_section(1.0, cells, "none")
        lam, _ = self.check(sec, p, *self.minimum(sec, p))
        assert lam > 0.5

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_two_nodes_leave_nothing_to_test(self, p):
        # u and the constants span a one-cell interval: its only nonconstant
        # field is the minimizer
        sec = geo.interval_section(1.0, 1, "none")
        res = fr.compute_frequency(sec, p, fr.SECOND)
        assert res.value == pytest.approx(fr.rayleigh_quotient(sec, p, [0.0, 1.0], True), rel=1e-12)

    def test_rectangle_saddle_and_minimum(self, monkeypatch):
        sec = geo.rectangle_section((1.0, 1.5), (8, 12), "none")
        u, q = self.minimum(sec, 4.0)
        lam_min, _ = self.check(sec, 4.0, u, q)
        with monkeypatch.context() as m:
            m.setattr(fr, "_escape", lambda *args: None)
            saddle = fr.compute_frequency(sec, 4.0, fr.SECOND)
        assert saddle.value == pytest.approx(14.570743, abs=1e-6)
        lam_saddle, _ = self.check(sec, 4.0, saddle.minimizer, saddle.value)
        assert lam_saddle == pytest.approx(-0.176, abs=1e-3)
        assert lam_min == pytest.approx(0.319, abs=1e-3)

    @staticmethod
    def radial_section():
        # a section of the radial-pl family at h = 1/8, periodic in angle,
        # whose low curvature modes a coordinate start block misses
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=4.0, lateral_bc=("neumann", "neumann"))
        return geo.build_mesh(dom, 1 / 8).cross_section(1.5)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_radial_section(self, p):
        sec = self.radial_section()
        lam, _ = self.check(sec, p, *self.minimum(sec, p))
        assert 0.0 < lam < 1.0

    @pytest.mark.parametrize("p", [1.2, 1.5])
    @pytest.mark.parametrize("name", ["rectangle", "radial"])
    def test_stable_under_rounding(self, monkeypatch, name, p):
        """s multiplied by 1 + 4e-16 N(0, 1) (seeded) inside the curvature
        test: the second kind still converges on the 8 x 12 rectangle and
        the radial section, to values within 1e-10 of the unperturbed one.
        scipy's lobpcg, which stopped there with a failed Cholesky
        factorization, lost the rectangle in 8 of 16 such runs."""
        sec = (geo.rectangle_section((1.0, 1.5), (8, 12), "none") if name == "rectangle"
               else self.radial_section())
        quad_terms, smallest = geo.TensorGrid.quad_terms, fr._smallest_curvature
        rng = [None]

        def perturbed(self, u, **kwargs):
            vals, grads, s = quad_terms(self, u, **kwargs)
            if rng[0] is not None and s is not None:
                s = s * (1.0 + 4e-16 * rng[0].normal(size=s.shape))
            return vals, grads, s

        def seeded(seed):
            def curvature(*args):
                rng[0] = np.random.default_rng(seed)
                try:
                    return smallest(*args)
                finally:
                    rng[0] = None
            return curvature

        monkeypatch.setattr(geo.TensorGrid, "quad_terms", perturbed)
        value = fr.compute_frequency(sec, p, fr.SECOND).value
        for seed in range(4):
            monkeypatch.setattr(fr, "_smallest_curvature", seeded(seed))
            assert fr.compute_frequency(sec, p, fr.SECOND).value == pytest.approx(value, rel=1e-10)

    def test_unconverged_pair_raises(self, monkeypatch):
        # an unconverged Ritz value only bounds the curvature from above, so
        # a saddle could pass for a minimum: LOBPCG cut at one iteration
        # leaves the smallest pair above tolerance, and the check raises
        sec = self.radial_section()
        u, q = self.minimum(sec, 1.5)
        grid = sec.grid
        system = sv._FreeSystem(grid, ((False, False),) * grid.dim, np.zeros(grid.n_nodes))
        monkeypatch.setattr(fr, "CURVATURE_MAXITER", 1)
        with pytest.raises(sv.SolverError, match="curvature did not converge"):
            fr._smallest_curvature(system, fr._Quotient(grid, 1.5, True), u, q)


class TestThirdReusesFirst:
    """On a mesh whose every lateral face is dirichlet0 the third kind pins
    the first kind's nodes, so the memo holds one result for both."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_same_bits_as_a_third_kind_computation(self, monkeypatch, p):
        calls = count_compute_calls(monkeypatch)
        mesh = readme_mesh(1 / 16)
        memo = {}
        first = fr.frequency_profile(mesh, p, fr.FIRST, [0.0, 1.0], memo)
        third = fr.frequency_profile(mesh, p, fr.THIRD, [0.0, 2.0], memo)
        assert calls == [(fr.FIRST, 0.0)]
        assert list(memo) == [(fr.FIRST, p, mesh.section_key(0))]
        fresh = fr.compute_frequency(mesh.cross_section(0.0), p, fr.THIRD)
        for _, res in third:
            assert res.kind == fr.THIRD and res.as_row()["kind"] == "third"
            assert same_result(res, fresh)
            assert same_result(replace(res, kind=fr.FIRST), first[0][1])

    def test_third_asked_first_is_read_by_first(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        mesh, memo = readme_mesh(1 / 8), {}
        third = fr.frequency_profile(mesh, 1.5, fr.THIRD, [0.0], memo)[0][1]
        first = fr.frequency_profile(mesh, 1.5, fr.FIRST, [0.0], memo)[0][1]
        assert calls == [(fr.THIRD, 0.0)]
        assert third is memo[(fr.FIRST, 1.5, mesh.section_key(0))]
        assert same_result(first, fr.compute_frequency(mesh.cross_section(0.0), 1.5, fr.FIRST))

    def test_radial_all_dirichlet(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=3.0, lateral_bc=("dirichlet0", "dirichlet0"))
        mesh, memo = geo.build_mesh(dom, 1 / 8), {}
        fr.frequency_profile(mesh, 1.5, fr.FIRST, [1.5, 2.0], memo)
        third = fr.frequency_profile(mesh, 1.5, fr.THIRD, [1.5, 2.0], memo)
        assert sorted(t for _, t in calls) == [1.5, 2.0]
        for tau, res in third:
            assert same_result(res, fr.compute_frequency(mesh.cross_section(tau), 1.5, fr.THIRD))

    def test_one_neumann_face_keeps_two_entries(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        memo = {}
        for kind in (fr.FIRST, fr.THIRD):
            fr.frequency_profile(layer_mesh(), 2.0, kind, [0.0], memo)
        assert sorted(k for k, _ in calls) == [fr.FIRST, fr.THIRD]


class TestFactorOnce:
    """At p = 2 no kind factors a matrix: each section starts from its
    closed-form p = 2 eigenvector (_p2_start), whose residual is below TOL,
    so no inverse-iteration step builds a V-cycle and its coarse factor."""

    @pytest.mark.parametrize("kind, sections", [(fr.FIRST, 1), (fr.THIRD, 1), (fr.SECOND, 1)])
    def test_factorizations_per_section(self, monkeypatch, kind, sections):
        shapes = []
        splu = sv.spla.splu

        def counting(A, *args, **kwargs):
            shapes.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(sv.spla, "splu", counting)
        calls = count_compute_calls(monkeypatch)
        for h in (1 / 32, 1 / 64):  # the two meshes of a README refine run
            fr.frequency_profile(readme_mesh(h), 2.0, kind, [0.0, 1.0, 2.0], {})
        assert len(calls) == 2 * sections and shapes == []


class TestIntervalOracleOrder:
    """First p-eigenvalue of the unit interval, (p - 1) pi_p^p with
    pi_p = 2 pi / (p sin(pi / p)), approached at second order in h."""

    @staticmethod
    def orders(p, kind, dirichlet):
        exact = (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p
        errs = [abs(fr.compute_frequency(geo.interval_section(1.0, n, dirichlet), p, kind).value
                    - exact) for n in (16, 32, 64)]
        return [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_second_order(self, p):
        orders = self.orders(p, fr.FIRST, "both")
        assert all(1.8 <= r <= 2.2 for r in orders), orders

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_second_kind_second_order(self, p):
        # on a Neumann interval the second kind has the same limit
        orders = self.orders(p, fr.SECOND, "none")
        assert all(1.8 <= r <= 2.2 for r in orders), orders


class TestDescentRobustness:
    def test_tolerance_halving_within_residual(self, monkeypatch):
        sec = geo.interval_section(1.0, 64)
        a = fr.compute_frequency(sec, 3.0, fr.FIRST)
        monkeypatch.setattr(fr, "TOL", fr.TOL / 2.0)
        b = fr.compute_frequency(sec, 3.0, fr.FIRST)
        assert a.residual <= 2.0 * fr.TOL and b.residual <= fr.TOL
        assert abs(a.value - b.value) <= max(a.residual * a.value, 1e-12)

    def test_p_validation(self):
        sec = geo.interval_section(1.0, 16)
        with pytest.raises(ValueError):
            fr.compute_frequency(sec, 1.0, fr.FIRST)


def residual_sections():
    """An interval, the 8 x 12 rectangle and a radial section (interval
    times circle).  The interval and the radial section pin one face, so
    their third kind pins fewer nodes than the first; the rectangle pins
    all four."""
    dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                              alpha=1.0, beta=2.0, lateral_bc=("dirichlet0", "neumann"))
    return {
        "interval": geo.interval_section(1.0, 32, "low"),
        "rectangle": geo.rectangle_section((1.0, 1.5), (8, 12), "all"),
        "radial": geo.build_mesh(dom, 1 / 4).cross_section(1.5),
    }


class TestResidualStop:
    """Every kind ends at residual TOL or below, or raises SolverError."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("name", list(residual_sections()))
    def test_every_kind_reaches_tol(self, name, p):
        sec = residual_sections()[name]
        for kind in (fr.FIRST, fr.SECOND, fr.THIRD):
            res = fr.compute_frequency(sec, p, kind)
            assert res.residual <= fr.TOL and not res.degenerate
            assert fr.rayleigh_quotient(sec, p, res.minimizer, recenter=kind == fr.SECOND) \
                == pytest.approx(res.value, rel=1e-12)

    def test_frequencies_use_the_kernel_not_solve(self, monkeypatch):
        calls = []
        minimize = sv._minimize

        def no_solve(*args):
            raise AssertionError("a section frequency called solve")

        monkeypatch.setattr(sv, "solve", no_solve)
        monkeypatch.setattr(fr, "_minimize", lambda *a, **k: calls.append(k) or minimize(*a, **k))
        res = fr.compute_frequency(geo.interval_section(1.0, 16), 1.5, fr.FIRST)
        assert len(calls) == res.iterations > 0
        assert all(k["load"] is not None for k in calls)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fr, "MAX_ITER", 1)
        with pytest.raises(sv.SolverError, match="did not converge in 1 iterations"):
            fr.compute_frequency(geo.interval_section(1.0, 16), 1.5, fr.FIRST)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("name", ["readme-h16", "readme-k2-h8", "radial-h8"])
def test_forms_equal_connectivity_scatter(name, p):
    """The iteration's residual forms, summed onto the nodes by slices: the
    bytes of np.add.at through the connectivity on the interval and the
    rectangle sections, and within 1e-14 of them on the periodic radial
    section, whose wrapped nodes sum in another order.  q is the
    numerator."""
    mesh = station_meshes()[name]
    grid = mesh.cross_section(mesh.stations[mesh.stations.size // 2]).grid
    u = np.random.default_rng(4).normal(size=grid.n_nodes)
    quot = fr._Quotient(grid, p, recenter=False)
    q, flux, load = quot.forms(grid.quad_terms(u, vals=True, grads=True, square_plus=0.0))
    g = grads_at_quads(grid, u)
    c = (st.squared_norm(g) + fr.SECTION_EPS**2) ** (0.5 * (p - 2.0))
    vq = grid.vals_at_quads(u)
    assert q == quot.numerator(st.squared_norm(g))
    for got, want in ((flux, reference_gradient_form(grid, c[..., None] * g)),
                      (load, reference_scalar_form(grid, st.guarded_power(np.abs(vq), p - 2.0) * vq))):
        if any(grid.periodic):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        else:
            assert got.tobytes() == want.tobytes()
