import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from svplab import frequency as fr
from svplab import geometry as geo

PI2 = math.pi**2


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
        res = fr.first_frequency(sec, 2.0)
        K, M = dense_interval_matrices(1.0, 256, "dirichlet")
        oracle = dense_eigs(K, M)[0]
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.value == pytest.approx(PI2, rel=0.005)

    def test_length_two_interval(self):
        sec = geo.interval_section(2.0, 256)
        res = fr.first_frequency(sec, 2.0)
        K, M = dense_interval_matrices(2.0, 256, "dirichlet")
        assert res.value == pytest.approx(dense_eigs(K, M)[0], rel=1e-8)
        assert res.value == pytest.approx(PI2 / 4.0, rel=0.005)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaling_law(self, p):
        v1 = fr.first_frequency(geo.interval_section(1.0, 256), p).value
        v2 = fr.first_frequency(geo.interval_section(2.0, 256), p).value
        assert v2 == pytest.approx(v1 / 2.0**p, rel=1e-8)

    def test_p3_against_brute_force(self):
        cells = 128
        sec = geo.interval_section(1.0, cells)
        res = fr.first_frequency(sec, 3.0)
        oracle = brute_force_quotient_min(sec, 3.0)
        assert res.value == pytest.approx(oracle, rel=0.01)
        # reference: (p-1) * (pi_p / L)^p for the continuum problem
        pip = 2.0 * math.pi / (3.0 * math.sin(math.pi / 3.0))
        assert res.value == pytest.approx(2.0 * pip**3, rel=0.01)

    def test_minimizer_quotient_reproduces_value(self):
        sec = geo.interval_section(1.0, 64)
        res = fr.first_frequency(sec, 3.0)
        assert fr.rayleigh_quotient(sec, 3.0, res.minimizer) == pytest.approx(res.value, rel=1e-10)

    def test_minimizer_pinned(self):
        sec = geo.interval_section(1.0, 64)
        res = fr.first_frequency(sec, 2.5)
        assert np.all(res.minimizer[res.dirichlet_ids] == 0.0)


def brute_force_quotient_min(section, p):
    """Dense quotient minimization by L-BFGS from a generic start."""
    grid = section.grid
    w = grid.quad_weights
    pinned = section.dirichlet_ids
    free = np.ones(grid.n_nodes, dtype=bool)
    free[pinned] = False

    def quotient(ufree):
        u = np.zeros(grid.n_nodes)
        u[free] = ufree
        g = grid.grads_at_quads(u)
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
        sec = geo.interval_section(1.0, 256)
        res = fr.third_frequency(sec, 2.0, pinned=np.array([0]))
        K, M = dense_interval_matrices(1.0, 256, "left")
        assert res.value == pytest.approx(dense_eigs(K, M)[0], rel=1e-8)
        assert res.value == pytest.approx(PI2 / 4.0, rel=0.005)

    def test_full_boundary_equals_first(self):
        sec = geo.interval_section(1.0, 128)
        full = fr.third_frequency(sec, 2.5, pinned=np.array([0, 128]))
        first = fr.first_frequency(sec, 2.5)
        assert full.value == pytest.approx(first.value, rel=1e-10)

    def test_empty_set_degenerate(self):
        sec = geo.interval_section(1.0, 64, dirichlet="none")
        res = fr.third_frequency(sec, 2.0)
        assert res.value == 0.0
        assert res.degenerate

    def test_monotone_in_pinned_set(self):
        sec = geo.interval_section(1.0, 128)
        small = fr.third_frequency(sec, 2.0, pinned=np.array([0]))
        large = fr.third_frequency(sec, 2.0, pinned=np.array([0, 128]))
        assert small.value <= large.value + 1e-12


class TestSecondFrequency:
    def test_unit_interval_against_dense_oracle(self):
        sec = geo.interval_section(1.0, 256)
        res = fr.second_frequency(sec, 2.0)
        K, M = dense_interval_matrices(1.0, 256, "neumann")
        oracle = dense_eigs(K, M)[1]  # first nonzero
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert res.value == pytest.approx(PI2, rel=0.005)

    def test_unit_square_against_tensor_oracle(self):
        sec = geo.rectangle_section((1.0, 1.0), (48, 48))
        res = fr.second_frequency(sec, 2.0)
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
        res = fr.second_frequency(sec, 2.0)
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
        res = fr.second_frequency(sec, p)
        vq = sec.grid.vals_at_quads(res.minimizer) - res.optimal_c
        w = sec.grid.quad_weights
        deriv = float(np.sum(w * np.abs(vq) ** (p - 2.0) * vq))
        scale = float(np.sum(w * np.abs(vq) ** (p - 1.0)))
        assert abs(deriv) / scale <= 1e-8

    def test_second_not_above_first(self):
        sec = geo.interval_section(1.0, 128)
        for p in (1.5, 2.0, 3.0):
            second = fr.second_frequency(sec, p).value
            first = fr.first_frequency(sec, p).value
            assert second <= first + 1e-10

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_scaling_law_general_p(self, p):
        v1 = fr.second_frequency(geo.interval_section(1.0, 128), p).value
        v2 = fr.second_frequency(geo.interval_section(2.0, 128), p).value
        assert v2 == pytest.approx(v1 / 2.0**p, rel=1e-8)


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


class TestFrequencyProfile:
    def test_layer_profile_constant(self):
        dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                  alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 0.25)
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [-0.5, 0.0, 0.5])
        vals = [r.value for _, r in pairs]
        assert max(vals) - min(vals) <= 1e-10 * max(vals)

    def test_radial_profile_monotone(self):
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=5.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 1 / 8)
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [2.0, 4.0])
        assert pairs[1][1].value <= pairs[0][1].value

    def test_single_station(self):
        dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                  alpha=1.0, beta=3.0, lateral_bc=("neumann", "neumann"))
        mesh = geo.build_mesh(dom, 0.25)
        pairs = fr.frequency_profile(mesh, 2.0, fr.FIRST, [0.0])
        assert len(pairs) == 1
        assert pairs[0][0] == 0.0


def same_result(a, b):
    return (a.kind == b.kind and a.value == b.value and a.optimal_c == b.optimal_c
            and a.residual == b.residual and a.iterations == b.iterations
            and a.degenerate == b.degenerate
            and np.array_equal(a.minimizer, b.minimizer)
            and np.array_equal(a.dirichlet_ids, b.dirichlet_ids))


def count_compute_calls(monkeypatch):
    calls = []
    compute = fr.compute_frequency

    def counting(section, p, kind, **kwargs):
        calls.append((kind, section.tau))
        return compute(section, p, kind, **kwargs)

    monkeypatch.setattr(fr, "compute_frequency", counting)
    return calls


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
        stations = [-0.75, -0.25, 0.0, 0.5, 1.0]
        for kind in (fr.FIRST, fr.SECOND, fr.THIRD):
            pairs = fr.frequency_profile(mesh, 2.0, kind, stations)
            assert [t for t, _ in pairs] == stations
            assert len({id(r) for _, r in pairs}) == 1
        fr.frequency_profile(mesh, 2.0, fr.SECOND, [0.25, 0.75])
        assert sorted(k for k, _ in calls) == [fr.FIRST, fr.SECOND, fr.THIRD]

    def test_layer_memo_keyed_on_p_seed_restarts(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        mesh = layer_mesh()
        fr.frequency_profile(mesh, 2.0, fr.FIRST, [0.0, 0.5])
        fr.frequency_profile(mesh, 3.0, fr.FIRST, [0.0, 0.5])
        fr.frequency_profile(mesh, 3.0, fr.FIRST, [0.0], seed=1)
        fr.frequency_profile(mesh, 3.0, fr.FIRST, [0.0], seed=1, restarts=0)
        assert len(calls) == 4

    def test_layer_memo_matches_fresh_computation(self):
        mesh = layer_mesh()
        for kind in (fr.FIRST, fr.SECOND, fr.THIRD):
            for tau, res in fr.frequency_profile(mesh, 1.5, kind, [0.0, 0.75]):
                fresh = fr.compute_frequency(mesh.cross_section(tau), 1.5, kind)
                assert same_result(res, fresh)

    def test_radial_radii_not_collapsed(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        mesh = radial_mesh()
        radii = [1.5, 2.0, 2.5, 2.0]
        pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, radii)
        assert [t for t, _ in pairs] == radii
        assert sorted(t for _, t in calls) == [1.5, 2.0, 2.5]
        assert pairs[1][1] is pairs[3][1]
        assert len({r.value for _, r in pairs}) == 3
        for tau, res in pairs:
            fresh = fr.compute_frequency(mesh.cross_section(tau), 2.0, fr.SECOND)
            assert same_result(res, fresh)

    def test_new_mesh_recomputes(self, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        a, b = layer_mesh(), layer_mesh()
        ra = fr.frequency_profile(a, 2.0, fr.SECOND, [0.0])[0][1]
        rb = fr.frequency_profile(b, 2.0, fr.SECOND, [0.0])[0][1]
        assert len(calls) == 2
        assert ra is not rb
        assert a.frequency_memo is not b.frequency_memo
        assert same_result(ra, rb)

    def test_off_grid_station_rejected(self):
        with pytest.raises(ValueError):
            fr.frequency_profile(layer_mesh(), 2.0, fr.FIRST, [0.1])


class TestIntervalOracleOrder:
    """First p-eigenvalue of the unit interval, (p - 1) pi_p^p with
    pi_p = 2 pi / (p sin(pi / p)), approached at second order in h."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_second_order(self, p):
        exact = (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p
        errs = [abs(fr.first_frequency(geo.interval_section(1.0, n), p).value - exact)
                for n in (16, 32, 64)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= r <= 2.2 for r in orders), orders


class TestDescentRobustness:
    def test_tolerance_halving_within_residual(self):
        sec = geo.interval_section(1.0, 64)
        a = fr.first_frequency(sec, 3.0, tol=1e-12)
        b = fr.first_frequency(sec, 3.0, tol=5e-13)
        assert abs(a.value - b.value) <= max(a.residual * a.value, 1e-12)

    def test_p_validation(self):
        sec = geo.interval_section(1.0, 16)
        with pytest.raises(ValueError):
            fr.first_frequency(sec, 1.0)
