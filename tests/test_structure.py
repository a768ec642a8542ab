import numpy as np
import pytest

from svplab import structure as st


class TestEvaluate:
    def test_p2_identity(self):
        out = st.evaluate(st.constant_operator(2.0), 0.0, np.array([3.0, 4.0]))
        assert np.allclose(out, [3.0, 4.0], rtol=0, atol=1e-15)

    def test_p3_scales_by_norm(self):
        out = st.evaluate(st.constant_operator(3.0), 0.0, np.array([3.0, 4.0]))
        assert np.allclose(out, [15.0, 20.0], rtol=1e-14)

    def test_zero_gradient_extension(self):
        out = st.evaluate(st.constant_operator(1.5), 0.0, np.array([0.0, 0.0]))
        assert np.all(out == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            st.evaluate(st.constant_operator(2.0), 0.0, np.array([np.inf, 0.0]))


class TestSquaredNorm:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_equal_to_numpy_sum(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(400, 4, d))
        x[200:] *= 10.0 ** rng.uniform(-170, 150, size=(200, 4, d))
        x[0] = 0.0
        x[1, :, 0] = -0.0
        out = st.squared_norm(x)
        ref = np.sum(x**2, axis=-1)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()


class TestPotential:
    def test_p2(self):
        assert st.potential(st.constant_operator(2.0), 0.0, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_zero(self):
        assert st.potential(st.constant_operator(3.0), 0.0, np.array([0.0, 0.0])) == 0.0

    def test_p3_with_coefficient(self):
        op = st.constant_operator(3.0, a=2.0)
        assert st.potential(op, 0.0, np.array([1.0, 0.0])) == pytest.approx(2.0 / 3.0)

    def test_gradient_matches_field(self):
        # central difference of the potential against the vector field
        rng = np.random.default_rng(3)
        h = 1e-5
        for p in (1.5, 2.0, 3.0):
            op = st.constant_operator(p, a=1.0)
            for _ in range(50):
                xi = rng.normal(size=3)
                xi *= rng.uniform(0.1, 10.0) / np.linalg.norm(xi)
                eps = rng.normal(size=3)
                eps /= np.linalg.norm(eps)
                fd = (st.potential(op, 0.0, xi + h * eps) - st.potential(op, 0.0, xi - h * eps)) / (2 * h)
                exact = float(st.evaluate(op, 0.0, xi) @ eps)
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-12)


class TestHomogeneity:
    def test_p3_lambda2_scale(self):
        op = st.constant_operator(3.0)
        xi = np.array([1.0, 2.0])
        assert np.allclose(st.evaluate(op, 0.0, 2.0 * xi), 4.0 * st.evaluate(op, 0.0, xi), rtol=1e-14)

    def test_p2_sign_flip(self):
        op = st.constant_operator(2.0)
        xi = np.array([1.0, -2.0])
        assert np.allclose(st.evaluate(op, 0.0, -xi), -st.evaluate(op, 0.0, xi), rtol=1e-15)


class TestCheckStructure:
    def test_random_suite_passes(self):
        report = st.check_structure(st.constant_operator(3.0), 10000, seed=0)
        assert report.passed
        assert report.worst_homogeneity <= 1e-12

    def test_equality_when_bounds_coincide(self):
        # constant a = nu1 = nu2: both ellipticity inequalities are equalities
        report = st.check_structure(st.constant_operator(2.5, a=1.0), 2000, seed=1)
        assert abs(report.worst_lower) <= 1e-12
        assert abs(report.worst_upper) <= 1e-12

    def test_oscillating_coefficient(self):
        coeff = st.Coefficient("oscillation", (3.0,), 1.0, 2.0)
        op = st.StructureOperator(p=2.0, nu1=1.0, nu2=2.0, coefficient=coeff)
        report = st.check_structure(op, 5000, seed=2)
        assert report.passed
        t = np.linspace(0.0, 10.0, 1000)
        a = op.a(t)
        assert np.all(a >= 1.0 - 1e-12) and np.all(a <= 2.0 + 1e-12)

    def test_step_coefficient(self):
        coeff = st.Coefficient("step", (2.0,), 1.0, 3.0)
        op = st.StructureOperator(p=2.0, nu1=1.0, nu2=3.0, coefficient=coeff)
        assert op.a(1.0) == 1.0
        assert op.a(2.5) == 3.0
        assert st.check_structure(op, 2000, seed=3).passed

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            st.check_structure(st.constant_operator(2.0), 0)


class TestMonotonicity:
    def test_field_is_monotone(self):
        rng = np.random.default_rng(11)
        for p in (1.5, 2.0, 4.0):
            op = st.constant_operator(p)
            xi = rng.normal(size=(200, 3))
            eta = rng.normal(size=(200, 3))
            gap = np.sum((st.evaluate(op, 0.0, xi) - st.evaluate(op, 0.0, eta)) * (xi - eta), axis=-1)
            assert np.all(gap >= -1e-12)


class TestConstruction:
    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            st.constant_operator(1.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            st.StructureOperator(p=2.0, nu1=2.0, nu2=1.0)

    def test_constant_outside_bounds(self):
        with pytest.raises(ValueError):
            st.StructureOperator(p=2.0, nu1=1.0, nu2=2.0,
                                 coefficient=st.Coefficient("constant", (5.0,), 1.0, 2.0))
