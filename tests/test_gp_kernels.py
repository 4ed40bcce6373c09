"""Tests for repro.gp.kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.kernels import SquaredExponential

KERNELS = [SquaredExponential]


@pytest.fixture(params=KERNELS, ids=lambda k: k.__name__)
def kernel_cls(request):
    return request.param


class TestConstruction:
    def test_default_lengthscales(self, kernel_cls):
        k = kernel_cls(3)
        np.testing.assert_array_equal(k.lengthscales, np.ones(3))

    def test_scalar_lengthscale_broadcast(self, kernel_cls):
        k = kernel_cls(4, lengthscales=0.5)
        np.testing.assert_array_equal(k.lengthscales, np.full(4, 0.5))

    def test_rejects_bad_dim(self, kernel_cls):
        with pytest.raises(ValueError):
            kernel_cls(0)

    def test_rejects_negative_lengthscale(self, kernel_cls):
        with pytest.raises(ValueError):
            kernel_cls(2, lengthscales=[-1.0, 1.0])

    def test_rejects_wrong_lengthscale_shape(self, kernel_cls):
        with pytest.raises(ValueError):
            kernel_cls(2, lengthscales=[1.0, 1.0, 1.0])


class TestEvaluation:
    def test_diagonal_is_variance(self, kernel_cls):
        k = kernel_cls(2, variance=2.5)
        X = np.random.default_rng(0).uniform(size=(5, 2))
        np.testing.assert_allclose(np.diag(k(X)), 2.5)
        np.testing.assert_allclose(k.diag(X), 2.5)

    def test_symmetry(self, kernel_cls):
        X = np.random.default_rng(1).uniform(size=(6, 3))
        K = kernel_cls(3)(X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)

    def test_psd(self, kernel_cls):
        X = np.random.default_rng(2).uniform(size=(10, 2))
        K = kernel_cls(2)(X)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-10

    def test_cross_covariance_shape(self, kernel_cls):
        rng = np.random.default_rng(3)
        k = kernel_cls(2)
        K = k(rng.uniform(size=(4, 2)), rng.uniform(size=(7, 2)))
        assert K.shape == (4, 7)

    def test_decays_with_distance(self, kernel_cls):
        k = kernel_cls(1)
        x = np.array([[0.0]])
        near = k(x, np.array([[0.1]]))[0, 0]
        far = k(x, np.array([[3.0]]))[0, 0]
        assert near > far

    def test_se_matches_closed_form(self):
        k = SquaredExponential(2, lengthscales=[0.5, 2.0], variance=3.0)
        xi = np.array([0.3, 1.0])
        xj = np.array([0.7, -0.5])
        expected = 3.0 * np.exp(
            -0.5 * ((0.4 / 0.5) ** 2 + (1.5 / 2.0) ** 2)
        )
        got = k(xi.reshape(1, -1), xj.reshape(1, -1))[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)


class TestTheta:
    def test_roundtrip(self, kernel_cls):
        k = kernel_cls(3, lengthscales=[0.1, 1.0, 5.0], variance=2.0)
        theta = k.get_theta()
        k2 = kernel_cls(3)
        k2.set_theta(theta)
        np.testing.assert_allclose(k2.lengthscales, k.lengthscales)
        assert k2.variance == pytest.approx(k.variance)

    def test_set_theta_shape_check(self, kernel_cls):
        with pytest.raises(ValueError):
            kernel_cls(2).set_theta(np.zeros(5))

    def test_n_params(self, kernel_cls):
        assert kernel_cls(4).n_params == 5


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, kernel_cls, seed):
        rng = np.random.default_rng(seed)
        k = kernel_cls(3, lengthscales=rng.uniform(0.3, 2.0, 3), variance=1.7)
        X = rng.uniform(size=(6, 3))
        grads = k.gradients(X)
        theta0 = k.get_theta()
        eps = 1e-6
        for i, analytic in enumerate(grads):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += eps
            tm[i] -= eps
            kp, km = kernel_cls(3), kernel_cls(3)
            kp.set_theta(tp)
            km.set_theta(tm)
            numeric = (kp(X) - km(X)) / (2 * eps)
            np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_gradient_count(self, kernel_cls):
        X = np.random.default_rng(0).uniform(size=(4, 2))
        assert len(kernel_cls(2).gradients(X)) == 3


def test_copy_is_independent(kernel_cls=SquaredExponential):
    k = kernel_cls(2, lengthscales=[1.0, 2.0])
    k2 = k.copy()
    k2.lengthscales[0] = 99.0
    assert k.lengthscales[0] == 1.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 8),
    d=st.integers(1, 4),
)
def test_property_kernel_matrix_psd_and_bounded(seed, n, d):
    rng = np.random.default_rng(seed)
    for cls in KERNELS:
        k = cls(d, lengthscales=rng.uniform(0.2, 3.0, d), variance=rng.uniform(0.5, 4.0))
        X = rng.uniform(-2, 2, size=(n, d))
        K = k(X)
        assert np.all(K <= k.variance + 1e-10)
        assert np.linalg.eigvalsh(K).min() > -1e-8
