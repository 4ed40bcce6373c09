"""Tests for repro.gp.gp (GaussianProcess)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import GaussianProcess, SquaredExponential


@pytest.fixture
def simple_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(25, 2))
    y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2
    return X, y


class TestConstruction:
    def test_requires_dim_or_kernel(self):
        with pytest.raises(ValueError):
            GaussianProcess()

    def test_dim_kernel_mismatch(self):
        with pytest.raises(ValueError):
            GaussianProcess(3, kernel=SquaredExponential(2))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcess(2, noise_variance=-1.0)

    def test_noise_floor_applied(self):
        gp = GaussianProcess(2, noise_variance=0.0)
        assert gp.noise_variance > 0


class TestFitPredict:
    def test_interpolates_training_data(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2, noise_variance=1e-8).fit(X, y)
        mu = gp.predict(X, return_std=False)
        np.testing.assert_allclose(mu, y, atol=1e-3)

    def test_sigma_small_at_train_large_away(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2, noise_variance=1e-8).fit(X, y)
        _, s_train = gp.predict(X)
        _, s_far = gp.predict(np.array([[10.0, 10.0]]))
        assert s_train.max() < 1e-2
        assert s_far[0] == pytest.approx(1.0, rel=1e-3)  # prior std

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess(2).predict(np.zeros((1, 2)))

    def test_rejects_nan_observations(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError):
            GaussianProcess(1).fit(X, [1.0, np.nan])
        # add_observation refuses what fit refuses, and leaves the model
        # predicting exactly what it did before the refused call.
        rng = np.random.default_rng(0)
        gp = GaussianProcess(2).fit(rng.uniform(size=(6, 2)), rng.standard_normal(6))
        X_test = rng.uniform(size=(4, 2))
        mu, sigma = gp.predict(X_test)
        for x, y in (([0.5, np.nan], 0.0), ([0.5, np.inf], 0.0),
                     ([0.5, 0.5], np.nan)):
            with pytest.raises(ValueError):
                gp.add_observation(x, y)
            assert gp.n_train == 6
            mu_after, sigma_after = gp.predict(X_test)
            assert np.array_equal(mu_after, mu)
            assert np.array_equal(sigma_after, sigma)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GaussianProcess(1).fit(np.zeros((0, 1)), [])

    def test_predict_single_point_promotion(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X, y)
        mu, s = gp.predict(X[0])
        assert mu.shape == (1,)

    def test_matches_direct_formula(self, simple_data):
        """Posterior must equal the textbook Eq. 2 computed naively."""
        X, y = simple_data
        noise = 1e-4
        gp = GaussianProcess(2, noise_variance=noise).fit(X, y)
        Xs = np.random.default_rng(1).uniform(0, 1, size=(5, 2))
        K = gp.kernel(X) + noise * np.eye(len(X))
        ks = gp.kernel(X, Xs)
        mu_direct = ks.T @ np.linalg.solve(K, y)
        var_direct = gp.kernel.diag(Xs) - np.sum(ks * np.linalg.solve(K, ks), axis=0)
        mu, s = gp.predict(Xs)
        np.testing.assert_allclose(mu, mu_direct, atol=1e-8)
        np.testing.assert_allclose(s**2, var_direct, atol=1e-8)


class TestIncrementalUpdate:
    def test_add_observation_matches_refit(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X[:-1], y[:-1])
        gp.add_observation(X[-1], y[-1])
        gp_full = GaussianProcess(2).fit(X, y)
        Xs = np.random.default_rng(2).uniform(0, 1, size=(6, 2))
        mu_a, s_a = gp.predict(Xs)
        mu_b, s_b = gp_full.predict(Xs)
        np.testing.assert_allclose(mu_a, mu_b, atol=1e-7)
        np.testing.assert_allclose(s_a, s_b, atol=1e-7)

    def test_n_train_increments(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X, y)
        gp.add_observation([0.5, 0.5], 1.0)
        assert gp.n_train == len(X) + 1


class TestPending:
    def test_pending_collapses_sigma(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2, noise_variance=1e-6).fit(X, y)
        x_pending = np.array([[0.9, 0.1]])
        _, s_before = gp.predict(x_pending)
        gp_hal = gp.condition_on_pending(x_pending)
        _, s_after = gp_hal.predict(x_pending)
        assert s_after[0] < s_before[0]

    def test_pending_preserves_mean_at_pending_point(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2, noise_variance=1e-8).fit(X, y)
        x_pending = np.array([[0.42, 0.77]])
        mu_before = gp.predict(x_pending, return_std=False)
        gp_hal = gp.condition_on_pending(x_pending)
        mu_after = gp_hal.predict(x_pending, return_std=False)
        np.testing.assert_allclose(mu_after, mu_before, atol=1e-4)

    def test_original_model_untouched(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X, y)
        n = gp.n_train
        gp.condition_on_pending(np.array([[0.5, 0.5]]))
        assert gp.n_train == n

    def test_multiple_pending_points(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X, y)
        pend = np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]])
        gp_hal = gp.condition_on_pending(pend)
        assert gp_hal.n_train == gp.n_train + 3
        _, s = gp_hal.predict(pend)
        assert np.all(s < 0.05)


class TestMarginalLikelihood:
    def test_gradient_matches_finite_difference(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(kernel=SquaredExponential(2), noise_variance=1e-3).fit(X, y)
        theta0 = gp.get_theta()
        _, grad = gp.log_marginal_likelihood(theta0, return_grad=True)
        eps = 1e-6
        for i in range(len(theta0)):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += eps
            tm[i] -= eps
            num = (
                gp.log_marginal_likelihood(tp) - gp.log_marginal_likelihood(tm)
            ) / (2 * eps)
            assert grad[i] == pytest.approx(num, rel=1e-3, abs=1e-5)

    def test_higher_at_true_hyperparameters(self):
        rng = np.random.default_rng(5)
        kernel = SquaredExponential(1, lengthscales=[0.2], variance=1.0)
        gp_gen = GaussianProcess(kernel=kernel, noise_variance=1e-4)
        X = rng.uniform(0, 1, size=(40, 1))
        K = kernel(X) + 1e-4 * np.eye(40)
        y = np.linalg.cholesky(K) @ rng.standard_normal(40)
        gp = GaussianProcess(1).fit(X, y)
        theta_true = gp_gen.get_theta()
        lml_true = gp.log_marginal_likelihood(theta_true)
        theta_bad = theta_true.copy()
        theta_bad[0] = np.log(10.0)  # wildly long lengthscale
        lml_bad = gp.log_marginal_likelihood(theta_bad)
        assert lml_true > lml_bad

    def test_theta_shape_validation(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X, y)
        with pytest.raises(ValueError):
            gp.log_marginal_likelihood(np.zeros(99))


class TestCopy:
    def test_copy_independent(self, simple_data):
        X, y = simple_data
        gp = GaussianProcess(2).fit(X, y)
        gp2 = gp.copy()
        gp2.add_observation([0.5, 0.5], 0.0)
        assert gp.n_train == len(X)
        assert gp2.n_train == len(X) + 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 20))
def test_property_posterior_variance_nonincreasing_with_data(seed, n):
    """Adding an observation can only shrink posterior variance elsewhere."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 1))
    y = np.sin(5 * X[:, 0])
    gp = GaussianProcess(1, noise_variance=1e-6).fit(X, y)
    Xs = rng.uniform(0, 1, size=(10, 1))
    _, s_before = gp.predict(Xs)
    gp.add_observation(rng.uniform(0, 1, size=1), 0.0)
    _, s_after = gp.predict(Xs)
    assert np.all(s_after <= s_before + 1e-7)
