"""Unit tests for the sparse inducing-point GP (repro.gp.sparse).

The convergence/equivalence *sweeps* live in ``tests/test_properties.py``
(marked ``property``); this module pins the small, deterministic contracts:
inducing selection (greedy max-min, forced ``include`` indices), the
duck-typed model API the surrogate session relies on, and the factor-shared
sparse hallucinated view.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gp.gp import GaussianProcess
from repro.gp.kernels import SquaredExponential
from repro.gp.sparse import (
    SparseGaussianProcess,
    SparseHallucinatedView,
    select_inducing,
)


def make_dataset(n=40, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, dim))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    return X, y


def make_sparse(n=40, dim=3, seed=0, n_inducing=12, **kwargs):
    X, y = make_dataset(n, dim, seed)
    kernel = SquaredExponential(dim, lengthscales=np.full(dim, 0.5))
    model = SparseGaussianProcess(
        kernel=kernel, noise_variance=1e-2, n_inducing=n_inducing, **kwargs
    )
    model.fit(X, y)
    return model, X, y


class TestSelectInducing:
    def test_deterministic_sorted_unique(self):
        X, _ = make_dataset(n=50)
        idx = select_inducing(X, 10)
        assert idx.shape == (10,)
        assert len(np.unique(idx)) == 10
        np.testing.assert_array_equal(idx, np.sort(idx))
        np.testing.assert_array_equal(idx, select_inducing(X, 10))

    def test_budget_at_least_dataset_returns_all(self):
        X, _ = make_dataset(n=8)
        np.testing.assert_array_equal(select_inducing(X, 8), np.arange(8))
        np.testing.assert_array_equal(select_inducing(X, 99), np.arange(8))

    def test_include_indices_are_forced_in(self):
        X, _ = make_dataset(n=60)
        forced = [41, 7, 41, 3]  # duplicate on purpose
        idx = select_inducing(X, 10, include=forced)
        assert {41, 7, 3} <= set(idx.tolist())
        assert idx.shape == (10,)
        assert len(np.unique(idx)) == 10

    def test_include_capped_at_budget(self):
        X, _ = make_dataset(n=20)
        idx = select_inducing(X, 3, include=[5, 9, 11, 13])
        np.testing.assert_array_equal(idx, [5, 9, 11])

    def test_include_out_of_range_rejected(self):
        X, _ = make_dataset(n=10)
        with pytest.raises(ValueError):
            select_inducing(X, 4, include=[10])
        with pytest.raises(ValueError):
            select_inducing(X, 4, include=[-1])

    def test_rejects_nonpositive_budget(self):
        X, _ = make_dataset(n=10)
        with pytest.raises(ValueError):
            select_inducing(X, 0)

    def test_max_min_is_space_filling(self):
        # Two tight clusters: a budget of 2 must take one point from each,
        # never two from the same cluster.
        rng = np.random.default_rng(2)
        left = rng.normal(0.0, 0.01, size=(10, 2))
        right = rng.normal(5.0, 0.01, size=(10, 2))
        X = np.vstack([left, right])
        idx = select_inducing(X, 2)
        sides = {int(i >= 10) for i in idx}
        assert sides == {0, 1}


class TestSparseModelContract:
    def test_fit_predict_shapes_and_finiteness(self):
        model, X, _ = make_sparse()
        mu, sd = model.predict(X[:5])
        assert mu.shape == (5,) and sd.shape == (5,)
        assert np.all(np.isfinite(mu)) and np.all(sd > 0)
        mu_only = model.predict(X[:5], return_std=False)
        np.testing.assert_array_equal(mu_only, mu)

    def test_degenerate_inducing_set_matches_exact(self):
        model, X, y = make_sparse(n=15, n_inducing=15)
        exact = GaussianProcess(kernel=model.kernel, noise_variance=1e-2)
        exact.fit(X, y)
        Xs = np.random.default_rng(1).uniform(size=(6, X.shape[1]))
        mu_s, sd_s = model.predict(Xs)
        mu_e, sd_e = exact.predict(Xs)
        np.testing.assert_allclose(mu_s, mu_e, atol=1e-8)
        np.testing.assert_allclose(sd_s, sd_e, atol=1e-8)

    def test_update_grows_n_train_keeps_inducing_set(self):
        model, X, _ = make_sparse(n=30, n_inducing=8)
        Z_before = model.inducing_points
        rng = np.random.default_rng(3)
        model.update(rng.uniform(size=(4, 3)), rng.standard_normal(4))
        assert model.n_train == 34
        np.testing.assert_array_equal(model.inducing_points, Z_before)

    def test_update_refresh_alpha_false_then_set_targets(self):
        # The session's incremental path: append without the weight solve,
        # then set_targets replays every (re-standardized) target.
        model, X, y = make_sparse(n=25, n_inducing=10)
        x_new = np.random.default_rng(4).uniform(size=(1, 3))
        model.update(x_new, [0.3], refresh_alpha=False)
        model.set_targets(np.append(y, 0.3))
        fresh = SparseGaussianProcess(
            kernel=model.kernel, noise_variance=1e-2, n_inducing=10
        )
        fresh.fit(
            np.vstack([X, x_new]),
            np.append(y, 0.3),
            inducing_indices=model.posterior_state.inducing_indices,
        )
        Xs = np.random.default_rng(5).uniform(size=(6, 3))
        np.testing.assert_allclose(
            model.predict(Xs)[0], fresh.predict(Xs)[0], atol=1e-8
        )

    def test_empty_update_is_noop(self):
        model, _, _ = make_sparse()
        n = model.n_train
        model.update(np.empty((0, 3)), np.empty(0))
        assert model.n_train == n

    def test_copy_is_independent(self):
        model, _, _ = make_sparse()
        clone = model.copy()
        x_new = np.full((1, 3), 0.5)
        clone.update(x_new, [1.0])
        assert clone.n_train == model.n_train + 1
        mu_orig, _ = model.predict(x_new)
        mu_clone, _ = clone.predict(x_new)
        assert not np.allclose(mu_orig, mu_clone)

    def test_requires_fit_before_predict(self):
        model = SparseGaussianProcess(dim=2)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 2)))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SparseGaussianProcess(dim=2, n_inducing=0)
        with pytest.raises(ValueError):
            SparseGaussianProcess(dim=2, noise_variance=-1.0)
        model = SparseGaussianProcess(dim=2)
        with pytest.raises(ValueError):
            model.fit(np.empty((0, 2)), np.empty(0))


class TestSparseHallucinatedView:
    def test_sigma_collapses_mean_unchanged(self):
        model, _, _ = make_sparse()
        x_busy = np.array([[0.3, 0.7, 0.2]])
        mu_before, sd_before = model.predict(x_busy)
        view = model.condition_on_pending(x_busy)
        assert isinstance(view, SparseHallucinatedView)
        mu_after, sd_after = view.predict(x_busy)
        assert sd_after[0] < sd_before[0]
        np.testing.assert_allclose(mu_after, mu_before, atol=1e-10)

    def test_base_model_untouched(self):
        model, X, _ = make_sparse()
        Xs = X[:4]
        mu0, sd0 = model.predict(Xs)
        view = SparseHallucinatedView(model, np.array([[0.5, 0.5, 0.5]]))
        assert view.discard() is model
        assert view.n_pending == 1
        mu1, sd1 = model.predict(Xs)
        np.testing.assert_array_equal(mu0, mu1)
        np.testing.assert_array_equal(sd0, sd1)

    def test_sigma_never_inflates_far_away(self):
        model, _, _ = make_sparse()
        view = SparseHallucinatedView(model, np.array([[0.1, 0.1, 0.1]]))
        Xs = np.random.default_rng(7).uniform(size=(20, 3))
        _, sd_base = model.predict(Xs)
        _, sd_view = view.predict(Xs)
        assert np.all(sd_view <= sd_base + 1e-8)

    def test_view_mean_is_the_base_mean_bit_for_bit(self):
        """The view builds k(Z, X) once for its mean and its sigma; the mean
        is still exactly the base model's."""
        model, _, _ = make_sparse()
        view = SparseHallucinatedView(model, np.array([[0.2, 0.4, 0.6], [0.9, 0.1, 0.5]]))
        Xs = np.random.default_rng(3).uniform(size=(11, 3))
        np.testing.assert_array_equal(view.predict(Xs)[0], model.predict(Xs)[0])
        np.testing.assert_array_equal(
            view.predict(Xs, return_std=False), model.predict(Xs, return_std=False)
        )

    def test_view_refuses_stale_weights(self):
        model, _, _ = make_sparse()
        view = SparseHallucinatedView(model, np.array([[0.5, 0.5, 0.5]]))
        model.update(np.array([[0.3, 0.3, 0.3]]), np.array([0.1]), refresh_alpha=False)
        for return_std in (True, False):
            with pytest.raises(RuntimeError, match="stale"):
                view.predict(np.array([[0.1, 0.2, 0.3]]), return_std=return_std)
