"""The exact GP's hot calls equal their scipy-wrapper references bit for bit.

``solve_lower``/``cholesky_solve`` call LAPACK directly, and the GP's
likelihood, ``predict`` and the Eq. 9 ``HallucinatedView`` skip per-call
validation after their public boundary.  Each reference below is built from
scipy's wrappers and the public kernel call, the way those paths computed
before, and must match with ``np.array_equal``.  Unlike a golden trajectory
these hold on any CPU, and on a scipy release that changes its wrappers'
LAPACK mapping they fail.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.surrogate import HallucinatedView
from repro.gp import GaussianProcess, SquaredExponential
from repro.gp.gp import VARIANCE_FLOOR
from repro.gp.linalg import cholesky_solve, solve_lower


def random_factor(n, rng):
    A = rng.standard_normal((n, n))
    return np.linalg.cholesky(A @ A.T + n * np.eye(n))


def fitted_gp(n, d, rng):
    kernel = SquaredExponential(
        d, lengthscales=rng.uniform(0.2, 1.5, d), variance=rng.uniform(0.5, 2.0)
    )
    gp = GaussianProcess(kernel=kernel, noise_variance=rng.uniform(1e-6, 1e-2))
    return gp.fit(rng.uniform(size=(n, d)), rng.standard_normal(n))


# --------------------------------------------------------------- the solves
RHS_SHAPES = [(), (1,), (3,), (0,)]


class TestSolves:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("cols", RHS_SHAPES)
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_solve_lower_is_solve_triangular(self, n, cols, order):
        rng = np.random.default_rng(n + len(cols))
        L = np.asarray(random_factor(n, rng), order=order)
        b = rng.standard_normal((n, *cols))
        expected = sla.solve_triangular(L, b, lower=True, check_finite=False)
        got = solve_lower(L, b)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("cols", RHS_SHAPES)
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_cholesky_solve_is_cho_solve(self, n, cols, order):
        rng = np.random.default_rng(100 + n + len(cols))
        L = np.asarray(random_factor(n, rng), order=order)
        b = rng.standard_normal((n, *cols))
        expected = sla.cho_solve((L, True), b, check_finite=False)
        got = cholesky_solve(L, b)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_rhs_untouched_without_overwrite(self):
        rng = np.random.default_rng(6)
        L = random_factor(9, rng)
        b = np.asfortranarray(rng.standard_normal((9, 2)))
        before = b.copy()
        solve_lower(L, b)
        cholesky_solve(L, b)
        assert np.array_equal(b, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_on_the_diagonal_raises(self, order):
        L = np.asarray(random_factor(5, np.random.default_rng(7)), order=order)
        L[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_lower(L, np.ones(5))


# ---------------------------------------------------- predict and Eq. 9 view
def reference_predict(gp, U):
    """``GaussianProcess.predict`` from the public kernel call and scipy."""
    k = gp.kernel(gp.X, U)
    mu = k.T @ gp.alpha
    v = sla.solve_triangular(gp.cholesky_factor, k, lower=True, check_finite=False)
    var = gp.kernel.diag(U) - np.sum(v**2, axis=0)
    return mu, np.sqrt(np.maximum(var, VARIANCE_FLOOR))


def reference_view_predict(gp, P, U):
    """``HallucinatedView(gp, P).predict(U)`` from the public kernel and scipy."""
    L = gp.cholesky_factor
    B = sla.solve_triangular(L, gp.kernel(gp.X, P), lower=True, check_finite=False)
    schur = gp.kernel(P) + gp.noise_variance * np.eye(len(P)) - B.T @ B
    L_p = np.linalg.cholesky(0.5 * (schur + schur.T))
    k1 = gp.kernel(gp.X, U)
    mu = k1.T @ gp.alpha
    v1 = sla.solve_triangular(L, k1, lower=True, check_finite=False)
    k2 = gp.kernel(P, U)
    v2 = sla.solve_triangular(L_p, k2 - B.T @ v1, lower=True, check_finite=False)
    var = gp.kernel.diag(U) - np.sum(v1**2, axis=0) - np.sum(v2**2, axis=0)
    return mu, np.sqrt(np.maximum(var, VARIANCE_FLOOR))


PREDICT_CASES = [
    # (seed, n, d, k pending, m rows)
    (0, 5, 1, 1, 1),
    (1, 12, 1, 3, 11),
    (2, 20, 2, 2, 2048),
    (3, 30, 2, 4, 11),
    (4, 36, 10, 4, 11),
    (5, 36, 10, 5, 2048),
    (6, 60, 10, 1, 1),
    (7, 45, 12, 3, 11),
    (8, 120, 12, 4, 2048),
]


class TestPredict:
    @pytest.mark.parametrize("seed,n,d", [case[:3] for case in PREDICT_CASES])
    def test_factor_and_weights_match_the_dense_build(self, seed, n, d):
        rng = np.random.default_rng(seed)
        gp = fitted_gp(n, d, rng)
        K = gp.kernel(gp.X) + gp.noise_variance * np.eye(n)
        L = np.linalg.cholesky(K)
        assert np.array_equal(gp.cholesky_factor, L)
        alpha = sla.cho_solve((L, True), gp.y, check_finite=False)
        assert np.array_equal(gp.alpha, alpha)

    @pytest.mark.parametrize("seed,n,d,k,m", PREDICT_CASES)
    def test_gp_predict(self, seed, n, d, k, m):
        rng = np.random.default_rng(seed)
        gp = fitted_gp(n, d, rng)
        U = rng.uniform(size=(m, d))
        mu, sigma = gp.predict(U)
        ref_mu, ref_sigma = reference_predict(gp, U)
        assert np.array_equal(mu, ref_mu)
        assert np.array_equal(sigma, ref_sigma)
        assert np.array_equal(gp.predict(U, return_std=False), ref_mu)

    @pytest.mark.parametrize("seed,n,d,k,m", PREDICT_CASES)
    def test_view_predict(self, seed, n, d, k, m):
        rng = np.random.default_rng(seed)
        gp = fitted_gp(n, d, rng)
        P = rng.uniform(size=(k, d))
        U = rng.uniform(size=(m, d))
        mu, sigma = HallucinatedView(gp, P).predict(U)
        ref_mu, ref_sigma = reference_view_predict(gp, P, U)
        assert np.array_equal(mu, ref_mu)
        assert np.array_equal(sigma, ref_sigma)


# -------------------------------------------------- likelihood and gradient
def reference_lml_and_grad(gp):
    """Log likelihood and gradient by the per-hyperparameter loop."""
    X, y, kernel, n = gp.X, gp.y, gp.kernel, gp.n_train
    K = kernel(X)
    L = np.linalg.cholesky(K + gp.noise_variance * np.eye(n))
    alpha = sla.cho_solve((L, True), y, check_finite=False)
    lml = (
        -0.5 * float(y @ alpha)
        - 0.5 * (2.0 * float(np.sum(np.log(np.diag(L)))))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    K_inv = sla.cho_solve((L, True), np.eye(n), check_finite=False)
    outer = np.outer(alpha, alpha) - K_inv
    dKs = [
        K * ((X[:, i][:, None] - X[:, i][None, :]) / kernel.lengthscales[i]) ** 2
        for i in range(kernel.dim)
    ] + [2.0 * K]
    grads = [0.5 * float(np.sum(outer * dK)) for dK in dKs]
    grads.append(0.5 * float(np.trace(outer)) * 2.0 * gp.noise_variance)
    return lml, np.asarray(grads)


class TestLikelihood:
    @pytest.mark.parametrize(
        "seed,n,d", [(0, 3, 1), (1, 20, 2), (2, 36, 10), (3, 80, 12), (4, 150, 10)]
    )
    def test_gradient_equals_the_per_hyperparameter_loop(self, seed, n, d):
        rng = np.random.default_rng(seed)
        gp = fitted_gp(n, d, rng)
        theta = gp.get_theta() + rng.uniform(-0.3, 0.3, gp.n_hyperparameters)
        lml, grad = gp.log_marginal_likelihood(theta, return_grad=True)
        ref_lml, ref_grad = reference_lml_and_grad(gp)
        assert lml == ref_lml
        assert np.array_equal(grad, ref_grad)
        # Without theta the model is not refactorized; same numbers.
        lml0, grad0 = gp.log_marginal_likelihood(return_grad=True)
        assert lml0 == ref_lml
        assert np.array_equal(grad0, ref_grad)

    def test_gradients_are_one_stacked_array(self):
        rng = np.random.default_rng(9)
        kernel = SquaredExponential(3, lengthscales=[0.5, 1.0, 2.0], variance=1.3)
        X = rng.uniform(size=(7, 3))
        grads = kernel.gradients(X)
        assert isinstance(grads, np.ndarray)
        assert grads.shape == (4, 7, 7)
        K = kernel(X)
        for i in range(3):
            diff = (X[:, i][:, None] - X[:, i][None, :]) / kernel.lengthscales[i]
            assert np.array_equal(grads[i], K * diff**2)
        assert np.array_equal(grads[3], 2.0 * K)


# ------------------------------------------------------ the view is a value
class TestViewSnapshot:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.gp = fitted_gp(25, 3, rng)
        self.view = HallucinatedView(self.gp, rng.uniform(size=(3, 3)))
        self.U = rng.uniform(size=(50, 3))
        self.before = self.view.predict(self.U)
        self.rng = rng

    def assert_unchanged(self):
        mu, sigma = self.view.predict(self.U)
        assert np.array_equal(mu, self.before[0])
        assert np.array_equal(sigma, self.before[1])
        assert self.view.n_train == 25 + 3

    def test_refit_of_the_base_at_other_hyperparameters(self):
        theta = self.gp.get_theta() + 0.4
        self.gp.log_marginal_likelihood(theta)
        assert not np.array_equal(self.gp.predict(self.U)[0], self.before[0])
        self.assert_unchanged()

    def test_update_of_the_base_with_one_row(self):
        self.gp.update(self.rng.uniform(size=(1, 3)), [0.3])
        assert self.gp.n_train == 26
        self.assert_unchanged()
        assert self.view.discard() is self.gp
