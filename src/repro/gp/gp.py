"""Gaussian-process regression (Eq. 2 of the paper).

Implements exact GP regression with the SE-ARD kernel, a zero prior mean
(observations are standardized first), Gaussian observation noise, and the
posterior

    mu(x*)     = k(x*, X) K^{-1} y
    sigma^2(x*) = k(x*, x*) - k(x*, X) K^{-1} k(X, x*)

where ``K = k(X, X) + sigma_n^2 I``.  Two features matter for EasyBO:

* :meth:`GaussianProcess.log_marginal_likelihood` exposes the analytic
  gradient used by ML-II hyperparameter fitting (:mod:`repro.gp.hyperopt`);
* :meth:`GaussianProcess.condition_on_pending` implements the paper's
  penalization scheme (§III-C): pending batch points are appended to the
  training set with their own predictive means as hallucinated observations,
  which collapses the posterior variance around busy locations without
  changing the predictive mean surface.
"""

from __future__ import annotations

import numpy as np

from repro.gp import linalg
from repro.gp.kernels import SquaredExponential
from repro.utils.validation import check_finite, check_matrix, check_vector

__all__ = ["GaussianProcess"]

#: Floor applied to the predictive variance before taking square roots.
VARIANCE_FLOOR = 1e-14

#: Floor on the noise variance; keeps K invertible for duplicated inputs.
NOISE_FLOOR = 1e-10


class GaussianProcess:
    """Exact GP regression model.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to :class:`SquaredExponential` over
        ``dim`` dimensions (the paper's choice).
    noise_variance:
        Gaussian observation-noise variance ``sigma_n^2``.

    The prior mean is zero: fit standardized targets.
    """

    def __init__(
        self,
        dim: int | None = None,
        *,
        kernel: SquaredExponential | None = None,
        noise_variance: float = 1e-6,
    ):
        if kernel is None:
            if dim is None:
                raise ValueError("provide either dim or kernel")
            kernel = SquaredExponential(dim)
        elif dim is not None and kernel.dim != dim:
            raise ValueError(f"kernel.dim={kernel.dim} does not match dim={dim}")
        if noise_variance < 0:
            raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
        self.kernel = kernel
        self.noise_variance = max(float(noise_variance), NOISE_FLOOR)
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        # Lower Cholesky factor of K and the weights K^{-1} y, set by fit.
        self._lower: np.ndarray | None = None
        self._alpha: np.ndarray | None = None

    # ------------------------------------------------------------ properties
    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def is_fitted(self) -> bool:
        return self._X is not None

    @property
    def X(self) -> np.ndarray:
        self._require_fitted()
        return self._X

    @property
    def y(self) -> np.ndarray:
        self._require_fitted()
        return self._y

    @property
    def n_train(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    @property
    def cholesky_factor(self) -> np.ndarray:
        """Cached lower Cholesky factor of the training covariance.

        Exposed (read-only by convention) so incremental consumers such as
        :class:`~repro.core.surrogate.HallucinatedView` can extend the
        factored system without refactorizing; do not mutate it.
        """
        self._require_fitted()
        return self._lower

    @property
    def alpha(self) -> np.ndarray:
        """Cached ``K^{-1} y`` weights (read-only by convention)."""
        self._require_fitted()
        return self._alpha

    # ------------------------------------------------------------------ fit
    def fit(self, X, y) -> "GaussianProcess":
        """Factorize the training covariance and cache ``alpha = K^{-1} y``.

        Raises on non-finite input — a failed circuit simulation must be
        mapped to a finite penalty *before* it reaches the surrogate.
        """
        X = check_matrix(X, "X", cols=self.dim)
        y = check_vector(y, "y", size=X.shape[0])
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on an empty dataset")
        check_finite(X, "X")
        check_finite(y, "y")
        self._X = X.copy()
        self._y = y.copy()
        self._refactorize()
        return self

    def _refactorize(self) -> np.ndarray:
        """Factor ``k(X, X) + sigma_n^2 I``; return the noise-free ``k(X, X)``."""
        Xs, xs2 = self.kernel._scaled(self._X)
        K = self.kernel._from_scaled(Xs, xs2, Xs, xs2)
        noisy = K.copy()
        noisy.reshape(-1)[:: self.n_train + 1] += self.noise_variance
        self._lower, _ = linalg.jittered_cholesky(noisy)
        self._alpha = linalg.cholesky_solve(self._lower, self._y)
        return K

    def update(self, X_new, y_new, *, refresh_alpha: bool = True) -> "GaussianProcess":
        """Append a block of observations reusing the cached factor.

        This is the O(n^2 k) incremental path: valid only while the
        hyperparameters are unchanged since the last factorization (the
        factor being extended was computed at the current ``theta``).  The
        model is left exactly as if :meth:`fit` had been called on the
        concatenated dataset, up to floating-point round-off.

        ``refresh_alpha=False`` skips the weight-vector solve, leaving the
        model *inconsistent* until a following :meth:`set_targets` call —
        only for callers that immediately replace every target anyway (the
        session's re-standardization path), where solving twice would
        double the per-event cost.

        Raises
        ------
        numpy.linalg.LinAlgError
            When the appended block loses positive definiteness; the model
            is left untouched so callers can fall back to a full refit.
        """
        self._require_fitted()
        X_new = check_matrix(X_new, "X_new", cols=self.dim)
        y_new = check_vector(y_new, "y_new", size=X_new.shape[0])
        if X_new.shape[0] == 0:
            return self
        check_finite(X_new, "X_new")
        check_finite(y_new, "y_new")
        cross = self.kernel(self._X, X_new)
        corner = self.kernel(X_new) + self.noise_variance * np.eye(X_new.shape[0])
        # May raise LinAlgError; assign only afterwards so a PD-loss leaves
        # the model in its previous, consistent state.
        lower = linalg.cholesky_append(self._lower, cross, corner)
        self._lower = lower
        self._X = np.vstack([self._X, X_new])
        self._y = np.concatenate([self._y, y_new])
        if refresh_alpha:
            self._alpha = linalg.cholesky_solve(self._lower, self._y)
        return self

    def set_targets(self, y) -> "GaussianProcess":
        """Replace the observation values (same inputs), reusing the factor.

        The covariance factor depends only on ``X`` and the hyperparameters,
        so re-standardized targets need just an O(n^2) triangular solve.
        """
        self._require_fitted()
        y = check_vector(y, "y", size=self.n_train)
        check_finite(y, "y")
        self._y = y.copy()
        self._alpha = linalg.cholesky_solve(self._lower, self._y)
        return self

    def add_observation(self, x, y_value: float) -> "GaussianProcess":
        """Append one observation using an O(n^2) Cholesky border update.

        Raises on non-finite input, as :meth:`fit` and :meth:`update` do,
        before the factor is touched.
        """
        self._require_fitted()
        x = check_finite(check_vector(x, "x", size=self.dim), "x")
        y_value = float(y_value)
        check_finite(y_value, "y_value")
        cross = self.kernel(self._X, x.reshape(1, -1)).ravel()
        corner = float(self.kernel.diag(x.reshape(1, -1))[0]) + self.noise_variance
        self._lower = linalg.cholesky_update(self._lower, cross, corner)
        self._X = np.vstack([self._X, x])
        self._y = np.append(self._y, y_value)
        self._alpha = linalg.cholesky_solve(self._lower, self._y)
        return self

    # -------------------------------------------------------------- predict
    def predict(self, X, return_std: bool = True):
        """Posterior mean (and standard deviation) at the rows of ``X``.

        Returns ``mu`` or ``(mu, sigma)`` with shapes ``(n,)``.
        """
        self._require_fitted()
        X = check_matrix(X, "X", cols=self.dim)
        kernel = self.kernel
        k_star = kernel._from_scaled(*kernel._scaled(self._X), *kernel._scaled(X))
        mu = k_star.T @ self._alpha
        if not return_std:
            return mu
        v = linalg.solve_lower(self._lower, k_star)  # (n_train, n)
        var = kernel.variance - (v**2).sum(axis=0)
        sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
        return mu, sigma

    # ------------------------------------------------- pending-point scheme
    def condition_on_pending(self, X_pending) -> "GaussianProcess":
        """Hallucinate pending batch points into the model (paper §III-C).

        Each pending point is appended to the training set with its *current
        predictive mean* as a pseudo-observation (kriging believer, as in
        BUCB).  The returned model's sigma-hat collapses near the pending
        points, which is exactly the diversity penalty of Eq. 9, while the
        mean surface is unchanged at the pending locations.

        The original model is not modified.
        """
        self._require_fitted()
        X_pending = check_matrix(X_pending, "X_pending", cols=self.dim)
        model = self.copy()
        for x in X_pending:
            y_hat = float(model.predict(x.reshape(1, -1), return_std=False)[0])
            model.add_observation(x, y_hat)
        return model

    # ---------------------------------------------------- marginal likelihood
    def log_marginal_likelihood(
        self, theta: np.ndarray | None = None, return_grad: bool = False
    ):
        """Log marginal likelihood, optionally with its gradient.

        ``theta`` packs the kernel's log-space hyperparameters followed by the
        log noise standard deviation: ``[kernel theta..., log sigma_n]``.
        When ``theta`` is given the model is updated in place (this is the
        objective evaluated inside the hyperparameter optimizer).
        """
        self._require_fitted()
        K = None
        if theta is not None:
            theta = np.asarray(theta, dtype=float)
            if theta.shape != (self.n_hyperparameters,):
                raise ValueError(
                    f"theta must have shape ({self.n_hyperparameters},), "
                    f"got {theta.shape}"
                )
            self.kernel.set_theta(theta[:-1])
            self.noise_variance = max(float(np.exp(2.0 * theta[-1])), NOISE_FLOOR)
            K = self._refactorize()

        n = self.n_train
        lml = (
            -0.5 * float(self._y @ self._alpha)
            - 0.5 * linalg.log_det_from_cholesky(self._lower)
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        if not return_grad:
            return lml

        # grad_i = 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta_i)
        K_inv = linalg.cholesky_solve(self._lower, np.eye(n))
        outer = np.outer(self._alpha, self._alpha) - K_inv
        if K is None:
            dK = self.kernel.gradients(self._X)
        else:
            dK = self.kernel._gradients_from(self._X, K)
        dK *= outer
        grads = np.empty(self.n_hyperparameters)
        grads[:-1] = 0.5 * dK.reshape(len(dK), -1).sum(axis=1)
        # Noise: K = ... + exp(2 * log sigma_n) I, dK/d(log sigma_n) = 2 sn^2 I
        grads[-1] = 0.5 * float(np.trace(outer)) * 2.0 * self.noise_variance
        return lml, grads

    @property
    def n_hyperparameters(self) -> int:
        """Kernel hyperparameters plus the log noise standard deviation."""
        return self.kernel.n_params + 1

    def get_theta(self) -> np.ndarray:
        """Current hyperparameters ``[kernel theta..., log sigma_n]``."""
        return np.concatenate(
            [self.kernel.get_theta(), [0.5 * np.log(self.noise_variance)]]
        )

    # ----------------------------------------------------------------- misc
    def copy(self) -> "GaussianProcess":
        """Deep-enough copy sharing no mutable state with the original."""
        model = GaussianProcess(
            kernel=self.kernel.copy(),
            noise_variance=self.noise_variance,
        )
        if self.is_fitted:
            model._X = self._X.copy()
            model._y = self._y.copy()
            model._lower = self._lower.copy()
            model._alpha = self._alpha.copy()
        return model

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("GaussianProcess must be fitted first")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GaussianProcess(n_train={self.n_train}, kernel={self.kernel!r}, "
            f"noise_variance={self.noise_variance:.3e})"
        )
