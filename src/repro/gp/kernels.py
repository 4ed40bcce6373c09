"""The squared-exponential ARD kernel, with analytic hyperparameter gradients.

The paper's surrogate uses the squared-exponential (SE) kernel with automatic
relevance determination (ARD):

    k(x, x') = sigma_f^2 * exp(-0.5 * (x - x')^T Lambda^{-1} (x - x'))

with ``Lambda = diag(l_1^2, ..., l_d^2)``.

Hyperparameters are stored and optimized in log space (``theta``), which keeps
them positive and makes the marginal-likelihood landscape better conditioned.
Layout: ``theta = [log l_1, ..., log l_d, log sigma_f]``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix

__all__ = ["SquaredExponential"]


class SquaredExponential:
    """SE-ARD kernel — the surrogate kernel used in the paper (§II-B)."""

    def __init__(self, dim: int, lengthscales=None, variance: float = 1.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        if lengthscales is None:
            lengthscales = np.ones(dim)
        lengthscales = np.asarray(lengthscales, dtype=float)
        if lengthscales.shape == ():
            lengthscales = np.full(dim, float(lengthscales))
        if lengthscales.shape != (dim,):
            raise ValueError(
                f"lengthscales must have shape ({dim},), got {lengthscales.shape}"
            )
        if np.any(lengthscales <= 0) or variance <= 0:
            raise ValueError("lengthscales and variance must be positive")
        self.lengthscales = lengthscales
        self.variance = float(variance)

    # ---------------------------------------------------------------- theta
    @property
    def n_params(self) -> int:
        """Number of log-space hyperparameters (d lengthscales + variance)."""
        return self.dim + 1

    def get_theta(self) -> np.ndarray:
        """Return hyperparameters as ``[log l_1..log l_d, log sigma_f]``."""
        return np.concatenate([np.log(self.lengthscales), [0.5 * np.log(self.variance)]])

    def set_theta(self, theta: np.ndarray) -> None:
        """Set hyperparameters from the log-space vector (see layout above)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"theta must have shape ({self.n_params},), got {theta.shape}"
            )
        self.lengthscales = np.exp(theta[: self.dim])
        self.variance = float(np.exp(2.0 * theta[self.dim]))

    # ------------------------------------------------------------- evaluate
    def __call__(self, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix ``k(X, Z)``; ``Z=None`` means ``k(X, X)``."""
        X = check_matrix(X, "X", cols=self.dim)
        Xs, xs2 = self._scaled(X)
        if Z is None:
            return self._from_scaled(Xs, xs2, Xs, xs2)
        Z = check_matrix(Z, "Z", cols=self.dim)
        return self._from_scaled(Xs, xs2, *self._scaled(Z))

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of ``k(X, X)`` — the prior variance at each point."""
        X = check_matrix(X, "X", cols=self.dim)
        return np.full(X.shape[0], self.variance)

    def cross(
        self, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Covariance block ``k(X, Z)``, computed in place into ``out``.

        The allocation-lean variant of :meth:`__call__` for the sparse
        posterior's hot loops: one GEMM into ``out`` (shape
        ``(len(X), len(Z))``) plus elementwise passes.  Results agree with
        ``self(X, Z)`` to floating-point round-off but are *not*
        bit-identical (the in-place evaluation associates sums
        differently), so the exact GP — whose trajectories the golden tests
        pin byte for byte — evaluates through :meth:`_from_scaled`, as
        :meth:`__call__` does.
        """
        X = check_matrix(X, "X", cols=self.dim)
        Z = check_matrix(Z, "Z", cols=self.dim)
        if out is None:
            out = np.empty((X.shape[0], Z.shape[0]))
        elif out.shape != (X.shape[0], Z.shape[0]):
            raise ValueError(
                f"out must have shape {(X.shape[0], Z.shape[0])}, got {out.shape}"
            )
        Xs = X / self.lengthscales
        Zs = Z / self.lengthscales
        np.dot(Xs, Zs.T, out=out)
        out *= -2.0
        out += np.sum(Xs**2, axis=1)[:, None]
        out += np.sum(Zs**2, axis=1)[None, :]
        np.maximum(out, 0.0, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out *= self.variance
        return out

    # Unchecked core of ``__call__`` for callers that validated at their own
    # boundary (the exact GP and its Eq. 9 view): ``X`` must be a float64
    # ``(n, dim)`` array.
    def _scaled(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``X / lengthscales`` and its squared row norms."""
        Xs = X / self.lengthscales
        return Xs, (Xs**2).sum(axis=1)

    def _from_scaled(
        self, Xs: np.ndarray, xs2: np.ndarray, Zs: np.ndarray, zs2: np.ndarray
    ) -> np.ndarray:
        """``k(X, Z)`` from :meth:`_scaled` inputs, clamping distances at 0."""
        out = xs2[:, None] + zs2[None, :]
        out -= 2.0 * Xs @ Zs.T
        np.maximum(out, 0.0, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out *= self.variance
        return out

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Gradient matrices ``dK/dtheta_i`` at ``K = k(X, X)``, stacked.

        Returns one ``(d + 1, n, n)`` array: slice ``i < d`` is the
        derivative by ``log l_i``, the last slice the derivative by
        ``log sigma_f``.
        """
        X = check_matrix(X, "X", cols=self.dim)
        Xs, xs2 = self._scaled(X)
        return self._gradients_from(X, self._from_scaled(Xs, xs2, Xs, xs2))

    def _gradients_from(self, X: np.ndarray, K: np.ndarray) -> np.ndarray:
        """:meth:`gradients` reusing ``K = k(X, X)`` the caller already built."""
        d, n = self.dim, X.shape[0]
        grads = np.empty((d + 1, n, n))
        # d/d(log l_i): K * (x_i - z_i)^2 / l_i^2
        lengthscale = grads[:d]
        np.subtract(X.T[:, :, None], X.T[:, None, :], out=lengthscale)
        lengthscale /= self.lengthscales[:, None, None]
        lengthscale **= 2
        lengthscale *= K
        # d/d(log sigma_f) with variance = exp(2 * theta): 2 * K
        np.multiply(K, 2.0, out=grads[d])
        return grads

    def copy(self) -> "SquaredExponential":
        """Independent copy with the same hyperparameters."""
        return SquaredExponential(self.dim, self.lengthscales.copy(), self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SquaredExponential(dim={self.dim}, "
            f"lengthscales={np.array2string(self.lengthscales, precision=3)}, "
            f"variance={self.variance:.4g})"
        )
