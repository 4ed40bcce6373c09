"""Acquisition functions (paper §II-B, §II-C, §III-B).

All acquisitions are *maximized* and operate on a fitted
:class:`~repro.gp.GaussianProcess` over the (standardized) observations:

* :class:`UpperConfidenceBound` — Eq. 3.  The paper's LCB baseline is this
  same optimistic rule expressed for maximization.
* :class:`ExpectedImprovement` / :class:`ProbabilityOfImprovement` —
  classical baselines.
* :class:`WeightedAcquisition` — Eq. 7/8: ``(1-w) mu + w sigma``.  pBO uses a
  uniform grid of weights; EasyBO draws ``w = kappa/(kappa+1)`` with
  ``kappa ~ U[0, lambda]`` (:func:`sample_easybo_weight`), concentrating the
  density near w=1 (Fig. 2).
* :class:`HighCoveragePenalty` — the pHCBO penalization term of Eq. 6.
"""

from __future__ import annotations

import abc

import numpy as np
from scipy.special import ndtr

from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix

__all__ = [
    "Acquisition",
    "UpperConfidenceBound",
    "ExpectedImprovement",
    "ProbabilityOfImprovement",
    "WeightedAcquisition",
    "sample_easybo_weight",
    "pbo_weights",
    "HighCoveragePenalty",
    "EASYBO_LAMBDA",
    "norm_pdf",
]

#: The paper's lambda: kappa is drawn uniformly from [0, 6] (§III-B).
EASYBO_LAMBDA = 6.0


def norm_pdf(z):
    """Standard normal density (what ``scipy.stats.norm.pdf`` evaluates)."""
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)


class Acquisition(abc.ABC):
    """Maps a GP model and candidate points to acquisition values."""

    @abc.abstractmethod
    def __call__(self, model, X: np.ndarray) -> np.ndarray:
        """Acquisition values (higher = more desirable); shape ``(n,)``."""


class UpperConfidenceBound(Acquisition):
    """``UCB(x) = mu(x) + kappa * sigma(x)`` (Eq. 3)."""

    def __init__(self, kappa: float = 2.0):
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        self.kappa = float(kappa)

    def __call__(self, model, X) -> np.ndarray:
        mu, sigma = model.predict(check_matrix(X))
        return mu + self.kappa * sigma


class ExpectedImprovement(Acquisition):
    """EI over the incumbent best (maximization form).

    ``EI(x) = (mu - best - xi) Phi(z) + sigma phi(z)`` with
    ``z = (mu - best - xi) / sigma``.
    """

    def __init__(self, best_y: float, xi: float = 0.0):
        self.best_y = float(best_y)
        self.xi = float(xi)

    def __call__(self, model, X) -> np.ndarray:
        mu, sigma = model.predict(check_matrix(X))
        sigma = np.maximum(sigma, 1e-12)
        improve = mu - self.best_y - self.xi
        z = improve / sigma
        return improve * ndtr(z) + sigma * norm_pdf(z)


class ProbabilityOfImprovement(Acquisition):
    """``PI(x) = Phi((mu - best - xi) / sigma)``."""

    def __init__(self, best_y: float, xi: float = 0.01):
        self.best_y = float(best_y)
        self.xi = float(xi)

    def __call__(self, model, X) -> np.ndarray:
        mu, sigma = model.predict(check_matrix(X))
        sigma = np.maximum(sigma, 1e-12)
        return ndtr((mu - self.best_y - self.xi) / sigma)


class WeightedAcquisition(Acquisition):
    """``alpha(x, w) = (1 - w) mu(x) + w sigma(x)`` (Eq. 7/8/9).

    With a *hallucinated* model (pending points folded in, §III-C) the sigma
    term is the paper's sigma-hat and this is exactly Eq. 9.
    """

    def __init__(self, w: float):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"w must lie in [0, 1], got {w}")
        self.w = float(w)

    def __call__(self, model, X) -> np.ndarray:
        mu, sigma = model.predict(check_matrix(X))
        return (1.0 - self.w) * mu + self.w * sigma


def sample_easybo_weight(rng=None, lam: float = EASYBO_LAMBDA) -> float:
    """Draw ``w = kappa / (kappa + 1)`` with ``kappa ~ U[0, lam]`` (Eq. 8).

    The induced density of ``w`` on [0, lam/(lam+1)] is ``1/(lam (1-w)^2)``:
    increasing in w, i.e. exploration-heavy weights are sampled more densely
    (paper Fig. 2).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    kappa = as_generator(rng).uniform(0.0, lam)
    return float(kappa / (kappa + 1.0))


def pbo_weights(batch_size: int) -> np.ndarray:
    """pBO's uniform weight grid ``w_i = (i-1)/(B-1)`` (paper §IV).

    ``B = 1`` degenerates to the single weight 0.5.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size == 1:
        return np.array([0.5])
    return np.arange(batch_size) / (batch_size - 1.0)


class HighCoveragePenalty:
    """pHCBO's coverage penalty ``alpha_HC`` (Eq. 6).

    For weight slot ``i``, the penalty at ``x`` is

        N_HC * exp( (1/5) * sum_{j=1..5} (d / ||x - x_{b-j,i}||)^10 )

    over that slot's previous (up to) five query points — a steep wall inside
    radius ``d`` of recent queries by the same acquisition.  ``d`` is a
    manually defined parameter in the paper; we default it to 5% of the unit-
    cube diagonal.
    """

    #: Most recent queries per weight slot considered by the penalty.
    HISTORY = 5

    def __init__(self, dim: int, d: float | None = None, n_hc: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.d = float(d) if d is not None else 0.05 * np.sqrt(dim)
        if self.d <= 0:
            raise ValueError("d must be positive")
        self.n_hc = float(n_hc)
        self._history: dict[int, list[np.ndarray]] = {}

    def record(self, slot: int, x: np.ndarray) -> None:
        """Remember that weight slot ``slot`` queried ``x`` this batch."""
        queue = self._history.setdefault(int(slot), [])
        queue.append(np.asarray(x, dtype=float).copy())
        if len(queue) > self.HISTORY:
            queue.pop(0)

    def snapshot(self) -> dict:
        """Per-slot query history (exact through JSON), journaled with every ask."""
        return {
            str(slot): [[float(v) for v in x] for x in queue]
            for slot, queue in self._history.items()
        }

    def restore(self, snap: dict | None) -> None:
        """Query history from :meth:`snapshot` (crash resume)."""
        self._history = {
            int(slot): [np.asarray(x, dtype=float) for x in queue]
            for slot, queue in (snap or {}).items()
        }

    def __call__(self, slot: int, X: np.ndarray) -> np.ndarray:
        """Penalty values for candidates ``X`` against slot ``slot``."""
        X = check_matrix(X, "X", cols=self.dim)
        history = self._history.get(int(slot), [])
        if not history:
            return np.zeros(X.shape[0])
        exponents = np.zeros(X.shape[0])
        for x_prev in history:
            dist = np.linalg.norm(X - x_prev[None, :], axis=1)
            dist = np.maximum(dist, 1e-12)
            exponents += np.minimum((self.d / dist) ** 10, 500.0)
        exponents /= len(history)
        return self.n_hc * (np.exp(np.minimum(exponents, 500.0)) - 1.0)
