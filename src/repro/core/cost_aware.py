"""Cost-aware asynchronous EasyBO — optimize FOM *per simulation second*.

The paper motivates asynchrony with the observation that "different design
parameters can lead to different simulation time consumption" (§I).  Beyond
scheduling around that heterogeneity, one can *exploit* it: if two candidate
designs promise similar FOM but one simulates twice as fast, the fast one
buys more information per wall-clock second.

:class:`CostAwareStrategy` fits a second GP to ``log(duration)`` and divides
the EasyBO acquisition (Eq. 9, hallucination included), made positive by a
soft-plus, by the predicted cost raised to a ``cost_exponent`` (Snoek et al.
2012's "expected improvement per second" generalized to the weighted
acquisition):

    alpha_cost(x, w) = log(1 + exp(alpha(x, w))) / E[duration(x)]^cost_exponent

``cost_exponent = 0`` recovers plain EasyBO; 1 is full per-second
normalization.  The ``caEasyBO-B`` label runs it
(``make_algorithm("caEasyBO-3", problem, cost_exponent=1.0)``).
"""

from __future__ import annotations

import numpy as np

from repro.core.campaign import AsyncBatchStrategy
from repro.core.surrogate import SideGP

__all__ = ["CostAwareStrategy"]


class CostAwareStrategy(AsyncBatchStrategy):
    """EasyBO whose acquisition is normalized by predicted evaluation cost."""

    def __init__(self, dim: int, rng, *, cost_exponent: float = 1.0, **kwargs):
        if cost_exponent < 0:
            raise ValueError("cost_exponent must be non-negative")
        super().__init__(**kwargs)
        self.cost_exponent = float(cost_exponent)
        self._cost = SideGP(dim, rng, noise_variance=1e-2)
        self._log_costs: list[float] = []

    @property
    def side_models(self) -> list:
        return [self._cost]

    # -------------------------------------------------------------- dataset
    def absorb(self, core, x, result) -> None:
        # Failed evaluations still report the (possibly truncated) time
        # they occupied the worker, which is exactly the cost to model.
        self._log_costs.append(float(np.log(max(result.cost, 1e-9))))

    def fit_side_models(self, core) -> None:
        U = core.session.transform.to_unit(core.session.X)
        self._cost.fit(U, np.asarray(self._log_costs))

    def predicted_cost(self, U: np.ndarray) -> np.ndarray:
        """Expected duration (seconds) at unit-cube points."""
        if self._cost.model is None:
            raise RuntimeError("cost model not fitted yet")
        mu, sigma = self._cost.model.predict(U)
        log_mu = self._cost.output.inverse_mean(mu)
        log_sigma = self._cost.output.inverse_std(sigma)
        # Lognormal mean: exp(mu + sigma^2 / 2).
        return np.exp(log_mu + 0.5 * log_sigma**2)

    # ------------------------------------------------------------- proposal
    def reshape(self, acquisition):
        if self.cost_exponent == 0.0:
            return acquisition

        def per_cost(model, U):
            # Soft-plus to positive so dividing by cost cannot flip
            # preferences; it acts row by row, like the cost.
            values = np.logaddexp(0.0, acquisition(model, U))
            return values / self.predicted_cost(U) ** self.cost_exponent

        return per_cost
