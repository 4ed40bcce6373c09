"""Cost-aware asynchronous EasyBO — optimize FOM *per simulation second*.

The paper motivates asynchrony with the observation that "different design
parameters can lead to different simulation time consumption" (§I).  Beyond
scheduling around that heterogeneity, one can *exploit* it: if two candidate
designs promise similar FOM but one simulates twice as fast, the fast one
buys more information per wall-clock second.

This driver fits a second GP to ``log(duration)`` and divides the EasyBO
acquisition (Eq. 9, hallucination included) by the predicted cost raised to a
``cost_exponent`` (Snoek et al. 2012's "expected improvement per second"
generalized to the weighted acquisition):

    alpha_cost(x, w) = alpha(x, w) / E[duration(x)]^cost_exponent

``cost_exponent = 0`` recovers plain EasyBO; 1 is full per-second
normalization.
"""

from __future__ import annotations

import numpy as np

from repro.core.async_batch import AsynchronousBatchBO
from repro.core.campaign import FAMILIES
from repro.core.surrogate import SideGP

__all__ = ["CostAwareEasyBO"]


class CostAwareEasyBO(AsynchronousBatchBO):
    """EasyBO whose acquisition is normalized by predicted evaluation cost."""

    def __init__(self, problem, *, cost_exponent: float = 1.0, **kwargs):
        if cost_exponent < 0:
            raise ValueError("cost_exponent must be non-negative")
        super().__init__(problem, **kwargs)
        self.cost_exponent = float(cost_exponent)
        self.algorithm_name = FAMILIES["caeasybo"].label(self.batch_size)
        self.campaign.algorithm = self.algorithm_name
        self.campaign._config["cost_exponent"] = self.cost_exponent
        self._cost = SideGP(self.session.dim, self.rng, noise_variance=1e-2)
        self._log_costs: list[float] = []
        self.campaign.on_absorb = self._record_cost
        self.campaign.side_models = [self._cost]

    # -------------------------------------------------------------- dataset
    def _record_cost(self, x, result) -> None:
        # Failed evaluations still report the (possibly truncated) time
        # they occupied the worker, which is exactly the cost to model.
        self._log_costs.append(float(np.log(max(result.cost, 1e-9))))

    def _fit_cost_model(self) -> None:
        U = self.session.transform.to_unit(self.session.X)
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
    def _per_cost(self, values: np.ndarray, U: np.ndarray) -> np.ndarray:
        if self.cost_exponent == 0.0:
            return values
        # Shift positive so dividing by cost cannot flip preferences.
        values = values - values.min() + 1e-9
        return values / self.predicted_cost(U) ** self.cost_exponent

    def _propose_async(self, pool) -> np.ndarray:
        return self.campaign.strategy.propose(
            self.campaign, fit=self._fit_cost_model, transform=self._per_cost
        )
