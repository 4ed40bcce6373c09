"""GP-Hedge acquisition portfolio (the paper's reference [31]).

The paper notes that "a portfolio of several acquisition functions is also
possible" [Hoffman, Brochu & de Freitas, UAI 2011].  :class:`HedgeStrategy`
implements GP-Hedge as a one-point campaign strategy: it takes the refit
and pending-policy steps of every one-point label (in-flight points are
hallucinated), then every portfolio member nominates a candidate on that
model, one nomination is played with probability proportional to
``exp(eta * gain)``, and every member's gain is updated by the posterior
mean at *its own* nominee.  The gains are the strategy's side state,
journaled with every ask, so GP-Hedge resumes and runs on the campaign
server like any other label.  ``make_algorithm("GP-Hedge", problem,
eta=...)`` runs it; ``eta`` is the Hedge learning rate (default 1; higher
trusts past gains more aggressively).
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import (
    ExpectedImprovement,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
)
from repro.core.campaign import AsyncBatchStrategy

__all__ = ["HedgeStrategy"]


class HedgeStrategy(AsyncBatchStrategy):
    """GP-Hedge over {EI, PI, UCB} (xi = 0, kappa = 2); its own side model."""

    def __init__(self, *, eta: float = 1.0):
        if eta <= 0:
            raise ValueError("eta must be positive")
        super().__init__()
        self.eta = float(eta)
        self.member_names = ("EI", "PI", "UCB")
        self.gains = np.zeros(len(self.member_names))
        #: How many times each member's nominee was played (diagnostics).
        self.plays = dict.fromkeys(self.member_names, 0)

    @property
    def side_models(self) -> list:
        return [self]

    def snapshot(self) -> dict:
        """Gains (exact through JSON) and play counts, journaled with every ask."""
        return {"gains": [float(g) for g in self.gains], "plays": dict(self.plays)}

    def restore(self, snap: dict) -> None:
        self.gains = np.asarray(snap["gains"], dtype=float)
        self.plays = {name: int(snap["plays"][name]) for name in self.member_names}

    def _probabilities(self) -> np.ndarray:
        logits = self.eta * (self.gains - self.gains.max())
        weights = np.exp(logits)
        return weights / weights.sum()

    def choose(self, core, model, pending) -> np.ndarray:
        """Every member nominates on ``model``; one nominee is played."""
        best = core.standardized_best()
        members = (
            ExpectedImprovement(best),
            ProbabilityOfImprovement(best, xi=0.0),
            UpperConfidenceBound(),
        )
        nominees = [core.maximize(acq, model=model) for acq in members]
        choice = int(core.rng.choice(len(nominees), p=self._probabilities()))
        self.plays[self.member_names[choice]] += 1
        # Hedge update: reward every member by the posterior mean at its
        # nominee (Hoffman et al., eq. 2), on the model that scored them.
        U = core.session.transform.to_unit(np.vstack(nominees))
        self.gains += model.predict(U, return_std=False)
        return nominees[choice]
