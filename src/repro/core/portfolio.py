"""GP-Hedge acquisition portfolio (the paper's reference [31]).

The paper notes that "a portfolio of several acquisition functions is also
possible" [Hoffman, Brochu & de Freitas, UAI 2011].  This driver implements
GP-Hedge on top of the sequential loop: each iteration every portfolio member
nominates a candidate, one nomination is played with probability proportional
to ``exp(eta * gain)``, and every member's gain is updated afterwards by the
posterior mean at *its own* nominee.
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import (
    ExpectedImprovement,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
)
from repro.core.bo import BODriverBase
from repro.core.campaign import Campaign
from repro.core.doe import random_design
from repro.core.results import RunResult

__all__ = ["PortfolioBO"]


class PortfolioBO(BODriverBase):
    """Sequential GP-Hedge over {EI, PI, UCB}.

    Parameters
    ----------
    eta:
        Hedge learning rate; higher trusts past gains more aggressively.
    ucb_kappa / ei_xi:
        Member-acquisition parameters.

    The Hedge gains are not journaled, so the portfolio cannot resume and
    refuses ``journal=``.
    """

    algorithm_name = "GP-Hedge"

    def __init__(self, problem, *, eta: float = 1.0, ucb_kappa: float = 2.0,
                 ei_xi: float = 0.0, **kwargs):
        if kwargs.get("journal") is not None:
            raise ValueError(
                f"{self.algorithm_name} cannot resume, so it does not take journal="
            )
        super().__init__(problem, self.algorithm_name, **kwargs)
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.eta = float(eta)
        self.ucb_kappa = float(ucb_kappa)
        self.ei_xi = float(ei_xi)
        self.member_names = ("EI", "PI", "UCB")
        self.gains = np.zeros(len(self.member_names))
        #: How many times each member's nominee was played (diagnostics).
        self.plays = dict.fromkeys(self.member_names, 0)

    def _new_campaign(self, label: str, **kwargs) -> Campaign:
        # GP-Hedge has no ask/tell family: a bare campaign holds its data.
        return Campaign(self.problem, algorithm=label, **kwargs)

    def _members(self):
        best = self.campaign.standardized_best()
        return (
            ExpectedImprovement(best, xi=self.ei_xi),
            ProbabilityOfImprovement(best, xi=self.ei_xi),
            UpperConfidenceBound(self.ucb_kappa),
        )

    def _probabilities(self) -> np.ndarray:
        logits = self.eta * (self.gains - self.gains.max())
        weights = np.exp(logits)
        return weights / weights.sum()

    def _evaluate(self, pool, x) -> None:
        pool.submit(x)
        completion = pool.wait_next()
        self.campaign.absorb(completion.x, completion.result)

    def _drive(self, pool) -> RunResult:
        campaign = self.campaign
        for x in campaign.design:
            self._evaluate(pool, x)
        evaluations = campaign.n_init
        while evaluations < campaign.max_evals:
            if self.session.n_observations < 2:
                # Dropped failures can starve the GP; explore uniformly
                # (no Hedge update — no nominees were scored).
                self._evaluate(pool, random_design(self.problem.bounds, 1, self.rng)[0])
                evaluations += 1
                continue
            model = self.session.refit()
            nominees = [campaign.maximize(acq, model=model) for acq in self._members()]
            probs = self._probabilities()
            choice = int(self.rng.choice(len(nominees), p=probs))
            self.plays[self.member_names[choice]] += 1
            self._evaluate(pool, nominees[choice])
            evaluations += 1
            # Hedge update: reward every member by the *current* posterior
            # mean at its nominee (Hoffman et al., eq. 2).
            model = self.session.require_model()
            U = self.session.transform.to_unit(np.vstack(nominees))
            self.gains += model.predict(U, return_std=False)
        return self._package(pool)
