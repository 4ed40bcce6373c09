"""Constrained asynchronous batch BO — the paper's announced future work.

§II-A of the paper notes that EasyBO "can also be easily extended to handle
constrained optimization".  This module supplies that extension using the
standard probability-of-feasibility weighting [Gardner et al. 2014,
Gelbart et al. 2014]:

* each constraint ``c_i(x) >= 0`` gets its own GP surrogate, fitted on the
  same observations as the objective;
* the EasyBO acquisition (Eq. 9, including the busy-point hallucination) is
  multiplied by ``prod_i P(c_i(x) >= 0)`` computed from the constraint
  posteriors;
* the incumbent is the best *feasible* observation.

A :class:`ConstrainedProblem` reports constraint slacks alongside the FOM;
positive slack means satisfied.  :class:`ConstrainedStrategy` holds the
constraint GPs and slacks; the ``cEasyBO-B`` label runs it
(``make_algorithm("cEasyBO-3", problem)``), and the best feasible design is
``driver.campaign.strategy.best_feasible(driver.campaign)``.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np
from scipy.special import ndtr

from repro.core.campaign import AsyncBatchStrategy
from repro.core.problem import EvaluationResult, Problem
from repro.core.surrogate import SideGP

__all__ = ["ConstraintSpec", "ConstrainedProblem", "ConstrainedStrategy"]


@dataclasses.dataclass(frozen=True)
class ConstraintSpec:
    """Declares one inequality constraint by name.

    The problem's ``evaluate`` must return ``constraints[name] = slack`` with
    the convention *slack >= 0 means satisfied* (e.g. ``gain_db - 60``).
    """

    name: str
    description: str = ""


class ConstrainedProblem(Problem):
    """A problem whose evaluations also report constraint slacks."""

    @property
    @abc.abstractmethod
    def constraint_specs(self) -> tuple[ConstraintSpec, ...]:
        """The declared constraints, in a fixed order."""

    def constraint_vector(self, result: EvaluationResult) -> np.ndarray:
        """Extract the slack vector from an evaluation, in spec order."""
        try:
            return np.asarray(
                [result.metrics[f"slack_{spec.name}"] for spec in self.constraint_specs]
            )
        except KeyError as exc:
            raise KeyError(
                f"evaluation is missing constraint slack {exc}; constrained "
                f"problems must report metrics['slack_<name>'] for every spec"
            ) from None


class _ConstraintModel(SideGP):
    """GP surrogate of one constraint slack over the unit cube."""

    def __init__(self, dim: int, rng):
        super().__init__(dim, rng, noise_variance=1e-4)

    def feasibility_probability(self, U: np.ndarray) -> np.ndarray:
        """``P(slack(x) >= 0)`` under the GP posterior."""
        mu, sigma = self.model.predict(U)
        # Standardized threshold for slack = 0.
        threshold = self.output.transform(np.zeros(1))[0]
        return ndtr((mu - threshold) / np.maximum(sigma, 1e-12))


class ConstrainedStrategy(AsyncBatchStrategy):
    """EasyBO with probability-of-feasibility constraint handling.

    The strategy tracks a GP per constraint; the Eq. 9 acquisition value is
    made positive by a soft-plus and multiplied by the joint feasibility
    probability, so infeasible regions are suppressed smoothly while the
    asynchronous machinery (busy-point hallucination included) is unchanged.
    """

    def __init__(self, problem: ConstrainedProblem, rng, **kwargs):
        if not isinstance(problem, ConstrainedProblem):
            raise TypeError("cEasyBO needs a ConstrainedProblem")
        super().__init__(**kwargs)
        self._constraint_models = [
            _ConstraintModel(problem.dim, rng) for _ in problem.constraint_specs
        ]
        self._slacks: list[np.ndarray] = []

    @property
    def side_models(self) -> list:
        return self._constraint_models

    # -------------------------------------------------------------- dataset
    def absorb(self, core, x, result) -> None:
        if result.ok:
            slack = core.problem.constraint_vector(result)
        else:
            # Imputed failure: no metrics to read slacks from.  Treat the
            # point as maximally infeasible so the feasibility model also
            # steers away from it.
            slack = self._pessimistic_slack()
        self._slacks.append(slack)

    def _pessimistic_slack(self) -> np.ndarray:
        n = len(self._constraint_models)
        if self._slacks:
            worst = np.vstack(self._slacks).min(axis=0)
            return np.minimum(worst, -np.abs(worst) - 1.0)
        return np.full(n, -1.0)

    def fit_side_models(self, core) -> None:
        U = core.session.transform.to_unit(core.session.X)
        slacks = np.vstack(self._slacks)
        for i, model in enumerate(self._constraint_models):
            model.fit(U, slacks[:, i])

    # ------------------------------------------------------------- proposal
    def reshape(self, acquisition):
        def weighted(model, U):
            # Soft-plus to positive before weighting by feasibility, so the
            # product cannot reward infeasibility via negative values.  It
            # acts row by row, so a row scores the same in any call.
            values = np.logaddexp(0.0, acquisition(model, U))
            for constraint in self._constraint_models:
                values = values * constraint.feasibility_probability(U)
            return values

        return weighted

    # --------------------------------------------------------------- report
    def best_feasible(self, core) -> tuple[np.ndarray, float] | None:
        """Best observation with every constraint satisfied, if any."""
        if not self._slacks:
            return None
        slacks = np.vstack(self._slacks)
        feasible = np.all(slacks >= 0.0, axis=1)
        if not feasible.any():
            return None
        y = core.session.y
        X = core.session.X
        idx = int(np.argmax(np.where(feasible, y, -np.inf)))
        return X[idx].copy(), float(y[idx])
