"""Tests for cost-aware EasyBO."""

import numpy as np
import pytest

from repro.core.easybo import make_algorithm
from repro.core.problem import FunctionProblem

QUICK = dict(n_init=8, max_evals=28, rng=0, acq_candidates=256, acq_restarts=1)


def plateau_problem():
    """Flat-ish objective where cost varies strongly with x[0].

    Designs with x[0] > 0 cost 10x more but offer no FOM advantage, so a
    cost-aware optimizer should spend its budget on the cheap half.
    """

    def fom(x):
        return float(-0.1 * np.sum(x**2))

    def cost(x):
        return 100.0 if x[0] > 0 else 10.0

    return FunctionProblem(fom, [[-1, 1], [-1, 1]], cost_model=cost, name="plateau")


class TestCostAware:
    def test_runs_and_names(self):
        driver = make_algorithm("caEasyBO-3", plateau_problem(), **QUICK)
        assert driver.algorithm_name == "caEasyBO-3"
        result = driver.run()
        assert result.n_evaluations == 28

    def test_prefers_cheap_region(self):
        driver = make_algorithm(
            "caEasyBO-3", plateau_problem(), cost_exponent=1.0, **QUICK
        )
        result = driver.run()
        model_phase = [r for r in result.trace.records if r.index >= 8]
        cheap = sum(1 for r in model_phase if r.x[0] <= 0)
        assert cheap > len(model_phase) / 2

    def test_saves_wall_clock_vs_plain(self):
        plain = make_algorithm("EasyBO-3", plateau_problem(), **QUICK).run()
        aware = make_algorithm(
            "caEasyBO-3", plateau_problem(), cost_exponent=1.0, **QUICK
        ).run()
        assert aware.wall_clock < plain.wall_clock

    def test_exponent_zero_ignores_cost(self):
        driver = make_algorithm(
            "caEasyBO-2", plateau_problem(), cost_exponent=0.0, **QUICK
        )
        result = driver.run()
        assert result.n_evaluations == 28  # behaves like plain EasyBO

    def test_predicted_cost_learns_scale(self):
        driver = make_algorithm("caEasyBO-2", plateau_problem(), **QUICK)
        driver.run()
        U_cheap = np.array([[0.2, 0.5]])  # x[0] = -0.6
        U_dear = np.array([[0.8, 0.5]])  # x[0] = +0.6
        strategy = driver.campaign.strategy
        assert strategy.predicted_cost(U_dear)[0] > strategy.predicted_cost(U_cheap)[0]

    def test_cost_model_needs_fit(self):
        driver = make_algorithm("caEasyBO-2", plateau_problem(), **QUICK)
        with pytest.raises(RuntimeError):
            driver.campaign.strategy.predicted_cost(np.array([[0.5, 0.5]]))

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            make_algorithm("caEasyBO-2", plateau_problem(), cost_exponent=-1.0)
