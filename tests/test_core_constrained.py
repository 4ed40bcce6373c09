"""Tests for the constrained-EasyBO extension."""

import numpy as np
import pytest

from repro.core.constrained import (
    ConstrainedProblem,
    ConstrainedStrategy,
    ConstraintSpec,
)
from repro.core.easybo import make_algorithm
from repro.core.problem import EvaluationResult


class DiskProblem(ConstrainedProblem):
    """Maximize x+y inside the unit disk: optimum sqrt(2) at (1,1)/sqrt(2)."""

    name = "disk"

    SPECS = (ConstraintSpec("disk", "x^2 + y^2 <= 1"),)

    @property
    def bounds(self):
        return np.array([[-2.0, 2.0], [-2.0, 2.0]])

    @property
    def constraint_specs(self):
        return self.SPECS

    def evaluate(self, x):
        x = self.validate_point(x)
        slack = 1.0 - float(np.sum(x**2))
        return EvaluationResult(
            fom=float(np.sum(x)),
            metrics={"slack_disk": slack},
            cost=1.0,
            feasible=slack >= 0,
        )


class BadProblem(ConstrainedProblem):
    """Forgets to report its declared slack."""

    name = "bad"
    SPECS = (ConstraintSpec("missing"),)

    @property
    def bounds(self):
        return np.array([[0.0, 1.0]])

    @property
    def constraint_specs(self):
        return self.SPECS

    def evaluate(self, x):
        return EvaluationResult(fom=0.0)


QUICK = dict(n_init=8, max_evals=30, rng=0, acq_candidates=256, acq_restarts=1)


def best_feasible(driver):
    """The constrained strategy's feasible incumbent of a cEasyBO driver."""
    return driver.campaign.strategy.best_feasible(driver.campaign)


class TestConstraintPlumbing:
    def test_constraint_vector_extraction(self):
        p = DiskProblem()
        r = p.evaluate(np.array([0.5, 0.5]))
        np.testing.assert_allclose(p.constraint_vector(r), [0.5])

    def test_missing_slack_raises(self):
        p = BadProblem()
        with pytest.raises(KeyError, match="slack"):
            p.constraint_vector(p.evaluate(np.array([0.5])))

    def test_requires_constrained_problem(self):
        from repro.circuits.benchmarks import sphere

        with pytest.raises(TypeError, match="cEasyBO needs a ConstrainedProblem"):
            make_algorithm("cEasyBO", sphere(2))


class TestConstrainedOptimization:
    def test_finds_feasible_optimum(self):
        driver = make_algorithm("cEasyBO-3", DiskProblem(), **QUICK)
        driver.run()
        best = best_feasible(driver)
        assert best is not None
        x_best, y_best = best
        assert np.sum(x_best**2) <= 1.0 + 1e-9
        assert y_best > 1.0  # well above the feasible-region average

    def test_unconstrained_optimum_rejected(self):
        """The raw argmax of x+y is the (2,2) corner — infeasible; the
        constrained driver's feasible incumbent must not be near it."""
        driver = make_algorithm("cEasyBO-3", DiskProblem(), **QUICK)
        driver.run()
        x_best, _ = best_feasible(driver)
        assert np.linalg.norm(x_best - np.array([2.0, 2.0])) > 1.0

    def test_no_feasible_returns_none(self):
        driver = make_algorithm("cEasyBO-2", DiskProblem(), **QUICK)
        assert best_feasible(driver) is None  # before running

    def test_registry_label(self):
        algo = make_algorithm("cEasyBO-3", DiskProblem(), **QUICK)
        assert isinstance(algo.campaign.strategy, ConstrainedStrategy)
        assert algo.algorithm_name == "cEasyBO-3"
        assert algo.batch_size == 3


class TestConstrainedOpAmp:
    @pytest.fixture(scope="class")
    def problem(self):
        from repro.circuits import ConstrainedOpAmpProblem

        return ConstrainedOpAmpProblem()

    def test_specs_declared(self, problem):
        assert [s.name for s in problem.constraint_specs] == ["gain", "pm"]

    def test_slacks_reported(self, problem):
        rng = np.random.default_rng(0)
        r = problem.evaluate(problem.space.sample(1, rng)[0])
        assert "slack_gain" in r.metrics and "slack_pm" in r.metrics
        if r.metrics["slack_gain"] > -100:
            assert r.metrics["slack_gain"] == pytest.approx(
                r.metrics["gain_db"] - 60.0
            )

    def test_feasibility_consistent(self, problem):
        rng = np.random.default_rng(1)
        for x in problem.space.sample(10, rng):
            r = problem.evaluate(x)
            slacks = problem.constraint_vector(r)
            assert r.feasible == bool(np.all(slacks >= 0))

    def test_short_constrained_run(self, problem):
        driver = make_algorithm(
            "cEasyBO-4", problem, n_init=10, max_evals=30, rng=0,
            acq_candidates=256, acq_restarts=1,
        )
        driver.run()
        best = best_feasible(driver)
        if best is not None:
            x_best, ugf = best
            check = problem.evaluate(x_best)
            assert check.metrics["gain_db"] >= 60.0 - 1e-6
            assert check.metrics["pm_deg"] >= 60.0 - 1e-6
