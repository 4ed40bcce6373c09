"""Tests for DE and random search (the ``Random`` label)."""

import numpy as np
import pytest

from repro.baselines.de import DifferentialEvolution
from repro.circuits.benchmarks import rastrigin, sphere
from repro.core.easybo import make_algorithm
from repro.core.faults import FaultInjectionProblem
from repro.sched.durations import ConstantCostModel


def assert_empty_incumbent(result, budget):
    """Every evaluation failed: counted, and no incumbent to report."""
    assert result.n_evaluations == result.n_failures == budget
    assert result.best_fom == float("-inf")
    assert np.isnan(result.best_x).all()


class TestDE:
    def test_converges_on_sphere(self):
        problem = sphere(3, cost_model=ConstantCostModel(1.0))
        result = DifferentialEvolution(problem, max_evals=600, rng=0).run()
        assert result.best_fom > -0.05  # near the 0 optimum

    def test_beats_random_on_rastrigin(self):
        problem = rastrigin(3, cost_model=ConstantCostModel(1.0))
        de = DifferentialEvolution(problem, max_evals=800, rng=1).run()
        rs = make_algorithm("Random", problem, max_evals=800, rng=1).run()
        assert de.best_fom > rs.best_fom

    def test_budget_respected(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        result = DifferentialEvolution(problem, max_evals=47, rng=0).run()
        assert result.n_evaluations == 47

    def test_sequential_wall_clock(self):
        problem = sphere(2, cost_model=ConstantCostModel(2.0))
        result = DifferentialEvolution(problem, max_evals=40, rng=0).run()
        assert result.wall_clock == pytest.approx(80.0)

    def test_parallel_workers_reduce_wall_clock(self):
        problem = sphere(2, cost_model=ConstantCostModel(2.0))
        serial = DifferentialEvolution(problem, max_evals=60, rng=0, n_workers=1).run()
        parallel = DifferentialEvolution(problem, max_evals=60, rng=0, n_workers=4).run()
        assert parallel.wall_clock < serial.wall_clock / 2

    def test_deterministic(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        a = DifferentialEvolution(problem, max_evals=100, rng=5).run()
        b = DifferentialEvolution(problem, max_evals=100, rng=5).run()
        assert a.best_fom == b.best_fom

    def test_trials_stay_in_bounds(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        result = DifferentialEvolution(problem, max_evals=200, rng=2, f=1.9).run()
        bounds = problem.bounds
        for record in result.trace.records:
            assert np.all(record.x >= bounds[:, 0] - 1e-12)
            assert np.all(record.x <= bounds[:, 1] + 1e-12)

    def test_parameter_validation(self):
        problem = sphere(2)
        with pytest.raises(ValueError):
            DifferentialEvolution(problem, max_evals=100, f=3.0)
        with pytest.raises(ValueError):
            DifferentialEvolution(problem, max_evals=100, cr=1.5)
        with pytest.raises(ValueError):
            DifferentialEvolution(problem, max_evals=100, pop_size=3)
        with pytest.raises(ValueError):
            DifferentialEvolution(problem, max_evals=1)

    def test_all_failed_run_reports_an_empty_incumbent(self):
        problem = FaultInjectionProblem(sphere(2), crash_rate=1.0, rng=0)
        result = DifferentialEvolution(problem, max_evals=20, rng=0).run()
        assert_empty_incumbent(result, 20)


class TestRandomSearch:
    def test_budget_and_bounds(self):
        problem = sphere(2, cost_model=ConstantCostModel(1.0))
        result = make_algorithm("Random", problem, max_evals=25, rng=0).run()
        assert result.n_evaluations == 25

    def test_parallel_workers(self):
        problem = sphere(2, cost_model=ConstantCostModel(3.0))
        result = make_algorithm("Random-5", problem, max_evals=30, rng=0).run()
        assert result.wall_clock == pytest.approx(18.0)  # 30/5 * 3 s

    def test_deterministic(self):
        problem = sphere(2)
        a = make_algorithm("Random", problem, max_evals=20, rng=9).run()
        b = make_algorithm("Random", problem, max_evals=20, rng=9).run()
        assert a.best_fom == b.best_fom

    def test_validation(self):
        with pytest.raises(ValueError, match="max_evals must be >= 1"):
            make_algorithm("Random", sphere(2), max_evals=0)

    def test_is_a_design_only_campaign(self):
        rs = make_algorithm("Random-3", sphere(2), max_evals=7, rng=0)
        assert rs.campaign.n_init == rs.campaign.max_evals == 7
        assert rs.campaign.batch_size == 3
        result = rs.run()
        assert result.algorithm == "Random-3"
        assert result.n_evaluations == 7
        single = make_algorithm("Random", sphere(2), max_evals=1, rng=0)
        assert single.run().n_evaluations == 1

    def test_failures_are_counted(self):
        problem = FaultInjectionProblem(sphere(2), crash_rate=0.25, rng=3)
        result = make_algorithm("Random", problem, max_evals=20, rng=0).run()
        failed = sum(not r.ok for r in result.trace.records)
        assert failed > 0
        assert result.n_failures == failed

    def test_all_failed_run_reports_an_empty_incumbent(self):
        problem = FaultInjectionProblem(sphere(2), crash_rate=1.0, rng=0)
        result = make_algorithm("Random-3", problem, max_evals=20, rng=0).run()
        assert_empty_incumbent(result, 20)
