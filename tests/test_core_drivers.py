"""Tests for the BO driver on sequential, synchronous and asynchronous labels.

These use cheap synthetic problems; the heavier end-to-end behaviour is in
tests/test_integration.py.
"""

import numpy as np
import pytest

from repro.circuits.benchmarks import branin, sphere
from repro.core.campaign import SyncBatchStrategy
from repro.core.easybo import make_algorithm
from repro.sched.durations import ConstantCostModel


def quick(problem_factory=sphere, **kw):
    kw.setdefault("n_init", 5)
    kw.setdefault("max_evals", 15)
    kw.setdefault("rng", 0)
    kw.setdefault("acq_candidates", 256)
    kw.setdefault("acq_restarts", 1)
    return problem_factory(cost_model=ConstantCostModel(2.0)), kw


class TestSequential:
    @pytest.mark.parametrize("acq", ["easybo", "ei", "pi", "lcb", "ucb"])
    def test_runs_and_improves(self, acq):
        problem, kw = quick()
        result = make_algorithm(acq, problem, **kw).run()
        assert result.n_evaluations == 15
        assert result.best_fom > -20.0  # random mean is around -25

    def test_wall_clock_is_serial_sum(self):
        problem, kw = quick()
        result = make_algorithm("EasyBO", problem, **kw).run()
        assert result.wall_clock == pytest.approx(15 * 2.0)

    def test_deterministic_given_seed(self):
        problem, kw = quick()
        a = make_algorithm("EasyBO", problem, **kw).run()
        b = make_algorithm("EasyBO", problem, **kw).run()
        assert a.best_fom == b.best_fom
        np.testing.assert_array_equal(a.best_x, b.best_x)

    def test_budget_validation(self):
        problem, _ = quick()
        with pytest.raises(ValueError):
            make_algorithm("EasyBO", problem, n_init=10, max_evals=5)
        with pytest.raises(ValueError):
            make_algorithm("EasyBO", problem, n_init=1, max_evals=5)


class TestSynchronous:
    @pytest.mark.parametrize("strategy", SyncBatchStrategy.STRATEGIES)
    def test_all_strategies_run(self, strategy):
        problem, kw = quick()
        driver = make_algorithm(f"{strategy}-3", problem, **kw)
        result = driver.run()
        assert result.n_evaluations == 15
        assert result.algorithm.endswith("-3")

    def test_batches_share_issue_times(self):
        problem, kw = quick()
        driver = make_algorithm("pBO-5", problem, **kw)
        result = driver.run()
        by_batch = {}
        for record in result.trace.records:
            by_batch.setdefault(record.batch, []).append(record.issue_time)
        for times in by_batch.values():
            assert len(set(times)) == 1  # barrier: all issued together

    def test_wall_clock_with_constant_cost(self):
        problem, kw = quick()
        driver = make_algorithm("EasyBO-S-5", problem, **kw)
        result = driver.run()
        # constant 2 s per eval, 15 evals in batches of 5 -> 3 barriers.
        assert result.wall_clock == pytest.approx(6.0)

    def test_respects_budget_with_partial_batch(self):
        problem, kw = quick()
        kw["max_evals"] = 13  # 5 init + 3 batches of 3 + partial 2
        driver = make_algorithm("EasyBO-SP-3", problem, **kw)
        assert driver.run().n_evaluations == 13

    def test_batch_size_validation(self):
        problem, kw = quick()
        with pytest.raises(ValueError):
            make_algorithm("EasyBO-SP-0", problem, **kw)


class TestAsynchronous:
    def test_runs_with_and_without_penalty(self):
        problem, kw = quick()
        for label in ("EasyBO-3", "EasyBO-A-3"):
            result = make_algorithm(label, problem, **kw).run()
            assert result.n_evaluations == 15

    def test_async_faster_than_sync_with_heterogeneous_costs(self):
        """The paper's core claim at the scheduling level."""
        problem = branin()  # heterogeneous lognormal cost model
        kw = dict(n_init=6, max_evals=24, rng=3, acq_candidates=256, acq_restarts=1)
        sync = make_algorithm("EasyBO-SP-6", problem, **kw).run()
        async_ = make_algorithm("EasyBO-6", problem, **kw).run()
        assert async_.wall_clock < sync.wall_clock
        assert async_.trace.utilization() > sync.trace.utilization()

    def test_async_keeps_all_workers_busy(self):
        problem, kw = quick()
        result = make_algorithm("EasyBO-3", problem, **kw).run()
        workers = {r.worker for r in result.trace.records}
        assert workers == {0, 1, 2}

    def test_pending_seen_by_acquisition(self):
        """After the init phase the pool always holds B-1 pending points."""
        problem, kw = quick()
        driver = make_algorithm("EasyBO-3", problem, **kw)
        seen = []
        strategy = driver.campaign.strategy
        original = strategy.propose

        def spy(core):
            seen.append(core.pending_matrix().shape[0])
            return original(core)

        strategy.propose = spy
        driver.run()
        assert seen  # model-driven phase happened
        assert all(n == 2 for n in seen)  # B - 1 busy points every time

    def test_batch_size_validation(self):
        problem, kw = quick()
        with pytest.raises(ValueError):
            make_algorithm("EasyBO-0", problem, **kw)
