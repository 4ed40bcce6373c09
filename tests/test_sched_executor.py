"""Tests for the thread-pool evaluation backend."""

import sys
import time

import numpy as np
import pytest

from repro.core.problem import EvaluationResult, Problem
from repro.sched.executor import ThreadWorkerPool


class SleepyProblem(Problem):
    """FOM = x[0]; evaluation really sleeps for x[1] seconds."""

    name = "sleepy"

    @property
    def bounds(self):
        return np.array([[0.0, 100.0], [0.0, 1.0]])

    def evaluate(self, x):
        time.sleep(float(x[1]))
        return EvaluationResult(fom=float(x[0]), cost=float(x[1]))


class FailingProblem(Problem):
    name = "failing"

    @property
    def bounds(self):
        return np.array([[0.0, 1.0]])

    def evaluate(self, x):
        raise RuntimeError("simulator crashed")


class TestThreadPool:
    def test_basic_roundtrip(self):
        with ThreadWorkerPool(SleepyProblem(), n_workers=2) as pool:
            pool.submit(np.array([7.0, 0.0]))
            done = pool.wait_next()
        assert done.result.fom == 7.0
        assert len(pool.trace) == 1

    def test_parallel_faster_than_serial(self):
        naps = 0.15
        with ThreadWorkerPool(SleepyProblem(), n_workers=4) as pool:
            t0 = time.monotonic()
            for i in range(4):
                pool.submit(np.array([float(i), naps]))
            pool.wait_all()
            elapsed = time.monotonic() - t0
        assert elapsed < 4 * naps  # threads overlapped the sleeps

    def test_async_completion_order(self):
        with ThreadWorkerPool(SleepyProblem(), n_workers=2) as pool:
            pool.submit(np.array([1.0, 0.3]))
            pool.submit(np.array([2.0, 0.05]))
            first = pool.wait_next()
            assert first.result.fom == 2.0  # shorter sleep finishes first
            pool.submit(np.array([3.0, 0.0]))
            pool.wait_all()
        assert len(pool.trace) == 3

    def test_pending_points(self):
        with ThreadWorkerPool(SleepyProblem(), n_workers=2) as pool:
            pool.submit(np.array([5.0, 0.2]))
            pending = pool.pending_points()
            assert pending.shape == (1, 2)
            assert pending[0, 0] == 5.0
            pool.wait_all()
        assert pool.pending_points().shape[0] == 0

    def test_submit_when_full_raises(self):
        with ThreadWorkerPool(SleepyProblem(), n_workers=1) as pool:
            pool.submit(np.array([1.0, 0.2]))
            with pytest.raises(RuntimeError, match="idle"):
                pool.submit(np.array([2.0, 0.0]))
            pool.wait_all()

    def test_wait_with_nothing_running(self):
        with ThreadWorkerPool(SleepyProblem(), n_workers=1) as pool:
            with pytest.raises(RuntimeError, match="running"):
                pool.wait_next()

    def test_evaluation_exception_contained(self):
        """A crashing evaluation surfaces as a failed completion, not a raise,
        and the pool's worker accounting stays consistent."""
        with ThreadWorkerPool(FailingProblem(), n_workers=1) as pool:
            pool.submit(np.array([0.5]))
            done = pool.wait_next()
            assert not done.result.ok
            assert done.result.status == "crashed"
            assert "simulator crashed" in done.result.error
            assert pool.idle_count == 1 and pool.busy_count == 0
            # The failure is traced, and the pool remains usable.
            assert len(pool.trace) == 1
            assert pool.trace.n_failures == 1
            pool.submit(np.array([0.5]))
            assert not pool.wait_next().result.ok

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ThreadWorkerPool(SleepyProblem(), 0)

    def test_accounting_holds_under_thread_switch_pressure(self):
        """More workers than cores and a tiny switch interval: every index
        completes exactly once and idle + busy always equals the pool size."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadWorkerPool(SleepyProblem(), n_workers=8,
                                  poll_interval=0.05) as pool:
                submitted, seen = [], []
                for i in range(200):
                    if pool.idle_count == 0:
                        seen.append(pool.wait_next().index)
                    submitted.append(pool.submit(np.array([float(i % 100), 0.0])))
                    assert pool.idle_count + pool.busy_count == 8
                seen.extend(c.index for c in pool.wait_all())
        finally:
            sys.setswitchinterval(previous)
        assert sorted(seen) == sorted(submitted) == list(range(200))
        assert len(pool.trace) == 200
