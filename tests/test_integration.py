"""End-to-end integration tests: BO drivers on the real circuit testbenches.

These run the full stack — GP surrogate, acquisition machinery, worker pools,
and the MNA circuit simulator — at small budgets.  The paper-scale protocols
live in benchmarks/.
"""

import numpy as np
import pytest

from repro import EasyBO, make_algorithm
from repro.circuits import ClassEProblem, OpAmpProblem, hartmann6
from repro.core.results import summarize_runs
from repro.sched.executor import ThreadWorkerPool

QUICK = dict(acq_candidates=512, acq_restarts=1)


class TestOpAmpEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        problem = OpAmpProblem()
        return EasyBO(
            problem, batch_size=5, rng=0, n_init=10, max_evals=40, **QUICK
        ).optimize()

    def test_budget_and_trace(self, result):
        assert result.n_evaluations == 40
        assert len(result.trace) == 40

    def test_beats_its_own_initial_design(self, result):
        # The best FOM must not come from the random phase alone; BO should
        # improve on the initial 10 samples.
        init_best = max(r.fom for r in result.trace.records if r.index < 10)
        assert result.best_fom >= init_best

    def test_improves_over_random_baseline(self):
        """On average over seeds BO beats random search at equal budget.

        The op-amp landscape is heavy-tailed, so a single lucky run can
        decide a mean over a few seeds; this averages the paper's 20
        repetitions.
        """
        problem = OpAmpProblem()
        bo_foms, rs_foms = [], []
        for seed in range(20):
            bo = EasyBO(problem, batch_size=5, rng=seed, n_init=10,
                        max_evals=40, **QUICK).optimize()
            rs = make_algorithm("Random", problem, max_evals=40, rng=seed).run()
            bo_foms.append(bo.best_fom)
            rs_foms.append(rs.best_fom)
        assert np.mean(bo_foms) > np.mean(rs_foms)

    def test_wall_clock_is_paper_scale(self, result):
        # 40 sims on 5 workers at ~38.8 s/sim: roughly 310 s of sim time.
        assert 200 < result.wall_clock < 500

    def test_best_design_is_feasible(self, result):
        problem = OpAmpProblem()
        check = problem.evaluate(result.best_x)
        assert check.feasible
        assert check.fom == pytest.approx(result.best_fom, rel=1e-9)


class TestClassEEndToEnd:
    def test_short_budget_run(self):
        problem = ClassEProblem(settle_periods=10, measure_periods=2,
                                steps_per_period=48)
        result = EasyBO(
            problem, batch_size=4, rng=0, n_init=6, max_evals=14, **QUICK
        ).optimize()
        assert result.n_evaluations == 14
        assert result.best_fom > 0.0  # found at least one working PA


class TestThreadBackend:
    def test_easybo_on_thread_pool(self):
        problem = hartmann6()
        result = EasyBO(
            problem,
            batch_size=3,
            rng=0,
            n_init=6,
            max_evals=18,
            pool_factory=ThreadWorkerPool,
            **QUICK,
        ).optimize()
        assert result.n_evaluations == 18
        # Real elapsed seconds, not the cost model's simulated seconds.
        assert result.wall_clock < 60.0
        workers = {r.worker for r in result.trace.records}
        assert workers == {0, 1, 2}


class TestRepetitionProtocol:
    def test_summarize_repetitions(self):
        problem = hartmann6()
        runs = [
            EasyBO(problem, batch_size=5, rng=seed, n_init=8, max_evals=24,
                   **QUICK).optimize()
            for seed in range(3)
        ]
        summary = summarize_runs(runs)
        assert summary.n_runs == 3
        assert summary.worst <= summary.mean <= summary.best
        row = summary.as_row()
        assert row[0] == "EasyBO-5"


class TestSchedulingShape:
    """Tiny-scale versions of the paper's wall-clock claims."""

    def test_async_saves_time_vs_sync_same_budget(self):
        problem = hartmann6()  # lognormal costs
        kw = dict(n_init=8, max_evals=32, rng=2, **QUICK)
        sync = make_algorithm("EasyBO-SP-8", problem, **kw).run()
        async_ = make_algorithm("EasyBO-8", problem, **kw).run()
        assert async_.n_evaluations == sync.n_evaluations
        assert async_.wall_clock < sync.wall_clock

    def test_time_saving_grows_with_batch_size(self):
        """Scheduler-level version of the paper's §IV observation that the
        async/sync gap widens with B (9.2% -> 13.7% on the op-amp).

        With a fixed stream of lognormal durations, the sync makespan is a
        sum of per-batch maxima while async packs work continuously; the
        relative gap must grow with the batch size.
        """
        from repro.core.problem import FunctionProblem
        from repro.sched.durations import LognormalCostModel
        from repro.sched.workers import VirtualWorkerPool

        cost = LognormalCostModel(mean_seconds=40.0, sigma=0.35, seed=0)
        problem = FunctionProblem(
            lambda x: float(x[0]), [[0.0, 1.0]], cost_model=cost
        )
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(240, 1))
        savings = {}
        for b in (2, 8):
            sync = VirtualWorkerPool(problem, b)
            for start in range(0, len(points), b):
                for x in points[start : start + b]:
                    sync.submit(x)
                sync.wait_all()
            async_ = VirtualWorkerPool(problem, b)
            for x in points[:b]:
                async_.submit(x)
            for x in points[b:]:
                async_.wait_next()
                async_.submit(x)
            async_.wait_all()
            savings[b] = 1.0 - async_.trace.makespan / sync.trace.makespan
        assert savings[8] > savings[2] > 0.0
