"""Crash/resume harness: kill seeded runs and prove the resume is exact.

The contract under test (see ``docs/crash_recovery.md``): at the default
``refit_every=1``, a run killed at *any* journal append and resumed with
:func:`repro.core.recovery.resume` finishes with the byte-for-byte trajectory
of the uninterrupted run — the same fixtures ``test_golden_trajectories.py``
enforces, on the one surrogate path every run takes.  The chaos test draws its kill points from ``REPRO_CHAOS_SEED`` so
the CI chaos job sweeps a different slice of crash boundaries on every seed.

Also covered here: worker-lease reconciliation (a hung worker is orphaned and
reissued without wedging ``wait_next``), the impute/drop orphan dispositions,
bounded reissues for poisoned points, the v4 persistence format, and RNG
state round-trips.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.circuits import sphere
from repro.core.easybo import make_algorithm
from repro.core.faults import (
    FailurePolicy,
    KillSwitchJournal,
    KillSwitchProblem,
    ProcessKilled,
)
from repro.core.journal import JournalWriter, read_journal
from repro.core.persistence import load_runs, run_from_dict, run_to_dict, save_runs
from repro.core.problem import FunctionProblem
from repro.core.recovery import resolve_problem, resume
from repro.sched.executor import ThreadWorkerPool
from repro.sched.workers import VirtualWorkerPool
from repro.utils.rng import generator_from_state, rng_state_to_dict, set_rng_state
from tests.golden.regenerate import (
    SCENARIOS,
    canonical_json,
    golden_path,
    make_problem,
    run_scenario,
    trajectory_payload,
)

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def run_killed(name: str, journal_path, kill_at: int):
    """Run a golden scenario with the journal kill switch armed."""
    writer = KillSwitchJournal(JournalWriter(journal_path), kill_at=kill_at)
    try:
        with pytest.raises(ProcessKilled):
            run_scenario(name, journal=writer, checkpoint_every=3)
    finally:
        writer.journal.close()


_JOURNAL_LENGTHS: dict[str, int] = {}


def journal_length(name: str, tmp_path) -> int:
    """Number of journal records a completed run of ``name`` writes.

    Deterministic per scenario, so the result is memoized: the 5-fraction
    kill sweep costs one reference run per scenario, not one per case.
    """
    if name not in _JOURNAL_LENGTHS:
        path = tmp_path / "complete.jsonl"
        run_scenario(name, journal=path)
        _JOURNAL_LENGTHS[name] = len(read_journal(path, strict=True))
    return _JOURNAL_LENGTHS[name]


def assert_matches_golden(name: str, result) -> None:
    assert canonical_json(trajectory_payload(name, result)) == golden_path(
        name
    ).read_text()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_journaled_run_matches_golden(name, tmp_path):
    # Attaching a journal must be an observer: same trajectory, byte for byte.
    path = tmp_path / "run.jsonl"
    result = run_scenario(name, journal=path, checkpoint_every=2)
    assert_matches_golden(name, result)
    events = read_journal(path, strict=True)
    assert events[0]["type"] == "campaign_start"
    assert events[-1]["type"] == "campaign_end"
    assert events[-1]["best_fom"] == result.best_fom


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("fraction", [0.15, 0.4, 0.6, 0.85, 1.0])
def test_resume_after_journal_kill_matches_golden(name, fraction, tmp_path):
    # Kill between two journal appends at several depths (1.0 = kill on the
    # final append, i.e. even campaign_end itself being lost is recoverable).
    n_records = journal_length(name, tmp_path)
    kill_at = max(2, round(fraction * n_records))
    path = tmp_path / "run.jsonl"
    run_killed(name, path, kill_at)
    resumed = resume(path)
    assert_matches_golden(name, resumed)
    # The journal now ends with the completed run's epilogue.
    events = read_journal(path, strict=True)
    assert any(e["type"] == "campaign_resume" for e in events)
    assert events[-1]["type"] == "campaign_end"


@pytest.mark.parametrize("kill_at", [1, 4, 7, 11])
def test_resume_after_mid_evaluation_kill_matches_golden(kill_at, tmp_path):
    # Die INSIDE the kill_at-th evaluation (not between journal writes): the
    # in-flight point has an issue record but no completion, and must be
    # reissued at its original index/worker/time.
    name = "easybo-async-branin"
    label, problem_name, kwargs = SCENARIOS[name]
    path = tmp_path / "run.jsonl"
    killer = KillSwitchProblem(make_problem(problem_name), kill_at=kill_at)
    algorithm = make_algorithm(
        label, killer, refit_every=1,
        acq_candidates=128, acq_restarts=1, journal=path, **kwargs,
    )
    with pytest.raises(ProcessKilled):
        algorithm.run()
    resumed = resume(path, problem=make_problem(problem_name))
    assert_matches_golden(name, resumed)


def test_chaos_kill_resume_sweep(tmp_path):
    # CI chaos job: 5 seed-derived crash points across the golden scenarios;
    # every one must resume to the exact golden trajectory.
    rng = np.random.default_rng(CHAOS_SEED)
    names = sorted(SCENARIOS)
    lengths = {name: journal_length(name, tmp_path / name) for name in names}
    for case in range(5):
        name = names[int(rng.integers(len(names)))]
        kill_at = int(rng.integers(2, lengths[name] + 1))
        path = tmp_path / f"chaos-{case}.jsonl"
        run_killed(name, path, kill_at)
        resumed = resume(path)
        assert canonical_json(trajectory_payload(name, resumed)) == golden_path(
            name
        ).read_text(), f"chaos seed {CHAOS_SEED}, case {case}: {name} killed at {kill_at}"


def test_resume_survives_torn_tail(tmp_path):
    # Truncate the journal mid-record (as a crash during a write would) and
    # resume from the torn file; the byte-offset sweep lives in
    # tests/test_journal.py, here we prove end-to-end resumability.
    name = "lcb-branin"
    path = tmp_path / "run.jsonl"
    run_killed(name, path, kill_at=12)
    raw = path.read_bytes()
    for cut in (len(raw) - 1, len(raw) - 9, len(raw) - 25):
        torn = tmp_path / f"torn-{cut}.jsonl"
        torn.write_bytes(raw[:cut])
        assert_matches_golden(name, resume(torn))


def test_resume_twice_after_double_crash(tmp_path):
    # A resumed run that crashes again resumes again from the same journal.
    name = "easybo-async-branin"
    problem = make_problem(SCENARIOS[name][1])
    path = tmp_path / "run.jsonl"
    run_killed(name, path, kill_at=10)
    # kill_at=8 lets the reissued orphans complete durably first; a pending
    # point that spanned BOTH crashes would instead be imputed (bounded
    # reissues), legally diverging from the golden.
    with pytest.raises(ProcessKilled):
        resume(path, problem=KillSwitchProblem(problem, kill_at=8))
    assert_matches_golden(name, resume(path, problem=problem))


def test_resume_refuses_finished_run(tmp_path):
    path = tmp_path / "run.jsonl"
    run_scenario("lcb-branin", journal=path)
    with pytest.raises(RuntimeError, match="already completed"):
        resume(path)


def test_resume_refuses_journal_without_run_start(tmp_path):
    path = tmp_path / "empty.jsonl"
    with JournalWriter(path) as writer:
        writer.append({"type": "complete"})
    with pytest.raises(Exception, match="campaign_start"):
        resume(path)


class TestOrphanDispositions:
    def _crash(self, tmp_path, policy):
        name = "easybo-async-branin"
        label, problem_name, kwargs = SCENARIOS[name]
        path = tmp_path / "run.jsonl"
        killer = KillSwitchProblem(make_problem(problem_name), kill_at=8)
        algorithm = make_algorithm(
            label, killer, acq_candidates=128,
            acq_restarts=1, journal=path, failure_policy=policy, **kwargs,
        )
        with pytest.raises(ProcessKilled):
            algorithm.run()
        return path, make_problem(problem_name)

    @pytest.mark.parametrize("disposition", ["impute", "drop"])
    def test_impute_and_drop_spend_the_budget(self, tmp_path, disposition):
        policy = FailurePolicy(on_orphan=disposition)
        path, problem = self._crash(tmp_path, policy)
        result = resume(path, problem=problem)
        # Orphans are recorded, the budget is not refunded, and the run ends.
        assert result.trace.n_orphaned > 0
        assert result.n_evaluations == SCENARIOS["easybo-async-branin"][2]["max_evals"]
        orphans = [r for r in result.trace.records if r.status == "orphaned"]
        assert all(not r.feasible and np.isnan(r.fom) for r in orphans)

    def test_reissue_is_bounded_for_poisoned_points(self, tmp_path):
        # A point whose re-evaluation kills the process again must not be
        # reissued forever: after max_reissues the next resume imputes it.
        path, problem = self._crash(tmp_path, FailurePolicy(on_orphan="reissue"))
        for _ in range(2):
            with pytest.raises(ProcessKilled):
                resume(path, problem=KillSwitchProblem(problem, kill_at=1))
        events = read_journal(path)
        dispositions = [
            (tuple(e["x"]), e["action"])
            for e in events
            if e["type"] == "tell" and e["result"]["status"] == "orphaned"
        ]
        by_index: dict[tuple, list[str]] = {}
        for index, disposition in dispositions:
            by_index.setdefault(index, []).append(disposition)
        assert any(d == ["reissued", "imputed"] for d in by_index.values())


class TestWorkerLeases:
    def make_pool(self, fn, dim=1, n_workers=2, **policy_kwargs):
        problem = FunctionProblem(fn, bounds=[(0.0, 1.0)] * dim, name="t")
        policy = FailurePolicy(**policy_kwargs)
        return ThreadWorkerPool(problem, n_workers, policy=policy, poll_interval=0.02)

    def test_expired_lease_orphans_the_task_without_deadlock(self):
        def fn(x):
            if x[0] > 0.5:
                time.sleep(60)
            return float(x[0])

        pool = self.make_pool(fn, lease_slack=3.0)
        pool.submit(np.array([0.1]))
        pool.submit(np.array([0.2]))
        for _ in range(2):
            assert pool.wait_next().result.ok
        start = time.monotonic()
        index = pool.submit(np.array([0.9]))
        completion = pool.wait_next()
        assert completion.index == index
        assert completion.result.status == "orphaned"
        assert time.monotonic() - start < 10
        # The worker slot is reclaimed: the pool keeps serving evaluations.
        pool.submit(np.array([0.3]))
        assert pool.wait_next().result.ok

    def test_no_lease_before_first_completion(self):
        pool = self.make_pool(lambda x: float(x[0]), lease_slack=2.0)
        index = pool.submit(np.array([0.4]))
        assert pool.task_info(index)["lease"] is None
        pool.wait_next()
        index = pool.submit(np.array([0.4]))
        assert pool.task_info(index)["lease"] is not None
        pool.wait_next()

    def test_wait_next_never_blocks_unboundedly(self):
        # Satellite: every queue wait is capped, so Ctrl-C surfaces promptly
        # even when no completion ever arrives.
        pool = self.make_pool(lambda x: float(x[0]))
        timeouts = []
        inner = pool._results

        class SpyQueue:
            def get(self, *args, **kwargs):
                timeout = kwargs.get("timeout", args[0] if args else None)
                timeouts.append(timeout)
                return inner.get(*args, **kwargs)

            def put(self, item):
                inner.put(item)

        pool._results = SpyQueue()
        pool.submit(np.array([0.6]))
        pool.wait_next()
        assert timeouts
        assert all(t is not None and t <= pool.poll_interval for t in timeouts)

    def test_driver_survives_hung_worker_via_lease_reissue(self):
        hung: dict[float, int] = {}

        def fn(x):
            key = round(float(x[0]), 9)
            if x[0] > 0.8 and hung.setdefault(key, 0) == 0:
                hung[key] += 1
                time.sleep(60)
            return float((x[0] - 0.3) ** 2)

        problem = FunctionProblem(fn, bounds=[(0.0, 1.0)], name="flaky")
        policy = FailurePolicy(lease_slack=50.0, on_orphan="reissue")
        factory = lambda prob, n, policy=policy: ThreadWorkerPool(
            prob, n, policy=policy, poll_interval=0.02
        )
        driver = make_algorithm(
            "EasyBO-2", problem, rng=0, n_init=4, max_evals=8,
            acq_candidates=64, acq_restarts=1, failure_policy=policy,
            pool_factory=factory,
        )
        start = time.monotonic()
        result = driver.run()
        assert time.monotonic() - start < 30
        statuses = [r.status for r in result.trace.records]
        assert statuses.count("orphaned") >= 1
        assert statuses.count("ok") >= 8  # every orphan was re-evaluated

    def test_a_second_resume_arms_the_first_resumed_pools_leases(self, tmp_path):
        # An orphan imputed at a resume never ran to a known end, so the
        # live resumed pool leaves it out of its lease mean; after a second
        # crash, the pool restored from the journal must leave it out too.
        leases = []

        class DiesAtFirstWait(VirtualWorkerPool):
            """Notes the lease a restored pool arms, then is killed before
            any evaluation completes."""

            def wait_next(self):
                leases.append(self._lease_deadline(0.0))
                raise ProcessKilled("killed before the first completion")

        problem = sphere(2)
        path = tmp_path / "run.jsonl"
        writer = KillSwitchJournal(JournalWriter(path), kill_at=14)
        with pytest.raises(ProcessKilled):
            make_algorithm(
                "EasyBO-2", problem, n_init=4, max_evals=20, rng=0,
                acq_candidates=64, acq_restarts=1, journal=writer,
                failure_policy=FailurePolicy(lease_slack=3, on_orphan="impute"),
            ).run()
        writer.close()
        for _ in range(2):
            with pytest.raises(ProcessKilled):
                resume(path, problem=problem, pool_factory=DiesAtFirstWait)
        imputed = [e for e in read_journal(path)
                   if e["type"] == "tell" and e["result"]["status"] == "orphaned"]
        assert imputed and all(e["run_seconds"] is None for e in imputed)
        live, restored = leases
        assert live is not None
        assert restored == live


class TestRngState:
    def test_round_trip_is_json_safe_and_exact(self):
        rng = np.random.default_rng(123)
        rng.normal(size=17)
        state = rng_state_to_dict(rng)
        json.loads(json.dumps(state))  # plain-JSON serializable
        clone = generator_from_state(state)
        np.testing.assert_array_equal(rng.normal(size=8), clone.normal(size=8))

    def test_set_state_rejects_mismatched_bit_generator(self):
        rng = np.random.default_rng(0)
        state = rng_state_to_dict(rng)
        state["bit_generator"] = "MT19937"
        with pytest.raises(ValueError):
            set_rng_state(np.random.default_rng(0), state)

    def test_run_result_carries_final_rng_state(self):
        result = run_scenario("lcb-branin")
        assert result.rng_state is not None
        generator_from_state(result.rng_state)  # must reconstruct


class TestPersistenceV4:
    def test_round_trip_preserves_rng_state(self):
        result = run_scenario("lcb-branin")
        data = run_to_dict(result)
        assert data["version"] == 8
        clone = run_from_dict(json.loads(json.dumps(data)))
        assert clone.rng_state == result.rng_state
        assert clone.best_fom == result.best_fom

    def test_v2_through_v6_files_still_load(self):
        result = run_scenario("lcb-branin")
        data = run_to_dict(result)
        for version in (2, 3, 4, 5, 6, 7):
            old = json.loads(json.dumps(data))
            old["version"] = version
            if version < 7:
                old.pop("pending_policy", None)
            if version < 6:
                old.pop("metrics", None)
            if version < 5:
                old.pop("pool_telemetry", None)
            if version < 4:
                old.pop("rng_state", None)
            if version < 3:
                old.pop("surrogate_stats", None)
            clone = run_from_dict(old)
            if version < 7:
                assert clone.pending_policy is None
            if version < 6:
                assert clone.metrics is None
            if version < 5:
                assert clone.pool_telemetry is None
            if version < 4:
                assert clone.rng_state is None
            assert clone.best_fom == result.best_fom

    def test_save_runs_is_atomic(self, tmp_path):
        result = run_scenario("lcb-branin")
        path = tmp_path / "grid.json"
        save_runs(path, {"LCB": [result]})
        first = path.read_bytes()
        save_runs(path, {"LCB": [result, result]})
        assert not (tmp_path / "grid.json.tmp").exists()
        grid = load_runs(path)
        assert len(grid["LCB"]) == 2
        assert len(first) < path.stat().st_size


class TestObservabilityAcrossResume:
    """Replay-safe metrics: a killed-and-resumed run reports the same
    durable counters as the uninterrupted run, never replayed-plus-live
    double counts, and the resume opens its own (marked) run span."""

    NAME = "easybo-async-branin"

    def test_resumed_metrics_match_uninterrupted_run(self, tmp_path):
        from repro.obs import MetricsRegistry

        baseline = run_scenario(
            self.NAME, journal=tmp_path / "full.jsonl",
            metrics=MetricsRegistry(),
        )
        assert baseline.metrics is not None

        path = tmp_path / "crash.jsonl"
        run_killed(self.NAME, path, kill_at=10)
        # The resumed process brings a fresh registry, as a real restart would.
        resumed = resume(path, metrics=MetricsRegistry())
        assert_matches_golden(self.NAME, resumed)
        assert resumed.metrics is not None

        # Trace-derived counters are folded (assigned) at packaging time, so
        # replayed completions cannot double-count: the resumed totals equal
        # the uninterrupted run's exactly.
        durable = (
            "driver.evaluations", "driver.failures", "driver.retries",
            "driver.orphans", "pool.tasks",
        )
        for name in durable:
            assert (
                resumed.metrics["counters"][name]
                == baseline.metrics["counters"][name]
            ), name
        assert (
            resumed.metrics["counters"]["driver.evaluations"]
            == resumed.n_evaluations
        )
        # Live counters tick only for post-resume events — they can never
        # exceed the run totals (a double count would).
        assert (
            resumed.metrics["counters"]["pool.submits"]
            <= resumed.n_evaluations
        )
        assert (
            resumed.metrics["counters"]["driver.completions"]
            <= resumed.n_evaluations
        )

    def test_resume_opens_a_marked_run_span(self, tmp_path):
        from repro.obs import Tracer, load_trace, render_trace

        path = tmp_path / "crash.jsonl"
        run_killed(self.NAME, path, kill_at=10)
        trace_path = tmp_path / "resume-trace.jsonl"
        tracer = Tracer(trace_path)
        resumed = resume(path, tracer=tracer)
        tracer.close()
        assert_matches_golden(self.NAME, resumed)

        spans = load_trace(trace_path)
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "run"
        assert roots[0]["attrs"]["resumed"] is True
        assert render_trace(trace_path)  # renders without error

    def test_metrics_are_strictly_opt_in_on_resume(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        run_killed(self.NAME, path, kill_at=10)
        resumed = resume(path)
        assert resumed.metrics is None


class TestResolveProblem:
    @pytest.mark.parametrize(
        "name, dim",
        [("branin", 2), ("hartmann6", 6), ("sphere2", 2), ("ackley5", 5),
         ("rastrigin4", 4), ("opamp", 10), ("classe", 12), ("opamp-constrained", 10)],
    )
    def test_benchmarks_resolve_by_journaled_name(self, name, dim):
        problem = resolve_problem(name)
        assert problem.name == name
        assert len(problem.bounds) == dim

    def test_unknown_name_raises_with_guidance(self):
        # "ota" named a testbench that is gone; its journals get the same
        # refusal as any custom problem.
        for name in ("my-custom-testbench", "ota"):
            with pytest.raises(ValueError, match="problem="):
                resolve_problem(name)
