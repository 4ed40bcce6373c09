"""The distributed subsystem: protocol, supervision, and chaos cases.

The contract-level behaviour shared with the other backends lives in
``test_pool_contract.py``; this file covers what only exists for real OS
workers — the wire protocol and problem specs, worker death (SIGKILL),
frozen workers (SIGSTOP -> heartbeat expiry), wedged evaluations
(``policy.timeout`` -> worker kill), driver-level orphan reissue over
processes, journal resume onto a process pool, and the no-zombies close
guarantee on both the clean and the exception path.
"""

from __future__ import annotations

import math
import os
import signal
import time

import numpy as np
import pytest

from repro.circuits import OpAmpProblem
from repro.circuits.benchmarks import sphere
from repro.core.easybo import EasyBO
from repro.core.faults import (
    FailurePolicy,
    HangProblem,
    KillSwitchJournal,
    ProcessKilled,
)
from repro.core.journal import JournalWriter
from repro.core.problem import EvaluationResult
from repro.core.recovery import resume
from repro.distributed import (
    ProcessWorkerPool,
    load_problem,
    problem_spec,
)
from repro.distributed.protocol import result_from_dict, result_to_dict
from repro.sched.workers import VirtualWorkerPool

FAST = dict(heartbeat_interval=0.1, poll_interval=0.05, respawn_backoff=0.1)


def assert_reaped(pool):
    """No zombie left behind: every process the pool ever spawned is waited."""
    assert all(proc.poll() is not None for proc in pool._all_procs)


class TestProtocol:
    def test_result_round_trip(self):
        result = EvaluationResult(
            fom=1.25, metrics={"gain": 80.0}, cost=3.5, feasible=True
        )
        clone = result_from_dict(result_to_dict(result))
        assert clone == result

    def test_failed_result_round_trip_preserves_nan(self):
        result = EvaluationResult.failed("sim died", status="crashed", cost=2.0)
        clone = result_from_dict(result_to_dict(result))
        assert math.isnan(clone.fom)
        assert clone.status == "crashed"
        assert clone.error == "sim died"
        assert not clone.feasible

    def test_picklable_problem_uses_pickle_spec(self):
        spec = problem_spec(OpAmpProblem())
        assert spec["kind"] == "pickle"
        rebuilt = load_problem(spec)
        x = rebuilt.bounds.mean(axis=1)
        assert rebuilt.evaluate(x).fom == OpAmpProblem().evaluate(x).fom

    def test_closure_problem_falls_back_to_named_spec(self):
        problem = sphere(dim=2)  # closures make it unpicklable
        spec = problem_spec(problem)
        assert spec == {"kind": "named", "name": "sphere2"}
        rebuilt = load_problem(spec)
        np.testing.assert_array_equal(rebuilt.bounds, problem.bounds)

    def test_unresolvable_problem_is_rejected_loudly(self):
        class Local:  # neither picklable by the worker nor registered
            name = "no-such-problem"
            bounds = np.array([[0.0, 1.0]])

        Local.__module__ = "__main__"
        with pytest.raises(ValueError, match="neither picklable"):
            problem_spec(Local())


def _opamp_points(n, seed=0):
    problem = OpAmpProblem()
    rng = np.random.default_rng(seed)
    return problem, rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1],
                                size=(n, problem.dim))


class TestSupervision:
    def _wait_dispatched(self, pool, index, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pool._service(0.05)
            meta = pool._tasks.get(index)
            if meta is not None and meta["dispatch_time"] is not None:
                return pool._slots[meta["worker"]]
        raise AssertionError(f"evaluation {index} never dispatched")

    def test_sigkill_orphans_task_and_respawns_worker(self):
        problem, X = _opamp_points(3, seed=1)
        with ProcessWorkerPool(problem, 2, **FAST) as pool:
            i0 = pool.submit(X[0])
            pool.submit(X[1])
            slot = self._wait_dispatched(pool, i0)
            slot.proc.kill()
            completions = {c.index: c for c in pool.wait_all()}
            assert completions[i0].result.status == "orphaned"
            # The fleet recovers: the respawned slot serves new work.
            deadline = time.monotonic() + 60
            while pool.idle_count < 2 and time.monotonic() < deadline:
                pool._service(0.05)
            pool.submit(X[2])
            assert pool.wait_next().result.ok
            assert pool.telemetry().n_respawns == 1
        assert_reaped(pool)

    def test_sigstop_expires_heartbeat_and_orphans(self):
        problem, X = _opamp_points(2, seed=2)
        with ProcessWorkerPool(problem, 1, **FAST) as pool:
            i0 = pool.submit(X[0])
            slot = self._wait_dispatched(pool, i0)
            os.kill(slot.proc.pid, signal.SIGSTOP)
            start = time.monotonic()
            completion = pool.wait_next()
            assert completion.index == i0
            assert completion.result.status == "orphaned"
            # Expired within a few heartbeat windows, not a lease/minutes.
            assert time.monotonic() - start < 30
            assert pool.telemetry().n_heartbeat_expiries == 1
        assert_reaped(pool)

    def test_policy_timeout_kills_wedged_worker(self):
        # The heartbeat thread keeps beating through the hang, so only the
        # evaluation deadline — not the heartbeat — can catch this one.
        inner = OpAmpProblem()
        hi = inner.bounds[:, 1]
        problem = HangProblem(inner, hang_above=float(hi[0]), hang_seconds=60.0)
        policy = FailurePolicy(timeout=1.5)
        _, X = _opamp_points(1, seed=3)
        with ProcessWorkerPool(problem, 1, policy=policy, **FAST) as pool:
            x = X[0].copy()
            x[0] = hi[0]  # trigger the hang
            index = pool.submit(x)
            start = time.monotonic()
            completion = pool.wait_next()
            assert completion.index == index
            assert completion.result.status == "timeout"
            assert completion.result.cost == pytest.approx(1.5)
            assert time.monotonic() - start < 30
            assert pool.telemetry().n_timeout_kills == 1
        assert_reaped(pool)

    def test_all_workers_dead_raises_instead_of_hanging(self):
        problem, X = _opamp_points(1, seed=4)
        with ProcessWorkerPool(problem, 1, respawn_limit=0, **FAST) as pool:
            i0 = pool.submit(X[0])
            slot = self._wait_dispatched(pool, i0)
            slot.proc.kill()
            completion = pool.wait_next()  # the orphan drains first
            assert completion.result.status == "orphaned"
            with pytest.raises(RuntimeError, match="failed permanently"):
                pool.submit(X[0])
        assert_reaped(pool)


class TestDriverIntegration:
    def test_easybo_end_to_end_with_telemetry(self):
        problem = sphere(dim=2)  # crosses the wire as a named spec
        result = EasyBO(
            problem, batch_size=2, n_init=4, max_evals=10, rng=0,
            pool_factory=lambda p, n, policy=None: ProcessWorkerPool(
                p, n, policy=policy, **FAST
            ),
            acq_candidates=64, acq_restarts=1,
        ).optimize()
        assert result.n_evaluations == 10
        assert np.isfinite(result.best_fom)
        telemetry = result.pool_telemetry
        assert telemetry is not None
        assert telemetry.backend == "process"
        assert telemetry.n_workers == 2
        assert telemetry.n_tasks == 10
        assert sum(telemetry.worker_tasks) == 10
        assert telemetry.n_respawns == 0  # a clean run needed no supervision

    def test_killed_worker_mid_run_completes_via_orphan_reissue(self):
        from repro.circuits.benchmarks import RepeatedProblem

        # Latency-padded so the kill reliably lands while the victim's
        # point is still in flight (a bare 15 ms op-amp call often
        # finishes before the signal does).
        problem = RepeatedProblem(OpAmpProblem(), latency=0.3)
        policy = FailurePolicy(on_orphan="reissue")
        pools = []
        killed = {}

        # Kill one busy worker once, from a completion hook: wrap the
        # pool's wait_next to murder a worker that still has a point in
        # flight after the second completion — its result can then only
        # arrive through the orphan-reissue path.
        def killing_factory(p, n, policy=policy):
            pool = ProcessWorkerPool(p, n, policy=policy, **FAST)
            pools.append(pool)
            original = pool.wait_next

            def wait_next():
                completion = original()
                if len(pool.trace.records) >= 2 and not killed:
                    busy = next(
                        (s for s in pool._slots
                         if s.task is not None and s.proc is not None
                         and s.proc.poll() is None),
                        None,
                    )
                    if busy is not None:
                        busy.proc.kill()
                        killed["worker"] = busy.worker_id
                return completion

            pool.wait_next = wait_next
            return pool

        easybo = EasyBO(
            problem, batch_size=2, n_init=4, max_evals=9, rng=0,
            pool_factory=killing_factory, failure_policy=policy,
            acq_candidates=64, acq_restarts=1,
        )
        start = time.monotonic()
        result = easybo.optimize()
        assert time.monotonic() - start < 300  # completed, no hang
        assert killed, "the chaos hook never fired"
        statuses = [r.status for r in result.trace.records]
        assert statuses.count("orphaned") >= 1
        # Budget preserved: orphan reissues are budget-neutral, and the
        # reissued points were actually evaluated.
        assert statuses.count("ok") >= 9
        for pool in pools:
            assert_reaped(pool)

    def test_journal_resume_onto_process_pool(self, tmp_path):
        problem = sphere(dim=2)
        path = tmp_path / "run.journal"
        factory = lambda p, n, policy=None: ProcessWorkerPool(
            p, n, policy=policy, **FAST
        )
        easybo = EasyBO(
            problem, batch_size=2, n_init=4, max_evals=8, rng=0,
            pool_factory=factory, acq_candidates=64, acq_restarts=1,
            journal=KillSwitchJournal(JournalWriter(path), kill_at=14),
        )
        pool_seen = []
        easybo.driver.pool_factory = lambda p, n, policy=None: pool_seen.append(
            factory(p, n, policy=policy)
        ) or pool_seen[-1]
        with pytest.raises(ProcessKilled):
            easybo.optimize()
        # The exception path still closed the pool: no zombies mid-crash.
        assert pool_seen and pool_seen[0]._closed
        assert_reaped(pool_seen[0])

        result = resume(path, problem=problem, pool_factory=factory)
        assert result.n_evaluations == 8
        assert np.isfinite(result.best_fom)
        assert result.pool_telemetry is not None
        assert result.pool_telemetry.backend == "process"

    def test_resumed_pool_arms_the_live_pools_leases(self, tmp_path):
        # The design goes out while the workers spawn, so the live pool's
        # run times (counted from dispatch) are far shorter than the trace
        # rows' issue-to-finish spans.  A pool restored from the journal
        # must arm the leases the live pool did.
        problem = sphere(dim=2)
        policy = FailurePolicy(lease_slack=3)
        pools = []

        def recording(backend, **options):
            def factory(p, n, policy=None):
                pools.append(backend(p, n, policy=policy, **options))
                return pools[-1]
            return factory

        path = tmp_path / "run.journal"
        EasyBO(
            problem, batch_size=2, n_init=4, max_evals=6, rng=0,
            pool_factory=recording(ProcessWorkerPool, **FAST),
            failure_policy=policy, acq_candidates=32, acq_restarts=1,
            journal=path,
        ).optimize()
        # Cut campaign_end: the run is "killed" after its last tell.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        resume(path, problem=problem, pool_factory=recording(VirtualWorkerPool))
        live, restored = pools
        spans = [r.duration for r in live.trace.records]
        assert live._lease_deadline(0.0) < 3 * sum(spans) / len(spans)
        assert restored._lease_deadline(0.0) == live._lease_deadline(0.0)


class TestCampaignServerNoZombies:
    """The server-hosted pools follow the same no-zombie close guarantee."""

    def test_client_disconnect_reaps_server_pool(self, tmp_path):
        from repro.distributed import CampaignClient, serve

        server = serve(journal_dir=tmp_path, max_workers=2, background=True)
        try:
            client = CampaignClient(port=server.port)
            cid = client.create(
                "EasyBO-2", "sphere2",
                config=dict(rng=0, n_init=3, max_evals=200,
                            acq_candidates=32, acq_restarts=1),
                evaluate=True, n_workers=2, pool="process",
            )
            hosted = server._campaigns[cid]
            pool = hosted.pool
            assert isinstance(pool, ProcessWorkerPool)
            deadline = time.monotonic() + 60
            while not pool._all_procs and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool._all_procs, "workers never spawned"
            client.close()  # the mid-campaign kill: socket drops, no goodbye
            deadline = time.monotonic() + 60
            while hosted.state != "suspended" and time.monotonic() < deadline:
                time.sleep(0.05)
            # The orphaned campaign was suspended, its pool reaped, its
            # worker lease returned — and the journal survives for resume.
            assert hosted.state == "suspended"
            assert hosted.pool is None and pool._closed
            assert_reaped(pool)
            assert server.leases.leased == 0
            assert (tmp_path / f"{cid}.journal").exists()
        finally:
            server.stop()
