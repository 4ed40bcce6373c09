"""One contract, three backends.

Every evaluation pool — the simulated-clock :class:`VirtualWorkerPool`, the
:class:`ThreadWorkerPool`, and the OS-process :class:`ProcessWorkerPool` —
must present the same protocol to the drivers: ``submit`` rejects work when
full, ``wait_next`` returns every issued point exactly once and never raises
on evaluation failure, ``pending_points``/``task_info`` expose in-flight
state, traces record one row per completion, leases arm only after the first
completed duration, and ``restore``/``restore_task`` rebuild journaled state.
These tests run the identical scenario through all three, so a behavioural
drift in any backend fails by name.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits.benchmarks import sphere
from repro.core.faults import FailurePolicy
from repro.distributed import ProcessWorkerPool
from repro.sched.executor import ThreadWorkerPool
from repro.sched.trace import EvalRecord
from repro.sched.workers import VirtualWorkerPool

#: The pool size used throughout; small so process spawns stay cheap.
N_WORKERS = 2

#: Named-resolvable problem ("sphere2") so it reaches worker processes too.
PROBLEM = sphere(dim=2)


def make_pool(backend: str, policy: FailurePolicy | None = None,
              n_workers: int = N_WORKERS):
    if backend == "virtual":
        return VirtualWorkerPool(PROBLEM, n_workers, policy=policy)
    if backend == "thread":
        return ThreadWorkerPool(PROBLEM, n_workers, policy=policy,
                                poll_interval=0.02)
    return ProcessWorkerPool(PROBLEM, n_workers, policy=policy,
                             heartbeat_interval=0.1, poll_interval=0.05)


BACKENDS = ("virtual", "thread", "process")


def points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(PROBLEM.bounds[:, 0], PROBLEM.bounds[:, 1],
                       size=(n, PROBLEM.dim))


def poll_until_done(pool, timeout=60.0):
    """Spin on the non-blocking ``poll()`` until it yields a completion."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        completion = pool.poll()
        if completion is not None:
            return completion
        time.sleep(0.01)
    raise AssertionError(f"poll() yielded nothing within {timeout:g}s")


@pytest.mark.parametrize("backend", BACKENDS)
class TestPoolContract:
    def test_submit_to_capacity_then_reject(self, backend):
        with make_pool(backend) as pool:
            X = points(N_WORKERS + 1)
            for i in range(N_WORKERS):
                pool.submit(X[i])
            assert pool.idle_count == 0
            assert pool.busy_count == N_WORKERS
            with pytest.raises(RuntimeError):
                pool.submit(X[N_WORKERS])
            pool.wait_all()

    def test_wait_next_returns_each_index_once(self, backend):
        with make_pool(backend) as pool:
            X = points(5)
            submitted = []
            seen = []
            for x in X[:N_WORKERS]:
                submitted.append(pool.submit(x))
            for x in X[N_WORKERS:]:
                seen.append(pool.wait_next())
                submitted.append(pool.submit(x))
            seen.extend(pool.wait_all())
            assert sorted(c.index for c in seen) == sorted(submitted)
            for completion in seen:
                assert completion.result.ok
                assert completion.finish_time >= completion.issue_time
                i = submitted.index(completion.index)
                np.testing.assert_allclose(completion.x, X[i])

    def test_wait_next_on_empty_pool_raises(self, backend):
        with make_pool(backend) as pool:
            with pytest.raises(RuntimeError, match="nothing is running"):
                pool.wait_next()

    def test_pending_points_shape_and_order(self, backend):
        with make_pool(backend) as pool:
            assert pool.pending_points().shape == (0, PROBLEM.dim)
            X = points(N_WORKERS)
            for x in X:
                pool.submit(x)
            pending = pool.pending_points()
            assert pending.shape == (N_WORKERS, PROBLEM.dim)
            np.testing.assert_allclose(pending, X)  # issue (= index) order
            pool.wait_all()
            assert pool.pending_points().shape == (0, PROBLEM.dim)

    def test_task_info_exposes_issue_metadata(self, backend):
        with make_pool(backend) as pool:
            index = pool.submit(points(1)[0], batch=7)
            info = pool.task_info(index)
            assert set(info) == {"worker", "issue_time", "batch", "lease"}
            assert info["batch"] == 7
            assert info["lease"] is None  # no completed durations yet
            pool.wait_all()
            with pytest.raises(KeyError):
                pool.task_info(index)

    def test_lease_arms_after_first_completion(self, backend):
        policy = FailurePolicy(lease_slack=5.0)
        with make_pool(backend, policy=policy) as pool:
            first = pool.submit(points(1)[0])
            assert pool.task_info(first)["lease"] is None
            pool.wait_next()
            second = pool.submit(points(1, seed=1)[0])
            assert pool.task_info(second)["lease"] is not None
            pool.wait_all()

    def test_trace_invariants(self, backend):
        with make_pool(backend) as pool:
            X = points(6, seed=3)
            for x in X[:N_WORKERS]:
                pool.submit(x)
            for x in X[N_WORKERS:]:
                pool.wait_next()
                pool.submit(x)
            pool.wait_all()
            trace = pool.trace
            assert len(trace) == len(X)
            assert sorted(r.index for r in trace.records) == list(range(len(X)))
            assert all(0 <= r.worker < N_WORKERS for r in trace.records)
            assert all(r.finish_time >= r.issue_time for r in trace.records)
            assert all(r.status == "ok" for r in trace.records)
            best = trace.best_record()
            assert best.fom == max(r.fom for r in trace.records)

    def test_restore_continues_clock_and_indices(self, backend):
        record = EvalRecord(
            index=0, worker=0, x=np.array([0.5, 0.5]), fom=-0.5,
            issue_time=0.0, finish_time=4.0, feasible=True,
        )
        with make_pool(backend, policy=FailurePolicy(lease_slack=5.0)) as pool:
            pool.restore(now=100.0, next_index=3, records=[record])
            assert pool.now >= 100.0
            assert len(pool.trace) == 1
            index = pool.submit(points(1)[0])
            assert index == 3  # indices continue after the journaled ones
            # The replayed duration armed the lease statistics immediately.
            assert pool.task_info(index)["lease"] is not None
            completion = pool.wait_next()
            assert completion.index == 3
            assert completion.issue_time >= 100.0

    def test_restore_task_reissues_at_chosen_worker(self, backend):
        with make_pool(backend) as pool:
            pool.restore(now=50.0, next_index=9, records=())
            x = points(1, seed=5)[0]
            index = pool.restore_task(7, 1, x, batch=2, issue_time=44.0)
            assert index == 7
            info = pool.task_info(7)
            assert info["worker"] == 1
            assert info["issue_time"] == pytest.approx(44.0)
            completion = pool.wait_next()
            assert completion.index == 7
            assert completion.worker == 1
            assert completion.result.ok
            # next_index accounts for the restored task
            assert pool.submit(points(1, seed=6)[0]) == 9

    def test_telemetry_snapshot(self, backend):
        with make_pool(backend) as pool:
            for x in points(N_WORKERS):
                pool.submit(x)
            pool.wait_all()
            telemetry = pool.telemetry()
            assert telemetry.backend == backend
            assert telemetry.n_workers == N_WORKERS
            assert telemetry.n_tasks == N_WORKERS
            assert len(telemetry.worker_tasks) == N_WORKERS
            assert sum(telemetry.worker_tasks) == N_WORKERS
            assert telemetry.summary_line()  # human-readable, never raises

    def test_metrics_parity_across_backends(self, backend):
        """Every backend feeds the registry the same metric names with
        counters consistent with its trace — the cross-backend half of the
        observability contract (the fold itself is covered in test_obs)."""
        from repro.obs import MetricsRegistry, Observability

        registry = MetricsRegistry()
        with make_pool(backend) as pool:
            pool.bind_observability(Observability(metrics=registry))
            for x in points(N_WORKERS, seed=11):
                pool.submit(x)
            pool.wait_all()
            registry.fold_pool_telemetry(pool.telemetry())

        # Live counters tick once per pool event, on every backend.
        assert registry.counter("pool.submits") == N_WORKERS
        assert registry.counter("pool.completions") == N_WORKERS
        assert registry.histogram("pool.task_seconds")["count"] == N_WORKERS
        # Folded counters agree with the live ones and with the trace.
        assert registry.counter("pool.tasks") == N_WORKERS
        assert registry.gauge("pool.workers") == N_WORKERS
        # The full name set is backend-independent: queue waits exist as a
        # (possibly empty) histogram even where no backend samples them.
        assert "pool.queue_wait_seconds" in registry.names()
        expected = {
            "pool.submits", "pool.completions", "pool.task_seconds",
            "pool.tasks", "pool.respawns", "pool.heartbeat_expiries",
            "pool.timeout_kills", "pool.workers", "pool.utilization",
            "pool.elapsed_seconds", "pool.busy_seconds",
            "pool.queue_wait_seconds",
        }
        assert expected <= set(registry.names())

    def test_unbound_pool_records_no_metrics(self, backend):
        """Without bind_observability the pool must not require (or touch)
        any registry — observability is strictly opt-in."""
        with make_pool(backend) as pool:
            pool.submit(points(1, seed=12)[0])
            assert pool.wait_next().result.ok

    def test_poll_on_idle_pool_returns_none(self, backend):
        with make_pool(backend) as pool:
            assert pool.poll() is None

    def test_poll_returns_each_index_once(self, backend):
        """``poll()`` is how the campaign server drives a pool: refilling
        on each completion, every submitted index comes back exactly once."""
        with make_pool(backend) as pool:
            X = points(5, seed=13)
            submitted = [pool.submit(x) for x in X[:N_WORKERS]]
            seen = []
            for x in X[N_WORKERS:]:
                seen.append(poll_until_done(pool).index)
                submitted.append(pool.submit(x))
            while pool.busy_count:
                seen.append(poll_until_done(pool).index)
            assert sorted(seen) == sorted(submitted)
            assert pool.poll() is None

    def test_close_is_idempotent_and_reentrant(self, backend):
        pool = make_pool(backend)
        pool.submit(points(1)[0])
        try:
            pool.wait_next()
        finally:
            pool.close()
        pool.close()  # second close must be a no-op, not an error


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_lease_expiry_orphans_hung_evaluation(backend):
    """A worker hung far past the mean duration is expired, not waited on.

    Only the real backends are exercised: on the virtual clock a hang is
    just a large simulated cost, so leases there are covered by the
    recovery tests instead.  The hang triggers on the *point* (not the
    call count), so it fires identically inside worker processes, and the
    inner op-amp problem is picklable so the wrapper survives the trip.
    """
    from repro.circuits import OpAmpProblem
    from repro.core.faults import HangProblem

    policy = FailurePolicy(lease_slack=10.0, on_orphan="impute")
    inner = OpAmpProblem()
    lo, hi = inner.bounds[:, 0], inner.bounds[:, 1]
    trigger = lo[0] + 0.9 * (hi[0] - lo[0])
    hang = HangProblem(inner, hang_above=trigger, hang_seconds=60.0)
    rng = np.random.default_rng(9)

    def point(hangs: bool):
        x = rng.uniform(lo, hi)
        x[0] = hi[0] if hangs else lo[0]
        return x

    if backend == "thread":
        pool = ThreadWorkerPool(hang, 2, policy=policy, poll_interval=0.02)
    else:
        pool = ProcessWorkerPool(hang, 2, policy=policy,
                                 heartbeat_interval=0.1, poll_interval=0.05)
    with pool:
        pool.submit(point(hangs=False))
        pool.submit(point(hangs=False))
        assert pool.wait_next().result.ok
        assert pool.wait_next().result.ok
        start = time.monotonic()
        index = pool.submit(point(hangs=True))  # hangs for 60 s
        completion = pool.wait_next()
        assert completion.index == index
        assert completion.result.status == "orphaned"
        assert time.monotonic() - start < 30
        # The slot is reclaimed: the pool keeps serving evaluations.
        pool.submit(point(hangs=False))
        assert pool.wait_next().result.ok


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_poll_returns_expired_lease_as_orphaned(backend):
    """The non-blocking path expires leases too: a hung evaluation comes
    back through ``poll()`` as orphaned instead of stalling its slot."""
    from repro.circuits import OpAmpProblem
    from repro.core.faults import HangProblem

    policy = FailurePolicy(lease_slack=10.0, on_orphan="impute")
    inner = OpAmpProblem()
    lo, hi = inner.bounds[:, 0], inner.bounds[:, 1]
    hang = HangProblem(inner, hang_above=lo[0] + 0.9 * (hi[0] - lo[0]),
                       hang_seconds=60.0)
    x_ok, x_hang = lo.copy(), hi.copy()
    if backend == "thread":
        pool = ThreadWorkerPool(hang, 2, policy=policy, poll_interval=0.02)
    else:
        pool = ProcessWorkerPool(hang, 2, policy=policy,
                                 heartbeat_interval=0.1, poll_interval=0.05)
    with pool:
        pool.submit(x_ok)
        assert poll_until_done(pool).result.ok  # arms the lease statistics
        start = time.monotonic()
        index = pool.submit(x_hang)  # hangs for 60 s
        completion = poll_until_done(pool, timeout=30.0)
        assert completion.index == index
        assert completion.result.status == "orphaned"
        assert time.monotonic() - start < 30
        assert pool.poll() is None


def test_process_lease_statistic_starts_at_dispatch():
    """The first task on a fresh process pool waits for its worker to spawn;
    that wait is not evaluation time, so it must not stretch later leases."""
    slack = 10.0
    with make_pool("process", policy=FailurePolicy(lease_slack=slack),
                   n_workers=1) as pool:
        X = points(2)
        pool.submit(X[0])
        first = pool.wait_next()
        info = pool.task_info(pool.submit(X[1]))
        lease = info["lease"] - info["issue_time"]
        assert lease < slack * (first.finish_time - first.issue_time)
        assert pool.wait_next().result.ok
