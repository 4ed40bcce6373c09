"""The pool contract, its shared core, and the simulated-clock backend.

Alg. 1 line 3 ("wait for any worker, then refill the idle one") is the
contract every evaluation pool presents to the drivers:

* ``submit(x)`` starts an evaluation on the lowest-numbered idle worker and
  returns its index; a full pool refuses before anything runs.
* ``wait_next()`` returns the next finished evaluation as a
  :class:`Completion` — the heartbeat of the asynchronous BO loop — and
  ``poll()`` is its non-blocking form.  Evaluation failures come back as
  completions, never as exceptions.
* ``wait_all()`` drains every outstanding evaluation — the synchronous batch
  barrier.
* ``pending_points()`` / ``task_info()`` expose the in-flight set (the
  ``X-hat`` of the paper's penalization scheme), and ``restore()`` /
  ``restore_task()`` rebuild a journaled state after a crash.

:class:`PoolBase` holds the bookkeeping behind that contract exactly once:
task table, worker choice, index allocation, the lease rule, completion
resolution into the :class:`~repro.sched.trace.ExecutionTrace`, restore, and
the live ``pool.*`` counters.  A backend adds only how a task starts
(:meth:`PoolBase._start`), how a finished task is found (``wait_next`` /
``poll``), and its clock.

:class:`VirtualWorkerPool` is the backend behind every Table/Figure bench.
The paper's "Time" columns count only simulator (HSPICE) time; given each
evaluation's duration, synchronous/asynchronous wall-clock is a deterministic
scheduling computation, and this pool performs it exactly: an evaluation runs
inline at ``submit`` and occupies its worker for ``result.cost`` seconds of
simulated time, and ``wait_next`` advances the clock to the earliest
completion.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from repro.core.faults import FailurePolicy, run_with_policy
from repro.core.problem import STATUS_ORPHANED, STATUS_TIMEOUT, EvaluationResult
from repro.obs import NULL_OBS
from repro.sched.events import EventQueue
from repro.sched.trace import EvalRecord, ExecutionTrace, PoolTelemetry

__all__ = ["Completion", "PoolBase", "VirtualWorkerPool"]


def _problem_dim(problem) -> int:
    """Design-space dimension for empty pending arrays; 0 if unknowable."""
    dim = getattr(problem, "dim", None)
    return int(dim) if dim is not None else 0


@dataclasses.dataclass(frozen=True)
class Completion:
    """A finished evaluation handed back to the driver.

    ``record`` is the row the pool appended to its trace; the remaining
    issue facts read through to it.  ``run_seconds`` is the run time the
    pool counted toward its lease statistic: it runs from dispatch, which a
    process pool reaches only once the worker is up, so it can be far
    shorter than the row's issue-to-finish span.
    """

    result: EvaluationResult
    record: EvalRecord
    run_seconds: float

    @property
    def index(self) -> int:
        return self.record.index

    @property
    def worker(self) -> int:
        return self.record.worker

    @property
    def x(self) -> np.ndarray:
        return self.record.x

    @property
    def issue_time(self) -> float:
        return self.record.issue_time

    @property
    def finish_time(self) -> float:
        return self.record.finish_time

    @property
    def batch(self) -> int | None:
        return self.record.batch

    @property
    def attempts(self) -> int:
        return self.record.attempts


class PoolBase:
    """The pool contract's bookkeeping, shared by every backend.

    In-flight tasks live in ``_tasks`` (index -> dict with ``index``,
    ``worker``, ``x``, ``issue_time``, ``batch``, ``lease``, the
    ``deadline`` of ``policy.timeout`` and the time it ``started`` running,
    from which lease durations count); a backend may add its own keys in
    :meth:`_start`.  A worker is idle while no task names it.  Every access
    to that state holds ``_lock``, which only the thread backend contends.

    The clock is the real one — seconds since the pool was built, shifted by
    :meth:`restore` — unless a backend overrides :attr:`now`,
    :meth:`_set_clock` and :meth:`_started_at`.
    """

    #: ``PoolTelemetry.backend`` of this pool.
    backend = "base"

    def __init__(self, problem, n_workers: int, *, policy: FailurePolicy | None = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.problem = problem
        self.n_workers = int(n_workers)
        self.policy = policy or FailurePolicy()
        self.trace = ExecutionTrace(n_workers)
        self._obs = NULL_OBS
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._next_index = 0
        self._tasks: dict[int, dict] = {}
        # Completed-duration statistics feeding lease deadlines.
        self._cost_total = 0.0
        self._cost_count = 0

    def bind_observability(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability` facade (live counters:
        ``pool.submits`` / ``pool.completions`` / ``pool.task_seconds``)."""
        self._obs = obs if obs is not None else NULL_OBS

    # ----------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Seconds since pool creation (real time)."""
        return time.monotonic() - self._t0

    def _set_clock(self, now: float) -> None:
        """Continue the clock from a journaled reading (:meth:`restore`)."""
        self._t0 = time.monotonic() - now

    def _started_at(self, issue_time: float) -> float:
        """When a task issued at ``issue_time`` starts its timeout and lease.

        A real clock cannot be rewound per task, so a restored task keeps its
        journaled issue time for the trace but gets a full fresh allowance.
        """
        return self.now

    # ------------------------------------------------------------ inspection
    def _idle_workers(self) -> list[int]:
        """Workers that can take a task now, lowest id first (lock held)."""
        busy = {task["worker"] for task in self._tasks.values()}
        return [w for w in range(self.n_workers) if w not in busy]

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle_workers())

    @property
    def busy_count(self) -> int:
        with self._lock:
            return len(self._tasks)

    def pending_points(self) -> np.ndarray:
        """Design points currently under evaluation, in issue order.

        This is the ``X-hat`` of the paper's penalization scheme (§III-C).
        Always returns shape ``(n_busy, dim)`` — in particular ``(0, dim)``
        when nothing is running, so callers can vstack/hallucinate it
        unconditionally.
        """
        with self._lock:
            tasks = sorted(self._tasks.values(), key=lambda t: t["index"])
        if not tasks:
            return np.empty((0, _problem_dim(self.problem)))
        return np.vstack([t["x"] for t in tasks])

    def task_info(self, index: int) -> dict:
        """Issue metadata for an in-flight evaluation (for the run journal)."""
        with self._lock:
            task = self._tasks[index]
            return {k: task[k] for k in ("worker", "issue_time", "batch", "lease")}

    def _lease_deadline(self, start: float) -> float | None:
        """Lease expiry for a task started at ``start`` (lock held).

        The lease is ``mean completed duration x policy.lease_slack``; before
        any evaluation has completed there is no basis for an expectation and
        the point is unleased.
        """
        slack = self.policy.lease_slack
        if slack is None or self._cost_count == 0:
            return None
        return start + (self._cost_total / self._cost_count) * slack

    def telemetry(self) -> PoolTelemetry:
        """Operational counters for this pool (trace-derived subset)."""
        return PoolTelemetry.from_trace(self.trace, backend=self.backend, elapsed=self.now)

    # ------------------------------------------------------------- operation
    def submit(self, x: np.ndarray, *, batch: int | None = None) -> int:
        """Start evaluating ``x`` on the lowest idle worker; returns the index.

        Raises if every worker is busy — the driver must ``wait_next()``
        first (Alg. 1 line 3) — before anything starts, so a full pool never
        burns a simulation.
        """
        with self._lock:
            idle = self._idle_workers()
            if not idle:
                raise RuntimeError("no idle worker; call wait_next() first")
            task = self._add_task(self._next_index, idle[0], x, batch, self.now)
        return self._launch(task)

    def _add_task(self, index: int, worker: int, x, batch, issue_time: float) -> dict:
        """Register one in-flight task (lock held)."""
        start = self._started_at(issue_time)
        timeout = self.policy.timeout
        task = {
            "index": index,
            "worker": worker,
            "x": np.asarray(x, dtype=float).copy(),
            "issue_time": issue_time,
            "batch": batch,
            "lease": self._lease_deadline(start),
            "deadline": None if timeout is None else start + timeout,
            "started": start,
        }
        self._tasks[index] = task
        self._next_index = max(self._next_index, index + 1)
        return task

    def _launch(self, task: dict) -> int:
        self._start(task)
        self._obs.inc("pool.submits")
        return task["index"]

    def _start(self, task: dict) -> None:  # pragma: no cover - interface
        """Begin evaluating a freshly registered task."""
        raise NotImplementedError

    def wait_next(self) -> Completion:  # pragma: no cover - interface
        """Block until an in-flight evaluation finishes; never raises on its failure."""
        raise NotImplementedError

    def poll(self) -> Completion | None:  # pragma: no cover - interface
        """Non-blocking :meth:`wait_next`: a finished evaluation or ``None``."""
        raise NotImplementedError

    def wait_all(self) -> list[Completion]:
        """Drain all outstanding evaluations (synchronous batch barrier).

        The clock ends at the *latest* completion — the waiting-for-the-
        slowest effect the paper's asynchronous scheme removes.
        """
        completions = []
        while self.busy_count:
            completions.append(self.wait_next())
        return completions

    def _complete(self, index: int, result: EvaluationResult, attempts: int,
                  finish_time: float) -> Completion:
        """Resolve one task: free its worker, trace it, hand it back."""
        with self._lock:
            task = self._tasks.pop(index)
            duration = max(finish_time - task["started"], 0.0)
            self._cost_total += duration
            self._cost_count += 1
        self._release(task, finish_time)
        record = EvalRecord(
            index=task["index"],
            worker=task["worker"],
            x=task["x"],
            fom=result.fom,
            issue_time=task["issue_time"],
            finish_time=finish_time,
            feasible=result.feasible,
            batch=task["batch"],
            status=result.status,
            error=result.error,
            attempts=attempts,
        )
        self.trace.add(record)
        self._obs.inc("pool.completions")
        self._obs.observe("pool.task_seconds", duration)
        return Completion(result, record, duration)

    def _release(self, task: dict, finish_time: float) -> None:
        """Backend bookkeeping for a resolved task (nothing by default)."""

    # ------------------------------------------------------- real deadlines
    def _next_due(self) -> tuple[float, dict] | None:
        """``(time, task)`` of the earliest armed timeout or lease in flight."""
        with self._lock:
            due = [
                (at, task)
                for task in self._tasks.values()
                for at in (task["deadline"], task["lease"])
                if at is not None
            ]
        return min(due, key=lambda d: (d[0], d[1]["index"]), default=None)

    def _overdue(self, task: dict, now: float) -> EvaluationResult | None:
        """The failure of a task past its timeout or lease at ``now``, else None."""
        if task["deadline"] is not None and now >= task["deadline"]:
            return EvaluationResult.failed(
                f"evaluation exceeded timeout of {self.policy.timeout:g}s",
                status=STATUS_TIMEOUT,
                cost=self.policy.timeout,
            )
        if task["lease"] is not None and now >= task["lease"]:
            return EvaluationResult.failed(
                "worker lease expired with the evaluation still in flight "
                "(worker presumed dead)",
                status=STATUS_ORPHANED,
            )
        return None

    # -------------------------------------------------------------- recovery
    def restore(self, *, now: float, next_index: int, records=(),
                run_seconds=None) -> None:
        """Rewind a fresh pool to a journaled state (crash recovery).

        Continues the clock from ``now``, sets the next evaluation index, and
        replays completed :class:`EvalRecord` rows into the trace, rebuilding
        the duration statistics that drive lease deadlines from
        ``run_seconds`` (one per record: the :attr:`Completion.run_seconds`
        the live pool counted; without it, each row's issue-to-finish span).
        A ``None`` entry restores its row without a lease sample.
        Only valid on a pool that has not run anything yet.
        """
        if run_seconds is None:
            run_seconds = [record.duration for record in records]
        with self._lock:
            if self._tasks or self.trace.records:
                raise RuntimeError("restore() requires a fresh pool")
            self._set_clock(float(now))
            self._next_index = int(next_index)
            for record, seconds in zip(records, run_seconds, strict=True):
                self.trace.add(record)
                if seconds is not None:
                    self._cost_total += max(seconds, 0.0)
                    self._cost_count += 1

    def restore_task(
        self,
        index: int,
        worker: int,
        x: np.ndarray,
        *,
        batch: int | None = None,
        issue_time: float | None = None,
    ) -> int:
        """Re-issue an orphaned in-flight evaluation at its original slot.

        Unlike :meth:`submit`, the caller chooses the evaluation index, the
        worker, and the (past) issue time the trace records.
        """
        with self._lock:
            if worker not in self._idle_workers():
                raise RuntimeError(f"worker {worker} is not idle")
            if index in self._tasks:
                raise RuntimeError(f"evaluation {index} is already running")
            task = self._add_task(
                int(index), int(worker), x, batch,
                self.now if issue_time is None else float(issue_time),
            )
        return self._launch(task)

    # --------------------------------------------------------------- closing
    def close(self) -> None:
        """Release the pool's resources (idempotent; nothing by default)."""

    def shutdown(self, wait: bool = True) -> None:
        """Close the pool; ``wait`` matters only where workers can be joined."""
        self.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class VirtualWorkerPool(PoolBase):
    """Deterministic simulated pool of ``n_workers`` identical workers.

    Parameters
    ----------
    problem:
        The problem whose ``evaluate`` supplies FOM and duration.  The
        evaluation itself runs inline (it is cheap); only its *visibility* is
        delayed on the simulated clock by ``result.cost`` seconds.
    n_workers:
        Batch size B of the paper.
    policy:
        :class:`~repro.core.faults.FailurePolicy` governing retries,
        timeouts, and failure costs.  Evaluation exceptions and NaN outputs
        never escape ``submit``; they come back through ``wait_next`` as
        failed completions after the policy's retries are exhausted.  Crashes
        and NaN outputs are retried in place, timeouts are charged at the
        limit, and the worker stays occupied for the *total* simulated time
        of every attempt plus backoff gaps.
    """

    backend = "virtual"

    #: The simulated clock; :meth:`wait_next` advances it.
    now = 0.0

    def __init__(self, problem, n_workers: int, *, policy: FailurePolicy | None = None):
        super().__init__(problem, n_workers, policy=policy)
        self._events = EventQueue()

    def _set_clock(self, now: float) -> None:
        self.now = now

    def _started_at(self, issue_time: float) -> float:
        # The simulated clock replays a restored task from its original
        # issue time, so on a deterministic problem it completes at exactly
        # the moment the uninterrupted run's did.
        return issue_time

    def _start(self, task: dict) -> None:
        result, attempts, elapsed = run_with_policy(
            self.problem, task["x"], self.policy, cost_timeout=True
        )
        result = dataclasses.replace(result, cost=elapsed)
        self._events.push(
            task["issue_time"] + max(result.cost, 0.0), (task["index"], result, attempts)
        )

    def wait_next(self) -> Completion:
        """Advance the clock to the earliest completion (FIFO on ties) and return it."""
        if not self._events:
            raise RuntimeError("nothing is running")
        event = self._events.pop()
        self.now = max(self.now, event.time)
        index, result, attempts = event.payload
        return self._complete(index, result, attempts, event.time)

    def poll(self) -> Completion | None:
        """Non-blocking :meth:`wait_next`: a completion if any task is running.

        On the simulated clock every in-flight evaluation is immediately
        completable (time is free to advance), so ``poll`` only returns
        ``None`` on an idle pool.
        """
        return self.wait_next() if self._events else None
