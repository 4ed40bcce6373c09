"""Real thread-pool evaluation backend.

Same contract as :class:`~repro.sched.workers.VirtualWorkerPool` (the shared
:class:`~repro.sched.workers.PoolBase` core), but evaluations run
concurrently in OS threads and the trace records real wall-clock timestamps.
What this backend adds on top of the core: a task starts as a daemon thread
that posts its outcome to a queue, and ``wait_next``/``poll`` read that
queue, expiring overdue timeouts and leases as they go.

This is the backend to use when the evaluation function releases the GIL or
performs genuine I/O (e.g. shelling out to an external simulator).  The pure-
Python testbenches in this repository are GIL-bound, so for *experiments* the
virtual pool is both faster and deterministic; the thread pool exists to
demonstrate the asynchronous mechanism end to end and to host user problems
that wrap real simulators.

Failure containment
-------------------
Each evaluation runs in its own daemon thread under the pool's
:class:`~repro.core.faults.FailurePolicy`:

* An exception or NaN output is retried in the worker thread (with real
  backoff sleeps) and, once retries are exhausted, surfaces through
  ``wait_next`` as a failed :class:`~repro.sched.workers.Completion` — it
  never raises into the driver, and the worker is only freed *after* the
  outcome is resolved and traced.
* When ``policy.timeout`` (or a lease) is set, ``wait_next`` enforces it on
  the real clock: a hung evaluation is *abandoned* — its logical worker slot
  is freed immediately and a ``"timeout"`` (or ``"orphaned"``) completion
  returned — while the orphaned daemon thread finishes (or hangs) harmlessly
  in the background; its late result, if any, is discarded.  Because threads
  are per-task rather than a fixed executor, an abandoned job cannot starve
  the remaining B-1 workers.  Daemon threads cannot be cancelled from Python,
  so ``close()`` abandons live ones rather than wedging on a hung evaluation.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.core.faults import FailurePolicy, run_with_policy
from repro.sched.workers import Completion, PoolBase

__all__ = ["ThreadWorkerPool"]


class ThreadWorkerPool(PoolBase):
    """Concurrent evaluation pool with one daemon thread per in-flight task.

    ``wait_next`` never blocks unboundedly: queue waits are capped at
    ``poll_interval`` seconds, so a ``KeyboardInterrupt`` surfaces promptly
    and lease/timeout deadlines are checked on every poll even when no
    completion ever arrives.
    """

    backend = "thread"

    def __init__(
        self,
        problem,
        n_workers: int,
        *,
        policy: FailurePolicy | None = None,
        poll_interval: float = 0.5,
    ):
        super().__init__(problem, n_workers, policy=policy)
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = float(poll_interval)
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._abandoned: set[int] = set()

    def _start(self, task: dict) -> None:
        thread = threading.Thread(
            target=self._run_task, args=(task["index"], task["x"]), daemon=True,
            name=f"eval-{task['index']}",
        )
        with self._lock:
            task["thread"] = thread
        thread.start()

    def _run_task(self, index: int, x) -> None:
        """Worker-thread body: evaluate under the policy, post the outcome."""
        result, attempts, _ = run_with_policy(
            self.problem, x, self.policy, sleep=time.sleep
        )
        self._results.put((index, result, attempts))

    def wait_next(self) -> Completion:
        """Block until an in-flight evaluation finishes or times out.

        Never raises on evaluation failure: crashed, NaN, and timed-out
        evaluations come back as completions whose ``result`` carries the
        failure status, after the outcome has been recorded in the trace
        and the worker freed — in that order, so the pool stays consistent
        even for failures.
        """
        while True:
            if not self.busy_count:
                raise RuntimeError("nothing is running")
            completion = self._next_completion(self.poll_interval)
            if completion is not None:
                return completion

    def poll(self) -> Completion | None:
        """Non-blocking :meth:`wait_next`: a ready completion or ``None``.

        Resolves at most one finished evaluation (expiring an overdue
        timeout/lease deadline counts), so a caller multiplexing many pools
        — the campaign server — never blocks on one of them.
        """
        return self._next_completion(0.0) if self.busy_count else None

    def _next_completion(self, block: float) -> Completion | None:
        """Wait up to ``block`` seconds for one completion.

        A posted outcome resolves its task; with none posted, the earliest
        task past its timeout or lease is abandoned and resolved as failed.
        Late results of abandoned tasks are discarded.
        """
        while True:
            due = self._next_due()
            wait = block if due is None else min(block, max(due[0] - self.now, 0.0))
            try:
                index, result, attempts = self._results.get(timeout=wait)
            except queue.Empty:
                now = self.now
                if due is None or due[0] > now:
                    return None
                task = due[1]
                with self._lock:
                    self._abandoned.add(task["index"])
                return self._complete(task["index"], self._overdue(task, now), 1, now)
            with self._lock:
                stale = index in self._abandoned
                self._abandoned.discard(index)
            if not stale:
                return self._complete(index, result, attempts, self.now)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally join live (non-abandoned) threads."""
        if wait:
            with self._lock:
                threads = [task["thread"] for task in self._tasks.values()]
            for thread in threads:
                thread.join()
