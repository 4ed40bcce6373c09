"""Process-based evaluation pool: real OS workers behind the pool contract.

:class:`ProcessWorkerPool` shares the pool contract's core
(:class:`~repro.sched.workers.PoolBase`) with the virtual and thread pools,
but each of its B workers is a separate OS process
(``python -m repro.distributed.worker``) connected over a loopback socket
RPC, so CPU-bound simulations genuinely run in parallel instead of taking
turns on the GIL.  What this backend adds on top of the core: a task starts
by being queued in its worker's slot and dispatched over the socket, and a
finished task is found by the supervision loop below (result frames,
liveness checks, expired deadlines).  The clock is the real one.

Supervision model
-----------------
The pool owns B *slots*.  A slot is always submittable while its process is
alive or respawning (a dispatched task waits in the slot until the fresh
process completes its handshake), so the driver sees the same
``n_workers``-capacity semantics as the other backends.  Per slot the
supervisor tracks:

* **heartbeats** — workers send one every ``heartbeat_interval`` seconds,
  even mid-evaluation.  A slot silent past ``heartbeat_timeout`` is
  presumed dead or frozen: its process is killed, its in-flight point comes
  back through ``wait_next`` as a :data:`~repro.core.problem.STATUS_ORPHANED`
  completion (feeding the driver's ``FailurePolicy.on_orphan`` path), and
  the slot respawns with linear backoff.
* **death** — a closed connection (crash, SIGKILL) takes the same orphan +
  respawn path immediately, without waiting out the heartbeat window.
* **wedging** — with ``policy.timeout`` set, a task over its wall-clock
  deadline gets its worker killed (unlike a thread, a process *can* be
  reclaimed) and surfaces as a ``timeout`` completion.
* **leases** — ``policy.lease_slack`` arms the same mean-duration leases as
  the other pools; an expired lease is treated like a heartbeat expiry.

``respawn_limit`` consecutive failed respawns mark the slot permanently
dead; the run continues on the surviving slots and fails loudly only when
none remain.  ``close()`` (also the context-manager exit and a GC
finalizer) shuts workers down and reaps every child process — no zombies,
also on the exception path.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import selectors
import subprocess
import sys
import time
import weakref

import numpy as np

from repro.core.faults import FailurePolicy
from repro.core.problem import STATUS_ORPHANED, STATUS_TIMEOUT, EvaluationResult
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    problem_spec,
    result_from_dict,
)
from repro.distributed.transport import ConnectionClosed, FramedConnection, listen
from repro.sched.trace import PoolTelemetry
from repro.sched.workers import Completion, PoolBase

__all__ = ["ProcessWorkerPool"]


@dataclasses.dataclass
class _Slot:
    """One worker slot: the process behind it and its supervision state."""

    worker_id: int
    proc: subprocess.Popen | None = None
    conn: FramedConnection | None = None
    state: str = "spawning"  # spawning | ready | dead
    task: int | None = None  # index of the in-flight/pending evaluation
    last_heartbeat: float = 0.0
    respawns: int = 0  # consecutive failures; reset on a delivered result
    respawn_at: float = 0.0  # pool clock: earliest next spawn attempt
    spawn_deadline: float = 0.0
    busy_seconds: float = 0.0
    n_tasks: int = 0

    @property
    def alive(self) -> bool:
        return self.state != "dead"


def _reap(procs: list) -> None:
    """GC/exit safety net: kill and reap any still-running child process."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=5)
        except Exception:  # noqa: BLE001 — best effort at interpreter teardown
            pass


class ProcessWorkerPool(PoolBase):
    """Evaluation pool of ``n_workers`` supervised OS processes.

    Parameters
    ----------
    problem:
        The problem to evaluate.  It must transfer to the worker processes:
        picklable, or rebuildable by name through the crash-recovery
        registry (see :func:`repro.distributed.protocol.problem_spec`).
    n_workers:
        Batch size B of the paper — the number of worker processes.
    policy:
        Shared :class:`~repro.core.faults.FailurePolicy`.  Retries run
        *inside* the worker; ``timeout`` and ``lease_slack`` are enforced
        by the supervisor on the real clock.
    heartbeat_interval:
        Seconds between worker heartbeat frames.
    heartbeat_timeout:
        Silence on a connected worker longer than this expires it
        (default: ``10 * heartbeat_interval``).
    respawn_limit:
        Consecutive failed (re)spawns before a slot is declared
        permanently dead.
    respawn_backoff:
        Base backoff in seconds; attempt ``k`` waits ``k * respawn_backoff``.
    spawn_timeout:
        Seconds a freshly started process gets to complete its handshake
        (covers the Python/NumPy import storm on loaded machines).
    poll_interval:
        Upper bound on any single blocking wait inside ``wait_next`` —
        KeyboardInterrupt stays prompt even if every worker goes silent.
    """

    backend = "process"

    def __init__(
        self,
        problem,
        n_workers: int,
        *,
        policy: FailurePolicy | None = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = None,
        respawn_limit: int = 3,
        respawn_backoff: float = 0.5,
        spawn_timeout: float = 60.0,
        poll_interval: float = 0.5,
    ):
        super().__init__(problem, n_workers, policy=policy)
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = (
            10.0 * self.heartbeat_interval
            if heartbeat_timeout is None
            else float(heartbeat_timeout)
        )
        self.respawn_limit = int(respawn_limit)
        self.respawn_backoff = float(respawn_backoff)
        self.spawn_timeout = float(spawn_timeout)
        self.poll_interval = float(poll_interval)

        self._init_frame = {
            "type": "init",
            "protocol": PROTOCOL_VERSION,
            "problem": problem_spec(problem),
            "policy": dataclasses.asdict(self.policy),
            "heartbeat_interval": self.heartbeat_interval,
        }
        self._ready: collections.deque = collections.deque()
        self._closed = False
        self._last_worker_error: str | None = None

        # Telemetry counters beyond the per-slot ones.
        self._n_respawns = 0
        self._n_heartbeat_expiries = 0
        self._n_timeout_kills = 0
        self._queue_waits: list[float] = []

        self._selector = selectors.DefaultSelector()
        self._listener, self._port = listen()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        #: Accepted connections whose hello frame has not arrived yet.
        self._unidentified: dict[FramedConnection, float] = {}
        self._slots = [_Slot(worker_id=k) for k in range(self.n_workers)]
        #: Every Popen ever created, shared with the GC-time reaper below.
        self._all_procs: list[subprocess.Popen] = []
        self._finalizer = weakref.finalize(self, _reap, self._all_procs)
        for slot in self._slots:
            self._spawn(slot)

    # ------------------------------------------------------------ inspection
    def _idle_workers(self) -> list[int]:
        # A respawning slot stays submittable; a permanently dead one does not.
        return [w for w in super()._idle_workers() if self._slots[w].alive]

    def telemetry(self) -> PoolTelemetry:
        """Live operational counters (snapshot)."""
        now = self.now
        return PoolTelemetry(
            backend=self.backend,
            n_workers=self.n_workers,
            n_tasks=len(self.trace.records),
            n_respawns=self._n_respawns,
            n_heartbeat_expiries=self._n_heartbeat_expiries,
            n_timeout_kills=self._n_timeout_kills,
            elapsed_seconds=now,
            worker_busy_seconds=[s.busy_seconds for s in self._slots],
            worker_tasks=[s.n_tasks for s in self._slots],
            queue_wait_seconds=list(self._queue_waits),
            heartbeat_age_seconds=[
                max(now - s.last_heartbeat, 0.0) if s.state == "ready" else 0.0
                for s in self._slots
            ],
        )

    # -------------------------------------------------------------- spawning
    def _spawn(self, slot: _Slot) -> None:
        """Start (or restart) the worker process behind ``slot``."""
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        slot.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.distributed.worker",
                "--connect",
                f"127.0.0.1:{self._port}",
                "--worker-id",
                str(slot.worker_id),
            ],
            env=env,
            stdin=subprocess.DEVNULL,
        )
        self._all_procs.append(slot.proc)
        slot.state = "spawning"
        slot.conn = None
        slot.spawn_deadline = self.now + self.spawn_timeout

    def _schedule_respawn(self, slot: _Slot) -> None:
        """Back off and retry, or give the slot up after ``respawn_limit``."""
        slot.respawns += 1
        self._n_respawns += 1
        if slot.respawns > self.respawn_limit:
            slot.state = "dead"
            slot.conn = None
            return
        slot.state = "spawning"
        slot.conn = None
        slot.proc = None
        slot.respawn_at = self.now + self.respawn_backoff * slot.respawns

    def _kill_slot(self, slot: _Slot) -> None:
        """Tear down the slot's process and connection (no reassignment)."""
        if slot.conn is not None:
            try:
                self._selector.unregister(slot.conn)
            except (KeyError, ValueError):
                pass
            slot.conn.close()
            slot.conn = None
        if slot.proc is not None and slot.proc.poll() is None:
            slot.proc.kill()
            try:
                slot.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel stall
                pass

    def _worker_failed(self, slot: _Slot, reason: str) -> None:
        """A worker died / went silent / wedged: orphan its task, respawn."""
        self._kill_slot(slot)
        if slot.task is not None:
            index = slot.task
            failure = EvaluationResult.failed(
                f"worker {slot.worker_id} {reason} with evaluation {index} "
                "in flight",
                status=STATUS_ORPHANED,
            )
            self._ready.append((index, failure, 1))
        self._schedule_respawn(slot)

    # ------------------------------------------------------------ handshakes
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            conn = FramedConnection(sock)
            self._unidentified[conn] = self.now + self.spawn_timeout
            self._selector.register(conn, selectors.EVENT_READ, "hello")

    def _identify(self, conn: FramedConnection, hello: dict) -> None:
        """Bind a fresh connection to its slot and dispatch pending work."""
        worker_id = int(hello.get("worker_id", -1))
        self._unidentified.pop(conn, None)
        if not (0 <= worker_id < self.n_workers):
            self._selector.unregister(conn)
            conn.close()
            return
        slot = self._slots[worker_id]
        if slot.state == "ready" or not slot.alive:
            # A stale process from before a kill, or a permanently dead
            # slot coming back: this connection has no slot to serve.
            self._selector.unregister(conn)
            conn.close()
            return
        slot.conn = conn
        slot.state = "ready"
        slot.last_heartbeat = self.now
        self._selector.modify(conn, selectors.EVENT_READ, slot)
        conn.send(self._init_frame)
        if slot.task is not None:
            meta = self._tasks[slot.task]
            if meta.get("dispatch_time") is None:
                self._dispatch(slot, meta)

    def _dispatch(self, slot: _Slot, meta: dict) -> None:
        # The evaluation starts running here, not at submit: a task queued
        # in a spawning slot must not count the spawn as evaluation time.
        meta["dispatch_time"] = meta["started"] = self.now
        slot.conn.send(
            {
                "type": "task",
                "index": meta["index"],
                "x": [float(v) for v in meta["x"]],
            }
        )

    # ----------------------------------------------------------- event loop
    def _service(self, timeout: float) -> None:
        """One supervision step: spawns due, socket events, liveness checks."""
        now = self.now
        for slot in self._slots:
            if slot.state == "spawning" and slot.proc is None and now >= slot.respawn_at:
                self._spawn(slot)
        try:
            events = self._selector.select(max(timeout, 0.0))
        except OSError:  # pragma: no cover - selector raced a close
            events = []
        for key, _mask in events:
            data = key.data
            if data == "accept":
                self._accept()
            elif data == "hello":
                self._read_hello(key.fileobj)
            else:
                self._read_worker(data)
        self._check_liveness()

    def _read_hello(self, conn: FramedConnection) -> None:
        try:
            frames = conn.receive_available()
        except (ConnectionClosed, ProtocolError, OSError):
            # ProtocolError covers a corrupt hello frame: an unidentifiable
            # worker is indistinguishable from a dead one.
            self._selector.unregister(conn)
            self._unidentified.pop(conn, None)
            conn.close()
            return
        for frame in frames:
            if frame.get("type") == "hello":
                self._identify(conn, frame)
                return

    def _read_worker(self, slot: _Slot) -> None:
        try:
            frames = slot.conn.receive_available()
        except ProtocolError as exc:
            # A corrupt frame leaves the stream unrecoverable: treat it as
            # that worker dying, not as a supervisor-crashing event.
            self._worker_failed(slot, f"sent a corrupt frame ({exc})")
            return
        except (ConnectionClosed, OSError):
            self._worker_failed(slot, "closed its connection")
            return
        for frame in frames:
            self._handle_frame(slot, frame)
        if slot.conn is not None and slot.conn.closed:
            self._worker_failed(slot, "closed its connection")

    def _handle_frame(self, slot: _Slot, frame: dict) -> None:
        slot.last_heartbeat = self.now
        kind = frame.get("type")
        if kind == "heartbeat":
            return
        if kind == "started":
            index = frame.get("index")
            meta = self._tasks.get(index)
            if meta is not None and meta.get("queue_wait") is None:
                meta["queue_wait"] = max(self.now - meta["queued_at"], 0.0)
                self._queue_waits.append(meta["queue_wait"])
            return
        if kind == "result":
            index = int(frame["index"])
            if index != slot.task or index not in self._tasks:
                return  # stale result of an already-expired task
            slot.respawns = 0  # a delivered result proves the worker healthy
            self._ready.append(
                (index, result_from_dict(frame["result"]),
                 int(frame.get("attempts", 1)))
            )
            return
        if kind == "error":
            self._last_worker_error = str(frame.get("message"))
            self._worker_failed(
                slot, f"reported a fatal error ({self._last_worker_error})"
            )

    def _check_liveness(self) -> None:
        now = self.now
        for conn, deadline in list(self._unidentified.items()):
            if now >= deadline:
                self._selector.unregister(conn)
                self._unidentified.pop(conn, None)
                conn.close()
        for slot in self._slots:
            if slot.state == "spawning" and slot.proc is not None:
                if slot.proc.poll() is not None:
                    self._worker_failed(
                        slot,
                        f"exited with code {slot.proc.returncode} before "
                        "its handshake",
                    )
                elif now >= slot.spawn_deadline:
                    self._worker_failed(slot, "missed its spawn deadline")
            elif slot.state == "ready":
                if now - slot.last_heartbeat > self.heartbeat_timeout:
                    self._n_heartbeat_expiries += 1
                    self._worker_failed(
                        slot,
                        f"went silent for {now - slot.last_heartbeat:.2f}s "
                        f"(heartbeat timeout {self.heartbeat_timeout:g}s)",
                    )
        for index, task in list(self._tasks.items()):
            failure = self._overdue(task, now)
            if failure is None:
                continue
            # Unlike a thread, a wedged process can be reclaimed: kill it.
            slot = self._slots[task["worker"]]
            if slot.task == index:
                if failure.status == STATUS_TIMEOUT:
                    self._n_timeout_kills += 1
                self._kill_slot(slot)
                self._schedule_respawn(slot)
            self._ready.append((index, failure, 1))
            task["deadline"] = task["lease"] = None  # fire once

    # ------------------------------------------------------------- operation
    def _start(self, task: dict) -> None:
        """Queue the task in its slot; dispatch it if the worker is connected."""
        task["queued_at"] = self.now
        task["dispatch_time"] = task["queue_wait"] = None
        slot = self._slots[task["worker"]]
        slot.task = task["index"]
        if slot.state == "ready":
            try:
                self._dispatch(slot, task)
            except (ConnectionClosed, OSError):
                self._worker_failed(slot, "died during task dispatch")

    def submit(self, x: np.ndarray, *, batch: int | None = None) -> int:
        """Dispatch ``x`` to a free worker slot; returns the index.

        Raises if every slot is busy — the driver must ``wait_next()``
        first.  A slot whose process is mid-respawn is still submittable:
        the task is queued in the slot and dispatched the moment the fresh
        worker completes its handshake (the delay shows up in the
        queue-wait telemetry, not as a protocol difference).
        """
        self._require_open()
        self._service(0.0)
        if not any(s.alive for s in self._slots):
            raise RuntimeError(self._all_dead_message())
        return super().submit(x, batch=batch)

    def wait_next(self) -> Completion:
        """Block until an in-flight evaluation finishes, dies, or times out.

        Never raises on evaluation failure: crashed workers, heartbeat
        expiries, and timeouts come back as completions whose ``result``
        carries the failure status, after the outcome has been traced and
        the slot freed.
        """
        self._require_open()
        if not self._tasks and not self._ready:
            raise RuntimeError("nothing is running")
        while True:
            completion = self._pop_ready()
            if completion is not None:
                return completion
            if not self._tasks:
                raise RuntimeError("nothing is running")
            if not any(s.alive for s in self._slots):
                raise RuntimeError(self._all_dead_message())
            self._service(min(self.poll_interval, self._next_deadline_in()))

    def _next_deadline_in(self) -> float:
        """Seconds until the earliest supervision deadline (capped at poll)."""
        now = self.now
        horizon = now + self.poll_interval
        for slot in self._slots:
            if slot.state == "spawning":
                horizon = min(horizon, slot.spawn_deadline
                              if slot.proc is not None else slot.respawn_at)
            elif slot.state == "ready":
                horizon = min(horizon, slot.last_heartbeat + self.heartbeat_timeout)
        due = self._next_due()
        if due is not None:
            horizon = min(horizon, due[0])
        return max(horizon - now, 0.0)

    def _all_dead_message(self) -> str:
        message = (
            f"all {self.n_workers} worker processes failed permanently "
            f"(respawn limit {self.respawn_limit} exceeded)"
        )
        if self._last_worker_error:
            message += f"; last worker error: {self._last_worker_error}"
        return message

    def _release(self, task: dict, finish_time: float) -> None:
        """Free the task's slot and charge its busy time."""
        slot = self._slots[task["worker"]]
        if slot.task == task["index"]:
            slot.task = None
        if task["dispatch_time"] is not None:
            slot.busy_seconds += max(finish_time - task["dispatch_time"], 0.0)
        slot.n_tasks += 1

    def poll(self) -> Completion | None:
        """Non-blocking :meth:`wait_next`: a ready completion or ``None``.

        Runs one zero-timeout supervision step (accepting handshakes,
        draining sockets, expiring deadlines) and resolves at most one
        finished task.  The campaign server calls this to interleave many
        independent pools from a single thread.
        """
        self._require_open()
        if not self._tasks and not self._ready:
            return None
        self._service(0.0)
        return self._pop_ready()

    def _pop_ready(self) -> Completion | None:
        """Resolve the first queued outcome whose task is still in flight."""
        while self._ready:
            index, result, attempts = self._ready.popleft()
            if index in self._tasks:
                return self._complete(index, result, attempts, self.now)
        return None

    def restore_task(self, index: int, worker: int, x: np.ndarray, *,
                     batch: int | None = None, issue_time: float | None = None) -> int:
        self._require_open()
        return super().restore_task(index, worker, x, batch=batch, issue_time=issue_time)

    # --------------------------------------------------------------- closing
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")

    def close(self) -> None:
        """Shut the fleet down and reap every child process (idempotent).

        Connected workers get a ``shutdown`` frame and a short grace
        period; anything still alive after it — including wedged or frozen
        processes — is killed and waited on, so no zombies survive the
        pool, also when closing on an exception path mid-run.
        """
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send({"type": "shutdown"})
                except (ConnectionClosed, OSError):
                    pass
        deadline = time.monotonic() + 1.0
        for proc in self._all_procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    self._selector.unregister(slot.conn)
                except (KeyError, ValueError):
                    pass
                slot.conn.close()
                slot.conn = None
        for conn in list(self._unidentified):
            try:
                self._selector.unregister(conn)
            except (KeyError, ValueError):
                pass
            conn.close()
        self._unidentified.clear()
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()
        self._finalizer.detach()
