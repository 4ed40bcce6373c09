"""Execution traces: what ran where, when, and how well.

Every scheduler (virtual or real) produces an :class:`ExecutionTrace`, from
which the benches derive all of the paper's wall-clock quantities: total
simulation time (Table I/II "Time" columns), best-FOM-versus-time curves
(Figs. 4 and 6), worker utilization, and Gantt rows (Fig. 1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["EvalRecord", "ExecutionTrace", "PoolTelemetry", "SurrogateStats"]


@dataclasses.dataclass
class SurrogateStats:
    """Counters for the surrogate's linear-algebra work during one run.

    ``n_full_fits`` counts ML-II hyperparameter fits (each is many internal
    factorizations inside L-BFGS); ``n_refactorizations`` counts from-scratch
    O(n^3) rebuilds at frozen hyperparameters (one per PD-loss fallback of a
    refit); ``n_incremental_updates`` counts rank-k factor appends;
    ``n_fallbacks`` counts automatic falls from a factor-sharing fast path
    (the append or the view) to its from-scratch rebuild; the hallucination
    counters split pending-point posteriors between the factored
    :class:`~repro.core.surrogate.HallucinatedView` and the rebuild-per-point
    fallback.  ``refit_seconds`` and ``hallucination_seconds`` hold
    per-event wall-clock seconds measured in this process: the journal
    carries only the counters, so after a resume the counters are run totals
    and the timing lists hold the resumed samples.
    """

    n_refits: int = 0
    n_full_fits: int = 0
    n_refactorizations: int = 0
    n_incremental_updates: int = 0
    n_fallbacks: int = 0
    n_hallucinated_views: int = 0
    n_hallucinated_rebuilds: int = 0
    refit_seconds: list = dataclasses.field(default_factory=list)
    hallucination_seconds: list = dataclasses.field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.refit_seconds) + sum(self.hallucination_seconds))

    @property
    def mean_event_seconds(self) -> float:
        """Mean surrogate cost per refit event (hallucination included)."""
        if not self.refit_seconds:
            return 0.0
        return self.total_seconds / len(self.refit_seconds)

    def as_dict(self) -> dict:
        """JSON-serializable representation (used by persistence v3)."""
        return dataclasses.asdict(self)

    def counters(self) -> dict:
        """The integer counters alone (what a journal snapshot carries)."""
        return {k: v for k, v in self.as_dict().items() if isinstance(v, int)}

    @classmethod
    def from_dict(cls, data: dict) -> "SurrogateStats":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclasses.dataclass
class PoolTelemetry:
    """Operational counters for one evaluation pool over one run.

    Every pool backend reports the same schema so runs on the virtual clock,
    the thread pool, and the process pool compare side by side:

    ``worker_busy_seconds`` / ``worker_tasks`` are per-worker (index =
    worker id); ``queue_wait_seconds`` holds one entry per dispatched task —
    the delay between ``submit()`` and the worker actually starting the
    evaluation (socket latency plus any wait for a respawning process);
    ``heartbeat_age_seconds`` is the per-worker time since the last
    heartbeat frame at snapshot time (empty for backends without
    heartbeats).  ``n_respawns`` / ``n_heartbeat_expiries`` /
    ``n_timeout_kills`` only move on the process backend, where a worker is
    a real OS process that can die, go silent, or wedge.
    """

    backend: str = "virtual"
    n_workers: int = 0
    n_tasks: int = 0
    n_respawns: int = 0
    n_heartbeat_expiries: int = 0
    n_timeout_kills: int = 0
    elapsed_seconds: float = 0.0
    worker_busy_seconds: list = dataclasses.field(default_factory=list)
    worker_tasks: list = dataclasses.field(default_factory=list)
    queue_wait_seconds: list = dataclasses.field(default_factory=list)
    heartbeat_age_seconds: list = dataclasses.field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Busy fraction of ``n_workers * elapsed_seconds`` (1.0 = no idle)."""
        if self.n_workers <= 0 or self.elapsed_seconds <= 0:
            return 1.0
        busy = float(sum(self.worker_busy_seconds))
        return busy / (self.n_workers * self.elapsed_seconds)

    @property
    def mean_queue_wait(self) -> float:
        if not self.queue_wait_seconds:
            return 0.0
        return float(sum(self.queue_wait_seconds)) / len(self.queue_wait_seconds)

    @property
    def max_heartbeat_age(self) -> float:
        if not self.heartbeat_age_seconds:
            return 0.0
        return float(max(self.heartbeat_age_seconds))

    def summary_line(self) -> str:
        """One-line operator view (printed by the ``summary`` CLI verb)."""
        parts = [
            f"{self.backend} pool, {self.n_workers} workers",
            f"{self.n_tasks} tasks",
            f"{self.utilization:.0%} utilization",
        ]
        if self.queue_wait_seconds:
            parts.append(f"mean queue wait {self.mean_queue_wait * 1e3:.1f} ms")
        if self.heartbeat_age_seconds:
            parts.append(f"max heartbeat age {self.max_heartbeat_age:.2f} s")
        if self.n_respawns:
            parts.append(f"{self.n_respawns} respawns")
        if self.n_heartbeat_expiries:
            parts.append(f"{self.n_heartbeat_expiries} heartbeat expiries")
        if self.n_timeout_kills:
            parts.append(f"{self.n_timeout_kills} timeout kills")
        return ", ".join(parts)

    def as_dict(self) -> dict:
        """JSON-serializable representation (used by persistence v5)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PoolTelemetry":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_trace(cls, trace: "ExecutionTrace", *, backend: str,
                   elapsed: float | None = None) -> "PoolTelemetry":
        """Derive the trace-computable subset (virtual/thread backends)."""
        busy = [0.0] * trace.n_workers
        tasks = [0] * trace.n_workers
        for record in trace.records:
            busy[record.worker] += max(record.duration, 0.0)
            tasks[record.worker] += 1
        return cls(
            backend=backend,
            n_workers=trace.n_workers,
            n_tasks=len(trace.records),
            elapsed_seconds=float(trace.makespan if elapsed is None else elapsed),
            worker_busy_seconds=busy,
            worker_tasks=tasks,
        )


@dataclasses.dataclass
class EvalRecord:
    """One completed evaluation (successful or failed).

    Failed evaluations (``status != "ok"``) carry a NaN ``fom``; every
    derived statistic that consumes FOMs filters them out, while time-based
    statistics (makespan, utilization, Gantt rows) keep them — the worker
    was genuinely occupied.
    """

    index: int
    worker: int
    x: np.ndarray
    fom: float
    issue_time: float
    finish_time: float
    feasible: bool = True
    batch: int | None = None
    status: str = "ok"
    error: str | None = None
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.finish_time - self.issue_time

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __post_init__(self):
        if self.finish_time < self.issue_time:
            raise ValueError(
                f"finish_time {self.finish_time} earlier than issue {self.issue_time}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def as_dict(self) -> dict:
        """JSON-serializable form shared by persistence and the run journal.

        A non-finite ``fom`` (failed evaluation) is stored as ``None`` since
        JSON has no NaN.
        """
        return {
            "index": int(self.index),
            "worker": int(self.worker),
            "x": [float(v) for v in np.asarray(self.x).ravel()],
            "fom": float(self.fom) if np.isfinite(self.fom) else None,
            "issue_time": float(self.issue_time),
            "finish_time": float(self.finish_time),
            "feasible": bool(self.feasible),
            "batch": None if self.batch is None else int(self.batch),
            "status": self.status,
            "error": self.error,
            "attempts": int(self.attempts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRecord":
        fom = data.get("fom")
        return cls(
            index=int(data["index"]),
            worker=int(data["worker"]),
            x=np.asarray(data["x"], dtype=float),
            fom=float("nan") if fom is None else float(fom),
            issue_time=float(data["issue_time"]),
            finish_time=float(data["finish_time"]),
            feasible=bool(data.get("feasible", True)),
            batch=data.get("batch"),
            status=data.get("status", "ok"),
            error=data.get("error"),
            attempts=int(data.get("attempts", 1)),
        )


class ExecutionTrace:
    """Ordered collection of :class:`EvalRecord` with derived statistics."""

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.records: list[EvalRecord] = []

    def add(self, record: EvalRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------- failures
    def successes(self) -> list[EvalRecord]:
        """Records of evaluations that produced a usable observation."""
        return [r for r in self.records if r.ok]

    def failure_records(self) -> list[EvalRecord]:
        """Records of failed evaluations (crashed / NaN / timed out)."""
        return [r for r in self.records if not r.ok]

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def n_retries(self) -> int:
        """Extra evaluation attempts beyond the first, across all records."""
        return sum(r.attempts - 1 for r in self.records)

    @property
    def n_orphaned(self) -> int:
        """Points abandoned because their worker died or its lease expired."""
        return sum(1 for r in self.records if r.status == "orphaned")

    @property
    def has_success(self) -> bool:
        return any(r.ok for r in self.records)

    @property
    def makespan(self) -> float:
        """Wall-clock span from first issue to last finish."""
        if not self.records:
            return 0.0
        start = min(r.issue_time for r in self.records)
        end = max(r.finish_time for r in self.records)
        return end - start

    @property
    def total_busy_time(self) -> float:
        """Sum of evaluation durations across all workers."""
        return float(sum(r.duration for r in self.records))

    def utilization(self) -> float:
        """Busy fraction of ``n_workers * makespan`` (1.0 = no idle time)."""
        span = self.makespan
        if span <= 0:
            return 1.0
        return self.total_busy_time / (self.n_workers * span)

    def best_fom_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Step curve of the best FOM seen versus completion time.

        Returns ``(times, best)`` sorted by completion time; ``best[i]`` is
        the running maximum after the evaluation finishing at ``times[i]``.
        This is the data behind the paper's Figs. 4 and 6.  Failed
        evaluations contribute no FOM and are excluded.
        """
        if not self.has_success:
            return np.empty(0), np.empty(0)
        order = sorted(self.successes(), key=lambda r: r.finish_time)
        times = np.asarray([r.finish_time for r in order])
        best = np.maximum.accumulate(np.asarray([r.fom for r in order]))
        return times, best

    def time_to_reach(self, target_fom: float) -> float:
        """Earliest completion time at which the best FOM reaches ``target``.

        Returns ``inf`` if the target is never reached — callers compare
        algorithms by this number, and infinity orders correctly.
        """
        times, best = self.best_fom_curve()
        hit = np.nonzero(best >= target_fom)[0]
        if len(hit) == 0:
            return float("inf")
        return float(times[hit[0]])

    def best_record(self) -> EvalRecord:
        if not self.records:
            raise ValueError("trace is empty")
        successes = self.successes()
        if not successes:
            raise ValueError("trace has no successful evaluations")
        return max(successes, key=lambda r: r.fom)

    def gantt_rows(self) -> list[list[tuple[float, float]]]:
        """Per-worker lists of (issue, finish) intervals (Fig. 1 data)."""
        rows: list[list[tuple[float, float]]] = [[] for _ in range(self.n_workers)]
        for record in sorted(self.records, key=lambda r: r.issue_time):
            rows[record.worker].append((record.issue_time, record.finish_time))
        return rows

    def as_dataset(self) -> tuple[np.ndarray, np.ndarray]:
        """Successful points and FOMs in completion order: ``(X, y)``."""
        if not self.has_success:
            raise ValueError("trace has no successful evaluations")
        order = sorted(self.successes(), key=lambda r: r.finish_time)
        X = np.vstack([r.x for r in order])
        y = np.asarray([r.fom for r in order])
        return X, y
