"""Run results and multi-repetition summaries.

The paper reports each algorithm as Best/Worst/Mean/Std of the final FOM over
20 repetitions plus the total simulation time; :func:`summarize_runs` computes
exactly those columns from a list of :class:`RunResult`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sched.trace import ExecutionTrace, PoolTelemetry, SurrogateStats
from repro.utils.tables import format_duration

__all__ = ["RunResult", "RunSummary", "summarize_runs"]


@dataclasses.dataclass
class RunResult:
    """Outcome of one optimization run.

    ``n_evaluations`` counts every issued evaluation, failed ones included
    (the budget they consumed is real); ``n_failures`` and ``n_retries``
    break out how many of those failed outright and how many extra attempts
    the retry policy spent.  ``surrogate_stats`` carries the surrogate's
    linear-algebra counters (factorizations, incremental updates, PD-loss
    fallbacks, per-event seconds); it is ``None`` for model-free algorithms.
    """

    algorithm: str
    problem: str
    trace: ExecutionTrace
    best_x: np.ndarray
    best_fom: float
    n_evaluations: int
    wall_clock: float  # simulated (or real) seconds spent on evaluation
    n_failures: int = 0
    n_retries: int = 0
    surrogate_stats: SurrogateStats | None = None
    #: Final ``np.random.Generator`` bit-generator state (JSON-safe dict, see
    #: :func:`repro.utils.rng.rng_state_to_dict`); lets a follow-up run
    #: continue this run's random stream exactly.  ``None`` for runs loaded
    #: from pre-v4 files and for drivers that do not record it.
    rng_state: dict | None = None
    #: Operational counters of the evaluation pool that ran this run —
    #: backend, per-worker utilization, queue waits, respawn/heartbeat/
    #: timeout counts (:class:`~repro.sched.trace.PoolTelemetry`).  ``None``
    #: for runs loaded from pre-v5 files.
    pool_telemetry: PoolTelemetry | None = None
    #: Final :class:`~repro.obs.MetricsRegistry` snapshot (counters / gauges
    #: / histograms as a plain dict, see ``MetricsRegistry.as_dict``).
    #: ``None`` when the run was not started with ``metrics=`` and for runs
    #: loaded from pre-v6 files.
    metrics: dict | None = None
    #: Pending-point policy the asynchronous driver ran under (a name from
    #: :data:`repro.core.pending.PENDING_POLICIES`, e.g. ``"hallucinate"``).
    #: ``None`` for non-async drivers and for runs loaded from pre-v7 files.
    pending_policy: str | None = None

    @property
    def best_curve(self):
        """Best-FOM-versus-time step curve from the trace."""
        return self.trace.best_fom_curve()

    def __post_init__(self):
        if self.n_evaluations < 0:
            raise ValueError("n_evaluations must be non-negative")
        if self.wall_clock < 0:
            raise ValueError("wall_clock must be non-negative")
        if self.n_failures < 0 or self.n_retries < 0:
            raise ValueError("failure counters must be non-negative")


@dataclasses.dataclass
class RunSummary:
    """The paper's table row: Best / Worst / Mean / Std / Time."""

    algorithm: str
    best: float
    worst: float
    mean: float
    std: float
    mean_time: float
    n_runs: int

    def as_row(self) -> list:
        """Row in the layout of Tables I/II."""
        return [
            self.algorithm,
            f"{self.best:.2f}",
            f"{self.worst:.2f}",
            f"{self.mean:.2f}",
            f"{self.std:.2f}",
            format_duration(self.mean_time),
        ]


def summarize_runs(results: list[RunResult]) -> RunSummary:
    """Aggregate repetitions of one algorithm into a table row.

    All results must come from the same algorithm; the time column is the
    mean evaluation wall-clock across repetitions (the paper averages its 20
    repeats the same way).
    """
    if not results:
        raise ValueError("need at least one run")
    algorithms = {r.algorithm for r in results}
    if len(algorithms) != 1:
        raise ValueError(f"mixed algorithms in summary: {sorted(algorithms)}")
    foms = np.asarray([r.best_fom for r in results])
    times = np.asarray([r.wall_clock for r in results])
    return RunSummary(
        algorithm=results[0].algorithm,
        best=float(foms.max()),
        worst=float(foms.min()),
        mean=float(foms.mean()),
        std=float(foms.std(ddof=1)) if len(foms) > 1 else 0.0,
        mean_time=float(times.mean()),
        n_runs=len(results),
    )
