"""Save and load experiment results as JSON.

The bench harness runs for hours at paper scale; persisting each
:class:`~repro.core.results.RunResult` (including the full execution trace)
lets tables and figures be re-rendered, compared across commits, and resumed
without recomputation.  The format is plain JSON — stable, diffable, and free
of pickle's versioning hazards.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.core.results import RunResult
from repro.sched.trace import EvalRecord, ExecutionTrace, PoolTelemetry, SurrogateStats

__all__ = ["run_to_dict", "run_from_dict", "save_runs", "load_runs"]

#: Version 2 added failure semantics: per-record status/error/attempts and
#: run-level failure counters.  Version-1 files (no failures recorded) load
#: with every record treated as a success.  Version 3 added the optional
#: ``surrogate_stats`` block (incremental-update instrumentation); older
#: files load with it absent.  Version 4 added the optional final
#: ``rng_state`` block (crash-safe runs); older files load with it ``None``.
#: Version 5 added the optional ``pool_telemetry`` block (evaluation-pool
#: operational counters); older files load with it ``None``.  Version 6
#: added the optional ``metrics`` block (the run's
#: :class:`~repro.obs.MetricsRegistry` snapshot); older files load with it
#: ``None``.  Version 7 added the optional ``pending_policy`` field (which
#: asynchronous pending-point policy the run used, see
#: :mod:`repro.core.pending`); older files load with it ``None``.  Version 8
#: added the optional ``surrogate`` field (the posterior configuration,
#: ``"exact"``, ``"sparse"`` or ``"auto"``) and the ``n_mode_switches``
#: surrogate-stats counter.  The sparse posterior is gone and the writer no
#: longer emits either; files that carry them still load, without them.
_FORMAT_VERSION = 8
_READABLE_VERSIONS = frozenset({1, 2, 3, 4, 5, 6, 7, 8})


def _check_version(version, what: str) -> None:
    """Reject unreadable format versions with an actionable message.

    A file from a *newer* release is the common real-world case (results
    shared between machines on different versions), so it gets its own
    wording: the data is fine, this installation is just too old to read it.
    """
    if version in _READABLE_VERSIONS:
        return
    if isinstance(version, int) and version > _FORMAT_VERSION:
        raise ValueError(
            f"{what} format v{version} is newer than supported "
            f"v{_FORMAT_VERSION}; upgrade this installation to read it"
        )
    raise ValueError(f"unsupported {what} format version {version!r}")


def run_to_dict(run: RunResult) -> dict:
    """JSON-serializable representation of one run."""
    return {
        "version": _FORMAT_VERSION,
        "algorithm": run.algorithm,
        "problem": run.problem,
        "best_x": run.best_x.tolist(),
        "best_fom": run.best_fom,
        "n_evaluations": run.n_evaluations,
        "wall_clock": run.wall_clock,
        "n_failures": run.n_failures,
        "n_retries": run.n_retries,
        "surrogate_stats": (
            None if run.surrogate_stats is None else run.surrogate_stats.as_dict()
        ),
        "rng_state": run.rng_state,
        "pool_telemetry": (
            None if run.pool_telemetry is None else run.pool_telemetry.as_dict()
        ),
        "metrics": run.metrics,
        "pending_policy": run.pending_policy,
        "n_workers": run.trace.n_workers,
        "records": [r.as_dict() for r in run.trace.records],
    }


def run_from_dict(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`run_to_dict` output."""
    _check_version(data.get("version"), "run")
    trace = ExecutionTrace(int(data["n_workers"]))
    for r in data["records"]:
        trace.add(EvalRecord.from_dict(r))
    stats_data = data.get("surrogate_stats")
    stats = None if stats_data is None else SurrogateStats.from_dict(stats_data)
    tele_data = data.get("pool_telemetry")
    telemetry = None if tele_data is None else PoolTelemetry.from_dict(tele_data)
    return RunResult(
        algorithm=str(data["algorithm"]),
        problem=str(data["problem"]),
        trace=trace,
        best_x=np.asarray(data["best_x"], dtype=float),
        best_fom=float(data["best_fom"]),
        n_evaluations=int(data["n_evaluations"]),
        wall_clock=float(data["wall_clock"]),
        n_failures=int(data.get("n_failures", 0)),
        n_retries=int(data.get("n_retries", 0)),
        surrogate_stats=stats,
        rng_state=data.get("rng_state"),
        pool_telemetry=telemetry,
        metrics=data.get("metrics"),
        pending_policy=data.get("pending_policy"),
    )


def save_runs(path, grid: dict[str, list[RunResult]]) -> None:
    """Write a label -> repetitions grid to a JSON file.

    The write is atomic: the payload lands in a same-directory temp file
    that is fsync'd and then :func:`os.replace`-d over the target, so a
    crash mid-save leaves either the previous grid or the new one — never
    a truncated file that :func:`load_runs` would choke on.
    """
    payload = {
        "version": _FORMAT_VERSION,
        "grid": {
            label: [run_to_dict(run) for run in runs] for label, runs in grid.items()
        },
    }
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_runs(path) -> dict[str, list[RunResult]]:
    """Read back a grid written by :func:`save_runs`."""
    payload = json.loads(pathlib.Path(path).read_text())
    _check_version(payload.get("version"), "grid")
    return {
        label: [run_from_dict(d) for d in runs]
        for label, runs in payload["grid"].items()
    }
