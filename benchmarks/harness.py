"""Shared experiment harness for the Table/Figure benches.

Runs a grid of paper-labelled algorithms on a problem for several seeded
repetitions, producing the Best/Worst/Mean/Std/Time rows of Tables I/II and
the best-FOM-versus-time curves behind Figs. 4/6.

Scales
------
Every bench accepts a scale name:

* ``smoke``   — minutes on a laptop; used by the pytest-benchmark suite.
* ``reduced`` — the default standalone scale; half the paper's simulation
  counts, 5 repetitions.
* ``paper``   — the full protocol (20 repetitions, 150/450 simulations,
  20000/15000 DE evaluations).  Hours of compute.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.easybo import make_algorithm
from repro.core.results import RunResult, RunSummary, summarize_runs
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_duration, format_table

__all__ = ["Scale", "SCALES", "run_grid", "grid_table", "speedup_report", "time_to_target_report"]


@dataclasses.dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    repetitions: int
    n_init: int
    max_evals: int  # BO budget including the initial design
    de_evals: int
    batch_sizes: tuple[int, ...]
    acq_candidates: int
    acq_restarts: int


SCALES = {
    "table1": {
        "smoke": Scale("smoke", 2, 10, 60, 300, (5, 15), 256, 1),
        "reduced": Scale("reduced", 4, 20, 75, 1000, (5, 10, 15), 512, 1),
        "paper": Scale("paper", 20, 20, 150, 20000, (5, 10, 15), 2048, 4),
    },
    "table2": {
        "smoke": Scale("smoke", 2, 10, 40, 200, (5, 15), 256, 1),
        "reduced": Scale("reduced", 3, 20, 80, 500, (5, 10, 15), 512, 1),
        "paper": Scale("paper", 20, 20, 450, 15000, (5, 10, 15), 2048, 4),
    },
}

#: Sequential block of the paper's tables.
SEQUENTIAL_LABELS = ("DE", "LCB", "EI", "EasyBO")

#: Batch block families, instantiated per batch size.
BATCH_FAMILIES = ("pBO", "pHCBO", "EasyBO-S", "EasyBO-A", "EasyBO-SP", "EasyBO")


def grid_labels(scale: Scale, include_sequential: bool = True) -> list[str]:
    """The paper's row order: sequential block, then per-B batch blocks."""
    labels = list(SEQUENTIAL_LABELS) if include_sequential else []
    for b in scale.batch_sizes:
        labels.extend(f"{family}-{b}" for family in BATCH_FAMILIES)
    return labels


def run_label(
    label: str, problem_factory, scale: Scale, seed_rng
) -> list[RunResult]:
    """Run all repetitions of one algorithm label."""
    results = []
    for rng in spawn_generators(seed_rng, scale.repetitions):
        problem = problem_factory()
        if label.upper() == "DE":
            algo = make_algorithm(label, problem, max_evals=scale.de_evals, rng=rng)
        else:
            algo = make_algorithm(
                label,
                problem,
                n_init=scale.n_init,
                max_evals=scale.max_evals,
                rng=rng,
                acq_candidates=scale.acq_candidates,
                acq_restarts=scale.acq_restarts,
            )
        results.append(algo.run())
    return results


def run_grid(
    labels, problem_factory, scale: Scale, seed: int = 0, *, verbose: bool = True
) -> dict[str, list[RunResult]]:
    """Run every label; returns label -> repetition results."""
    grid: dict[str, list[RunResult]] = {}
    for i, label in enumerate(labels):
        grid[label] = run_label(label, problem_factory, scale, seed + 1000 * i)
        if verbose:
            s = summarize_runs(grid[label])
            print(
                f"  {label:<14} mean {s.mean:10.2f}  best {s.best:10.2f}  "
                f"time {format_duration(s.mean_time)}"
            )
    return grid


def grid_table(grid: dict[str, list[RunResult]], title: str) -> str:
    """Render the paper-style table for a completed grid."""
    rows = [summarize_runs(results).as_row() for results in grid.values()]
    return format_table(
        ["Algo", "Best", "Worst", "Mean", "Std", "Time"], rows, title=title
    )


def summaries(grid: dict[str, list[RunResult]]) -> dict[str, RunSummary]:
    return {label: summarize_runs(results) for label, results in grid.items()}


def speedup_report(grid: dict[str, list[RunResult]], batch_sizes) -> str:
    """Async-vs-sync time reduction at fixed simulation count (paper §IV).

    Compares EasyBO-B (async) against EasyBO-SP-B (its synchronous
    counterpart with the same acquisition and penalization).
    """
    lines = ["Async vs sync time reduction (same number of simulations):"]
    stats = summaries(grid)
    for b in batch_sizes:
        sync = stats.get(f"EasyBO-SP-{b}")
        async_ = stats.get(f"EasyBO-{b}")
        if sync is None or async_ is None:
            continue
        reduction = 100.0 * (1.0 - async_.mean_time / sync.mean_time)
        lines.append(
            f"  B={b:<3d} sync {format_duration(sync.mean_time):>10} -> "
            f"async {format_duration(async_.mean_time):>10}  ({reduction:+.1f}%)"
        )
    return "\n".join(lines)


def time_to_target_report(
    grid: dict[str, list[RunResult]],
    labels: tuple[str, ...],
    reference: str,
    quantile: float = 0.9,
) -> str:
    """Figs. 4/6 headline: time for each algorithm to reach a common target.

    The target is ``quantile`` of the way from the worst to the best final
    mean FOM among the compared algorithms' reference; per-algorithm time is
    the mean over repetitions of the first completion reaching it (runs that
    never reach it contribute their full makespan as a lower bound).
    """
    stats = summaries(grid)
    target = quantile * min(stats[label].mean for label in labels if label in stats)
    lines = [f"Time to reach FOM target {target:.2f}:"]
    ref_time = None
    for label in labels:
        runs = grid.get(label)
        if not runs:
            continue
        times = []
        for run in runs:
            t = run.trace.time_to_reach(target)
            times.append(t if np.isfinite(t) else run.wall_clock)
        mean_t = float(np.mean(times))
        if label == reference:
            ref_time = mean_t
        lines.append(f"  {label:<14} {format_duration(mean_t)}")
    if ref_time:
        for label in labels:
            if label == reference or label not in stats:
                continue
            runs = grid[label]
            times = [
                run.trace.time_to_reach(
                    quantile * min(stats[x].mean for x in labels if x in stats)
                )
                for run in runs
            ]
            times = [t if np.isfinite(t) else run.wall_clock for t, run in zip(times, runs)]
            other = float(np.mean(times))
            if other > 0:
                lines.append(
                    f"  {reference} saves {100 * (1 - ref_time / other):.1f}% of "
                    f"simulation time vs {label} "
                    f"({other / max(ref_time, 1e-9):.2f}x speed-up)"
                )
    return "\n".join(lines)
