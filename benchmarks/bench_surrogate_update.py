"""Surrogate update-path bench — the session's cached factor vs a rebuild.

Measures the claim of the surrogate session's update path: at frozen
hyperparameters (``refit_every`` large), folding one new observation into
the GP and hallucinating a batch of pending points costs O(n^2) with the
rank-k Cholesky append + factor-sharing view, versus O(n^3) for the
reference that rebuilds from scratch — ``GaussianProcess.fit`` and
``condition_on_pending`` at the same hyperparameters, the posterior
``tests/test_incremental_equivalence.py`` checks the session against.
Datasets are real op-amp FOMs (and class-E at larger scales) sampled by the
same random design the drivers use, at the paper's dataset sizes (n = 150
is one full op-amp run).

Two checks gate the result:

* **speedup** — the session must be >= 2x faster per event than the
  rebuild at n = 150 (the CI perf-smoke job fails otherwise).  The two
  arms alternate over the repetitions of a cell, each repetition gives one
  rebuild/session ratio, and the gate reads the median ratio, so a slow
  moment of the machine lands on both arms of one ratio and moves the
  median by at most one rank;
* **disabled-observability overhead** — the ``NULL_OBS`` profiling hooks
  the surrogate session carries (one ``fit`` span + one ``hallucinate``
  span per event) must cost <= 5% of the cheapest measured per-event time,
  so observability is free when nobody asked for it.

Run standalone for larger scales or to export the timing JSON consumed by
CI::

    python benchmarks/bench_surrogate_update.py --scale reduced --json timings.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import numpy as np

from repro.circuits import ClassEProblem, OpAmpProblem
from repro.core.doe import random_design
from repro.core.surrogate import SurrogateSession
from repro.sched.trace import SurrogateStats
from repro.utils.tables import format_table


@dataclasses.dataclass(frozen=True)
class Scale:
    name: str
    sizes: tuple  # dataset sizes n at which per-event cost is measured
    events: int  # timed events (add + refit + hallucinate) per measurement
    repetitions: int  # alternating rebuild/session pairs per (problem, n) cell
    problems: tuple  # dataset sources


SCALES = {
    "smoke": Scale("smoke", (150,), 30, 9, ("opamp",)),
    "reduced": Scale("reduced", (150, 300), 40, 3, ("opamp", "classe")),
    "paper": Scale("paper", (150, 300, 600), 50, 5, ("opamp", "classe")),
}

#: Pending points hallucinated per event (the paper's B-1 at B=5).
N_PENDING = 4

#: CI gate: minimum per-event speedup of the session over the rebuild at
#: n=150.
MIN_SPEEDUP_AT_150 = 2.0

#: CI gate: maximum fraction of the cheapest per-event time the disabled
#: observability hooks may cost (tracing off must be essentially free).
MAX_OBS_OVERHEAD_FRACTION = 0.05

#: Disabled profiling hooks fired per surrogate event (fit + hallucinate).
OBS_HOOKS_PER_EVENT = 2


def make_problem(name: str):
    if name == "opamp":
        return OpAmpProblem()
    if name == "classe":
        # Reduced transient fidelity: the bench times linear algebra, not
        # the simulator; the FOM landscape just has to be the real one.
        return ClassEProblem(settle_periods=10, measure_periods=2,
                            steps_per_period=48)
    raise ValueError(f"unknown bench problem {name!r}")


def build_dataset(problem, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a random design: the same data a real run would collect."""
    X = random_design(problem.bounds, n, rng)
    y = np.asarray([problem.evaluate(x).fom for x in X])
    # Failed corners produce NaN FOMs on some problems; the session rejects
    # them (as the drivers' failure policies would), so impute the minimum.
    bad = ~np.isfinite(y)
    if bad.any():
        y[bad] = np.nanmin(y[~bad]) if (~bad).any() else 0.0
    return X, y


def time_session(problem, X, y, n: int, events: int) -> float:
    """Mean per-event seconds of the session (append + view) at frozen theta."""
    session = SurrogateSession(problem.bounds, rng=0, refit_every=10**9)
    session.add_batch(X[:n], y[:n])
    session.refit()  # the one ML-II fit; the timed window starts after it
    session.stats = SurrogateStats()  # count and time only the event loop
    for i in range(events):
        session.add(X[n + i], y[n + i])
        session.refit()
        session.model_with_pending(X[n + i + 1 : n + i + 1 + N_PENDING])
    stats = session.stats
    assert stats.n_refits == events and stats.n_fallbacks == 0
    assert stats.n_incremental_updates == events
    assert stats.n_hallucinated_views == events
    return stats.mean_event_seconds


def time_rebuild(problem, X, y, n: int, events: int) -> float:
    """Mean per-event seconds of the rebuild reference at frozen theta.

    The same event as :func:`time_session` — standardize, refit, hallucinate
    — with ``GaussianProcess.fit`` and ``condition_on_pending`` at the
    hyperparameters of the session's one ML-II fit.
    """
    session = SurrogateSession(problem.bounds, rng=0)
    session.add_batch(X[:n], y[:n])
    model = session.refit()
    transform, output = session.transform, session.output
    elapsed = 0.0
    for i in range(events):
        started = time.perf_counter()
        U = transform.to_unit(X[: n + i + 1])
        model.fit(U, output.fit_transform(y[: n + i + 1]))
        model.condition_on_pending(
            transform.to_unit(X[n + i + 1 : n + i + 1 + N_PENDING])
        )
        elapsed += time.perf_counter() - started
    return elapsed / events


#: The two timed arms of every cell.
ARMS = {"rebuild": time_rebuild, "session": time_session}


def measure_obs_overhead(timings: dict) -> dict:
    """Cost of the disabled observability hooks, relative to a real event.

    The surrogate session enters one ``NULL_OBS.profile`` span for the refit
    and one for the hallucination of every event; both are shared-singleton
    no-ops.  Timing the hook pair directly (best of several tight loops) and
    dividing by the cheapest measured per-event cost in the grid gives the
    worst-case fractional overhead of leaving the hooks compiled in.
    """
    from repro.obs import NULL_OBS

    loops = 50_000
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            with NULL_OBS.profile("fit", n=0):
                pass
            with NULL_OBS.profile("hallucinate", k=0):
                pass
        best = min(best, (time.perf_counter() - start) / loops)
    cheapest = min(cell["cheapest"] for cell in timings["cells"])
    return {
        "hooks_per_event": OBS_HOOKS_PER_EVENT,
        "hook_pair_seconds": best,
        "cheapest_event_seconds": cheapest,
        "fraction_of_event": best / cheapest,
    }


def run_bench(scale_name: str = "smoke", seed: int = 0, verbose: bool = True):
    """Run the timing grid; returns (timings dict, rendered table)."""
    scale = SCALES[scale_name]
    max_n = max(scale.sizes)
    timings = {"scale": scale.name, "seed": seed, "cells": []}
    rows = []
    for problem_name in scale.problems:
        problem = make_problem(problem_name)
        rng = np.random.default_rng(seed)
        X, y = build_dataset(problem, max_n + scale.events + N_PENDING, rng)
        if verbose:
            print(f"{problem_name}: dataset of {len(y)} evaluations ready")
        for n in scale.sizes:
            cell = {"problem": problem_name, "n": n}
            times = {arm: [] for arm in ARMS}
            for rep in range(scale.repetitions):
                # Alternate which arm runs first, so neither always runs on
                # the warmer (or the more disturbed) side of a pair.
                order = list(ARMS) if rep % 2 == 0 else list(ARMS)[::-1]
                for arm in order:
                    times[arm].append(ARMS[arm](problem, X, y, n, scale.events))
            cell["ratios"] = [r / s for r, s in zip(times["rebuild"], times["session"])]
            cell["speedup"] = float(np.median(cell["ratios"]))
            for arm in ARMS:
                cell[arm] = float(np.median(times[arm]))
            cell["cheapest"] = min(min(t) for t in times.values())
            timings["cells"].append(cell)
            rows.append([
                problem_name,
                str(n),
                f"{1e6 * cell['rebuild']:.0f}",
                f"{1e6 * cell['session']:.0f}",
                f"{cell['speedup']:.2f}x",
            ])
            if verbose:
                print(
                    f"  n={n:>4}  rebuild {1e6 * cell['rebuild']:7.0f} us/event  "
                    f"session {1e6 * cell['session']:7.0f} us/event  "
                    f"(median ratio {cell['speedup']:.2f}x; per repetition "
                    + " ".join(f"{r:.2f}" for r in cell["ratios"]) + ")"
                )
    timings["obs_overhead"] = measure_obs_overhead(timings)
    if verbose:
        overhead = timings["obs_overhead"]
        print(
            f"disabled-observability overhead: "
            f"{1e9 * overhead['hook_pair_seconds']:.0f} ns/event "
            f"({100 * overhead['fraction_of_event']:.3f}% of the cheapest "
            "measured event)"
        )
    table = format_table(
        ["Problem", "n", "Rebuild (us/event)", "Session (us/event)", "Speedup"],
        rows,
        title="Surrogate per-event cost at frozen hyperparameters "
        f"({N_PENDING} pending points hallucinated per event; medians over "
        f"{scale.repetitions} alternating repetitions, speedup the median "
        "per-repetition ratio)",
    )
    return timings, table


def check_shape(timings: dict) -> None:
    """Assert the claims the CI perf-smoke job gates on."""
    at_150 = [c for c in timings["cells"] if c["n"] == 150]
    assert at_150, "bench must measure n=150 (the paper's full-run size)"
    for cell in at_150:
        assert cell["speedup"] >= MIN_SPEEDUP_AT_150, (
            f"session only {cell['speedup']:.2f}x faster than the rebuild "
            f"at n=150 on {cell['problem']} (median of the per-repetition "
            f"ratios {[round(r, 2) for r in cell['ratios']]}; "
            f"required: {MIN_SPEEDUP_AT_150}x)"
        )
    # Larger systems must not erode the advantage (O(n^3) vs O(n^2)).
    for cell in timings["cells"]:
        if cell["n"] > 150:
            assert cell["speedup"] >= MIN_SPEEDUP_AT_150
    overhead = timings["obs_overhead"]
    assert overhead["fraction_of_event"] <= MAX_OBS_OVERHEAD_FRACTION, (
        f"disabled observability hooks cost "
        f"{100 * overhead['fraction_of_event']:.2f}% of a surrogate event "
        f"(budget: {100 * MAX_OBS_OVERHEAD_FRACTION:.0f}%)"
    )


def test_surrogate_update_smoke(benchmark):
    timings, rendered = benchmark.pedantic(
        lambda: run_bench("smoke", seed=0, verbose=False),
        rounds=1,
        iterations=1,
    )
    print("\n" + rendered)
    check_shape(timings)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=str, default=None,
                        help="write the timing cells to this JSON file")
    args = parser.parse_args()
    payload, rendered = run_bench(args.scale, args.seed)
    print("\n" + rendered)
    check_shape(payload)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"timings written to {args.json}")
