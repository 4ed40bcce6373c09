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
  rebuild at n = 150 (the CI perf-smoke job fails otherwise);
* **disabled-observability overhead** — the ``NULL_OBS`` profiling hooks
  the surrogate session carries (one ``fit`` span + one ``hallucinate``
  span per event) must cost <= 5% of the cheapest measured per-event time,
  so observability is free when nobody asked for it.

A second, scaling-focused half of the bench covers the budgeted sparse
posterior (:mod:`repro.gp.sparse`): an n-sweep to 10k observations on a
synthetic surface timing the per-event cost (tell + hallucinate + predict)
of the exact and sparse paths, a regret-parity smoke on branin/hartmann6
paired seeds, and a long synthetic ask/tell campaign asserting bounded
per-ask latency under ``surrogate="auto"``.  ``--check`` runs those three
gates (the CI surrogate-scaling job fails when any trips):

* **sparse speedup** — the sparse per-event path must be >=
  ``MIN_SPARSE_SPEEDUP``x faster than the exact one at n = 2000;
* **regret parity** — on paired seeds, the sparse driver's mean final
  regret must stay within ``REGRET_PARITY_FACTOR``x of the exact driver's
  (plus a small absolute floor for the noise-dominated regime);
* **bounded ask latency** — a 5000-evaluation campaign's late-window ask
  latency must stay within ``MAX_LATE_ASK_GROWTH``x of its mid-window
  latency (an O(n^3) exact path blows this up by orders of magnitude).

Run standalone for larger scales or to export the timing JSON consumed by
CI::

    python benchmarks/bench_surrogate_update.py --scale reduced --json timings.json
    python benchmarks/bench_surrogate_update.py --check --evals 5000
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import numpy as np

from repro.circuits import ClassEProblem, OpAmpProblem, branin, hartmann6
from repro.core.campaign import make_campaign
from repro.core.doe import random_design
from repro.core.easybo import make_algorithm
from repro.core.surrogate import HallucinatedView, SurrogateSession
from repro.gp import (
    GaussianProcess,
    SparseGaussianProcess,
    SparseHallucinatedView,
    SquaredExponential,
)
from repro.sched.trace import SurrogateStats
from repro.utils.tables import format_table


@dataclasses.dataclass(frozen=True)
class Scale:
    name: str
    sizes: tuple  # dataset sizes n at which per-event cost is measured
    events: int  # timed events (add + refit + hallucinate) per measurement
    repetitions: int  # best-of repetitions per (problem, n, arm) cell
    problems: tuple  # dataset sources


SCALES = {
    "smoke": Scale("smoke", (150,), 30, 3, ("opamp",)),
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
    import time

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
    cheapest = min(cell[arm] for cell in timings["cells"] for arm in ARMS)
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
            for arm, timer in ARMS.items():
                cell[arm] = min(
                    timer(problem, X, y, n, scale.events)
                    for _ in range(scale.repetitions)
                )
            cell["speedup"] = cell["rebuild"] / cell["session"]
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
                    f"({cell['speedup']:.2f}x)"
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
        f"({N_PENDING} pending points hallucinated per event)",
    )
    return timings, table


def check_shape(timings: dict) -> None:
    """Assert the claims the CI perf-smoke job gates on."""
    at_150 = [c for c in timings["cells"] if c["n"] == 150]
    assert at_150, "bench must measure n=150 (the paper's full-run size)"
    for cell in at_150:
        assert cell["speedup"] >= MIN_SPEEDUP_AT_150, (
            f"session only {cell['speedup']:.2f}x faster than the rebuild "
            f"at n=150 on {cell['problem']} (required: {MIN_SPEEDUP_AT_150}x)"
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


# --------------------------------------------------------------------------
# Sparse-posterior scaling half (``--check``, the CI surrogate-scaling job)
# --------------------------------------------------------------------------

#: n-sweep of the sparse-vs-exact per-event comparison.  Exact cells are
#: only measured up to ``MAX_EXACT_SWEEP_N`` — an exact fit at n = 10k is
#: exactly the O(n^3) wall the sparse path exists to avoid.
SPARSE_SWEEP_SIZES = (500, 1000, 2000, 5000, 10_000)
MAX_EXACT_SWEEP_N = 2000

#: Synthetic-surface dimensionality and inducing budget for the sweep.
SWEEP_DIM = 8
SWEEP_N_INDUCING = 256

#: Timed events and acquisition-sized predict batch per event.
SWEEP_EVENTS = 20
SWEEP_PREDICT_BATCH = 64

#: CI gate: minimum sparse-over-exact per-event speedup at n = 2000.
MIN_SPARSE_SPEEDUP = 5.0

#: CI gate: the sparse per-event cost is O(m^2), independent of n — the
#: largest sweep cell may not exceed this multiple of the smallest.
MAX_SPARSE_EVENT_GROWTH = 10.0

#: CI gates for the paired-seed regret-parity smoke.
REGRET_PARITY_FACTOR = 2.0
REGRET_PARITY_EPS = 0.3
REGRET_SEEDS = (0, 1, 2)

#: CI gate for the long-campaign ask-latency check: median ask latency in
#: the final window may not exceed this multiple of the mid-run window.
#: An exact O(n^3) path at n = 5000 overshoots this by orders of magnitude;
#: the sparse path's per-ask cost is O(m^2) plus small O(n m) terms.
MAX_LATE_ASK_GROWTH = 5.0
LATENCY_EVALS = 5000


def synthetic_surface(X: np.ndarray) -> np.ndarray:
    """Cheap smooth multi-scale test surface on the unit cube."""
    y = np.sin(3.0 * X).sum(axis=1)
    y += 0.5 * np.cos(2.0 * np.pi * X[:, 0] * X[:, -1])
    y += 0.25 * (X**2).sum(axis=1)
    return y


def synthetic_dataset(n: int, rng, dim: int = SWEEP_DIM):
    X = rng.random((n, dim))
    y = synthetic_surface(X) + 1e-3 * rng.standard_normal(n)
    return X, y


def time_posterior_events(kind: str, X, y, n: int, events: int) -> float:
    """Mean per-event seconds of the raw posterior hot loop at fixed theta.

    One event = fold one new observation in (rank-1 tell), hallucinate
    ``N_PENDING`` pending points, and serve an acquisition-sized predict
    batch through the hallucinated view — the ask-path work a driver pays
    between ML-II refits.
    """
    kernel = SquaredExponential(X.shape[1], lengthscales=0.4)
    if kind == "exact":
        model = GaussianProcess(kernel=kernel, noise_variance=1e-4)
    else:
        model = SparseGaussianProcess(
            kernel=kernel, noise_variance=1e-4, n_inducing=SWEEP_N_INDUCING
        )
    model.fit(X[:n], y[:n])
    lo = n + events + N_PENDING
    Xq = X[lo : lo + SWEEP_PREDICT_BATCH]
    started = time.perf_counter()
    for i in range(events):
        model.update(X[n + i : n + i + 1], y[n + i : n + i + 1])
        pending = X[n + i + 1 : n + i + 1 + N_PENDING]
        if kind == "exact":
            view = HallucinatedView(model, pending)
        else:
            view = SparseHallucinatedView(model, pending)
        view.predict(Xq)
    return (time.perf_counter() - started) / events


def run_scaling_sweep(seed: int = 0, sizes=SPARSE_SWEEP_SIZES,
                      events: int = SWEEP_EVENTS, repetitions: int = 3,
                      verbose: bool = True) -> dict:
    """Time the exact and sparse per-event paths across the n-sweep."""
    rng = np.random.default_rng(seed)
    max_n = max(sizes)
    X, y = synthetic_dataset(
        max_n + events + N_PENDING + SWEEP_PREDICT_BATCH, rng
    )
    sweep = {"seed": seed, "n_inducing": SWEEP_N_INDUCING, "cells": []}
    for n in sizes:
        cell = {"n": n}
        cell["sparse"] = min(
            time_posterior_events("sparse", X, y, n, events)
            for _ in range(repetitions)
        )
        if n <= MAX_EXACT_SWEEP_N:
            cell["exact"] = min(
                time_posterior_events("exact", X, y, n, events)
                for _ in range(repetitions)
            )
            cell["speedup"] = cell["exact"] / cell["sparse"]
        else:
            cell["exact"] = None
            cell["speedup"] = None
        sweep["cells"].append(cell)
        if verbose:
            exact = (
                f"{1e6 * cell['exact']:9.0f}" if cell["exact"] is not None
                else "        —"
            )
            ratio = (
                f"({cell['speedup']:.1f}x)" if cell["speedup"] is not None
                else ""
            )
            print(
                f"  n={n:>6}  exact {exact} us/event  "
                f"sparse {1e6 * cell['sparse']:7.0f} us/event  {ratio}"
            )
    return sweep


def check_scaling(sweep: dict) -> None:
    """Gate the sparse speedup and the flat sparse per-event cost."""
    by_n = {c["n"]: c for c in sweep["cells"]}
    assert 2000 in by_n, "sweep must measure n=2000 (the speedup gate point)"
    cell = by_n[2000]
    assert cell["speedup"] >= MIN_SPARSE_SPEEDUP, (
        f"sparse path only {cell['speedup']:.2f}x faster than exact at "
        f"n=2000 (required: {MIN_SPARSE_SPEEDUP}x)"
    )
    times = [c["sparse"] for c in sweep["cells"]]
    growth = max(times) / min(times)
    assert growth <= MAX_SPARSE_EVENT_GROWTH, (
        f"sparse per-event cost grew {growth:.1f}x across the n-sweep "
        f"(budget: {MAX_SPARSE_EVENT_GROWTH}x) — the O(m^2) claim is broken"
    )


def run_regret_parity(seeds=REGRET_SEEDS, verbose: bool = True) -> dict:
    """Paired-seed sparse-vs-exact final regret on branin / hartmann6.

    The sparse runs use inducing budgets below the evaluation count so the
    approximation is genuinely exercised; parity here means the budgeted
    posterior still drives the optimization to a comparable optimum, not
    that it is numerically identical.
    """
    cases = [
        ("branin", branin, dict(n_init=8, max_evals=36), 24),
        ("hartmann6", hartmann6, dict(n_init=10, max_evals=50), 32),
    ]
    parity = {"seeds": list(seeds), "problems": []}
    for name, factory, budget, n_inducing in cases:
        regrets = {"exact": [], "sparse": []}
        for seed in seeds:
            for kind in ("exact", "sparse"):
                problem = factory()
                driver = make_algorithm(
                    "EasyBO", problem, rng=seed, acq_candidates=128,
                    acq_restarts=1, surrogate=kind, n_inducing=n_inducing,
                    **budget,
                )
                result = driver.run()
                # Problems are maximized; regret is distance to the optimum.
                regrets[kind].append(
                    max(float(problem.optimum - result.best_fom), 0.0)
                )
        entry = {
            "problem": name,
            "exact": regrets["exact"],
            "sparse": regrets["sparse"],
            "mean_exact": float(np.mean(regrets["exact"])),
            "mean_sparse": float(np.mean(regrets["sparse"])),
        }
        parity["problems"].append(entry)
        if verbose:
            print(
                f"  {name:>9}: mean regret exact {entry['mean_exact']:.4f}  "
                f"sparse {entry['mean_sparse']:.4f} "
                f"(seeds {list(seeds)})"
            )
    return parity


def check_regret_parity(parity: dict) -> None:
    for entry in parity["problems"]:
        bound = REGRET_PARITY_FACTOR * entry["mean_exact"] + REGRET_PARITY_EPS
        assert entry["mean_sparse"] <= bound, (
            f"sparse mean regret {entry['mean_sparse']:.4f} on "
            f"{entry['problem']} exceeds {REGRET_PARITY_FACTOR}x the exact "
            f"mean {entry['mean_exact']:.4f} (+{REGRET_PARITY_EPS} floor)"
        )


def run_ask_latency(n_evals: int = LATENCY_EVALS, seed: int = 0,
                    verbose: bool = True) -> dict:
    """Long synthetic ask/tell campaign under ``surrogate="auto"``.

    The campaign crosses the auto threshold mid-run, so the late windows
    run on the sparse posterior; per-ask latency must stay bounded instead
    of growing O(n^2)-per-event / O(n^3)-per-refit the exact path would.
    ``refit_every=50`` matches how a real long campaign amortizes ML-II.
    """
    problem = hartmann6()
    campaign = make_campaign(
        "EasyBO", problem, rng=seed, n_init=32, max_evals=n_evals,
        surrogate="auto", max_exact_n=500, n_inducing=128, refit_every=50,
        acq_candidates=64, acq_restarts=1,
    )
    latencies = np.empty(n_evals)
    for i in range(n_evals):
        started = time.perf_counter()
        x = campaign.ask()
        latencies[i] = time.perf_counter() - started
        campaign.tell(x, problem.evaluate(x))
        if verbose and (i + 1) % 1000 == 0:
            print(
                f"  {i + 1}/{n_evals} evals, "
                f"ask p50 last 500: "
                f"{1e3 * float(np.median(latencies[max(0, i - 499) : i + 1])):.1f} ms"
            )
    campaign.finish()
    # Mid window: past the DoE and the first refits, before the auto
    # switch dominates; late window: the final stretch at full n.
    mid_lo, mid_hi = n_evals // 5, n_evals // 5 + max(n_evals // 10, 100)
    mid = float(np.median(latencies[mid_lo:mid_hi]))
    late = float(np.median(latencies[-max(n_evals // 10, 100):]))
    session = campaign.session
    return {
        "n_evals": n_evals,
        "mid_ask_seconds": mid,
        "late_ask_seconds": late,
        "growth": late / mid,
        "active_surrogate": session.active_surrogate,
        "n_mode_switches": session.stats.n_mode_switches,
        "best_fom": float(campaign.best()[1]),
    }


def check_ask_latency(latency: dict) -> None:
    assert latency["active_surrogate"] == "sparse", (
        "the long campaign must end on the sparse posterior "
        f"(got {latency['active_surrogate']!r})"
    )
    assert latency["n_mode_switches"] >= 1, "auto never switched modes"
    assert latency["growth"] <= MAX_LATE_ASK_GROWTH, (
        f"late-window ask latency grew {latency['growth']:.1f}x over the "
        f"mid-window ({1e3 * latency['mid_ask_seconds']:.1f} ms -> "
        f"{1e3 * latency['late_ask_seconds']:.1f} ms; budget: "
        f"{MAX_LATE_ASK_GROWTH}x) — per-ask cost is not bounded"
    )


def run_check(n_evals: int = LATENCY_EVALS, seed: int = 0,
              verbose: bool = True) -> dict:
    """The three ``--check`` gates; returns their raw measurements."""
    if verbose:
        print("sparse-vs-exact n-sweep (per event):")
    sweep = run_scaling_sweep(seed=seed, verbose=verbose)
    check_scaling(sweep)
    if verbose:
        print("regret parity (paired seeds):")
    parity = run_regret_parity(verbose=verbose)
    check_regret_parity(parity)
    if verbose:
        print(f"ask-latency campaign ({n_evals} evals, surrogate='auto'):")
    latency = run_ask_latency(n_evals=n_evals, seed=seed, verbose=verbose)
    check_ask_latency(latency)
    if verbose:
        print(
            f"  ask p50 mid {1e3 * latency['mid_ask_seconds']:.1f} ms -> "
            f"late {1e3 * latency['late_ask_seconds']:.1f} ms "
            f"({latency['growth']:.2f}x, budget {MAX_LATE_ASK_GROWTH}x); "
            f"ended on {latency['active_surrogate']} after "
            f"{latency['n_mode_switches']} mode switch(es)"
        )
    return {"sweep": sweep, "regret_parity": parity, "ask_latency": latency}


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
    parser.add_argument("--check", action="store_true",
                        help="run the sparse-posterior scaling gates "
                        "(n-sweep speedup, regret parity, ask latency) "
                        "instead of the session-vs-rebuild grid")
    parser.add_argument("--evals", type=int, default=LATENCY_EVALS,
                        help="ask-latency campaign budget for --check "
                        f"(default: {LATENCY_EVALS})")
    args = parser.parse_args()
    if args.check:
        payload = run_check(n_evals=args.evals, seed=args.seed)
        print("all surrogate-scaling gates passed")
    else:
        payload, rendered = run_bench(args.scale, args.seed)
        print("\n" + rendered)
        check_shape(payload)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"timings written to {args.json}")
