"""Ablation — uniform weight grid versus EasyBO's randomized weights (§III-B).

pBO assigns batch members the uniform grid ``w_i = (i-1)/(B-1)``; the paper
argues the low-w slots produce near-duplicate queries once the posterior
uncertainty shrinks, and replaces the grid with random draws concentrated
near w = 1.  This bench runs both weighting rules inside the *same*
synchronous driver (no penalization, so the weights are the only difference)
and additionally measures duplicate-query rates.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.circuits import OpAmpProblem
from repro.core.easybo import make_algorithm
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table


def near_duplicate_rate(result, tol: float = 1e-3) -> float:
    """Fraction of same-batch pairs closer than ``tol`` (unit-cube scale)."""
    by_batch = {}
    for record in result.trace.records:
        if record.batch is not None:
            by_batch.setdefault(record.batch, []).append(record.x)
    pairs = 0
    dupes = 0
    for points in by_batch.values():
        points = np.asarray(points)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                pairs += 1
                if np.linalg.norm(points[i] - points[j]) < tol:
                    dupes += 1
    return dupes / pairs if pairs else 0.0


def run_ablation(repetitions: int = 2, max_evals: int = 60, seed: int = 0,
                 verbose: bool = True):
    common = dict(n_init=10, max_evals=max_evals, acq_candidates=256,
                  acq_restarts=1)
    makers = {
        "uniform grid (pBO)": lambda rng: make_algorithm(
            "pBO-10", OpAmpProblem(), rng=rng, **common
        ),
        "random w (EasyBO-S)": lambda rng: make_algorithm(
            "EasyBO-S-10", OpAmpProblem(), rng=rng, **common
        ),
    }
    rows = []
    stats = {}
    for name, make in makers.items():
        foms, dup_rates = [], []
        for rng in spawn_generators(seed, repetitions):
            result = make(rng).run()
            foms.append(result.best_fom)
            dup_rates.append(near_duplicate_rate(result))
        stats[name] = {"mean": float(np.mean(foms)), "dupes": float(np.mean(dup_rates))}
        rows.append([name, f"{np.max(foms):.2f}", f"{np.mean(foms):.2f}",
                     f"{100 * np.mean(dup_rates):.1f}%"])
    text = format_table(
        ["Weighting", "Best", "Mean", "DupPairs"], rows,
        title="Ablation: batch weighting rule at B=10 (op-amp)",
    )
    if verbose:
        print("\n" + text)
    return stats, text


def test_ablation_wdist(benchmark):
    stats, text = benchmark.pedantic(
        lambda: run_ablation(verbose=False), rounds=1, iterations=1
    )
    print("\n" + text)
    # The uniform grid's low-w slots collapse onto the posterior-mean argmax,
    # so it must show at least as many near-duplicate batch pairs.
    assert (
        stats["uniform grid (pBO)"]["dupes"]
        >= stats["random w (EasyBO-S)"]["dupes"] - 1e-9
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--max-evals", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run_ablation(args.repetitions, args.max_evals, args.seed)
