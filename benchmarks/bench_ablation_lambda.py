"""Ablation — the lambda range of the EasyBO weight sampler (paper §III-B).

The paper fixes ``kappa ~ U[0, lambda]`` with lambda = 6 and argues a
"limited value" prevents over-exploration.  This bench sweeps lambda on the
op-amp problem at B = 5 and reports final-FOM statistics, exposing the
exploration/exploitation trade the constant encodes:

* lambda -> 0 collapses every draw to w ~ 0 (pure exploitation);
* large lambda pushes all mass to w ~ 1 (pure exploration).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.circuits import OpAmpProblem
from repro.core.easybo import make_algorithm
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table

LAMBDAS = (0.5, 2.0, 6.0, 20.0)


def run_sweep(repetitions: int = 2, max_evals: int = 60, seed: int = 0,
              verbose: bool = True):
    rows = []
    means = {}
    for lam in LAMBDAS:
        foms = []
        for rng in spawn_generators(seed, repetitions):
            driver = make_algorithm(
                "EasyBO-5",
                OpAmpProblem(),
                lam=lam,
                n_init=10,
                max_evals=max_evals,
                rng=rng,
                acq_candidates=256,
                acq_restarts=1,
            )
            foms.append(driver.run().best_fom)
        means[lam] = float(np.mean(foms))
        rows.append([f"lambda={lam:g}", f"{np.max(foms):.2f}",
                     f"{np.min(foms):.2f}", f"{np.mean(foms):.2f}"])
    text = format_table(
        ["Setting", "Best", "Worst", "Mean"], rows,
        title="Ablation: lambda in w = kappa/(kappa+1), kappa ~ U[0, lambda]",
    )
    if verbose:
        print("\n" + text)
    return means, text


def test_ablation_lambda(benchmark):
    means, text = benchmark.pedantic(
        lambda: run_sweep(verbose=False), rounds=1, iterations=1
    )
    print("\n" + text)
    # Every setting must produce a working optimizer (sanity floor), and the
    # paper's lambda=6 must be competitive with the best of the sweep.
    assert all(np.isfinite(v) and v > 0 for v in means.values())
    assert means[6.0] >= 0.6 * max(means.values())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--max-evals", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run_sweep(args.repetitions, args.max_evals, args.seed)
