"""Ablation — penalization schemes at a fixed batch size (paper §III-C).

The paper argues its hallucination-based penalty beats both no penalization
(redundant batch members) and pHCBO's distance penalty (which also repels the
final exploitation cluster and hurts convergence).  This bench compares, at
B = 10 on the op-amp:

* ``none``          — EasyBO acquisition, no penalty (EasyBO-S);
* ``distance``      — EasyBO acquisition + pHCBO's Eq. 6 penalty;
* ``hallucination`` — the paper's scheme (EasyBO-SP).

It also reports the mean pairwise distance of batch members, the mechanism
the penalties act on.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.circuits import OpAmpProblem
from repro.core.acquisition import HighCoveragePenalty, WeightedAcquisition, sample_easybo_weight
from repro.core.campaign import SyncBatchStrategy
from repro.core.easybo import make_algorithm
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table


class _DistancePenalized(SyncBatchStrategy):
    """EasyBO's randomized-weight acquisition with pHCBO's distance penalty."""

    def __init__(self, dim, **kwargs):
        super().__init__("easybo-s", dim=dim, **kwargs)
        self._distance_penalty = HighCoveragePenalty(dim)

    def model_batch(self, core, n_points):
        model = core.session.refit()
        points = []
        for slot in range(n_points):
            w = sample_easybo_weight(core.rng, self.lam)
            base = WeightedAcquisition(w)

            def scorer(U, _base=base, _slot=slot):
                return _base(model, U) - self._distance_penalty(_slot, U)

            u_best = core.maximize_unit(scorer)
            self._distance_penalty.record(slot, u_best)
            points.append(core.session.to_physical(u_best.reshape(1, -1))[0])
        return points


def _distance_penalized(problem, **kwargs):
    """An EasyBO-S driver whose campaign selects with :class:`_DistancePenalized`."""
    driver = make_algorithm("EasyBO-S-10", problem, **kwargs)
    driver.campaign.strategy = _DistancePenalized(
        problem.dim, batch_size=driver.batch_size
    )
    driver.algorithm_name = f"EasyBO-HC-{driver.batch_size}"
    return driver


def batch_diversity(result) -> float:
    """Mean pairwise distance between same-batch points (unit-cube scale)."""
    by_batch = {}
    for record in result.trace.records:
        if record.batch is not None:
            by_batch.setdefault(record.batch, []).append(record.x)
    distances = []
    for points in by_batch.values():
        points = np.asarray(points)
        if len(points) < 2:
            continue
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                distances.append(float(np.linalg.norm(points[i] - points[j])))
    return float(np.mean(distances)) if distances else 0.0


def run_ablation(repetitions: int = 2, max_evals: int = 60, seed: int = 0,
                 verbose: bool = True):
    common = dict(n_init=10, max_evals=max_evals, acq_candidates=256,
                  acq_restarts=1)
    makers = {
        "none (EasyBO-S)": lambda rng: make_algorithm(
            "EasyBO-S-10", OpAmpProblem(), rng=rng, **common
        ),
        "distance (Eq.6)": lambda rng: _distance_penalized(
            OpAmpProblem(), rng=rng, **common
        ),
        "hallucination (EasyBO-SP)": lambda rng: make_algorithm(
            "EasyBO-SP-10", OpAmpProblem(), rng=rng, **common
        ),
    }
    rows = []
    means = {}
    for name, make in makers.items():
        foms, diversities = [], []
        for rng in spawn_generators(seed, repetitions):
            result = make(rng).run()
            foms.append(result.best_fom)
            diversities.append(batch_diversity(result))
        means[name] = float(np.mean(foms))
        rows.append([name, f"{np.max(foms):.2f}", f"{np.min(foms):.2f}",
                     f"{np.mean(foms):.2f}", f"{np.mean(diversities):.3f}"])
    text = format_table(
        ["Penalty", "Best", "Worst", "Mean", "BatchDist"], rows,
        title="Ablation: batch penalization scheme at B=10 (op-amp)",
    )
    if verbose:
        print("\n" + text)
    return means, text


def test_ablation_penalty(benchmark):
    means, text = benchmark.pedantic(
        lambda: run_ablation(verbose=False), rounds=1, iterations=1
    )
    print("\n" + text)
    assert all(np.isfinite(v) for v in means.values())
    # The paper's scheme must not lose to running with no penalty at all by
    # a wide margin (at smoke scale we allow noise, hence the slack factor).
    assert means["hallucination (EasyBO-SP)"] >= 0.5 * means["none (EasyBO-S)"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--max-evals", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run_ablation(args.repetitions, args.max_evals, args.seed)
