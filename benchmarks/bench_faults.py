"""Fault-tolerance bench — EasyBO-5 on the op-amp under injected failures.

Measures what the failure layer costs and buys: the same seeded EasyBO-5
runs on the op-amp testbench with 0%, 10%, and 25% of evaluations failing
(two thirds simulator crashes, one third NaN outputs), under each driver
policy — pessimistic imputation, drop-and-re-propose, and retry-with-backoff
on top of imputation.  Every configuration must spend its full evaluation
budget with no exception escaping the driver; the table reports how much
final FOM the faults cost and how much simulated time retries burn.

Run standalone for larger scales::

    python benchmarks/bench_faults.py --scale reduced --seed 0

Under pytest-benchmark the smoke scale runs once and the table is printed
into the bench log; the assertions check the survival claims (budget always
exhausted, failures visible in the counters, fault-free FOM unharmed).
"""

from __future__ import annotations

import argparse
import dataclasses

import numpy as np

from repro.circuits import OpAmpProblem
from repro.core.easybo import make_algorithm
from repro.core.faults import FailurePolicy, FaultInjectionProblem
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_duration, format_table


@dataclasses.dataclass(frozen=True)
class Scale:
    name: str
    repetitions: int
    n_init: int
    max_evals: int
    acq_candidates: int
    acq_restarts: int


SCALES = {
    "smoke": Scale("smoke", 2, 10, 40, 256, 1),
    "reduced": Scale("reduced", 4, 20, 75, 512, 1),
    "paper": Scale("paper", 10, 20, 150, 2048, 4),
}

#: Driver-side policies compared at each fault rate.
POLICIES = {
    "impute": FailurePolicy(on_failure="impute"),
    "drop": FailurePolicy(on_failure="drop"),
    "retry2+impute": FailurePolicy(
        max_retries=2, retry_backoff=5.0, on_failure="impute"
    ),
}

FAULT_RATES = (0.0, 0.10, 0.25)
BATCH_SIZE = 5


def run_cell(rate: float, policy: FailurePolicy, scale: Scale, seed) -> list:
    """All repetitions of one (fault rate, policy) cell; returns RunResults."""
    results = []
    for rng in spawn_generators(seed, scale.repetitions):
        fault_rng, run_rng = spawn_generators(rng, 2)
        problem = FaultInjectionProblem(
            OpAmpProblem(),
            crash_rate=2 * rate / 3,
            nan_rate=rate / 3,
            rng=fault_rng,
        )
        driver = make_algorithm(
            f"EasyBO-{BATCH_SIZE}",
            problem,
            n_init=scale.n_init,
            max_evals=scale.max_evals,
            rng=run_rng,
            acq_candidates=scale.acq_candidates,
            acq_restarts=scale.acq_restarts,
            failure_policy=policy,
        )
        result = driver.run()
        assert result.n_evaluations == scale.max_evals, (
            f"run stopped early under rate={rate}, policy={policy.on_failure}"
        )
        results.append(result)
    return results


def run_bench(scale_name: str = "smoke", seed: int = 0, verbose: bool = True):
    """Run the fault grid; returns (grid, rendered table)."""
    scale = SCALES[scale_name]
    cells = [(rate, name) for rate in FAULT_RATES for name in POLICIES
             if rate > 0 or name == "impute"]  # policies only differ under faults
    if verbose:
        print(
            f"Fault grid at scale {scale.name!r}: {len(cells)} cells x "
            f"{scale.repetitions} repetitions, EasyBO-{BATCH_SIZE}, "
            f"{scale.max_evals} sims each"
        )
    grid = {}
    rows = []
    for i, (rate, name) in enumerate(cells):
        results = run_cell(rate, POLICIES[name], scale, seed + 1000 * i)
        grid[(rate, name)] = results
        foms = [r.best_fom for r in results]
        rows.append([
            f"{100 * rate:.0f}%",
            name,
            f"{np.mean(foms):.2f}",
            f"{np.std(foms):.2f}",
            f"{np.mean([r.n_failures for r in results]):.1f}",
            f"{np.mean([r.n_retries for r in results]):.1f}",
            format_duration(float(np.mean([r.wall_clock for r in results]))),
        ])
        if verbose:
            print(f"  rate {100 * rate:>3.0f}%  {name:<14} mean FOM {np.mean(foms):8.2f}")
    table = format_table(
        ["Faults", "Policy", "Mean FOM", "Std", "Failures", "Retries", "Time"],
        rows,
        title=f"EasyBO-{BATCH_SIZE} on op-amp under injected failures",
    )
    return grid, table


def check_shape(grid) -> None:
    """Assert the fault layer's survival claims on the completed grid."""
    for (rate, name), results in grid.items():
        max_evals = results[0].n_evaluations
        assert all(r.n_evaluations == max_evals for r in results)
        total_failures = sum(r.n_failures for r in results)
        total_faults = total_failures + sum(r.n_retries for r in results)
        if rate == 0.0:
            assert total_faults == 0
        else:
            # Retrying policies may recover every fault (n_failures == 0);
            # the encounters still show up as retries.
            assert total_faults > 0, f"no faults encountered at rate {rate}"
    retried = grid.get((0.25, "retry2+impute"))
    if retried:
        assert sum(r.n_retries for r in retried) > 0


def test_faults_smoke(benchmark):
    grid, rendered = benchmark.pedantic(
        lambda: run_bench("smoke", seed=0, verbose=False),
        rounds=1,
        iterations=1,
    )
    print("\n" + rendered)
    check_shape(grid)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="reduced")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    grid, rendered = run_bench(args.scale, args.seed)
    print("\n" + rendered)
    check_shape(grid)
