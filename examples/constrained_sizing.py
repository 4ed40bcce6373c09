"""Spec-driven sizing: maximize bandwidth subject to hard specifications.

The paper formulates sizing as a weighted sum (Eq. 10) and defers constrained
optimization to future work; this repository implements that extension.  Here
the two-stage op-amp is sized as an industrial spec sheet would ask:

    maximize  UGF
    s.t.      GAIN >= 60 dB,  PM >= 60 deg

using the ``cEasyBO-<B>`` label — EasyBO's asynchronous loop with one GP per
constraint and a probability-of-feasibility weighted acquisition.

Run::

    python examples/constrained_sizing.py [--budget 80] [--batch 5]
"""

import argparse

from repro.circuits import ConstrainedOpAmpProblem
from repro.core.easybo import make_algorithm
from repro.spice import format_eng


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=80)
    parser.add_argument("--batch", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    problem = ConstrainedOpAmpProblem()
    print("Constrained op-amp sizing: maximize UGF s.t. "
          f"gain >= {problem.GAIN_SPEC_DB:.0f} dB, "
          f"PM >= {problem.PM_SPEC_DEG:.0f} deg\n")

    driver = make_algorithm(
        f"cEasyBO-{args.batch}",
        problem,
        n_init=20,
        max_evals=args.budget,
        rng=args.seed,
    )
    result = driver.run()
    best = driver.campaign.strategy.best_feasible(driver.campaign)

    if best is None:
        print("no feasible design found within the budget — raise --budget")
        return

    x_best, ugf = best
    check = problem.evaluate(x_best)
    values = problem.space.to_values(x_best)
    n_feasible = sum(1 for r in result.trace.records if r.feasible)

    print(f"feasible designs found : {n_feasible}/{result.n_evaluations}")
    print(f"best feasible UGF      : {ugf:.1f} MHz")
    print(f"  gain  {check.metrics['gain_db']:.1f} dB  "
          f"(slack {check.metrics['slack_gain']:+.1f})")
    print(f"  PM    {check.metrics['pm_deg']:.1f} deg "
          f"(slack {check.metrics['slack_pm']:+.1f})")
    print("\nBest sizing:")
    for name, value in values.items():
        unit = {"rz": "Ohm", "cc": "F"}.get(name, "m")
        print(f"  {name:<4} = {format_eng(value, unit)}")


if __name__ == "__main__":
    main()
