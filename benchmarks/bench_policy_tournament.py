"""Pending-policy tournament bench — policies x circuits x batches x faults.

Thin harness over :mod:`repro.core.tournament`: runs the head-to-head of
the four pending-point policies (Eq. 9 hallucination, local penalisation,
pessimistic sampling, standard acquisition) with **paired seeds** — every
policy sees the identical driver seed and fault stream per cell — and
prints a ranked simple-regret table with paired comparisons against the
hallucination baseline.

======== ========= ========= ======== ============ ======= ==========
scale    policies  circuits  batches  fault rates  seeds   runs
======== ========= ========= ======== ============ ======= ==========
smoke    2         1         1        1            2       4
reduced  4         2         2        2            3       96
paper    4         3         3        3            10      1080
======== ========= ========= ======== ============ ======= ==========

The smoke scale is the CI gate: the full grid must run and a rerun cell
must reproduce bit-for-bit.  That the hallucinate policy is the Eq. 9
pipeline the goldens pin is checked by ``tests/test_golden_trajectories.py``
and ``tests/golden/regenerate.py --check``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_policy_tournament.py --smoke --check

Under pytest-benchmark the smoke scale runs once and asserts the gate.
"""

from __future__ import annotations

import argparse

from repro.core.tournament import (
    SCALES,
    check_tournament,
    render_report,
    run_tournament,
)


def run_bench(scale_name: str, *, verbose: bool = True):
    scale = SCALES[scale_name]
    results = run_tournament(scale)
    rendered = render_report(scale, results)
    if verbose:
        print("\n" + rendered)
    return scale, results, rendered


def test_policy_tournament_smoke(benchmark):
    scale, results, rendered = benchmark.pedantic(
        lambda: run_bench("smoke", verbose=False),
        rounds=1,
        iterations=1,
    )
    print("\n" + rendered)
    check_tournament(scale, results)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="reduced")
    parser.add_argument("--smoke", action="store_true",
                        help="shorthand for --scale smoke")
    parser.add_argument("--check", action="store_true",
                        help="assert grid completeness and reproducibility")
    args = parser.parse_args()
    scale, results, _ = run_bench("smoke" if args.smoke else args.scale)
    if args.check:
        check_tournament(scale, results)
        print("checks passed")
