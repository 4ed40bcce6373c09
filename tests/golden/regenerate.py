"""Golden-trajectory fixtures: generation and shared scenario definitions.

Each fixture is one fully seeded optimizer run — algorithm label, problem,
budget, seed — serialized record-by-record (point, FOM, worker, issue/finish
times) as canonical JSON.  ``tests/test_golden_trajectories.py`` replays the
scenarios on the one surrogate path every run takes and compares
byte-for-byte; see ``tests/golden/README.md`` for what is guaranteed.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the updated ``tests/golden/*.json`` together with the change that
motivated them.  ``--only <scenario>`` restricts the refresh to one fixture
and ``--check`` verifies the committed files against a fresh replay without
writing anything.  Never regenerate to silence a failure you cannot explain
— a golden diff *is* the regression the harness exists to catch.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: scenario name -> (algorithm label, problem factory name, driver kwargs).
#: Budgets are tiny on purpose: goldens assert exact trajectories, not
#: optimizer quality, and must stay cheap enough for every tier-1 run.
SCENARIOS = {
    # Sequential LCB: no pending points, so no hallucinated view is built.
    "lcb-branin": ("LCB", "branin", dict(rng=1, n_init=5, max_evals=10)),
    # The paper's algorithm proper: asynchronous, penalized, B=3.
    "easybo-async-branin": ("EasyBO-3", "branin", dict(rng=7, n_init=5, max_evals=12)),
    # Synchronous pBO baseline on a different landscape.
    "pbo-sphere2": ("pBO-3", "sphere2", dict(rng=3, n_init=5, max_evals=11)),
    # The non-default pending-point policies (repro.core.pending), same seed
    # and landscape as easybo-async-branin so the trajectories are directly
    # comparable: local penalisation, pessimistic sampling, and standard
    # acquisition.  Adding them here automatically enrolls each policy in
    # the byte-for-byte replay and the kill/resume chaos sweeps.
    "easybo-lp-branin": ("EasyBO-LP-3", "branin", dict(rng=7, n_init=5, max_evals=12)),
    "easybo-pess-branin": ("EasyBO-PESS-3", "branin", dict(rng=7, n_init=5, max_evals=12)),
    "easybo-std-branin": ("EasyBO-A-3", "branin", dict(rng=7, n_init=5, max_evals=12)),
}

#: Acquisition settings shared by every scenario (small but deterministic).
COMMON_KWARGS = dict(acq_candidates=128, acq_restarts=1)


def make_problem(name: str):
    from repro.circuits import branin, sphere

    if name == "branin":
        return branin()
    if name == "sphere2":
        return sphere(2)
    raise ValueError(f"unknown golden problem {name!r}")


def run_scenario(name: str, *, refit_every: int = 1, **extra):
    """Replay one scenario; deterministic given the scenario's seed.

    ``extra`` driver kwargs (e.g. ``journal=``, ``checkpoint_every=``) let the
    crash-resume harness run the *same* scenarios with a write-ahead journal
    attached and compare against the same fixtures.
    """
    from repro.core.easybo import make_algorithm

    label, problem_name, kwargs = SCENARIOS[name]
    algorithm = make_algorithm(
        label,
        make_problem(problem_name),
        refit_every=refit_every,
        **COMMON_KWARGS,
        **kwargs,
        **extra,
    )
    return algorithm.run()


def trajectory_payload(name: str, result) -> dict:
    """JSON-serializable trajectory of one run.

    Floats are kept at full precision: ``json`` serializes via ``repr``,
    which round-trips ``float`` exactly, so equality on the parsed payload
    is equality on the underlying bits.
    """
    label, problem_name, kwargs = SCENARIOS[name]
    return {
        "scenario": name,
        "algorithm": result.algorithm,
        "problem": result.problem,
        "seed": kwargs["rng"],
        "n_evaluations": result.n_evaluations,
        "best_fom": result.best_fom,
        "records": [
            {
                "index": r.index,
                "worker": r.worker,
                "batch": r.batch,
                "x": [float(v) for v in r.x],
                "fom": r.fom,
                "issue_time": r.issue_time,
                "finish_time": r.finish_time,
                "status": r.status,
            }
            for r in result.trace.records
        ],
    }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", default=None, metavar="SCENARIO", choices=sorted(SCENARIOS),
        help="refresh/check a single scenario (e.g. easybo-async-branin)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify committed fixtures against a fresh replay; write nothing",
    )
    args = parser.parse_args(argv)
    names = SCENARIOS if args.only is None else (args.only,)
    drifted = []
    for name in names:
        result = run_scenario(name)
        path = golden_path(name)
        expected = canonical_json(trajectory_payload(name, result))
        if args.check:
            actual = path.read_text() if path.is_file() else None
            if actual != expected:
                drifted.append(path.name)
                print(f"DRIFT {path}")
            else:
                print(f"ok    {path}")
        else:
            path.write_text(expected)
            print(f"wrote {path} ({result.n_evaluations} records)")
    if drifted:
        print(f"{len(drifted)} fixture(s) drifted: {', '.join(drifted)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
