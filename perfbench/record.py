"""Record the reference data the workloads draw their inputs from.

* ``classe_reference.json``: a fixed pool of class-E designs and the FOM of
  each, so every FOM a ``classe-sweep`` run computes can be checked.
* ``opamp_reference.json``: the bank of op-amp campaign RNG seeds that
  ``opamp-easybo5`` runs choose from, with each campaign's work per ask and
  best FOM.  An EasyBO-5 op-amp campaign's ask cost depends on its GP's
  trajectory: per-campaign median asks of unscreened seeds ranged from 20 to
  610 ms.  Most of an ask is the L-BFGS-B polish, so the bank keeps the
  candidate seeds whose single-row scorer calls per ask (an exact,
  machine-independent count) lie within ``BAND`` of the median candidate's,
  and runs on different seeds do comparable work.

Re-run only when a change is meant to alter results (it takes minutes)::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import pin_threads  # noqa: E402

pin_threads()

import numpy as np  # noqa: E402

from repro.circuits import ClassEProblem  # noqa: E402

from layers import Instruments  # noqa: E402
from workloads import ClassESweep, OpAmpEasyBO5, Outcome  # noqa: E402

CLASSE_POOL_SEED = 20200720
CLASSE_POOL_SIZE = 64
OPAMP_BANK_SEED = 20200721
OPAMP_CANDIDATES = 48
#: Kept campaigns' polish calls per ask lie within this share of the median's.
BAND = 0.1


def record_classe() -> None:
    problem = ClassEProblem()
    pool = ClassESweep.pool(problem, CLASSE_POOL_SEED, CLASSE_POOL_SIZE)
    foms, seconds = [], []
    for x in pool:
        t0 = time.perf_counter()
        foms.append(problem.evaluate(x).fom)
        seconds.append(round(time.perf_counter() - t0, 3))
    _write("classe_reference.json", {
        "pool_seed": CLASSE_POOL_SEED,
        "pool_size": CLASSE_POOL_SIZE,
        "rtol": 1e-6,
        "atol": 1e-9,
        "fom": foms,
        "eval_seconds": seconds,
    })


def record_opamp() -> None:
    workload = OpAmpEasyBO5()
    candidates = [int(s) for s in np.random.SeedSequence(OPAMP_BANK_SEED)
                  .generate_state(OPAMP_CANDIDATES)]
    screened = []
    for rng_seed in candidates:
        out, instruments = Outcome(), Instruments()
        with instruments.installed():
            instruments.start()
            problem, campaign = workload.campaign(rng_seed, instruments.obs)
            workload.drive(problem, campaign, out, instruments.span)
        screened.append({
            "seed": rng_seed,
            "polish_evals_per_ask": instruments.counts.values["acqmax.polish_evals"]
            / len(out.asks),
            "mean_ask_ms": round(1e3 * statistics.fmean(out.asks), 1),
            "best_fom": campaign.best()[1],
        })
        print(screened[-1], flush=True)
    middle = statistics.median(c["polish_evals_per_ask"] for c in screened)
    bank = [c for c in screened if abs(c["polish_evals_per_ask"] / middle - 1) <= BAND]
    _write("opamp_reference.json", {
        "bank_seed": OPAMP_BANK_SEED,
        "band": BAND,
        "median_polish_evals_per_ask": middle,
        "fom_floor": round(0.9 * min(c["best_fom"] for c in bank), 1),
        "bank": bank,
        "rejected": [c for c in screened if c not in bank],
    })


def _write(name: str, data: dict) -> None:
    (HERE / name).write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {name}")


if __name__ == "__main__":
    record_classe()
    record_opamp()
