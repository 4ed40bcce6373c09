"""Process variation: corner and Monte-Carlo analysis of sized designs.

Sizing results are only useful if they survive process spread.  This module
models global process variation by perturbing the MOSFET model cards:

* **corners** — the classic FF/SS/FS/SF/TT grid, shifting threshold voltage
  and transconductance of NMOS/PMOS together (fast = lower vt0, higher kp);
* **Monte Carlo** — Gaussian perturbations of (vt0, kp) per run.

Both run the op-amp testbench of :mod:`repro.circuits.opamp` with shifted
model cards (its builder takes them as optional arguments), and a
:class:`RobustOpAmpProblem` is provided that scores a design by its
*worst-corner* FOM — turning EasyBO into a robust (minimax) sizing loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.opamp import (
    DEFAULT_COST,
    FAILURE_FOM,
    opamp_design_space,
    opamp_fom,
    simulate_opamp,
)
from repro.core.problem import EvaluationResult, Problem
from repro.sched.durations import CostModel
from repro.spice import (
    MosfetParams,
    SpiceError,
    logspace_frequencies,
    nmos_180,
    pmos_180,
)
from repro.utils.rng import as_generator

__all__ = [
    "ProcessShift",
    "CORNERS",
    "shift_params",
    "evaluate_opamp_at_corner",
    "RobustOpAmpProblem",
    "monte_carlo_foms",
]


@dataclasses.dataclass(frozen=True)
class ProcessShift:
    """Multiplicative/additive shifts applied to a model card.

    ``dvt`` is added to vt0 (volts); ``kp_scale`` multiplies kp.
    """

    name: str
    nmos_dvt: float
    nmos_kp_scale: float
    pmos_dvt: float
    pmos_kp_scale: float


#: The standard five-corner set (fast/slow per device polarity).
CORNERS = (
    ProcessShift("TT", 0.0, 1.0, 0.0, 1.0),
    ProcessShift("FF", -0.05, 1.12, -0.05, 1.12),
    ProcessShift("SS", +0.05, 0.88, +0.05, 0.88),
    ProcessShift("FS", -0.05, 1.12, +0.05, 0.88),
    ProcessShift("SF", +0.05, 0.88, -0.05, 1.12),
)


def shift_params(base: MosfetParams, dvt: float, kp_scale: float) -> MosfetParams:
    """A model card with shifted threshold and transconductance."""
    if kp_scale <= 0:
        raise ValueError("kp_scale must be positive")
    return dataclasses.replace(base, vt0=base.vt0 + dvt, kp=base.kp * kp_scale)


_FREQS = logspace_frequencies(10.0, 10e9, 12)


def evaluate_opamp_at_corner(
    values: dict[str, float], nmos: MosfetParams, pmos: MosfetParams
) -> tuple[float, dict[str, float]]:
    """Eq. 10 FOM of a sizing under the given model cards."""
    try:
        bode = simulate_opamp(values, _FREQS, nmos, pmos)
    except SpiceError:
        return FAILURE_FOM, {}
    fom, _, metrics = opamp_fom(bode)
    return fom, metrics


class RobustOpAmpProblem(Problem):
    """Worst-corner op-amp sizing: maximize ``min over corners FOM``.

    Each evaluation simulates every corner (its cost scales accordingly,
    matching how a corner sweep multiplies HSPICE time).
    """

    name = "opamp-robust"

    def __init__(self, corners=CORNERS, *, cost_model: CostModel | None = None):
        corners = tuple(corners)
        if not corners:
            raise ValueError("need at least one corner")
        self.corners = corners
        self.space = opamp_design_space()
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST

    @property
    def bounds(self) -> np.ndarray:
        return self.space.bounds

    def evaluate(self, x: np.ndarray) -> EvaluationResult:
        x = self.validate_point(x)
        cost = self.cost_model.duration(x) * len(self.corners)
        values = self.space.to_values(x)
        foms = {}
        for corner in self.corners:
            nmos = shift_params(nmos_180(), corner.nmos_dvt, corner.nmos_kp_scale)
            pmos = shift_params(pmos_180(), corner.pmos_dvt, corner.pmos_kp_scale)
            foms[corner.name], _ = evaluate_opamp_at_corner(values, nmos, pmos)
        worst_corner = min(foms, key=foms.get)
        worst = foms[worst_corner]
        metrics = {f"fom_{name}": fom for name, fom in foms.items()}
        metrics["worst_corner_fom"] = worst
        return EvaluationResult(
            fom=float(worst),
            metrics=metrics,
            cost=cost,
            feasible=worst > FAILURE_FOM,
        )


def monte_carlo_foms(
    values: dict[str, float],
    n_runs: int,
    *,
    sigma_vt: float = 0.02,
    sigma_kp: float = 0.05,
    rng=None,
) -> np.ndarray:
    """Monte-Carlo FOM distribution of one op-amp sizing.

    Draws global Gaussian shifts (vt0 additive, kp lognormal-ish via a
    multiplicative factor) independently for NMOS and PMOS per run.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    rng = as_generator(rng)
    foms = np.empty(n_runs)
    for k in range(n_runs):
        nmos = shift_params(
            nmos_180(),
            rng.normal(0.0, sigma_vt),
            float(np.exp(rng.normal(0.0, sigma_kp))),
        )
        pmos = shift_params(
            pmos_180(),
            rng.normal(0.0, sigma_vt),
            float(np.exp(rng.normal(0.0, sigma_kp))),
        )
        foms[k], _ = evaluate_opamp_at_corner(values, nmos, pmos)
    return foms
