"""Constrained op-amp sizing: the spec-driven formulation (future work §II-A).

Industrial sizing is usually "maximize bandwidth subject to specs" rather
than a weighted sum.  This testbench reuses the two-stage Miller op-amp and
formulates:

    maximize  UGF (MHz)
    s.t.      GAIN >= 60 dB
              PM   >= 60 deg

for the ``cEasyBO-B`` label (:class:`repro.core.constrained.ConstrainedStrategy`;
``make_algorithm("cEasyBO-4", ConstrainedOpAmpProblem())``).  Constraint
slacks are reported as ``metrics['slack_gain']`` / ``metrics['slack_pm']``
(positive = satisfied); failed simulations count as maximally infeasible.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.opamp import DEFAULT_COST, opamp_design_space, simulate_opamp
from repro.core.constrained import ConstrainedProblem, ConstraintSpec
from repro.core.problem import EvaluationResult
from repro.sched.durations import CostModel
from repro.spice import SpiceError, logspace_frequencies

__all__ = ["ConstrainedOpAmpProblem"]

#: Slack assigned to designs whose simulation fails outright.
FAILED_SLACK = -100.0

#: UGF value (MHz) assigned to failed simulations.
FAILED_UGF = 0.0


class ConstrainedOpAmpProblem(ConstrainedProblem):
    """Maximize UGF subject to gain and phase-margin specs."""

    name = "opamp-constrained"

    SPECS = (
        ConstraintSpec("gain", "DC gain >= 60 dB"),
        ConstraintSpec("pm", "phase margin >= 60 deg"),
    )

    GAIN_SPEC_DB = 60.0
    PM_SPEC_DEG = 60.0

    def __init__(self, *, cost_model: CostModel | None = None):
        self.space = opamp_design_space()
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST
        self.freqs = logspace_frequencies(10.0, 10e9, 12)

    @property
    def bounds(self) -> np.ndarray:
        return self.space.bounds

    @property
    def constraint_specs(self) -> tuple[ConstraintSpec, ...]:
        return self.SPECS

    def evaluate(self, x: np.ndarray) -> EvaluationResult:
        x = self.validate_point(x)
        cost = self.cost_model.duration(x)
        values = self.space.to_values(x)
        try:
            metrics = simulate_opamp(values, self.freqs)
        except SpiceError:
            return EvaluationResult(
                fom=FAILED_UGF,
                metrics={"slack_gain": FAILED_SLACK, "slack_pm": FAILED_SLACK},
                cost=cost,
                feasible=False,
            )
        ugf_mhz = metrics.ugf_hz / 1e6
        slack_gain = metrics.dc_gain_db - self.GAIN_SPEC_DB
        slack_pm = metrics.phase_margin_deg - self.PM_SPEC_DEG
        return EvaluationResult(
            fom=float(ugf_mhz),
            metrics={
                "gain_db": metrics.dc_gain_db,
                "ugf_mhz": ugf_mhz,
                "pm_deg": metrics.phase_margin_deg,
                "slack_gain": float(slack_gain),
                "slack_pm": float(slack_pm),
            },
            cost=cost,
            feasible=bool(slack_gain >= 0 and slack_pm >= 0),
        )
