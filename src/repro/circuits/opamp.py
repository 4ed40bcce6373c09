"""Two-stage Miller-compensated operational amplifier testbench (paper §IV-A).

The paper optimizes a 180 nm op-amp with 10 design variables (transistor
geometries, a resistor, and a capacitor) under

    FOM = 1.2 * GAIN + 10 * UGF + 1.6 * PM            (Eq. 10)

Our stand-in is the canonical two-stage Miller op-amp: NMOS input pair with
PMOS mirror load, PMOS common-source second stage, and an Rz + Cc nulling
branch.  GAIN is the open-loop DC gain in dB, UGF the unity-gain frequency in
*tens of MHz*, and PM the phase margin in degrees — with these units the
three terms are balanced and the achievable FOM lands in the same
few-hundred range as the paper's Table I (whose own unit conventions are not
stated).

Designs with phase margin below 45 degrees are marked infeasible and pay a
graded penalty (our simulator's idealized device model otherwise rewards
near-oscillatory designs); designs that fail to bias, have sub-unity gain,
or never cross 0 dB receive ``FAILURE_FOM``.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import EvaluationResult, Problem
from repro.sched.durations import CostModel, LognormalCostModel
from repro.spice import (
    BodeMetrics,
    Circuit,
    MosfetParams,
    SpiceError,
    ac_analysis,
    bode_metrics,
    dc_operating_point,
    logspace_frequencies,
    nmos_180,
    pmos_180,
)
from repro.circuits.spec import DesignSpace, Parameter

__all__ = ["OpAmpProblem", "build_opamp", "simulate_opamp", "opamp_fom",
           "opamp_design_space", "FAILURE_FOM"]

#: FOM assigned to designs whose simulation fails (penalty, not NaN).
FAILURE_FOM = 0.0

#: Supply voltage of the 180 nm testbench.
VDD = 1.8

#: Input common-mode voltage.
VCM = 0.9

#: Bias reference current.
IBIAS = 20e-6

#: Load capacitance at the output.
CLOAD = 3e-12

#: Minimum acceptable phase margin (degrees) — designs below are infeasible.
MIN_PHASE_MARGIN = 45.0

#: FOM points lost per degree of phase-margin shortfall below the minimum.
PM_PENALTY_PER_DEG = 8.0

#: Paper-calibrated per-simulation HSPICE cost (see sched.durations).
DEFAULT_COST = LognormalCostModel(mean_seconds=38.8, sigma=0.10, seed=1)


def opamp_design_space() -> DesignSpace:
    """The 10-variable sizing space (paper: widths, lengths, R, C)."""
    return DesignSpace(
        [
            Parameter("w12", 2e-6, 80e-6, unit="m", log=True),   # input pair width
            Parameter("l12", 0.18e-6, 2e-6, unit="m", log=True),  # input pair length
            Parameter("w34", 2e-6, 80e-6, unit="m", log=True),   # mirror load width
            Parameter("l34", 0.18e-6, 2e-6, unit="m", log=True),  # mirror load length
            Parameter("w5", 2e-6, 100e-6, unit="m", log=True),   # tail source width
            Parameter("w6", 5e-6, 300e-6, unit="m", log=True),   # 2nd-stage PMOS width
            Parameter("l6", 0.18e-6, 1e-6, unit="m", log=True),  # 2nd-stage length
            Parameter("w7", 5e-6, 150e-6, unit="m", log=True),   # output sink width
            Parameter("rz", 100.0, 20e3, unit="Ohm", log=True),  # nulling resistor
            Parameter("cc", 0.5e-12, 10e-12, unit="F", log=True),  # Miller cap
        ]
    )


def build_opamp(
    values: dict[str, float],
    nmos: MosfetParams | None = None,
    pmos: MosfetParams | None = None,
) -> Circuit:
    """Construct the op-amp netlist for one set of physical sizes.

    The testbench applies a +/- 0.5 V AC differential stimulus around the
    common mode, so ``v(out)`` *is* the differential open-loop transfer
    function.  ``nmos`` / ``pmos`` replace the nominal 180 nm model cards
    (process corners, Monte Carlo; see :mod:`repro.circuits.variation`).
    """
    nmos = nmos_180() if nmos is None else nmos
    pmos = pmos_180() if pmos is None else pmos
    c = Circuit("two-stage Miller op-amp (reproduction of paper Fig. 3)")
    c.V("vdd", "vdd", "0", dc=VDD)
    c.V("vip", "ip", "0", dc=VCM, ac=+0.5)
    c.V("vim", "im", "0", dc=VCM, ac=-0.5)
    c.I("ibias", "vdd", "bn", dc=IBIAS)
    # Bias mirror: M8 diode sets the gate line 'bn' for the tail and sink.
    c.M("m8", "bn", "bn", "0", "0", nmos, w=4e-6, l=0.5e-6)
    c.M("m5", "tail", "bn", "0", "0", nmos, w=values["w5"], l=0.5e-6)
    # First stage: NMOS differential pair with PMOS current-mirror load.
    c.M("m1", "x1", "ip", "tail", "0", nmos, w=values["w12"], l=values["l12"])
    c.M("m2", "x2", "im", "tail", "0", nmos, w=values["w12"], l=values["l12"])
    c.M("m3", "x1", "x1", "vdd", "vdd", pmos, w=values["w34"], l=values["l34"])
    c.M("m4", "x2", "x1", "vdd", "vdd", pmos, w=values["w34"], l=values["l34"])
    # Second stage: PMOS common source with NMOS current-sink load.
    c.M("m6", "out", "x2", "vdd", "vdd", pmos, w=values["w6"], l=values["l6"])
    c.M("m7", "out", "bn", "0", "0", nmos, w=values["w7"], l=0.5e-6)
    # Miller compensation with nulling resistor, plus the load.
    c.R("rz", "x2", "cz", values["rz"])
    c.C("cc", "cz", "out", values["cc"])
    c.C("cl", "out", "0", CLOAD)
    return c


def simulate_opamp(
    values: dict[str, float],
    freqs: np.ndarray,
    nmos: MosfetParams | None = None,
    pmos: MosfetParams | None = None,
) -> BodeMetrics:
    """Build → DC → AC → Bode for one sizing; raises ``SpiceError`` on failure."""
    circuit = build_opamp(values, nmos, pmos)
    op = dc_operating_point(circuit)
    ac = ac_analysis(circuit, freqs, op=op)
    return bode_metrics(ac.freqs, ac.v("out"))


def opamp_fom(bode: BodeMetrics) -> tuple[float, bool, dict[str, float]]:
    """Eq. 10 FOM, feasibility and metrics of one simulated sizing."""
    gain_db = bode.dc_gain_db
    ugf_mhz = bode.ugf_hz / 1e6
    pm_deg = bode.phase_margin_deg
    # Eq. 10 with UGF expressed in tens of MHz, which balances the three
    # terms into the paper's few-hundred FOM range (see module docstring).
    fom = 1.2 * gain_db + 10.0 * (ugf_mhz / 10.0) + 1.6 * min(pm_deg, 120.0)
    feasible = pm_deg >= MIN_PHASE_MARGIN
    if not feasible:
        # Soft stability penalty: the idealized level-1 model otherwise
        # rewards near-oscillatory designs with huge UGF.  A graded
        # penalty keeps the response surface informative for the GP,
        # matching how mis-sized HSPICE designs degrade in the paper.
        fom -= PM_PENALTY_PER_DEG * (MIN_PHASE_MARGIN - max(pm_deg, 0.0))
    fom = max(float(fom), FAILURE_FOM)
    return fom, feasible, {"gain_db": gain_db, "ugf_mhz": ugf_mhz, "pm_deg": pm_deg}


class OpAmpProblem(Problem):
    """Op-amp sizing as a :class:`~repro.core.problem.Problem`.

    Parameters
    ----------
    cost_model:
        Duration model charged per evaluation (defaults to the
        paper-calibrated lognormal; see :mod:`repro.sched.durations`).
    f_start, f_stop, points_per_decade:
        AC sweep grid used for the Bode measurement.
    """

    name = "opamp"

    def __init__(
        self,
        *,
        cost_model: CostModel | None = None,
        f_start: float = 10.0,
        f_stop: float = 10e9,
        points_per_decade: int = 12,
    ):
        self.space = opamp_design_space()
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST
        self.freqs = logspace_frequencies(f_start, f_stop, points_per_decade)

    @property
    def bounds(self) -> np.ndarray:
        return self.space.bounds

    def evaluate(self, x: np.ndarray) -> EvaluationResult:
        x = self.validate_point(x)
        cost = self.cost_model.duration(x)
        values = self.space.to_values(x)
        try:
            bode = simulate_opamp(values, self.freqs)
        except SpiceError:
            return EvaluationResult(
                fom=FAILURE_FOM, metrics={}, cost=cost, feasible=False
            )
        fom, feasible, metrics = opamp_fom(bode)
        return EvaluationResult(
            fom=fom, metrics=metrics, cost=cost, feasible=feasible
        )
