"""Benchmark circuits and design-space plumbing (paper §IV).

* :class:`OpAmpProblem` — the 10-variable two-stage Miller op-amp (Eq. 10).
* :class:`ClassEProblem` — the 12-variable class-E power amplifier (Eq. 11).
* :mod:`repro.circuits.benchmarks` — synthetic test functions with
  heterogeneous cost models for fast experimentation.
"""

from repro.circuits.benchmarks import (
    SyntheticProblem,
    ackley,
    branin,
    by_name,
    hartmann6,
    levy,
    rastrigin,
    sphere,
)
from repro.circuits.classe import ClassEProblem, build_classe, classe_design_space
from repro.circuits.constrained_opamp import ConstrainedOpAmpProblem
from repro.circuits.opamp import OpAmpProblem, build_opamp, opamp_design_space
from repro.circuits.spec import DesignSpace, Parameter
from repro.circuits.variation import (
    CORNERS,
    ProcessShift,
    RobustOpAmpProblem,
    monte_carlo_foms,
    shift_params,
)

__all__ = [
    "DesignSpace",
    "Parameter",
    "OpAmpProblem",
    "ConstrainedOpAmpProblem",
    "build_opamp",
    "opamp_design_space",
    "ClassEProblem",
    "build_classe",
    "classe_design_space",
    "SyntheticProblem",
    "branin",
    "hartmann6",
    "ackley",
    "rastrigin",
    "levy",
    "sphere",
    "by_name",
    "CORNERS",
    "ProcessShift",
    "RobustOpAmpProblem",
    "monte_carlo_foms",
    "shift_params",
]
