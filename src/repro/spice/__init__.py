"""A from-scratch analog circuit simulator (the HSPICE stand-in).

Modified nodal analysis with:

* DC operating point — Newton–Raphson with gmin and source stepping
  (:func:`dc_operating_point`);
* small-signal AC sweeps (:func:`ac_analysis`);
* trapezoidal/backward-Euler transient analysis (:func:`transient_analysis`);
* a level-1 MOSFET with Meyer capacitances (:class:`Mosfet`);
* measurement helpers for amplifier and power-amplifier metrics
  (:mod:`repro.spice.analysis`).

See DESIGN.md §2 for why this substitutes for the paper's commercial
simulator.
"""

from repro.spice.ac import AcResult, ac_analysis, logspace_frequencies
from repro.spice.analysis import (
    BodeMetrics,
    average_power,
    bode_metrics,
    fundamental_phasor,
    fundamental_power,
    power_added_efficiency,
)
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    DcWave,
    Element,
    Inductor,
    PulseWave,
    Resistor,
    SinWave,
    Vccs,
    Vcvs,
    VoltageSource,
    Waveform,
)
from repro.spice.exceptions import (
    AnalysisError,
    ConvergenceError,
    SingularMatrixError,
    SpiceError,
    TopologyError,
)
from repro.spice.mosfet import Mosfet, MosfetOp, MosfetParams, nmos_180, pmos_180
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientResult, transient_analysis
from repro.spice.units import format_eng, parse_value

__all__ = [
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Vcvs",
    "Vccs",
    "Waveform",
    "DcWave",
    "SinWave",
    "PulseWave",
    "Mosfet",
    "MosfetOp",
    "MosfetParams",
    "nmos_180",
    "pmos_180",
    "OperatingPoint",
    "dc_operating_point",
    "AcResult",
    "ac_analysis",
    "logspace_frequencies",
    "TransientResult",
    "transient_analysis",
    "BodeMetrics",
    "bode_metrics",
    "fundamental_phasor",
    "fundamental_power",
    "average_power",
    "power_added_efficiency",
    "SpiceError",
    "TopologyError",
    "ConvergenceError",
    "SingularMatrixError",
    "AnalysisError",
    "parse_value",
    "format_eng",
]
