"""Small-signal noise analysis.

Computes the output noise power spectral density of a circuit by injecting
each element's noise current across its terminals and accumulating the
squared transfer magnitude to the output node:

* resistors: thermal current noise ``4kT / R`` (A^2/Hz);
* MOSFETs: channel thermal noise ``4kT * gamma * gm`` with the long-channel
  ``gamma = 2/3``, plus optional ``1/f`` flicker noise
  ``KF * Ids^AF / (Cox W L f)`` when the model card's ``kf`` is set.

Per frequency the complex MNA matrix is factorized once and re-used for every
injection (one triangular solve per noise source), so the cost is
``O(n^3 + sources * n^2)`` per point.  The classic sanity check — total
integrated output noise of an RC filter equals ``kT/C`` — is in the tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as sla

from repro.spice.ac import ac_analysis
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.diode import Diode
from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.mna import ac_system, lookup
from repro.spice.mosfet import Mosfet
from repro.spice.netlist import Circuit

__all__ = ["NoiseResult", "noise_analysis", "BOLTZMANN", "TEMPERATURE"]

#: Boltzmann constant (J/K).
BOLTZMANN = 1.380649e-23

#: Analysis temperature (K) — SPICE's 27 C default.
TEMPERATURE = 300.15

#: Long-channel MOSFET thermal-noise coefficient.
MOS_GAMMA = 2.0 / 3.0

#: Elementary charge (C), for diode shot noise.
Q_ELECTRON = 1.602176634e-19


@dataclasses.dataclass
class NoiseResult:
    """Output noise PSD across a frequency sweep."""

    freqs: np.ndarray
    output_node: str
    #: Total output noise voltage PSD, V^2/Hz, per frequency.
    output_psd: np.ndarray
    #: Per-element contribution to the output PSD (same shape each).
    contributions: dict[str, np.ndarray]
    #: Squared gain |H|^2 from the input source, if one was designated.
    gain_squared: np.ndarray | None = None

    @property
    def output_rms_density(self) -> np.ndarray:
        """Output noise in V/sqrt(Hz)."""
        return np.sqrt(self.output_psd)

    @property
    def input_referred_psd(self) -> np.ndarray:
        """Input-referred noise PSD (needs ``input_source``)."""
        if self.gain_squared is None:
            raise ValueError("noise_analysis was run without input_source")
        return self.output_psd / np.maximum(self.gain_squared, 1e-300)

    def integrated_output_noise(self) -> float:
        """Total output noise power (V^2) integrated over the sweep."""
        return float(np.trapezoid(self.output_psd, self.freqs))


def noise_analysis(
    circuit: Circuit,
    freqs: np.ndarray,
    output_node: str,
    *,
    input_source: str | None = None,
    op: OperatingPoint | None = None,
    gmin: float = 1e-12,
) -> NoiseResult:
    """Output (and optionally input-referred) noise of ``circuit``."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ValueError("freqs must be a non-empty 1-D array")
    if np.any(freqs <= 0):
        raise ValueError("noise frequencies must be positive")
    circuit.validate()
    if Circuit.is_ground(output_node):
        raise ValueError("output node must not be ground")
    if op is None:
        op = dc_operating_point(circuit, gmin=gmin)

    node_idx = circuit.node_index()
    if output_node not in node_idx:
        raise KeyError(f"unknown output node {output_node!r}")
    out = node_idx[output_node]
    n = circuit.n_unknowns

    def idx(node: str) -> int:
        return -1 if Circuit.is_ground(node) else node_idx[node]

    sources = _collect_noise_sources(circuit, op, idx)
    contributions = {name: np.zeros(len(freqs)) for name, *_ in sources}
    gain_squared = np.zeros(len(freqs)) if input_source is not None else None

    if input_source is not None:
        # One ordinary AC solve gives |H|^2 for input referral.
        element = circuit.find(input_source)
        if not isinstance(element, (VoltageSource, CurrentSource)):
            raise TypeError(f"{input_source!r} is not an independent source")
        original_ac = element.ac
        element.ac = 1.0
        try:
            ac = ac_analysis(circuit, freqs, op=op, gmin=gmin)
        finally:
            element.ac = original_ac
        gain_squared = np.abs(ac.v(output_node)) ** 2

    # The AC matrices; noise never reads their right-hand side.
    matrices, _ = ac_system(circuit, op, freqs, gmin)
    for k, freq in enumerate(freqs):
        lu = sla.lu_factor(matrices[k])
        # Adjoint trick: one solve of A^H z = e_out gives the transfer from
        # *every* injection node to the output at once.
        e_out = np.zeros(n, dtype=complex)
        e_out[out] = 1.0
        z = sla.lu_solve(lu, e_out, trans=2)  # solves A^H z = e_out
        for name, n_plus, n_minus, psd_fn in sources:
            # Current injected n_plus -> n_minus: transfer = z*[n+] - z*[n-].
            transfer = 0.0 + 0.0j
            if n_plus >= 0:
                transfer += np.conj(z[n_plus])
            if n_minus >= 0:
                transfer -= np.conj(z[n_minus])
            contributions[name][k] = float(abs(transfer) ** 2 * psd_fn(freq))

    total = np.sum(list(contributions.values()), axis=0) if contributions else np.zeros(len(freqs))
    return NoiseResult(
        freqs=freqs,
        output_node=output_node,
        output_psd=total,
        contributions=contributions,
        gain_squared=gain_squared,
    )


# ------------------------------------------------------------------ internals
def _resistor_noise(resistor, op, four_kt):
    """Thermal current noise ``4kT / R``."""
    psd = four_kt / resistor.resistance
    return resistor.n_plus, resistor.n_minus, lambda f, _p=psd: _p


def _mosfet_noise(mosfet, op, four_kt):
    """Channel thermal noise plus the optional ``1/f`` flicker term."""
    device_op = op.mosfet_ops[mosfet.name]
    gm = max(device_op.gm, 0.0)
    thermal = four_kt * MOS_GAMMA * gm
    kf = getattr(mosfet.params, "kf", 0.0)
    if kf:
        cox_area = mosfet.params.cox * mosfet.w * mosfet.l
        flicker_num = kf * abs(device_op.ids)
    else:
        cox_area = 1.0
        flicker_num = 0.0

    def psd(f, _t=thermal, _fn=flicker_num, _ca=cox_area):
        return _t + (_fn / (_ca * f) if _fn else 0.0)

    return mosfet.drain, mosfet.source, psd


def _diode_noise(diode, op, four_kt):
    """Shot noise ``2 q |I|``."""
    bias = op.v(diode.anode) - op.v(diode.cathode)
    shot = 2.0 * Q_ELECTRON * abs(diode.evaluate(bias).current)
    return diode.anode, diode.cathode, lambda f, _p=shot: _p


#: Noisy element kind -> ``(n_plus, n_minus, psd(freq) -> A^2/Hz)``.
_NOISE_SOURCES = {Resistor: _resistor_noise, Mosfet: _mosfet_noise, Diode: _diode_noise}


def _collect_noise_sources(circuit, op, idx):
    """(name, n_plus, n_minus, psd(freq) -> A^2/Hz) for every noisy element."""
    four_kt = 4.0 * BOLTZMANN * TEMPERATURE
    sources = []
    for element in circuit.elements:
        noise = lookup(_NOISE_SOURCES, element)
        if noise is not None:
            n_plus, n_minus, psd = noise(element, op, four_kt)
            sources.append((element.name, idx(n_plus), idx(n_minus), psd))
    return sources
