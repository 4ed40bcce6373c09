"""Small-signal AC analysis.

Linearizes every nonlinear device around a DC operating point and solves the
complex MNA system ``(G + jwC) x = z`` at each requested frequency; all
frequencies are assembled and solved as one stack.  The AC stimulus is the
``ac`` magnitude of the independent sources (DC-only sources are stamped with
zero AC value, i.e. shorts/opens as appropriate).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.exceptions import SingularMatrixError
from repro.spice.mna import ac_system
from repro.spice.netlist import Circuit

__all__ = ["AcResult", "ac_analysis", "logspace_frequencies"]


def logspace_frequencies(f_start: float, f_stop: float, points_per_decade: int = 20) -> np.ndarray:
    """Logarithmically spaced analysis frequencies, SPICE ``.AC DEC`` style."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)


@dataclasses.dataclass
class AcResult:
    """Complex node voltages/branch currents across a frequency sweep."""

    freqs: np.ndarray
    node_index: dict[str, int]
    branch_index: dict[str, int]
    solution: np.ndarray  # shape (n_freqs, n_unknowns), complex
    op: OperatingPoint

    def v(self, node: str) -> np.ndarray:
        """Complex voltage phasor at ``node`` across the sweep."""
        if Circuit.is_ground(node):
            return np.zeros(len(self.freqs), dtype=complex)
        return self.solution[:, self.node_index[node]]

    def i(self, branch_element: str) -> np.ndarray:
        """Complex branch current through a group-2 element."""
        return self.solution[:, self.branch_index[branch_element]]

    def transfer(self, out_node: str, in_node: str | None = None) -> np.ndarray:
        """Voltage transfer function ``v(out)/v(in)`` (or ``v(out)`` if the
        stimulus had unit amplitude and ``in_node`` is omitted)."""
        out = self.v(out_node)
        if in_node is None:
            return out
        vin = self.v(in_node)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(vin) > 0, out / vin, np.inf + 0j)


def ac_analysis(
    circuit: Circuit,
    freqs: np.ndarray,
    *,
    op: OperatingPoint | None = None,
    gmin: float = 1e-12,
) -> AcResult:
    """Run an AC sweep; computes the operating point first if not supplied."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ValueError("freqs must be a non-empty 1-D array")
    if np.any(freqs <= 0):
        raise ValueError("AC frequencies must be positive")
    if op is None:
        op = dc_operating_point(circuit)

    A, z = ac_system(circuit, op, freqs, gmin)
    try:
        solution = np.linalg.solve(A, z[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for matrix, rhs, freq in zip(A, z, freqs):
            try:
                np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                raise SingularMatrixError(
                    f"singular AC MNA matrix at f={freq:g} Hz in {circuit.title!r}"
                ) from None
        raise
    return AcResult(freqs, circuit.node_index(), circuit.branch_index(), solution, op)
