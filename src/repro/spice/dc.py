"""DC operating-point analysis.

Newton–Raphson on the MNA equations with two convergence aids used by every
production SPICE: *gmin stepping* (start with a large conductance from every
node to ground and relax it) and *source stepping* (ramp all independent
sources from zero).  A plain Newton attempt from the supplied guess is tried
first because it is the cheapest and usually succeeds for well-biased
circuits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.spice.exceptions import ConvergenceError, SingularMatrixError
from repro.spice.mna import DcTape
from repro.spice.mosfet import MosfetOp
from repro.spice.netlist import Circuit

__all__ = ["OperatingPoint", "dc_operating_point"]

#: Default Newton iteration limit per solve.
MAX_ITER = 120

#: Maximum per-iteration voltage step (volts) — Newton damping.
MAX_STEP = 0.5

#: Node-voltage convergence tolerance (volts).
VTOL = 1e-9

#: Residual (KCL) convergence tolerance (amperes).
ITOL = 1e-9

#: Final gmin left in the system (SPICE default).
GMIN = 1e-12


@dataclasses.dataclass
class OperatingPoint:
    """Solved DC state of a circuit."""

    node_voltages: dict[str, float]
    branch_currents: dict[str, float]
    mosfet_ops: dict[str, MosfetOp]
    iterations: int

    def v(self, node: str) -> float:
        """Voltage at ``node`` (ground aliases return 0)."""
        if Circuit.is_ground(node):
            return 0.0
        return self.node_voltages[node]

    def i(self, branch_element: str) -> float:
        """Branch current through a group-2 element (V source or inductor)."""
        return self.branch_currents[branch_element]


def dc_operating_point(
    circuit: Circuit,
    *,
    v_guess: np.ndarray | None = None,
    max_iter: int = MAX_ITER,
    gmin: float = GMIN,
) -> OperatingPoint:
    """Solve the DC operating point of ``circuit``.

    Raises :class:`ConvergenceError` if Newton fails even with gmin and
    source stepping, and :class:`SingularMatrixError` for structurally
    singular systems.
    """
    circuit.validate()
    n_nodes = len(circuit.nodes)
    n = circuit.n_unknowns
    x = np.zeros(n) if v_guess is None else np.asarray(v_guess, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"v_guess must have shape ({n},), got {x.shape}")

    tape = DcTape(circuit).compile()
    # Attempt 1: plain Newton.
    solution = _newton(tape, x, gmin=gmin, source_scale=1.0, max_iter=max_iter)
    if solution is None:
        # Attempt 2: gmin stepping.
        solution = _gmin_stepping(tape, x, gmin_final=gmin, max_iter=max_iter)
    if solution is None:
        # Attempt 3: source stepping.
        solution = _source_stepping(tape, x, gmin=gmin, max_iter=max_iter)
    if solution is None:
        raise ConvergenceError(
            f"DC operating point of {circuit.title!r} did not converge"
        )
    x, iterations = solution
    return _package(circuit, x, iterations, n_nodes)


# ------------------------------------------------------------------ internals
def _package(circuit: Circuit, x: np.ndarray, iterations: int, n_nodes: int) -> OperatingPoint:
    node_idx = circuit.node_index()
    branch_idx = circuit.branch_index()
    voltages = {name: float(x[i]) for name, i in node_idx.items()}
    currents = {name: float(x[i]) for name, i in branch_idx.items()}
    mosfet_ops = {}
    for mosfet in circuit.mosfets():
        vd, vg, vs, vb = (
            _node_voltage(x, node_idx, mosfet.drain),
            _node_voltage(x, node_idx, mosfet.gate),
            _node_voltage(x, node_idx, mosfet.source),
            _node_voltage(x, node_idx, mosfet.bulk),
        )
        mosfet_ops[mosfet.name] = mosfet.evaluate(vd, vg, vs, vb)
    return OperatingPoint(voltages, currents, mosfet_ops, iterations)


def _node_voltage(x: np.ndarray, node_idx: dict[str, int], node: str) -> float:
    if Circuit.is_ground(node):
        return 0.0
    return float(x[node_idx[node]])


def _gmin_stepping(tape, x0, *, gmin_final, max_iter):
    x = x0.copy()
    total_iterations = 0
    gmin = 1e-2
    while gmin >= gmin_final:
        solution = _newton(tape, x, gmin=gmin, source_scale=1.0, max_iter=max_iter)
        if solution is None:
            return None
        x, iters = solution
        total_iterations += iters
        if gmin == gmin_final:
            return x, total_iterations
        gmin = max(gmin / 10.0, gmin_final)
    return x, total_iterations


def _source_stepping(tape, x0, *, gmin, max_iter):
    x = np.zeros_like(x0)
    total_iterations = 0
    for scale in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        solution = _newton(tape, x, gmin=gmin, source_scale=scale, max_iter=max_iter)
        if solution is None:
            return None
        x, iters = solution
        total_iterations += iters
    return x, total_iterations


def _newton(tape: DcTape, x0, *, gmin, source_scale, max_iter):
    """One DC Newton solve; returns ``(x, iterations)`` or ``None`` on failure."""
    tape.bias(gmin=gmin, source_scale=source_scale)
    return newton(
        tape, x0, max_iter=max_iter, vtol=VTOL, check_residual=True,
        singular=f"singular MNA matrix in {tape.title!r} (floating node or "
        f"voltage-source loop?)",
    )


def newton(tape: DcTape, x, *, max_iter, vtol, singular, check_residual=False):
    """Damped Newton on a compiled tape; returns ``(x, iterations)`` or ``None``.

    Shared with :mod:`repro.spice.transient`, whose tape adds the companion
    models of the reactive elements.  ``singular`` is the message of the
    :class:`SingularMatrixError` raised for a singular system.
    """
    n_nodes = tape.n_nodes
    # Step damping exists to keep the exponential/square-law devices inside
    # their basin of convergence; a linear circuit solves in one full step
    # (and damping would need unbounded iterations for large node voltages).
    nonlinear = bool(tape.devices)
    for iteration in range(1, max_iter + 1):
        tape.linearize(x)
        A, z = tape.assemble()
        try:
            x_new = np.linalg.solve(A, z)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(singular) from None
        if not np.isfinite(x_new).all():
            return None
        dx = x_new - x
        max_dv = float(np.abs(dx[:n_nodes]).max()) if n_nodes else 0.0
        if nonlinear and max_dv > MAX_STEP:
            x = x + dx * (MAX_STEP / max_dv)
        else:
            x = x_new
            if max_dv < vtol and (not check_residual or _residual_ok(A, z, x)):
                return x, iteration
    return None


def _residual_ok(A: np.ndarray, z: np.ndarray, x: np.ndarray) -> bool:
    residual = A @ x - z
    return bool(np.max(np.abs(residual)) < ITOL * max(1.0, float(np.max(np.abs(x)))))
