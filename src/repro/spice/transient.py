"""Transient analysis with trapezoidal (or backward-Euler) integration.

Each time step replaces the reactive elements with their companion models and
runs a Newton solve for the nonlinear devices — the textbook SPICE loop.  The
step size is fixed on a global grid (deterministic results for a given
``dt``), but a step that fails to converge is retried with local sub-steps
before the analysis gives up.

The class-E power-amplifier testbench drives this module hard: a switching
MOSFET with pulse gate drive, an RF choke, and a resonant load network.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.spice.dc import OperatingPoint, dc_operating_point, newton
from repro.spice.elements import Capacitor, CurrentSource, Inductor, VoltageSource
from repro.spice.exceptions import ConvergenceError
from repro.spice.mna import DcTape
from repro.spice.netlist import Circuit

__all__ = ["TransientResult", "transient_analysis"]

#: Newton iterations per time step.
MAX_NEWTON = 60

#: Node-voltage convergence tolerance per step (volts).
VTOL = 1e-7

#: How many times a non-converging step is split in half.
MAX_HALVINGS = 6


@dataclasses.dataclass
class TransientResult:
    """Waveforms on the global time grid."""

    t: np.ndarray
    node_index: dict[str, int]
    branch_index: dict[str, int]
    solution: np.ndarray  # (n_steps + 1, n_unknowns)
    op0: OperatingPoint

    def v(self, node: str) -> np.ndarray:
        """Voltage waveform at ``node``."""
        if Circuit.is_ground(node):
            return np.zeros(len(self.t))
        return self.solution[:, self.node_index[node]]

    def i(self, branch_element: str) -> np.ndarray:
        """Current waveform through a group-2 element (V source, inductor)."""
        return self.solution[:, self.branch_index[branch_element]]

    def window(self, t_from: float, t_to: float | None = None) -> np.ndarray:
        """Boolean mask selecting samples with ``t_from <= t <= t_to``."""
        t_to = self.t[-1] if t_to is None else t_to
        return (self.t >= t_from - 1e-18) & (self.t <= t_to + 1e-18)


@dataclasses.dataclass(frozen=True)
class _CapBranch:
    """A two-terminal capacitance tracked by the integrator.

    Covers both explicit :class:`Capacitor` elements and the effective
    MOSFET capacitances (see :meth:`Mosfet.transient_capacitances`).
    """

    name: str
    n_plus: str
    n_minus: str
    capacitance: float

    @property
    def nodes(self) -> tuple[str, str]:
        return self.n_plus, self.n_minus


def _collect_capacitances(circuit: Circuit) -> list[_CapBranch]:
    branches = [
        _CapBranch(c.name, c.n_plus, c.n_minus, c.capacitance)
        for c in circuit.elements_of(Capacitor)
    ]
    for m in circuit.mosfets():
        caps = m.transient_capacitances()
        for label, (na, nb) in (
            ("cgs", (m.gate, m.source)),
            ("cgd", (m.gate, m.drain)),
            ("cdb", (m.drain, m.bulk)),
            ("csb", (m.source, m.bulk)),
        ):
            value = caps[label]
            if value > 0.0 and na != nb:
                branches.append(_CapBranch(f"{m.name}.{label}", na, nb, value))
    return branches


class _TransientTape(DcTape):
    """The transient system, and the state its companion slots come from.

    The tape records, in this order: the DC stamps (inductors left out) and
    gmin, the waveform sources' deltas from their DC values, the capacitor
    companions (see :func:`_collect_capacitances`) and the inductor
    companions.  :meth:`prepare` computes the deltas and companion values
    once per time step; :meth:`advance` moves the state past a solved step.
    """

    def __init__(self, circuit: Circuit, x0: np.ndarray, method: str, gmin: float):
        super().__init__(circuit, transient=True)
        self.trap = method == "trap"
        self.scale = 2.0 if self.trap else 1.0
        # Waveform sources: the DC stamp holds dc_value and a delta slot adds
        # value_at(t) - dc_value.  That sum rounds differently from
        # value_at(t) alone, and recorded reference results depend on it.
        v_waves = [e for e in circuit.elements_of(VoltageSource) if e.waveform is not None]
        i_waves = [e for e in circuit.elements_of(CurrentSource) if e.waveform is not None]
        self.waves = [(e, e.dc_value) for e in v_waves + i_waves]
        deltas = self.slots(len(self.waves))
        for source, delta in zip(v_waves, deltas):
            self.add_z(self.branch_index[source.name], delta)
        for source, delta in zip(i_waves, deltas[len(v_waves):]):
            self.current_source(*self.pins(source), delta)
        caps = _collect_capacitances(circuit)
        self.capacitance = np.array([c.capacitance for c in caps])
        self.cap_pins = self._pin_array(caps)
        geq, ieq = self.slots(len(caps)), self.slots(len(caps))
        for cap, g, i in zip(caps, geq, ieq):
            self.conductance(*self.pins(cap), g)
            self.current_source(*self.pins(cap), i)
        inductors = circuit.elements_of(Inductor)
        self.inductance = np.array([ind.inductance for ind in inductors])
        self.ind_pins = self._pin_array(inductors)
        branches = [self.branch_index[ind.name] for ind in inductors]
        self.ind_branch = np.array(branches, dtype=np.intp)
        zeq, rhs = self.slots(len(inductors)), self.slots(len(inductors))
        for ind, branch, z, r in zip(inductors, branches, zeq, rhs):
            self.branch_impedance(*self.pins(ind), branch, z)
            self.add_z(branch, r)
        self._ranges = [_span(slots) for slots in (deltas, geq, ieq, zeq, rhs)]
        self.compile()
        self.bias(gmin=gmin, source_scale=1.0)
        # The state: the last solution (ground appended) and the capacitor
        # currents, which are zero at the DC operating point.
        self.state = np.append(x0, 0.0)
        self.cap_current = np.zeros(len(caps))

    def _pin_array(self, elements) -> np.ndarray:
        """(2, k) unknown indices of two-terminal elements (ground is -1)."""
        return np.array([self.pins(e) for e in elements], dtype=np.intp).reshape(-1, 2).T

    def _across(self, pins: np.ndarray) -> np.ndarray:
        return self.state[pins[0]] - self.state[pins[1]]

    def prepare(self, t_new: float, dt: float) -> None:
        """Write the source and companion slots of a step of ``dt`` to ``t_new``."""
        deltas, geq_slots, ieq_slots, zeq_slots, rhs_slots = self._ranges
        self.values[deltas] = [source.value_at(t_new) - dc for source, dc in self.waves]
        self.geq = self.scale * self.capacitance / dt
        v_cap = self._across(self.cap_pins)
        self.ieq = -(self.geq * v_cap + self.cap_current) if self.trap else -self.geq * v_cap
        self.values[geq_slots] = self.geq
        self.values[ieq_slots] = self.ieq
        zeq = self.scale * self.inductance / dt
        i_ind, v_ind = self.state[self.ind_branch], self._across(self.ind_pins)
        self.values[zeq_slots] = zeq
        # The branch row reads v(n+) - v(n-) - zeq * i = rhs.
        self.values[rhs_slots] = -v_ind - zeq * i_ind if self.trap else -zeq * i_ind

    def advance(self, x_new: np.ndarray) -> None:
        """Move the state past the step :meth:`prepare` set up."""
        self.state[:-1] = x_new
        self.cap_current = self.geq * self._across(self.cap_pins) + self.ieq


def _span(slots) -> slice:
    """The consecutive slot indices of ``slots`` as a slice."""
    first = slots[0].index if slots else 0
    return slice(first, first + len(slots))


def transient_analysis(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    *,
    op0: OperatingPoint | None = None,
    method: str = "trap",
    gmin: float = 1e-12,
) -> TransientResult:
    """Simulate ``circuit`` from t=0 to ``t_stop`` with fixed step ``dt``.

    The initial state is the DC operating point with every waveform source at
    its t=0 value (computed automatically when ``op0`` is omitted).
    """
    if method not in ("trap", "be"):
        raise ValueError(f"method must be 'trap' or 'be', got {method!r}")
    if dt <= 0 or t_stop <= 0:
        raise ValueError("dt and t_stop must be positive")
    if dt > t_stop:
        raise ValueError("dt must not exceed t_stop")
    circuit.validate()
    if op0 is None:
        op0 = dc_operating_point(circuit, gmin=gmin)

    node_idx = circuit.node_index()
    branch_idx = circuit.branch_index()
    n = circuit.n_unknowns

    x0 = np.zeros(n)
    for name, i in node_idx.items():
        x0[i] = op0.node_voltages[name]
    for name, i in branch_idx.items():
        x0[i] = op0.branch_currents[name]

    n_steps = int(round(t_stop / dt))
    t_grid = np.arange(n_steps + 1) * dt
    solution = np.zeros((n_steps + 1, n))
    solution[0] = x0

    tape = _TransientTape(circuit, x0, method, gmin)
    x = x0.copy()
    for step in range(1, n_steps + 1):
        t_new = t_grid[step]
        x = _advance_to(tape, x, t_new - dt, dt)
        solution[step] = x
    return TransientResult(t_grid, node_idx, branch_idx, solution, op0)


# ------------------------------------------------------------------ internals
def _advance_to(tape: _TransientTape, x, t_old, dt, depth: int = 0):
    """Advance the state by ``dt`` (splitting the step on Newton failure)."""
    x_new = _solve_step(tape, x, t_old + dt, dt)
    if x_new is not None:
        tape.advance(x_new)
        return x_new
    if depth >= MAX_HALVINGS:
        raise ConvergenceError(
            f"transient step at t={t_old + dt:g}s did not converge in "
            f"{tape.title!r} (after {depth} halvings)"
        )
    half = dt / 2.0
    x_mid = _advance_to(tape, x, t_old, half, depth + 1)
    return _advance_to(tape, x_mid, t_old + half, half, depth + 1)


def _solve_step(tape: _TransientTape, x_guess, t_new, dt):
    """Newton solve for one time point; returns the solution or ``None``."""
    tape.prepare(t_new, dt)
    solution = newton(
        tape, x_guess, max_iter=MAX_NEWTON, vtol=VTOL,
        singular=f"singular transient MNA matrix at t={t_new:g}s in {tape.title!r}",
    )
    return None if solution is None else solution[0]
