"""Compiled MNA: an analysis records a circuit's stamps once, as a tape.

A :class:`Tape` is an :class:`~repro.spice.stamps.MnaAssembler` whose
``add_A``/``add_z`` record each contribution instead of adding it: the flat
position it adds to (``i * n + j`` in ``A``, ``n * n + i`` in ``z``), a value
slot and a sign.  Assembling is one gather and one ``np.bincount``, which adds
the contributions in recorded order starting from +0.0, exactly as the
assembler's ``+=`` does, so a compiled system is bit-identical to stamping
element by element.  The order is the point: a tape that summed an entry in
another order (say, a precomputed linear matrix plus the device stamps) would
move results in their last bits, and optimizer trajectories with them.
Between assemblies an analysis rewrites only the slots that change: device
companions at each Newton iteration, source and gmin values per solve,
transient history terms per time step, and the transient's ``C/dt`` and
``L/dt`` companions only when the step size changes.

The Newton loop (:func:`repro.spice.dc.newton`) is the simulator's hot loop:
every DC solve and every transient step runs it.  It keeps the exact GP's
three hot-loop rules (docs/surrogate_scaling.md), none of which moves a bit:

- *Validate once.*  An analysis validates its circuit and compiles its tape
  once; an iteration calls each device's :meth:`Mosfet.companion`, which
  returns the four slot values without building a :class:`MosfetOp`, and
  words no error message unless the solve fails.
- *Call LAPACK directly.*  The solve is ``scipy.linalg.lapack.dgesv``, the
  LAPACK routine that ``np.linalg.solve`` also calls, without that
  wrapper's checks; ``info > 0`` (an exactly zero pivot) is the singular
  system.
- *Precompute per step.*  A transient step writes its sources and history
  terms once, before its Newton iterations, and keeps its ``dt``-only
  companions until a halving changes ``dt``.

:data:`KINDS` is the one stamping table: for each element kind, the function
that records its DC (and transient) stamps and the one that records its AC
stamps.  A tape is compiled per analysis call and never cached on the
circuit, because circuits are mutable.
"""

from __future__ import annotations

import numpy as np

from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.mosfet import Mosfet
from repro.spice.netlist import Circuit
from repro.spice.stamps import MnaAssembler

__all__ = ["KINDS", "Slot", "Tape", "DcTape", "ac_system", "lookup", "record"]


class Slot:
    """A signed reference to one value of a :class:`Tape`.

    Stamps negate their values (``-g``); a slot passed in negates its sign,
    so the tape records ``value * -1.0``, which is exactly ``-value``.
    ``reactive`` slots hold a capacitance or inductance: their AC
    contribution is ``omega * value``, on the imaginary part.
    """

    __slots__ = ("index", "sign", "reactive")

    def __init__(self, index: int, sign: float = 1.0, reactive: bool = False):
        self.index = index
        self.sign = sign
        self.reactive = reactive

    def __neg__(self) -> Slot:
        return Slot(self.index, -self.sign, self.reactive)

    def __pos__(self) -> Slot:
        return self


class Tape(MnaAssembler):
    """Records an MNA system's contributions; :meth:`compile`, then assemble.

    A plain number passed to a stamp gets a slot of its own; a :class:`Slot`
    from :meth:`slots` is a value the analysis rewrites in :attr:`values`.
    An AC tape carries the operating point ``op`` its device stamps read.
    """

    def __init__(self, circuit: Circuit, op=None):
        self.n = circuit.n_unknowns
        self.op = op
        self.title = circuit.title
        self.node_index = circuit.node_index()
        self.branch_index = circuit.branch_index()
        self.n_nodes = len(self.node_index)
        self.values: list | np.ndarray = []
        self._entries: tuple[list, list] = ([], [])  # real, reactive

    def pins(self, element) -> tuple[int, ...]:
        """``element``'s terminals as unknown indices (ground is -1)."""
        return tuple(-1 if Circuit.is_ground(n) else self.node_index[n] for n in element.nodes)

    def slots(self, count: int, value: float = 0.0, reactive: bool = False) -> list[Slot]:
        first = len(self.values)
        self.values.extend([value] * count)
        return [Slot(i, reactive=reactive) for i in range(first, first + count)]

    def reactive(self, value: float) -> Slot:
        """A capacitance or inductance, stamped as ``1j * omega * value``."""
        return self.slots(1, value, reactive=True)[0]

    def add_A(self, i: int, j: int, value) -> None:
        if i >= 0 and j >= 0:
            self._record(i * self.n + j, value)

    def add_z(self, i: int, value) -> None:
        if i >= 0:
            self._record(self.n * self.n + i, value)

    def _record(self, position: int, value) -> None:
        if not isinstance(value, Slot):
            value = self.slots(1, value)[0]
        self._entries[value.reactive].append((position, value.index, value.sign))

    def compile(self) -> Tape:
        """Freeze the recording into index arrays; returns ``self``."""
        self.values = np.array(self.values, dtype=float)
        (self._position, self._slot, self._sign), self._reactive = (
            _columns(entries) for entries in self._entries
        )
        return self

    def _flat(self) -> np.ndarray:
        """The real system ``[A.ravel(), z]`` for the current slot values."""
        weights = self.values[self._slot] * self._sign
        return np.bincount(self._position, weights, minlength=self.n * (self.n + 1))

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """The real system ``(A, z)`` for the current slot values."""
        flat = self._flat()
        n = self.n
        return flat[: n * n].reshape(n, n), flat[n * n :]

    def assemble_stack(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The complex systems at every ``omega``: ``A`` (nf, n, n), ``z`` (nf, n).

        The real part is the frequency-independent sum, the imaginary part the
        reactive one; zero parts add nothing, so this is each frequency's
        element-by-element complex stamping.
        """
        n, width = self.n, self.n * (self.n + 1)
        position, slot, sign = self._reactive
        offsets = np.arange(len(omega))[:, None] * width
        weights = omega[:, None] * self.values[slot] * sign
        system = np.empty((len(omega), width), dtype=complex)
        system.real = self._flat()
        system.imag = np.bincount(
            (offsets + position).ravel(), weights.ravel(), minlength=len(omega) * width
        ).reshape(len(omega), width)
        return system[:, : n * n].reshape(-1, n, n), system[:, n * n :]


def _columns(entries: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    position, slot, sign = zip(*entries) if entries else ((), (), ())
    return (np.array(position, dtype=np.intp), np.array(slot, dtype=np.intp),
            np.array(sign, dtype=float))


class DcTape(Tape):
    """The DC system of a circuit: its kinds' DC stamps, then gmin.

    The source slots hold ``source_scale * dc_value`` and the gmin slot gmin
    (see :meth:`bias`); each MOSFET owns four consecutive companion slots
    that :meth:`linearize` rewrites from the state ``x``.  With
    ``transient=True`` inductors are left to the transient's companion stamps.
    """

    def __init__(self, circuit: Circuit, *, transient: bool = False):
        super().__init__(circuit)
        self.transient = transient
        self.devices: list[tuple] = []
        self._device_pins: list[int] = []
        self._source_index: list[int] = []
        self._source_dc: list[float] = []
        record(self, circuit, DC)
        (self._gmin,) = self.slots(1)
        self.gmin_to_ground(self.n_nodes, self._gmin)

    def source(self, element) -> Slot:
        """The slot of an independent source's scaled DC value."""
        (slot,) = self.slots(1)
        self._source_index.append(slot.index)
        self._source_dc.append(element.dc_value)
        return slot

    def device(self, element, pins: tuple[int, ...]) -> list[Slot]:
        """Four slots holding ``element.companion(*pin_voltages)``."""
        slots = self.slots(4)
        first = len(self._device_pins)
        self._device_pins.extend(pins)
        self.devices.append(
            (element, first, len(self._device_pins), slots[0].index, slots[-1].index + 1)
        )
        return slots

    def compile(self) -> DcTape:
        super().compile()
        self._x = np.zeros(self.n + 1)  # the last entry is ground
        self._device_pins = np.array(self._device_pins, dtype=np.intp)
        self._source_index = np.array(self._source_index, dtype=np.intp)
        self._source_dc = np.array(self._source_dc, dtype=float)
        return self

    def bias(self, *, gmin: float, source_scale: float) -> None:
        """Set gmin and scale every independent source for one Newton solve."""
        self.values[self._gmin.index] = gmin
        self.values[self._source_index] = source_scale * self._source_dc

    def linearize(self, x: np.ndarray) -> None:
        """Rewrite every device's companion slots at the state ``x``."""
        if not self.devices:
            return
        self._x[:-1] = x
        volts = self._x[self._device_pins].tolist()
        values = self.values
        for element, lo, hi, first, last in self.devices:
            values[first:last] = element.companion(*volts[lo:hi])


def ac_system(circuit: Circuit, op, freqs: np.ndarray, gmin: float):
    """``(A, z)``: the AC systems around the operating point ``op`` at every
    frequency, stacked."""
    tape = Tape(circuit, op)
    record(tape, circuit, AC)
    tape.gmin_to_ground(tape.n_nodes, gmin)
    return tape.compile().assemble_stack(2.0 * np.pi * freqs)


# ---------------------------------------------------------------- the table
def _open(tape, e, *unknowns):
    """Capacitors are open at DC; the transient adds their companions."""


def _inductor_dc(tape, e, *unknowns):
    if not tape.transient:  # the transient adds the companion branch stamp
        tape.branch_impedance(*unknowns, 0.0)


def _mosfet_stamps(tape, d, g, s, b, gm, gds, gmb):
    """i_d = gm vgs + gds vds + gmb vbs, flowing drain -> source."""
    tape.vccs(d, s, g, s, gm)
    tape.conductance(d, s, gds)
    tape.vccs(d, s, b, s, gmb)


def _mosfet_dc(tape, m, d, g, s, b):
    gm, gds, gmb, ieq = tape.device(m, (d, g, s, b))
    _mosfet_stamps(tape, d, g, s, b, gm, gds, gmb)
    tape.current_source(d, s, ieq)


def _mosfet_ac(tape, m, d, g, s, b):
    """Small-signal model: gm/gds/gmb plus Meyer and junction capacitances."""
    device_op = tape.op.mosfet_ops[m.name]
    _mosfet_stamps(tape, d, g, s, b, device_op.gm, device_op.gds, device_op.gmb)
    caps = m.capacitances(device_op)
    for label, (na, nb) in (
        ("cgs", (g, s)), ("cgd", (g, d)), ("cgb", (g, b)), ("cdb", (d, b)), ("csb", (s, b))
    ):
        tape.conductance(na, nb, tape.reactive(caps[label]))


#: Columns of :data:`KINDS`.
DC, AC = 0, 1

#: Element kind -> (DC/transient stamps, AC stamps), each called as
#: ``stamp(tape, element, *unknowns)``: the element's node indices (ground is
#: -1), then its branch index if it has one.
KINDS = {
    Resistor: (lambda tape, e, *u: tape.conductance(*u, e.conductance),) * 2,
    Capacitor: (_open, lambda tape, e, *u: tape.conductance(*u, tape.reactive(e.capacitance))),
    Inductor: (
        _inductor_dc, lambda tape, e, *u: tape.branch_impedance(*u, tape.reactive(e.inductance))
    ),
    VoltageSource: (
        lambda tape, e, *u: tape.voltage_source(*u, tape.source(e)),
        lambda tape, e, *u: tape.voltage_source(*u, e.ac),
    ),
    CurrentSource: (
        lambda tape, e, *u: tape.current_source(*u, tape.source(e)),
        lambda tape, e, *u: tape.current_source(*u, e.ac),
    ),
    Vcvs: (lambda tape, e, *u: tape.vcvs(*u, e.gain),) * 2,
    Vccs: (lambda tape, e, *u: tape.vccs(*u, e.gm),) * 2,
    Mosfet: (_mosfet_dc, _mosfet_ac),
}


def lookup(table: dict, element):
    """``table``'s entry for the nearest kind ``element`` is an instance of."""
    for kind in type(element).__mro__:
        if kind in table:
            return table[kind]
    return None


def record(tape: Tape, circuit: Circuit, column: int) -> None:
    """Record every element's stamps from ``column`` of :data:`KINDS`."""
    for element in circuit.elements:
        stamps = lookup(KINDS, element)
        if stamps is None:
            raise TypeError(f"unsupported element type {type(element).__name__}")
        branch = tape.branch_index.get(element.name)
        unknowns = tape.pins(element) + (() if branch is None else (branch,))
        stamps[column](tape, element, *unknowns)
