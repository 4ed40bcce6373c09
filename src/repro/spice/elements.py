"""Circuit elements and source waveforms.

Elements are plain data holders.  How each kind stamps the MNA system lives
in one table, :data:`repro.spice.mna.KINDS`, which an analysis reads once per
call to compile its stamp tape, so no Newton loop dispatches on element type:
re-stamping every element at each iteration cost about 72% of the class-E
transient's time.

Two-terminal element node order is ``(n_plus, n_minus)``; positive branch
current flows from ``n_plus`` through the element to ``n_minus``.
"""

from __future__ import annotations

import dataclasses
import math

from repro.spice.units import format_eng, parse_value

__all__ = [
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
]


# --------------------------------------------------------------------- waves
class Waveform:
    """Base class for time-dependent source values."""

    def __call__(self, t: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def dc(self) -> float:
        """Value at t <= 0, used for the DC operating point."""
        return self(0.0)


@dataclasses.dataclass
class DcWave(Waveform):
    """Constant value."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value


@dataclasses.dataclass
class SinWave(Waveform):
    """``offset + amplitude * sin(2 pi freq (t - delay))`` (SPICE SIN)."""

    offset: float
    amplitude: float
    freq: float
    delay: float = 0.0

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.offset
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.freq * (t - self.delay)
        )


@dataclasses.dataclass
class PulseWave(Waveform):
    """SPICE PULSE(v1 v2 delay rise fall width period) waveform.

    Used as the gate drive of the class-E power amplifier's switch.
    """

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 0.5
    period: float = 1.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.rise <= 0 or self.fall <= 0:
            raise ValueError("rise/fall must be positive")
        if self.width < 0:
            raise ValueError("width must be non-negative")
        if self.rise + self.width + self.fall > self.period:
            raise ValueError("rise + width + fall must fit within the period")

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1


# ------------------------------------------------------------------ elements
class Element:
    """Base circuit element: a name plus named terminal connections."""

    def __init__(self, name: str, nodes: tuple[str, ...]):
        if not name:
            raise ValueError("element name must be non-empty")
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    def describe(self) -> str:
        """One-line netlist-style description."""
        return f"{self.name} {' '.join(self.nodes)}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class _TwoTerminal(Element):
    def __init__(self, name: str, n_plus: str, n_minus: str, value):
        super().__init__(name, (n_plus, n_minus))
        self.value = parse_value(value)

    @property
    def n_plus(self) -> str:
        return self.nodes[0]

    @property
    def n_minus(self) -> str:
        return self.nodes[1]


class Resistor(_TwoTerminal):
    """Linear resistor; ``value`` is the resistance in ohms."""

    def __init__(self, name, n_plus, n_minus, resistance):
        super().__init__(name, n_plus, n_minus, resistance)
        if self.value <= 0:
            raise ValueError(f"resistance must be positive, got {self.value}")

    @property
    def resistance(self) -> float:
        return self.value

    @property
    def conductance(self) -> float:
        return 1.0 / self.value

    def describe(self) -> str:
        return f"{self.name} {self.n_plus} {self.n_minus} {format_eng(self.value, 'Ohm')}"


class Capacitor(_TwoTerminal):
    """Linear capacitor; ``value`` is the capacitance in farads."""

    def __init__(self, name, n_plus, n_minus, capacitance):
        super().__init__(name, n_plus, n_minus, capacitance)
        if self.value <= 0:
            raise ValueError(f"capacitance must be positive, got {self.value}")

    @property
    def capacitance(self) -> float:
        return self.value

    def describe(self) -> str:
        return f"{self.name} {self.n_plus} {self.n_minus} {format_eng(self.value, 'F')}"


class Inductor(_TwoTerminal):
    """Linear inductor; ``value`` is the inductance in henries.

    Modelled as an MNA group-2 element (its branch current is a solution
    variable), which makes the DC short-circuit behaviour exact.
    """

    def __init__(self, name, n_plus, n_minus, inductance):
        super().__init__(name, n_plus, n_minus, inductance)
        if self.value <= 0:
            raise ValueError(f"inductance must be positive, got {self.value}")

    @property
    def inductance(self) -> float:
        return self.value

    def describe(self) -> str:
        return f"{self.name} {self.n_plus} {self.n_minus} {format_eng(self.value, 'H')}"


class _Source(_TwoTerminal):
    def __init__(self, name, n_plus, n_minus, dc=0.0, ac=0.0, waveform: Waveform | None = None):
        super().__init__(name, n_plus, n_minus, dc)
        self.ac = parse_value(ac)
        self.waveform = waveform

    def value_at(self, t: float) -> float:
        """Instantaneous source value for transient analysis."""
        if self.waveform is not None:
            return self.waveform(t)
        return self.value

    @property
    def dc_value(self) -> float:
        """Value used for the operating point (waveform at t=0 if present)."""
        if self.waveform is not None:
            return self.waveform.dc
        return self.value


class VoltageSource(_Source):
    """Independent voltage source (MNA group-2: adds a branch current)."""

    def describe(self) -> str:
        parts = [f"{self.name} {self.n_plus} {self.n_minus} DC {format_eng(self.value, 'V')}"]
        if self.ac:
            parts.append(f"AC {format_eng(self.ac, 'V')}")
        if self.waveform is not None:
            parts.append(type(self.waveform).__name__)
        return " ".join(parts)


class CurrentSource(_Source):
    """Independent current source (current flows n_plus -> n_minus inside)."""

    def describe(self) -> str:
        parts = [f"{self.name} {self.n_plus} {self.n_minus} DC {format_eng(self.value, 'A')}"]
        if self.ac:
            parts.append(f"AC {format_eng(self.ac, 'A')}")
        return " ".join(parts)


class Vcvs(Element):
    """Voltage-controlled voltage source (SPICE E element), group-2."""

    def __init__(self, name, n_plus, n_minus, ctrl_plus, ctrl_minus, gain):
        super().__init__(name, (n_plus, n_minus, ctrl_plus, ctrl_minus))
        self.gain = parse_value(gain)

    @property
    def n_plus(self):
        return self.nodes[0]

    @property
    def n_minus(self):
        return self.nodes[1]

    @property
    def ctrl_plus(self):
        return self.nodes[2]

    @property
    def ctrl_minus(self):
        return self.nodes[3]

    def describe(self) -> str:
        return (
            f"{self.name} {self.n_plus} {self.n_minus} "
            f"({self.ctrl_plus},{self.ctrl_minus}) gain={self.gain:g}"
        )


class Vccs(Element):
    """Voltage-controlled current source (SPICE G element)."""

    def __init__(self, name, n_plus, n_minus, ctrl_plus, ctrl_minus, gm):
        super().__init__(name, (n_plus, n_minus, ctrl_plus, ctrl_minus))
        self.gm = parse_value(gm)

    @property
    def n_plus(self):
        return self.nodes[0]

    @property
    def n_minus(self):
        return self.nodes[1]

    @property
    def ctrl_plus(self):
        return self.nodes[2]

    @property
    def ctrl_minus(self):
        return self.nodes[3]

    def describe(self) -> str:
        return (
            f"{self.name} {self.n_plus} {self.n_minus} "
            f"({self.ctrl_plus},{self.ctrl_minus}) gm={format_eng(self.gm, 'S')}"
        )
