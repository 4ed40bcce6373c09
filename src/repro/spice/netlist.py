"""Netlist container and MNA variable layout.

A :class:`Circuit` owns the elements and assigns solution-variable indices:
node voltages first (every node except ground), then one branch current per
group-2 element (voltage sources, VCVS, inductors).  The analysis modules
consume this layout when stamping.
"""

from __future__ import annotations

import collections

from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.exceptions import TopologyError
from repro.spice.mosfet import Mosfet

__all__ = ["Circuit", "GROUND_NAMES"]

#: Node names treated as the ground reference.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "vss!", "gnd!"})

#: Element kinds that carry an MNA branch-current variable.
_GROUP2 = (VoltageSource, Vcvs, Inductor)


class Circuit:
    """A flat netlist with named nodes.

    Elements are added with :meth:`add`; node names are created on first use.
    Ground may be written as any name in :data:`GROUND_NAMES` and is not a
    solution variable.
    """

    def __init__(self, title: str = "untitled"):
        self.title = str(title)
        self.elements: list[Element] = []
        self._names: set[str] = set()

    # ------------------------------------------------------------- building
    def add(self, element: Element) -> Element:
        """Add an element; element names must be unique within the circuit."""
        if not isinstance(element, Element):
            raise TypeError(f"expected an Element, got {type(element).__name__}")
        if element.name in self._names:
            raise TopologyError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self.elements.append(element)
        return element

    def extend(self, elements) -> None:
        for element in elements:
            self.add(element)

    # ------------------------------------------------------------- topology
    @staticmethod
    def is_ground(node: str) -> bool:
        return node in GROUND_NAMES

    @property
    def nodes(self) -> list[str]:
        """Non-ground node names in first-use order."""
        seen: list[str] = []
        seen_set: set[str] = set()
        for element in self.elements:
            for node in element.nodes:
                if not self.is_ground(node) and node not in seen_set:
                    seen.append(node)
                    seen_set.add(node)
        return seen

    @property
    def group2_elements(self) -> list[Element]:
        """Elements carrying a branch-current variable, in netlist order."""
        return [e for e in self.elements if isinstance(e, _GROUP2)]

    def node_index(self) -> dict[str, int]:
        """Map node name -> solution-vector index."""
        return {name: i for i, name in enumerate(self.nodes)}

    def branch_index(self) -> dict[str, int]:
        """Map group-2 element name -> solution-vector index."""
        n = len(self.nodes)
        return {e.name: n + i for i, e in enumerate(self.group2_elements)}

    @property
    def n_unknowns(self) -> int:
        return len(self.nodes) + len(self.group2_elements)

    def mosfets(self) -> list[Mosfet]:
        return [e for e in self.elements if isinstance(e, Mosfet)]

    def elements_of(self, kind) -> list[Element]:
        """All elements of a given class, in netlist order."""
        return [e for e in self.elements if isinstance(e, kind)]

    def find(self, name: str) -> Element:
        """Look up an element by name."""
        for element in self.elements:
            if element.name == name:
                return element
        raise KeyError(f"no element named {name!r}")

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check structural sanity before analysis.

        Raises :class:`TopologyError` if the circuit has no elements, has no
        ground reference, or contains nodes with no conductive path to ground
        (which would make the MNA matrix singular even with gmin).
        """
        if not self.elements:
            raise TopologyError("circuit has no elements")
        # Undirected conduction graph; ground is "0".
        neighbours: dict[str, set[str]] = {"0": set()}
        has_ground = False
        for element in self.elements:
            normalized = ["0" if self.is_ground(n) else n for n in element.nodes]
            if any(n == "0" for n in normalized):
                has_ground = True
            # Controlled-source control pins sense voltage only; they do not
            # provide a conductive path.  All other element pins do.
            if isinstance(element, (Vcvs, Vccs)):
                conductive = normalized[:2]
            else:
                conductive = normalized
            for n in normalized:
                neighbours.setdefault(n, set())
            for a in conductive:
                neighbours[a].update(b for b in conductive if b != a)
        if not has_ground:
            raise TopologyError("circuit has no ground node")
        # Breadth-first search from ground.
        connected = {"0"}
        frontier = collections.deque(["0"])
        while frontier:
            for neighbour in neighbours[frontier.popleft()] - connected:
                connected.add(neighbour)
                frontier.append(neighbour)
        floating = [n for n in neighbours if n not in connected]
        if floating:
            raise TopologyError(f"nodes with no path to ground: {sorted(floating)}")

    # ------------------------------------------------------------- reporting
    def summary(self) -> str:
        """Netlist-style, human-readable circuit description.

        Used by the Fig. 3 / Fig. 5 benches to stand in for the paper's
        schematic figures.
        """
        counts: dict[str, int] = {}
        for element in self.elements:
            key = type(element).__name__
            counts[key] = counts.get(key, 0) + 1
        lines = [f"* {self.title}"]
        lines.extend(element.describe() for element in self.elements)
        lines.append(
            f"* {len(self.nodes)} nodes, {len(self.elements)} elements: "
            + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Circuit {self.title!r}: {len(self.elements)} elements, {len(self.nodes)} nodes>"

    # Convenience constructors ------------------------------------------------
    def R(self, name, n1, n2, value) -> Resistor:
        return self.add(Resistor(name, n1, n2, value))

    def C(self, name, n1, n2, value) -> Capacitor:
        return self.add(Capacitor(name, n1, n2, value))

    def L(self, name, n1, n2, value) -> Inductor:
        return self.add(Inductor(name, n1, n2, value))

    def V(self, name, n1, n2, dc=0.0, ac=0.0, waveform=None) -> VoltageSource:
        return self.add(VoltageSource(name, n1, n2, dc=dc, ac=ac, waveform=waveform))

    def I(self, name, n1, n2, dc=0.0, ac=0.0, waveform=None) -> CurrentSource:  # noqa: E743
        return self.add(CurrentSource(name, n1, n2, dc=dc, ac=ac, waveform=waveform))

    def M(self, name, d, g, s, b, params, w, l) -> Mosfet:
        return self.add(Mosfet(name, d, g, s, b, params, w, l))

    def E(self, name, n1, n2, c1, c2, gain) -> Vcvs:
        return self.add(Vcvs(name, n1, n2, c1, c2, gain))

    def G(self, name, n1, n2, c1, c2, gm) -> Vccs:
        return self.add(Vccs(name, n1, n2, c1, c2, gm))
