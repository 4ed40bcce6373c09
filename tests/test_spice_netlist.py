"""Tests for repro.spice.netlist."""

import subprocess
import sys

import pytest

from repro.spice import Circuit, Resistor, nmos_180
from repro.spice.exceptions import TopologyError


def simple_divider():
    c = Circuit("divider")
    c.V("vin", "in", "0", dc=1.0)
    c.R("r1", "in", "mid", 1000)
    c.R("r2", "mid", "0", 1000)
    return c


class TestBuilding:
    def test_add_returns_element(self):
        c = Circuit()
        r = c.R("r1", "a", "0", 100)
        assert isinstance(r, Resistor)

    def test_duplicate_name_rejected(self):
        c = Circuit()
        c.R("r1", "a", "0", 100)
        with pytest.raises(TopologyError, match="duplicate"):
            c.R("r1", "b", "0", 100)

    def test_add_rejects_non_element(self):
        with pytest.raises(TypeError):
            Circuit().add("not an element")

    def test_extend(self):
        c = Circuit()
        c.extend([Resistor("r1", "a", "0", 1), Resistor("r2", "a", "0", 2)])
        assert len(c) == 2

    def test_find(self):
        c = simple_divider()
        assert c.find("r1").name == "r1"
        with pytest.raises(KeyError):
            c.find("nope")


class TestIndexing:
    def test_nodes_exclude_ground(self):
        c = simple_divider()
        assert c.nodes == ["in", "mid"]

    def test_ground_aliases(self):
        c = Circuit()
        c.R("r1", "a", "gnd", 100)
        c.R("r2", "a", "GND", 100)
        assert c.nodes == ["a"]

    def test_branch_index_offsets(self):
        c = simple_divider()
        c.L("l1", "mid", "0", 1e-6)
        idx = c.branch_index()
        assert idx["vin"] == 2
        assert idx["l1"] == 3
        assert c.n_unknowns == 4

    def test_mosfets_listing(self):
        c = Circuit()
        c.V("vdd", "vdd", "0", dc=1.8)
        c.M("m1", "vdd", "vdd", "0", "0", nmos_180(), 1e-6, 1e-6)
        assert [m.name for m in c.mosfets()] == ["m1"]


class TestValidation:
    def test_valid_circuit_passes(self):
        simple_divider().validate()

    def test_empty_circuit_rejected(self):
        with pytest.raises(TopologyError, match="no elements"):
            Circuit().validate()

    def test_no_ground_rejected(self):
        c = Circuit()
        c.R("r1", "a", "b", 100)
        with pytest.raises(TopologyError, match="ground"):
            c.validate()

    def test_floating_node_rejected(self):
        c = simple_divider()
        c.R("r3", "x", "y", 100)  # island disconnected from ground
        with pytest.raises(TopologyError, match="no path to ground"):
            c.validate()

    def test_control_pins_not_conductive(self):
        c = Circuit()
        c.V("vin", "in", "0", dc=1.0)
        c.R("r1", "in", "0", 100)
        # VCCS output to ground is fine, but its control pins alone must not
        # count as a conductive path for a floating node.
        c.G("g1", "0", "out", "in", "0", 1e-3)
        c.R("rl", "out", "0", 1000)
        c.validate()

    def test_validates_without_networkx(self):
        """The connectivity check needs nothing beyond the declared deps."""
        code = "\n".join([
            "import sys",
            "sys.modules['networkx'] = None",
            "from repro.spice import Circuit, TopologyError",
            "c = Circuit()",
            "c.V('vin', 'in', '0', dc=1.0)",
            "c.R('r1', 'in', '0', 100)",
            "c.validate()",
            "c.R('r2', 'x', 'y', 100)",
            "try:",
            "    c.validate()",
            "except TopologyError as exc:",
            "    print(exc)",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "nodes with no path to ground: ['x', 'y']"


class TestSummary:
    def test_summary_lists_all_elements(self):
        c = simple_divider()
        text = c.summary()
        assert "* divider" in text
        assert "r1" in text and "r2" in text and "vin" in text
        assert "2 Resistor" in text
        assert "2 nodes" in text
