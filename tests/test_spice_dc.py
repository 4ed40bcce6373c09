"""Tests for the DC operating-point solver."""

import numpy as np
import pytest

from repro.circuits import OpAmpProblem
from repro.circuits.opamp import build_opamp
from repro.spice import Circuit, dc, dc_operating_point, nmos_180, pmos_180
from repro.spice.exceptions import ConvergenceError, SingularMatrixError
from repro.spice.mna import DcTape


class TestLinearCircuits:
    def test_voltage_divider(self):
        c = Circuit("divider")
        c.V("vin", "in", "0", dc=10.0)
        c.R("r1", "in", "mid", 1000)
        c.R("r2", "mid", "0", 3000)
        op = dc_operating_point(c)
        assert op.v("mid") == pytest.approx(7.5, rel=1e-6)
        assert op.i("vin") == pytest.approx(-10.0 / 4000.0, rel=1e-6)

    def test_ground_voltage_is_zero(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=5.0)
        c.R("r1", "a", "0", 100)
        op = dc_operating_point(c)
        assert op.v("0") == 0.0
        assert op.v("gnd") == 0.0

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.I("i1", "0", "a", dc=1e-3)  # 1 mA into node a
        c.R("r1", "a", "0", 2000)
        op = dc_operating_point(c)
        assert op.v("a") == pytest.approx(2.0, rel=1e-6)

    def test_inductor_is_dc_short(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=3.0)
        c.L("l1", "a", "b", 1e-3)
        c.R("r1", "b", "0", 1000)
        op = dc_operating_point(c)
        assert op.v("b") == pytest.approx(3.0, rel=1e-6)
        assert op.i("l1") == pytest.approx(3e-3, rel=1e-6)

    def test_capacitor_is_dc_open(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=3.0)
        c.R("r1", "a", "b", 1000)
        c.C("c1", "b", "0", 1e-9)
        c.R("r2", "b", "0", 1e6)
        op = dc_operating_point(c)
        # Divider of 1k over 1M: nearly all voltage at b.
        assert op.v("b") == pytest.approx(3.0 * 1e6 / (1e6 + 1e3), rel=1e-6)

    def test_vcvs(self):
        c = Circuit()
        c.V("vin", "in", "0", dc=0.5)
        c.R("ri", "in", "0", 1000)
        c.E("e1", "out", "0", "in", "0", 10.0)
        c.R("rl", "out", "0", 1000)
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(5.0, rel=1e-6)

    def test_vccs(self):
        c = Circuit()
        c.V("vin", "in", "0", dc=1.0)
        c.R("ri", "in", "0", 1000)
        c.G("g1", "0", "out", "in", "0", 2e-3)  # current into out
        c.R("rl", "out", "0", 500)
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(1.0, rel=1e-6)

    def test_series_voltage_sources(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=1.0)
        c.V("v2", "b", "a", dc=2.0)
        c.R("r", "b", "0", 100)
        op = dc_operating_point(c)
        assert op.v("b") == pytest.approx(3.0, rel=1e-6)


class TestNonlinearCircuits:
    def test_diode_connected_nmos(self):
        c = Circuit("diode load")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.R("r1", "vdd", "d", 10_000)
        c.M("m1", "d", "d", "0", "0", nmos_180(), w=2e-6, l=0.18e-6)
        op = dc_operating_point(c)
        vd = op.v("d")
        assert 0.45 < vd < 1.2  # above vth, below supply
        dev = op.mosfet_ops["m1"]
        assert dev.region == "saturation"
        # KCL: resistor current equals drain current.
        assert (1.8 - vd) / 10_000 == pytest.approx(dev.ids, rel=1e-3)

    def test_nmos_source_follower(self):
        c = Circuit("follower")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.V("vg", "g", "0", dc=1.2)
        c.M("m1", "vdd", "g", "s", "0", nmos_180(), w=20e-6, l=0.36e-6)
        c.R("rs", "s", "0", 10_000)
        op = dc_operating_point(c)
        vs = op.v("s")
        assert 0.2 < vs < 1.2 - 0.4  # roughly vg - vth(with body effect)

    def test_cmos_inverter_high_and_low(self):
        def inverter(vin):
            c = Circuit("inverter")
            c.V("vdd", "vdd", "0", dc=1.8)
            c.V("vin", "in", "0", dc=vin)
            c.M("mn", "out", "in", "0", "0", nmos_180(), w=2e-6, l=0.18e-6)
            c.M("mp", "out", "in", "vdd", "vdd", pmos_180(), w=4e-6, l=0.18e-6)
            return dc_operating_point(c)

        assert inverter(0.0).v("out") == pytest.approx(1.8, abs=1e-3)
        assert inverter(1.8).v("out") == pytest.approx(0.0, abs=1e-3)
        mid = inverter(0.9).v("out")
        assert 0.1 < mid < 1.7

    def test_five_transistor_ota_balances(self):
        """Differential pair with mirror load: equal inputs -> symmetric op."""
        c = Circuit("ota")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.V("vip", "ip", "0", dc=0.9)
        c.V("vim", "im", "0", dc=0.9)
        c.I("ibias", "vdd", "tail_ref", dc=20e-6)
        c.M("mtail_ref", "tail_ref", "tail_ref", "0", "0", nmos_180(), 4e-6, 0.72e-6)
        c.M("mtail", "tail", "tail_ref", "0", "0", nmos_180(), 4e-6, 0.72e-6)
        c.M("m1", "x", "ip", "tail", "0", nmos_180(), 8e-6, 0.36e-6)
        c.M("m2", "out", "im", "tail", "0", nmos_180(), 8e-6, 0.36e-6)
        c.M("m3", "x", "x", "vdd", "vdd", pmos_180(), 16e-6, 0.36e-6)
        c.M("m4", "out", "x", "vdd", "vdd", pmos_180(), 16e-6, 0.36e-6)
        op = dc_operating_point(c)
        # Balanced inputs: output close to mirror node voltage.
        assert op.v("out") == pytest.approx(op.v("x"), abs=0.2)
        assert op.mosfet_ops["m1"].region == "saturation"


class TestRobustness:
    def test_guess_shape_validated(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=1.0)
        c.R("r1", "a", "0", 100)
        with pytest.raises(ValueError):
            dc_operating_point(c, v_guess=np.zeros(5))

    def test_voltage_source_loop_is_singular(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=1.0)
        c.V("v2", "a", "0", dc=2.0)  # conflicting parallel sources
        c.R("r", "a", "0", 100)
        with pytest.raises(
            SingularMatrixError,
            match=r"^singular MNA matrix in 'untitled' "
            r"\(floating node or voltage-source loop\?\)$",
        ):
            dc_operating_point(c)

    def test_iterations_reported(self):
        c = Circuit()
        c.V("v1", "a", "0", dc=1.0)
        c.R("r1", "a", "0", 100)
        op = dc_operating_point(c)
        assert op.iterations >= 1


def _state(circuit, op):
    """The unknown vector of a solved operating point."""
    x = np.zeros(circuit.n_unknowns)
    for name, i in circuit.node_index().items():
        x[i] = op.node_voltages[name]
    for name, i in circuit.branch_index().items():
        x[i] = op.branch_currents[name]
    return x


def _kcl_residual(circuit, x):
    """Max |KCL residual| of the nonlinear DC equations at ``x``."""
    tape = DcTape(circuit).compile()
    tape.bias(gmin=dc.GMIN, source_scale=1.0)
    tape.linearize(x)  # the companions are exact at the linearization point
    A, z = tape.assemble()
    return float(np.abs(A @ x - z).max())


def _five_transistor_ota():
    c = Circuit("ota")
    c.V("vdd", "vdd", "0", dc=1.8)
    c.V("vip", "ip", "0", dc=0.9)
    c.V("vim", "im", "0", dc=0.9)
    c.I("ib", "vdd", "bn", dc=20e-6)
    c.M("m8", "bn", "bn", "0", "0", nmos_180(), 4e-6, 0.5e-6)
    c.M("m5", "tail", "bn", "0", "0", nmos_180(), 8e-6, 0.5e-6)
    c.M("m1", "x", "ip", "tail", "0", nmos_180(), 8e-6, 0.36e-6)
    c.M("m2", "out", "im", "tail", "0", nmos_180(), 8e-6, 0.36e-6)
    c.M("m3", "x", "x", "vdd", "vdd", pmos_180(), 16e-6, 0.36e-6)
    c.M("m4", "out", "x", "vdd", "vdd", pmos_180(), 16e-6, 0.36e-6)
    return c


class TestFallbacks:
    """The convergence aids behind a failed plain Newton solve."""

    def test_gmin_stepping_rescues_an_opamp_design(self, monkeypatch):
        # Design 169 of 200 uniform op-amp sizings at default_rng(0) is one of
        # the two whose plain Newton solve fails.
        problem = OpAmpProblem()
        bounds = problem.bounds
        X = np.random.default_rng(0).uniform(bounds[:, 0], bounds[:, 1], (200, len(bounds)))
        circuit = build_opamp(problem.space.to_values(X[169]))
        calls = []

        def spy(name):
            real = getattr(dc, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("_gmin_stepping", "_source_stepping"):
            monkeypatch.setattr(dc, name, spy(name))
        op = dc_operating_point(circuit)
        assert calls == ["_gmin_stepping"]
        x = _state(circuit, op)
        assert _kcl_residual(circuit, x) < dc.ITOL

    def test_source_stepping_after_two_failed_attempts(self, monkeypatch):
        circuit = _five_transistor_ota()
        plain = dc_operating_point(circuit)
        real = dc._newton
        calls = []

        def first_two_fail(tape, x0, **kwargs):
            calls.append((kwargs["gmin"], kwargs["source_scale"]))
            return None if len(calls) <= 2 else real(tape, x0, **kwargs)

        monkeypatch.setattr(dc, "_newton", first_two_fail)
        op = dc_operating_point(circuit)
        # Plain Newton, then gmin stepping's first (1e-2) solve, then the ramp.
        assert calls == [(dc.GMIN, 1.0), (1e-2, 1.0)] + [
            (dc.GMIN, scale) for scale in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
        ]
        assert op.iterations > plain.iterations
        assert _kcl_residual(circuit, _state(circuit, op)) < dc.ITOL
        for node, v in plain.node_voltages.items():
            assert op.v(node) == pytest.approx(v, abs=1e-6)

    def test_every_attempt_failing_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(dc, "_newton", lambda *a, **k: None)
        with pytest.raises(
            ConvergenceError, match=r"^DC operating point of 'ota' did not converge$"
        ):
            dc_operating_point(_five_transistor_ota())
