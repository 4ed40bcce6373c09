"""Tests for the transient analysis."""

import numpy as np
import pytest

from repro.circuits.classe import FAILURE_FOM, ClassEProblem
from repro.spice import (
    Circuit,
    ConvergenceError,
    Mosfet,
    OperatingPoint,
    PulseWave,
    SingularMatrixError,
    SinWave,
    dc_operating_point,
    nmos_180,
    pmos_180,
    transient,
    transient_analysis,
)
from repro.spice.analysis import average_power, fundamental_phasor, fundamental_power


class TestLinearTransient:
    def test_rc_step_response(self):
        R, C = 1000.0, 1e-6
        tau = R * C
        c = Circuit("rc step")
        c.V("vin", "in", "0", waveform=PulseWave(0, 1, delay=tau / 100,
                                                 rise=1e-9, fall=1e-9,
                                                 width=100 * tau, period=200 * tau))
        c.R("r", "in", "out", R)
        c.C("c", "out", "0", C)
        res = transient_analysis(c, 5 * tau, tau / 100)
        v = res.v("out")
        t_rel = res.t - tau / 100
        expected = np.where(t_rel > 0, 1 - np.exp(-t_rel / tau), 0.0)
        assert np.max(np.abs(v - expected)) < 0.01

    def test_rl_current_ramp(self):
        L, R = 1e-3, 10.0
        tau = L / R
        c = Circuit("rl")
        c.V("vin", "in", "0", waveform=PulseWave(0, 1, delay=0, rise=1e-9,
                                                 fall=1e-9, width=100 * tau,
                                                 period=200 * tau))
        c.R("r", "in", "a", R)
        c.L("l", "a", "0", L)
        res = transient_analysis(c, 5 * tau, tau / 200)
        i = res.i("l")
        expected = (1.0 / R) * (1 - np.exp(-res.t / tau))
        assert np.max(np.abs(i - expected)) < 0.01 / R + 5e-3

    def test_lc_oscillation_energy_conserved(self):
        """Trapezoidal integration must not damp a lossless LC tank."""
        L, C = 1e-6, 1e-9
        c = Circuit("lc")
        # Start from a charged capacitor via an initial current source pulse.
        c.I("ikick", "0", "top", waveform=PulseWave(0, 1e-3, delay=0, rise=1e-12,
                                                    fall=1e-12, width=5e-9,
                                                    period=1.0))
        c.C("c", "top", "0", C)
        c.L("l", "top", "0", L)
        f0 = 1 / (2 * np.pi * np.sqrt(L * C))
        period = 1 / f0
        res = transient_analysis(c, 20 * period, period / 200)
        v = res.v("top")
        # Compare oscillation envelope at the start and end.
        n = len(v)
        early = np.max(np.abs(v[n // 10: 2 * n // 10]))
        late = np.max(np.abs(v[-n // 10:]))
        assert late == pytest.approx(early, rel=0.02)

    def test_sin_source_steady_state(self):
        c = Circuit("sin")
        c.V("vin", "in", "0", waveform=SinWave(0.0, 1.0, 1e3))
        c.R("r", "in", "out", 1000)
        c.R("r2", "out", "0", 1000)
        res = transient_analysis(c, 2e-3, 1e-6)
        expected = 0.5 * np.sin(2 * np.pi * 1e3 * res.t)
        assert np.max(np.abs(res.v("out") - expected)) < 1e-6


class TestNonlinearTransient:
    def test_cmos_inverter_switches(self):
        c = Circuit("inv tran")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.V("vin", "in", "0", waveform=PulseWave(0, 1.8, delay=1e-9, rise=0.1e-9,
                                                 fall=0.1e-9, width=5e-9, period=10e-9))
        c.M("mn", "out", "in", "0", "0", nmos_180(), w=2e-6, l=0.18e-6)
        c.M("mp", "out", "in", "vdd", "vdd", pmos_180(), w=4e-6, l=0.18e-6)
        c.C("cl", "out", "0", 10e-15)
        res = transient_analysis(c, 10e-9, 0.02e-9)
        v = res.v("out")
        assert v[0] == pytest.approx(1.8, abs=0.01)  # input low -> output high
        mid = np.searchsorted(res.t, 4e-9)
        assert v[mid] == pytest.approx(0.0, abs=0.01)  # input high -> output low
        assert v[-1] == pytest.approx(1.8, abs=0.05)  # input back low

    def test_nmos_switch_with_rl_load(self):
        """A crude class-D-like stage: switching must stay convergent."""
        c = Circuit("switcher")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.V("vg", "g", "0", waveform=PulseWave(0, 1.8, rise=1e-9, fall=1e-9,
                                               width=48e-9, period=100e-9))
        c.R("rl", "vdd", "d", 100)
        c.M("m1", "d", "g", "0", "0", nmos_180(), w=50e-6, l=0.18e-6)
        res = transient_analysis(c, 500e-9, 1e-9)
        v = res.v("d")
        assert v.max() > 1.7  # off state reaches supply
        assert v.min() < 0.3  # on state pulls low


def _switch():
    c = Circuit("switcher")
    c.V("vdd", "vdd", "0", dc=1.8)
    c.V("vg", "g", "0", waveform=PulseWave(0, 1.8, rise=1e-9, fall=1e-9,
                                           width=48e-9, period=100e-9))
    c.R("rl", "vdd", "d", 100)
    c.M("m1", "d", "g", "0", "0", nmos_180(), w=50e-6, l=0.18e-6)
    c.C("cd", "d", "0", 1e-12)
    return c


class TestFailurePaths:
    def test_singular_step_names_time_and_circuit(self):
        """A voltage-source loop, with the DC solve skipped by ``op0``."""
        c = Circuit("loop")
        c.V("v1", "a", "0", dc=1.0)
        c.V("v2", "a", "0", dc=1.0)
        c.R("r", "a", "0", 1e3)
        op0 = OperatingPoint({"a": 1.0}, {"v1": 0.0, "v2": 0.0}, {}, 1)
        with pytest.raises(
            SingularMatrixError, match=r"^singular transient MNA matrix at t=1e-09s in 'loop'$"
        ):
            transient_analysis(c, 1e-8, 1e-9, op0=op0)

    def test_step_that_never_converges_halves_six_times(self, monkeypatch):
        monkeypatch.setattr(transient, "newton", lambda *args, **kwargs: None)
        # The first step of 1e-9 s, halved six times: t = 1e-9 / 64.
        with pytest.raises(
            ConvergenceError,
            match=r"^transient step at t=1\.5625e-11s did not converge in 'switcher' "
            r"\(after 6 halvings\)$",
        ):
            transient_analysis(_switch(), 1e-8, 1e-9)

    def test_classe_scores_a_non_converging_transient_as_failure(self, monkeypatch):
        monkeypatch.setattr(transient, "newton", lambda *args, **kwargs: None)
        problem = ClassEProblem()
        result = problem.evaluate(problem.bounds.mean(axis=1))
        assert result.fom == FAILURE_FOM
        assert result.feasible is False
        assert result.metrics == {}

    def test_nan_companion_halves_the_step(self, monkeypatch):
        """A non-finite Newton solution retries the step in halves; it is not
        a singular system."""
        c = _switch()
        op0 = dc_operating_point(c)
        real_companion = Mosfet.companion
        calls = []

        def nan_once(self, *volts):
            calls.append(volts)
            if len(calls) == 1:
                return (float("nan"),) * 4
            return real_companion(self, *volts)

        real_advance = transient._advance_to
        depths = []

        def advance(tape, x, t_old, dt, depth=0):
            depths.append(depth)
            return real_advance(tape, x, t_old, dt, depth)

        monkeypatch.setattr(Mosfet, "companion", nan_once)
        monkeypatch.setattr(transient, "_advance_to", advance)
        res = transient_analysis(c, 1e-8, 1e-9, op0=op0)
        # The first step failed once and was split into two halves.
        assert depths[:3] == [0, 1, 1]
        assert max(depths) == 1
        assert np.isfinite(res.solution).all()


class TestValidation:
    def test_rejects_bad_dt(self):
        c = Circuit()
        c.V("v", "a", "0", dc=1.0)
        c.R("r", "a", "0", 1)
        with pytest.raises(ValueError):
            transient_analysis(c, 1.0, 0.0)
        with pytest.raises(ValueError):
            transient_analysis(c, 1.0, 2.0)
        with pytest.raises(ValueError):
            transient_analysis(c, 1.0, 0.1, method="rk4")

    def test_window_mask(self):
        c = Circuit()
        c.V("v", "a", "0", dc=1.0)
        c.R("r", "a", "0", 1)
        res = transient_analysis(c, 1e-3, 1e-4)
        mask = res.window(5e-4)
        assert res.t[mask][0] == pytest.approx(5e-4)
        assert mask.sum() == 6


class TestFourierMeasurements:
    def test_fundamental_phasor_pure_tone(self):
        f0 = 1e6
        t = np.arange(0, 4 / f0, 1 / (200 * f0))
        sig = 3.0 * np.cos(2 * np.pi * f0 * t - 0.5)
        phasor = fundamental_phasor(t, sig, f0)
        assert abs(phasor) == pytest.approx(3.0, rel=1e-6)
        assert np.angle(phasor) == pytest.approx(-0.5, abs=1e-6)

    def test_fundamental_rejects_harmonics(self):
        f0 = 1e6
        t = np.arange(0, 4 / f0, 1 / (200 * f0))
        sig = 2.0 * np.cos(2 * np.pi * f0 * t) + 1.0 * np.cos(2 * np.pi * 3 * f0 * t)
        assert abs(fundamental_phasor(t, sig, f0)) == pytest.approx(2.0, rel=1e-6)

    def test_fundamental_power_into_load(self):
        f0, R = 1e6, 50.0
        t = np.arange(0, 2 / f0, 1 / (100 * f0))
        v = 10.0 * np.sin(2 * np.pi * f0 * t)
        assert fundamental_power(t, v, f0, R) == pytest.approx(1.0, rel=1e-6)

    def test_window_must_cover_integer_periods(self):
        f0 = 1e6
        t = np.arange(0, 1.37 / f0, 1 / (100 * f0))
        with pytest.raises(ValueError, match="integer number"):
            fundamental_phasor(t, np.sin(2 * np.pi * f0 * t), f0)

    def test_average_power_dc(self):
        t = np.linspace(0, 1, 100)
        v = np.full_like(t, 2.0)
        i = np.full_like(t, 3.0)
        assert average_power(t, v, i) == pytest.approx(6.0)

    def test_average_power_orthogonal_tone(self):
        t = np.linspace(0, 1, 10_001)
        v = np.sin(2 * np.pi * 5 * t)
        i = np.cos(2 * np.pi * 5 * t)
        assert average_power(t, v, i) == pytest.approx(0.0, abs=1e-6)

    def test_pae(self):
        from repro.spice.analysis import power_added_efficiency

        assert power_added_efficiency(1.0, 0.1, 2.0) == pytest.approx(0.45)
        assert power_added_efficiency(0.05, 0.1, 2.0) == 0.0
        with pytest.raises(ValueError):
            power_added_efficiency(1.0, 0.1, 0.0)
