"""Tests for the AC small-signal analysis."""

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    OperatingPoint,
    SingularMatrixError,
    ac_analysis,
    bode_metrics,
    dc_operating_point,
    logspace_frequencies,
    nmos_180,
)


class TestFrequencyGrid:
    def test_logspace_endpoints(self):
        f = logspace_frequencies(1.0, 1e6, 10)
        assert f[0] == pytest.approx(1.0)
        assert f[-1] == pytest.approx(1e6)
        assert len(f) == 61

    def test_logspace_validation(self):
        with pytest.raises(ValueError):
            logspace_frequencies(0, 1e3)
        with pytest.raises(ValueError):
            logspace_frequencies(1e3, 1e3)


class TestLinearAc:
    def test_rc_lowpass_matches_analytic(self):
        R, C = 1000.0, 1e-6
        c = Circuit("rc")
        c.V("vin", "in", "0", ac=1.0)
        c.R("r", "in", "out", R)
        c.C("c", "out", "0", C)
        freqs = logspace_frequencies(1.0, 1e6, 10)
        res = ac_analysis(c, freqs)
        measured = res.v("out")
        expected = 1.0 / (1.0 + 2j * np.pi * freqs * R * C)
        np.testing.assert_allclose(measured, expected, rtol=1e-6)

    def test_rl_highpass(self):
        R, L = 100.0, 1e-3
        c = Circuit("rl")
        c.V("vin", "in", "0", ac=1.0)
        c.R("r", "in", "out", R)
        c.L("l", "out", "0", L)
        freqs = logspace_frequencies(1.0, 1e6, 10)
        res = ac_analysis(c, freqs)
        expected = (2j * np.pi * freqs * L) / (R + 2j * np.pi * freqs * L)
        np.testing.assert_allclose(res.v("out"), expected, rtol=1e-6)

    def test_series_rlc_resonance(self):
        R, L, C = 10.0, 1e-6, 1e-9
        f0 = 1.0 / (2 * np.pi * np.sqrt(L * C))
        c = Circuit("rlc")
        c.V("vin", "in", "0", ac=1.0)
        c.R("r", "in", "a", R)
        c.L("l", "a", "b", L)
        c.C("c", "b", "0", C)
        res = ac_analysis(c, np.array([f0]))
        # At resonance L and C cancel: all drive appears across R, so the
        # current is 1/R and |V(b)| = |I| * 1/(w C).
        i_mag = np.abs(res.i("vin"))[0]
        assert i_mag == pytest.approx(1.0 / R, rel=1e-6)

    def test_transfer_helper(self):
        c = Circuit()
        c.V("vin", "in", "0", ac=1.0)
        c.R("r1", "in", "out", 1000)
        c.R("r2", "out", "0", 1000)
        res = ac_analysis(c, np.array([1e3]))
        h = res.transfer("out", "in")
        assert h[0] == pytest.approx(0.5, rel=1e-9)

    def test_ground_node_voltage_zero(self):
        c = Circuit()
        c.V("vin", "in", "0", ac=1.0)
        c.R("r", "in", "0", 100)
        res = ac_analysis(c, np.array([1e3]))
        np.testing.assert_array_equal(res.v("0"), 0.0)


class TestMosfetAc:
    def test_common_source_gain(self):
        c = Circuit("cs")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.V("vin", "g", "0", dc=0.65, ac=1.0)
        c.R("rd", "vdd", "d", 10_000)
        c.M("m1", "d", "g", "0", "0", nmos_180(), w=10e-6, l=0.5e-6)
        op = dc_operating_point(c)
        assert op.mosfet_ops["m1"].region == "saturation"
        res = ac_analysis(c, np.array([100.0]), op=op)
        gm = op.mosfet_ops["m1"].gm
        gds = op.mosfet_ops["m1"].gds
        expected_gain = gm / (1.0 / 10_000 + gds)
        assert np.abs(res.v("d"))[0] == pytest.approx(expected_gain, rel=1e-3)

    def test_gain_rolls_off_at_high_frequency(self):
        c = Circuit("cs rolloff")
        c.V("vdd", "vdd", "0", dc=1.8)
        c.V("vin", "g", "0", dc=0.65, ac=1.0)
        c.R("rd", "vdd", "d", 10_000)
        c.C("cl", "d", "0", 1e-12)
        c.M("m1", "d", "g", "0", "0", nmos_180(), w=10e-6, l=0.5e-6)
        freqs = logspace_frequencies(1e3, 1e11, 5)
        res = ac_analysis(c, freqs)
        mag = np.abs(res.v("d"))
        assert mag[-1] < 0.05 * mag[0]


class TestValidation:
    def test_rejects_empty_freqs(self):
        c = Circuit()
        c.V("v", "a", "0", ac=1.0)
        c.R("r", "a", "0", 1)
        with pytest.raises(ValueError):
            ac_analysis(c, np.array([]))

    def test_rejects_nonpositive_freqs(self):
        c = Circuit()
        c.V("v", "a", "0", ac=1.0)
        c.R("r", "a", "0", 1)
        with pytest.raises(ValueError):
            ac_analysis(c, np.array([0.0, 1.0]))

    def test_singular_system_names_the_first_frequency(self):
        """A voltage-source loop is singular at every frequency of the sweep."""
        c = Circuit("loop")
        c.V("v1", "a", "0", dc=1.0, ac=1.0)
        c.V("v2", "a", "0", dc=1.0)
        c.R("r", "a", "0", 1e3)
        op = OperatingPoint({"a": 1.0}, {"v1": 0.0, "v2": 0.0}, {}, 1)
        with pytest.raises(
            SingularMatrixError, match=r"^singular AC MNA matrix at f=1000 Hz in 'loop'$"
        ):
            ac_analysis(c, np.array([1e3, 10.0, 1e5]), op=op)


class TestBodeMetrics:
    def test_single_pole_system(self):
        """H(s) = A / (1 + s/p): UGF = A*p, PM ~ 90 deg."""
        A, p = 1000.0, 1e3  # pole at 1 kHz
        freqs = logspace_frequencies(1.0, 1e8, 40)
        H = A / (1.0 + 1j * freqs / p)
        m = bode_metrics(freqs, H)
        assert m.dc_gain_db == pytest.approx(60.0, abs=0.01)
        assert m.ugf_hz == pytest.approx(A * p, rel=0.01)
        assert m.phase_margin_deg == pytest.approx(90.0, abs=1.0)

    def test_two_pole_phase_margin(self):
        A, p1, p2 = 1000.0, 1e3, 1e6
        freqs = logspace_frequencies(1.0, 1e9, 40)
        H = A / ((1.0 + 1j * freqs / p1) * (1.0 + 1j * freqs / p2))
        m = bode_metrics(freqs, H)
        # Analytic: |H| = 1 at ~786 kHz, where total lag is ~128 deg,
        # leaving a ~52 deg margin.
        from scipy.optimize import brentq

        ugf = brentq(lambda f: abs(A / ((1 + 1j * f / p1) * (1 + 1j * f / p2))) - 1, 1e3, 1e8)
        pm = 180.0 - np.degrees(np.arctan(ugf / p1) + np.arctan(ugf / p2))
        assert m.ugf_hz == pytest.approx(ugf, rel=0.01)
        assert m.phase_margin_deg == pytest.approx(pm, abs=1.0)

    def test_inverting_amplifier_phase_reference(self):
        """An inverting single-pole amp must still report ~90 deg margin."""
        A, p = 1000.0, 1e3
        freqs = logspace_frequencies(1.0, 1e8, 40)
        H = -A / (1.0 + 1j * freqs / p)
        m = bode_metrics(freqs, H)
        assert m.phase_margin_deg == pytest.approx(90.0, abs=1.0)

    def test_no_crossing_raises(self):
        from repro.spice.exceptions import AnalysisError

        freqs = logspace_frequencies(1.0, 1e3, 10)
        H = np.full(len(freqs), 100.0 + 0j)
        with pytest.raises(AnalysisError, match="never crosses"):
            bode_metrics(freqs, H)

    def test_subunity_gain_raises(self):
        from repro.spice.exceptions import AnalysisError

        freqs = logspace_frequencies(1.0, 1e3, 10)
        H = np.full(len(freqs), 0.5 + 0j)
        with pytest.raises(AnalysisError):
            bode_metrics(freqs, H)
