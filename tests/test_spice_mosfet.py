"""Tests for the level-1 MOSFET model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice.mosfet import Mosfet, MosfetParams, nmos_180, pmos_180


@pytest.fixture
def nmos():
    return Mosfet("m1", "d", "g", "s", "b", nmos_180(), w=10e-6, l=0.18e-6)


@pytest.fixture
def pmos():
    return Mosfet("m2", "d", "g", "s", "b", pmos_180(), w=20e-6, l=0.18e-6)


class TestRegions:
    def test_cutoff(self, nmos):
        op = nmos.evaluate(1.0, 0.2, 0.0, 0.0)
        assert op.region == "cutoff"
        assert op.ids == 0.0
        assert op.gm == 0.0

    def test_saturation(self, nmos):
        op = nmos.evaluate(1.8, 1.0, 0.0, 0.0)
        assert op.region == "saturation"
        assert op.ids > 0
        assert op.gm > 0
        assert op.gds > 0

    def test_triode(self, nmos):
        op = nmos.evaluate(0.05, 1.2, 0.0, 0.0)
        assert op.region == "triode"
        assert op.ids > 0

    def test_saturation_current_square_law(self, nmos):
        vov = 0.4
        op = nmos.evaluate(1.8, nmos.params.vt0 + vov, 0.0, 0.0)
        expected = 0.5 * nmos.beta * vov**2 * (1 + nmos.lam * 1.8)
        assert op.ids == pytest.approx(expected, rel=1e-12)

    def test_region_boundary_continuity(self, nmos):
        vgs = 1.0
        vov = vgs - nmos.params.vt0
        below = nmos.evaluate(vov - 1e-9, vgs, 0.0, 0.0)
        above = nmos.evaluate(vov + 1e-9, vgs, 0.0, 0.0)
        assert below.ids == pytest.approx(above.ids, rel=1e-6)
        assert below.gm == pytest.approx(above.gm, rel=1e-5)

    def test_pmos_conducts_negative_current(self, pmos):
        # Source at vdd, gate low: PMOS on, current flows source->drain,
        # so drain current (into drain) is negative.
        op = pmos.evaluate(0.0, 0.0, 1.8, 1.8)
        assert op.region == "saturation"
        assert op.ids < 0

    def test_pmos_cutoff(self, pmos):
        op = pmos.evaluate(0.0, 1.8, 1.8, 1.8)
        assert op.region == "cutoff"
        assert op.ids == 0.0


class TestBodyEffect:
    def test_reverse_bias_raises_vth(self, nmos):
        op0 = nmos.evaluate(1.8, 1.0, 0.0, 0.0)
        op1 = nmos.evaluate(1.8, 1.0, 0.0, -0.5)  # vbs = -0.5
        assert op1.vth > op0.vth
        assert op1.ids < op0.ids

    def test_gamma_zero_no_body_effect(self):
        params = MosfetParams(
            polarity=+1, vt0=0.45, kp=280e-6, clm=0.018e-6, gamma=0.0,
            phi=0.85, cox=8.6e-3, cov=0.35e-9, cj=1e-3, ldiff=0.5e-6,
        )
        m = Mosfet("m", "d", "g", "s", "b", params, 1e-6, 1e-6)
        op = m.evaluate(1.8, 1.0, 0.0, -1.0)
        assert op.vth == pytest.approx(0.45)
        assert op.gmb == 0.0

    def test_forward_bias_clamped(self, nmos):
        # Strongly forward-biased bulk must not produce NaN.
        op = nmos.evaluate(1.8, 1.0, 0.0, 2.0)
        assert np.isfinite(op.ids)


class TestDerivatives:
    @pytest.mark.parametrize(
        "bias",
        [
            (1.2, 0.9, 0.1, 0.0),  # saturation
            (0.1, 1.5, 0.0, 0.0),  # triode
            (-0.3, 0.8, 0.0, 0.0),  # reversed drain/source
            (1.8, 1.0, 0.2, -0.3),  # body effect active
        ],
    )
    def test_finite_difference(self, nmos, bias):
        vd, vg, vs, vb = bias
        eps = 1e-7
        op = nmos.evaluate(vd, vg, vs, vb)
        num_gm = (nmos.evaluate(vd, vg + eps, vs, vb).ids
                  - nmos.evaluate(vd, vg - eps, vs, vb).ids) / (2 * eps)
        num_gds = (nmos.evaluate(vd + eps, vg, vs, vb).ids
                   - nmos.evaluate(vd - eps, vg, vs, vb).ids) / (2 * eps)
        num_gmb = (nmos.evaluate(vd, vg, vs, vb + eps).ids
                   - nmos.evaluate(vd, vg, vs, vb - eps).ids) / (2 * eps)
        assert op.gm == pytest.approx(num_gm, abs=1e-8)
        assert op.gds == pytest.approx(num_gds, abs=1e-8)
        assert op.gmb == pytest.approx(num_gmb, abs=1e-8)

    def test_pmos_finite_difference(self, pmos):
        vd, vg, vs, vb = 0.3, 0.2, 1.8, 1.8
        eps = 1e-7
        op = pmos.evaluate(vd, vg, vs, vb)
        num_gm = (pmos.evaluate(vd, vg + eps, vs, vb).ids
                  - pmos.evaluate(vd, vg - eps, vs, vb).ids) / (2 * eps)
        assert op.gm == pytest.approx(num_gm, abs=1e-8)

    def test_ieq_linearization_exact(self, nmos):
        op = nmos.evaluate(1.2, 0.9, 0.1, 0.0)
        reconstructed = op.gm * op.vgs + op.gds * op.vds + op.gmb * op.vbs + op.ieq
        assert reconstructed == pytest.approx(op.ids, abs=1e-15)


class TestSymmetry:
    def test_drain_source_antisymmetry(self, nmos):
        """Swapping D and S negates the current of a symmetric device."""
        fwd = nmos.evaluate(0.3, 1.2, 0.0, 0.0)
        rev = nmos.evaluate(0.0, 1.2, 0.3, 0.0)
        assert fwd.ids == pytest.approx(-rev.ids, rel=1e-12)

    def test_zero_vds_zero_current(self, nmos):
        op = nmos.evaluate(0.0, 1.5, 0.0, 0.0)
        assert op.ids == pytest.approx(0.0, abs=1e-18)


class TestCapacitances:
    def test_regions_have_expected_ordering(self, nmos):
        cut = nmos.capacitances(nmos.evaluate(1.0, 0.0, 0.0, 0.0))
        sat = nmos.capacitances(nmos.evaluate(1.8, 1.0, 0.0, 0.0))
        tri = nmos.capacitances(nmos.evaluate(0.05, 1.5, 0.0, 0.0))
        c_area = nmos.params.cox * nmos.w * nmos.l
        assert sat["cgs"] == pytest.approx(2 / 3 * c_area + nmos.params.cov * nmos.w)
        assert tri["cgs"] == pytest.approx(0.5 * c_area + nmos.params.cov * nmos.w)
        assert cut["cgb"] == pytest.approx(c_area)
        assert sat["cgd"] < sat["cgs"]

    def test_all_positive(self, nmos):
        for bias in [(1.8, 1.0, 0, 0), (0.05, 1.5, 0, 0), (1.0, 0.0, 0, 0)]:
            caps = nmos.capacitances(nmos.evaluate(*bias))
            assert all(v >= 0 for v in caps.values())


class TestValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Mosfet("m", "d", "g", "s", "b", nmos_180(), w=0, l=1e-6)
        with pytest.raises(ValueError):
            Mosfet("m", "d", "g", "s", "b", nmos_180(), w=1e-6, l=-1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MosfetParams(polarity=2, vt0=0.4, kp=1e-4, clm=0, gamma=0, phi=0.8,
                         cox=8e-3, cov=0, cj=0, ldiff=0)
        with pytest.raises(ValueError):
            MosfetParams(polarity=1, vt0=0.4, kp=-1, clm=0, gamma=0, phi=0.8,
                         cox=8e-3, cov=0, cj=0, ldiff=0)

    def test_describe(self, nmos):
        text = nmos.describe()
        assert "NMOS" in text and "W=10u" in text


@settings(max_examples=60, deadline=None)
@given(
    vd=st.floats(-2.0, 2.0),
    vg=st.floats(-2.0, 2.0),
    vs=st.floats(-2.0, 2.0),
    vb=st.floats(-2.0, 0.0),
)
def test_property_nmos_evaluate_finite_and_consistent(vd, vg, vs, vb):
    m = Mosfet("m1", "d", "g", "s", "b", nmos_180(), w=5e-6, l=0.36e-6)
    op = m.evaluate(vd, vg, vs, vb)
    assert np.isfinite(op.ids)
    assert np.isfinite(op.gm) and np.isfinite(op.gds) and np.isfinite(op.gmb)
    recon = op.gm * op.vgs + op.gds * op.vds + op.gmb * op.vbs + op.ieq
    assert recon == pytest.approx(op.ids, abs=1e-12, rel=1e-9)


class TestCompanion:
    """``companion`` is ``evaluate``'s ``(gm, gds, gmb, ieq)``, bit for bit."""

    @staticmethod
    def _bits(values):
        return np.array(values, dtype=float).tobytes()

    def _check(self, m, volts):
        op = m.evaluate(*volts)
        assert self._bits(m.companion(*volts)) == self._bits((op.gm, op.gds, op.gmb, op.ieq))
        return op

    @pytest.mark.parametrize("params", [nmos_180, pmos_180])
    def test_seeded_voltages_cover_every_branch(self, params):
        m = Mosfet("m", "d", "g", "s", "b", params(), w=8e-6, l=0.36e-6)
        pol = m.params.polarity
        rng = np.random.default_rng(7)
        regions, swaps, clamps = set(), set(), 0
        for volts in rng.uniform(-2.5, 2.5, (4000, 4)).tolist():
            op = self._check(m, volts)
            vd, vg, vs, vb = (pol * v for v in volts)
            regions.add(op.region)
            swaps.add(vd < vs)
            clamps += m.params.phi - (vb - min(vd, vs)) < 1e-3
        assert regions == {"cutoff", "triode", "saturation"}
        assert swaps == {True, False}
        assert clamps > 0

    @pytest.mark.parametrize(
        "volts",
        [
            (1.0, 0.2, 0.0, 0.0),  # cutoff
            (0.05, 1.2, 0.0, 0.0),  # triode
            (1.8, 1.0, 0.0, 0.0),  # saturation
            (0.0, 1.2, 0.3, 0.0),  # drain and source swapped
            (1.8, 1.0, 0.0, 2.0),  # forward-biased bulk clamp
            (0.0, 0.0, 0.0, 0.0),  # all zero: signed zeros must match too
        ],
    )
    def test_named_biases(self, nmos, pmos, volts):
        self._check(nmos, volts)
        self._check(pmos, tuple(-v for v in volts))

    def test_no_body_effect(self):
        params = MosfetParams(
            polarity=+1, vt0=0.45, kp=280e-6, clm=0.018e-6, gamma=0.0,
            phi=0.85, cox=8.6e-3, cov=0.35e-9, cj=1e-3, ldiff=0.5e-6,
        )
        m = Mosfet("m", "d", "g", "s", "b", params, 1e-6, 1e-6)
        for volts in np.random.default_rng(8).uniform(-2.0, 2.0, (200, 4)).tolist():
            self._check(m, volts)
