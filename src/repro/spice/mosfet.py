"""Level-1 (Shichman–Hodges) MOSFET model with Meyer capacitances.

This is the nonlinear device behind both benchmark circuits.  It implements
the classic square-law model with channel-length modulation and body effect:

* cutoff     (vgs <= vth):      ids = 0
* triode     (vds < vgs - vth): ids = kp W/L (vov - vds/2) vds (1 + lambda vds)
* saturation (vds >= vgs-vth):  ids = kp W/(2L) vov^2 (1 + lambda vds)

with ``vth = vt0 + gamma (sqrt(phi - vbs) - sqrt(phi))``.  Both regions carry
the ``(1 + lambda vds)`` factor so current and conductance are continuous at
the triode/saturation boundary.  Drain/source are handled symmetrically (the
terminals swap when vds < 0), and PMOS devices evaluate the NMOS equations on
negated terminal voltages.

The default parameter sets are generic 180 nm-class values — the paper uses a
commercial 180 nm PDK we cannot ship, so these play that role (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import math

from repro.spice.elements import Element

__all__ = ["MosfetParams", "MosfetOp", "Mosfet", "nmos_180", "pmos_180"]


@dataclasses.dataclass(frozen=True)
class MosfetParams:
    """Level-1 model card.

    Attributes
    ----------
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.
    vt0:
        Zero-bias threshold voltage (positive for both polarities; the sign
        convention is handled by ``polarity``).
    kp:
        Transconductance parameter ``mu Cox`` in A/V^2.
    clm:
        Channel-length-modulation coefficient in volt^-1 * metre; the per-
        device lambda is ``clm / L`` so short channels show stronger CLM.
    gamma:
        Body-effect coefficient in V^0.5.
    phi:
        Surface potential ``2 phi_F`` in volts.
    cox:
        Gate-oxide capacitance per area, F/m^2.
    cov:
        Gate-drain/source overlap capacitance per width, F/m.
    cj:
        Junction capacitance per diffusion area, F/m^2 (with ``ldiff`` the
        assumed diffusion length, giving Cdb = Csb = cj * W * ldiff).
    ldiff:
        Source/drain diffusion length, m.
    """

    polarity: int
    vt0: float
    kp: float
    clm: float
    gamma: float
    phi: float
    cox: float
    cov: float
    cj: float
    ldiff: float

    def __post_init__(self):
        if self.polarity not in (+1, -1):
            raise ValueError("polarity must be +1 (NMOS) or -1 (PMOS)")
        if self.kp <= 0 or self.phi <= 0 or self.cox <= 0:
            raise ValueError("kp, phi, and cox must be positive")


def nmos_180() -> MosfetParams:
    """Generic 180 nm NMOS model card."""
    return MosfetParams(
        polarity=+1,
        vt0=0.45,
        kp=280e-6,
        clm=0.018e-6,
        gamma=0.45,
        phi=0.85,
        cox=8.6e-3,
        cov=0.35e-9,
        cj=1.0e-3,
        ldiff=0.5e-6,
    )


def pmos_180() -> MosfetParams:
    """Generic 180 nm PMOS model card."""
    return MosfetParams(
        polarity=-1,
        vt0=0.45,
        kp=70e-6,
        clm=0.025e-6,
        gamma=0.4,
        phi=0.85,
        cox=8.6e-3,
        cov=0.35e-9,
        cj=1.1e-3,
        ldiff=0.5e-6,
    )


@dataclasses.dataclass
class MosfetOp:
    """Operating-point snapshot of one device.

    ``ids`` is the current into the *drain* terminal (negative for PMOS in
    normal conduction).  ``gm``, ``gds``, ``gmb`` are the small-signal
    derivatives with respect to the *terminal* voltages (already mapped back
    through polarity and drain/source swapping), and ``ieq`` is the Newton
    companion current such that

        i_drain = gm*vgs + gds*vds + gmb*vbs + ieq

    holds exactly at the linearization point.
    """

    ids: float
    gm: float
    gds: float
    gmb: float
    vth: float
    region: str
    vgs: float
    vds: float
    vbs: float

    @property
    def ieq(self) -> float:
        return self.ids - self.gm * self.vgs - self.gds * self.vds - self.gmb * self.vbs


class Mosfet(Element):
    """A sized MOSFET instance; terminals are (drain, gate, source, bulk)."""

    def __init__(self, name, drain, gate, source, bulk, params: MosfetParams, w, l):
        super().__init__(name, (drain, gate, source, bulk))
        w = float(w)
        l = float(l)
        if w <= 0 or l <= 0:
            raise ValueError(f"{name}: W and L must be positive, got W={w}, L={l}")
        self.params = params
        self.w = w
        self.l = l

    # Terminal accessors -----------------------------------------------------
    @property
    def drain(self):
        return self.nodes[0]

    @property
    def gate(self):
        return self.nodes[1]

    @property
    def source(self):
        return self.nodes[2]

    @property
    def bulk(self):
        return self.nodes[3]

    @property
    def lam(self) -> float:
        """Channel-length-modulation lambda for this device's length."""
        return self.params.clm / self.l

    @property
    def beta(self) -> float:
        """``kp * W / L``."""
        return self.params.kp * self.w / self.l

    def describe(self) -> str:
        kind = "NMOS" if self.params.polarity > 0 else "PMOS"
        return (
            f"{self.name} {self.drain} {self.gate} {self.source} {self.bulk} "
            f"{kind} W={self.w * 1e6:.3g}u L={self.l * 1e6:.3g}u"
        )

    # Large-signal evaluation -------------------------------------------------
    def evaluate(self, vd: float, vg: float, vs: float, vb: float) -> MosfetOp:
        """Evaluate current and derivatives at the given terminal voltages."""
        pol = self.params.polarity
        # Map to equivalent NMOS voltages.
        nvd, nvg, nvs, nvb = pol * vd, pol * vg, pol * vs, pol * vb
        swapped = nvd < nvs
        if swapped:
            nvd, nvs = nvs, nvd
        vgs = nvg - nvs
        vds = nvd - nvs
        vbs = nvb - nvs

        vth, dvth_dvbs = self._threshold(vbs)
        vov = vgs - vth
        beta = self.beta
        lam = self.lam

        if vov <= 0.0:
            ids = 0.0
            gm = gds = 0.0
            region = "cutoff"
            # d ids / d vbs = -gm_core * dvth/dvbs = 0 in cutoff
            gmb = 0.0
        elif vds < vov:
            clmf = 1.0 + lam * vds
            ids = beta * (vov - 0.5 * vds) * vds * clmf
            gm = beta * vds * clmf
            gds = beta * (vov - vds) * clmf + beta * (vov - 0.5 * vds) * vds * lam
            gmb = gm * (-dvth_dvbs)
            region = "triode"
        else:
            clmf = 1.0 + lam * vds
            ids = 0.5 * beta * vov * vov * clmf
            gm = beta * vov * clmf
            gds = 0.5 * beta * vov * vov * lam
            gmb = gm * (-dvth_dvbs)
            region = "saturation"

        if swapped:
            # Swap drain/source back.  With i_phys = -f(vgs_sw, vds_sw, vbs_sw)
            # and vgs_sw = vgs_ph - vds_ph, vds_sw = -vds_ph,
            # vbs_sw = vbs_ph - vds_ph, the chain rule gives:
            gm, gds, gmb, ids = -gm, gm + gds + gmb, -gmb, -ids

        # Map back through polarity: currents and voltages both negate, so the
        # conductances are unchanged while the current flips sign for PMOS.
        ids *= pol
        vgs_term = vg - vs
        vds_term = vd - vs
        vbs_term = vb - vs
        return MosfetOp(
            ids=ids,
            gm=gm,
            gds=gds,
            gmb=gmb,
            vth=pol * vth,
            region=region,
            vgs=vgs_term,
            vds=vds_term,
            vbs=vbs_term,
        )

    def _threshold(self, vbs: float) -> tuple[float, float]:
        """Body-effect threshold and its derivative w.r.t. vbs (NMOS frame)."""
        p = self.params
        if p.gamma == 0.0:
            return p.vt0, 0.0
        arg = p.phi - vbs
        if arg < 1e-3:
            # Forward-biased bulk clamp: freeze vth to keep Newton stable.
            arg = 1e-3
            return p.vt0 + p.gamma * (math.sqrt(arg) - math.sqrt(p.phi)), 0.0
        vth = p.vt0 + p.gamma * (math.sqrt(arg) - math.sqrt(p.phi))
        dvth = -0.5 * p.gamma / math.sqrt(arg)
        return vth, dvth

    # Capacitances -----------------------------------------------------------
    def capacitances(self, op: MosfetOp) -> dict[str, float]:
        """Meyer gate capacitances plus constant junction capacitances.

        Returns a dict with keys ``cgs``, ``cgd``, ``cgb``, ``cdb``, ``csb``.
        """
        p = self.params
        c_area = p.cox * self.w * self.l
        c_ov = p.cov * self.w
        if op.region == "cutoff":
            cgs, cgd, cgb = c_ov, c_ov, c_area
        elif op.region == "triode":
            cgs = 0.5 * c_area + c_ov
            cgd = 0.5 * c_area + c_ov
            cgb = 0.0
        else:  # saturation
            cgs = (2.0 / 3.0) * c_area + c_ov
            cgd = c_ov
            cgb = 0.0
        cj = p.cj * self.w * p.ldiff
        return {"cgs": cgs, "cgd": cgd, "cgb": cgb, "cdb": cj, "csb": cj}

    def transient_capacitances(self) -> dict[str, float]:
        """Fixed effective capacitances used by the transient analysis.

        The Meyer capacitances are bias dependent; stamping them as
        region-switching values inside the Newton loop is not charge
        conserving and destabilizes switching circuits.  The transient
        engine instead uses constant effective values — the saturation-region
        gate capacitance plus overlap, a triode-weighted Miller cgd, and the
        junction capacitances — which keeps the integrator charge conserving
        while retaining the loading and feedthrough physics.
        """
        p = self.params
        c_area = p.cox * self.w * self.l
        c_ov = p.cov * self.w
        cj = p.cj * self.w * p.ldiff
        return {
            "cgs": (2.0 / 3.0) * c_area + c_ov,
            "cgd": 0.25 * c_area + c_ov,
            "cdb": cj,
            "csb": cj,
        }
