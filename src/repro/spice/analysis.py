"""Post-processing measurements on simulation results.

These are the "`.measure`" statements of the reproduction: Bode metrics
(DC gain, unity-gain frequency, phase margin) for the op-amp, and Fourier
power metrics (output power at the fundamental, DC supply power, PAE) for the
class-E power amplifier.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.spice.exceptions import AnalysisError

__all__ = [
    "BodeMetrics",
    "bode_metrics",
    "fundamental_phasor",
    "fundamental_power",
    "average_power",
    "power_added_efficiency",
]


@dataclasses.dataclass
class BodeMetrics:
    """Open-loop frequency-response summary of an amplifier."""

    dc_gain_db: float
    ugf_hz: float
    phase_margin_deg: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dc_gain_db, self.ugf_hz, self.phase_margin_deg)


def bode_metrics(freqs: np.ndarray, response: np.ndarray) -> BodeMetrics:
    """Extract gain / UGF / phase margin from a complex transfer function.

    ``response`` is H(jw) sampled at ``freqs`` (ascending).  The unity-gain
    frequency is found by log-log interpolation of |H|; the phase margin is
    ``180 + phase(H(UGF))`` with the phase unwrapped from the low-frequency
    end.  Raises :class:`AnalysisError` if |H| never crosses unity (the sweep
    must extend beyond the UGF) or if the DC gain is below unity.
    """
    freqs = np.asarray(freqs, dtype=float)
    response = np.asarray(response, dtype=complex)
    if freqs.ndim != 1 or freqs.shape != response.shape:
        raise ValueError("freqs and response must be 1-D arrays of equal length")
    if len(freqs) < 2:
        raise ValueError("need at least two frequency points")
    mag = np.abs(response)
    if np.any(mag <= 0):
        raise AnalysisError("response magnitude is zero at some frequency")
    gain_db = 20.0 * np.log10(mag)
    dc_gain_db = float(gain_db[0])
    if dc_gain_db <= 0.0:
        raise AnalysisError(f"DC gain {dc_gain_db:.2f} dB is below unity")

    below = np.nonzero(gain_db <= 0.0)[0]
    if len(below) == 0:
        raise AnalysisError("gain never crosses 0 dB within the sweep")
    k = int(below[0])
    if k == 0:
        raise AnalysisError("gain is below unity at the first frequency point")
    # Log-frequency linear interpolation of the 0 dB crossing.
    f1, f2 = freqs[k - 1], freqs[k]
    g1, g2 = gain_db[k - 1], gain_db[k]
    frac = g1 / (g1 - g2)
    ugf = float(10 ** (np.log10(f1) + frac * (np.log10(f2) - np.log10(f1))))

    phase = np.unwrap(np.angle(response))
    phase_deg = np.degrees(phase)
    phase_at_ugf = float(np.interp(np.log10(ugf), np.log10(freqs), phase_deg))
    # Reference the phase to the low-frequency value so an inverting amplifier
    # (H(0) < 0, i.e. -180 deg) is handled the same as a non-inverting one.
    phase_rel = phase_at_ugf - float(phase_deg[0])
    margin = 180.0 + phase_rel
    return BodeMetrics(dc_gain_db=dc_gain_db, ugf_hz=ugf, phase_margin_deg=margin)


def fundamental_phasor(t: np.ndarray, signal: np.ndarray, f0: float) -> complex:
    """Complex Fourier coefficient of ``signal`` at frequency ``f0``.

    The samples must cover an integer number of periods of ``f0`` (the
    trailing sample closing the window is optional).  Uses the rectangle rule
    on the open interval, which is spectrally exact for periodic band-limited
    signals.
    """
    t = np.asarray(t, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if t.shape != signal.shape or t.ndim != 1:
        raise ValueError("t and signal must be 1-D arrays of equal length")
    if len(t) < 4:
        raise ValueError("need at least four samples")
    span = t[-1] - t[0]
    periods = span * f0
    dt = t[1] - t[0]
    # Accept a window of n periods sampled at either n*T or n*T - dt length.
    closed = abs(periods - round(periods)) < 1e-6 and round(periods) >= 1
    open_periods = (span + dt) * f0
    open_ok = abs(open_periods - round(open_periods)) < 1e-6 and round(open_periods) >= 1
    if not (closed or open_ok):
        raise ValueError(
            f"window must span an integer number of 1/f0 periods, got {periods:.4f}"
        )
    if closed:
        # Drop the final sample: it duplicates the first point of the next
        # period and would bias the rectangle rule.
        t = t[:-1]
        signal = signal[:-1]
    phase = np.exp(-2j * np.pi * f0 * t)
    return complex(2.0 * np.mean(signal * phase))


def fundamental_power(
    t: np.ndarray, v: np.ndarray, f0: float, resistance: float
) -> float:
    """Average power delivered at the fundamental into a resistive load."""
    if resistance <= 0:
        raise ValueError("resistance must be positive")
    amplitude = abs(fundamental_phasor(t, v, f0))
    return 0.5 * amplitude**2 / resistance


def average_power(t: np.ndarray, v: np.ndarray, i: np.ndarray) -> float:
    """Mean of ``v * i`` over the window (trapezoidal average)."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    if not (t.shape == v.shape == i.shape):
        raise ValueError("t, v, i must have equal shapes")
    span = t[-1] - t[0]
    if span <= 0:
        raise ValueError("time window must have positive span")
    return float(np.trapezoid(v * i, t) / span)


def power_added_efficiency(p_out: float, p_in: float, p_dc: float) -> float:
    """PAE = (Pout - Pin) / Pdc, clamped below at 0 for bookkeeping.

    A design whose output power is below its drive power is simply a failed
    amplifier; reporting negative efficiency adds nothing downstream.
    """
    if p_dc <= 0:
        raise ValueError("DC power must be positive")
    return max(0.0, (p_out - p_in) / p_dc)
