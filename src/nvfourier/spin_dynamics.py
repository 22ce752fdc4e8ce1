"""Spin-echo phase accumulation under shaped gradient pulses.

The echo sequence is pi/2 - tau - pi - tau - pi/2 with total evolution time
2*tau.  The pi pulse flips the sign with which field phase accumulates, so a
static field cancels and only the part of the gradient waveform that is
antisymmetric across the pi pulse survives:

    phi = 2*pi * gamma_cyc * x * [ int_0^{t_pi} G(t - dt) dt
                                  - int_{t_pi}^{2tau} G(t - dt) dt ]

with x the imaging-axis coordinate (um internally, nm at the API surface)
relative to the reconstruction origin, G(t) the projected gradient (G/um)
and dt the MFG-vs-MW synchronization offset.

The drive waveform is normalized (|g| <= 1, the physical scale comes from
the gradient amplitude) and lives on [0, 2*tau): each echo half holds one
active window starting at the half boundary, shaped sine or rectangular,
followed by a gap; the second half repeats the first, polarity-inverted when
``antisymmetric`` (the useful mode -- a symmetric drive cancels in the echo).
Outside [0, 2*tau) the drive is zero; the repetition overhead (laser
initialization and readout) lives between sequence repetitions.

All phase integrals are evaluated in closed form; ``phase_from_coordinate``
is the one phase function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import GAMMA_CYC_MHZ_PER_G, NM_TO_UM
from .errors import ValidationError
from .field_model import _check_finite, _dot, _unit_floats, _vec3

WAVEFORM_SHAPES = ("sine", "rectangular")

# the reference demonstration: 2tau = 500 us sweep to K_max = 2.2834 1/nm
# with a calibrated single-lobe sine drive (efficiency w = 2a/pi = 0.50031)
DEFAULT_SINE_ACTIVE_FRACTION = 0.78587993

# Poisson means above this make numpy raise (POISSON_LAM_MAX in
# numpy/random/_common.pyx): the draw would overflow int64
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True, eq=False)
class NvCenter:
    """A single NV center as seen by the imaging sequence."""

    position_um: np.ndarray
    t2_us: float
    contrast_alpha: float
    yield_beta: float
    stretch_p: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "position_um", _vec3(self.position_um, "position_um"))
        if not self.t2_us > 0:
            raise ValidationError("t2_us must be > 0")
        if not 0.0 < self.contrast_alpha <= 1.0:
            raise ValidationError("contrast_alpha must be in (0, 1]")
        if not self.yield_beta > 0:
            raise ValidationError("yield_beta must be > 0")
        if not self.stretch_p > 0:
            raise ValidationError("stretch_p must be > 0")


@dataclass(frozen=True)
class GradientWaveform:
    """Normalized current pulse shape driving the gradient wire.

    active_fraction is the fraction of each echo half occupied by the drive;
    the remainder is a gap.  period_us is the sine period (ignored for
    rectangular).  The defaults are the reference antisymmetric single-lobe
    sine drive.
    """

    shape: str = "sine"
    period_us: float = field(kw_only=True)
    active_fraction: float = DEFAULT_SINE_ACTIVE_FRACTION
    antisymmetric: bool = True

    def __post_init__(self):
        if self.shape not in WAVEFORM_SHAPES:
            raise ValidationError(f"shape must be one of {WAVEFORM_SHAPES}, got {self.shape!r}")
        _check_finite(self, "period_us")
        if not self.period_us > 0:
            raise ValidationError("period_us must be > 0")
        if not 0.0 < self.active_fraction <= 1.0:
            raise ValidationError("active_fraction must be in (0, 1]")


@dataclass(frozen=True)
class EchoSequence:
    """Timing of one spin-echo repetition (times in us)."""

    total_time_us: float
    pi_pulse_time_us: float | None = None
    sync_offset_us: float = 0.0
    pi_fidelity: float = 1.0

    def __post_init__(self):
        _check_finite(self, "total_time_us", "sync_offset_us")
        if not self.total_time_us > 0:
            raise ValidationError("total_time_us must be > 0")
        if self.pi_pulse_time_us is None:
            object.__setattr__(self, "pi_pulse_time_us", self.total_time_us / 2.0)
        if not 0.0 < self.pi_pulse_time_us < self.total_time_us:
            raise ValidationError("pi_pulse_time_us must lie strictly inside (0, total_time_us)")
        if abs(self.sync_offset_us) >= self.total_time_us / 4.0:
            raise ValidationError("|sync_offset_us| must be < total_time_us/4")
        if not 0.0 < self.pi_fidelity <= 1.0:
            raise ValidationError("pi_fidelity must be in (0, 1]")

    @property
    def tau_us(self) -> float:
        return self.total_time_us / 2.0


@dataclass(frozen=True)
class EchoSignal:
    """Expected echo for one phase (floats) or for many (arrays)."""

    phase_rad: float | np.ndarray
    coherence_envelope: float
    expected_signal: float | np.ndarray
    expected_counts: float | np.ndarray


# ---------------------------------------------------------------------------
# waveform analytics
# ---------------------------------------------------------------------------


def waveform_cumulative(wf: GradientWaveform, seq: EchoSequence, t_us: float) -> float:
    """Integral of the normalized drive from 0 to t (closed form)."""
    total = seq.total_time_us
    half = total / 2.0
    window = wf.active_fraction * half
    t = min(max(t_us, 0.0), total)

    def lobe(u: float) -> float:
        u = min(max(u, 0.0), window)
        if u <= 0.0:
            return 0.0
        if wf.shape == "rectangular":
            return u
        p = wf.period_us
        return (p / (2.0 * math.pi)) * (1.0 - math.cos(2.0 * math.pi * u / p))

    pol1 = -1.0 if wf.antisymmetric else 1.0
    acc = lobe(t)
    if t > half:
        acc += pol1 * lobe(t - half)
    return acc


def signed_half_integrals(
    wf: GradientWaveform, seq: EchoSequence, sync_offset_us: float = 0.0
) -> tuple[float, float]:
    """(int_0^{t_pi} g(t-dt) dt, int_{t_pi}^{2tau} g(t-dt) dt) of the normalized drive."""
    dt = sync_offset_us
    c0 = waveform_cumulative(wf, seq, -dt)
    c1 = waveform_cumulative(wf, seq, seq.pi_pulse_time_us - dt)
    c2 = waveform_cumulative(wf, seq, seq.total_time_us - dt)
    return c1 - c0, c2 - c1


def phase_efficiency(wf: GradientWaveform, seq: EchoSequence) -> float:
    """Echo-weighted duty factor w in [−1, 1].

    w = [int_0^{t_pi} g dt - int_{t_pi}^{2tau} g dt] / (2tau * g_max), the
    fraction of the maximum possible phase (full-duty antisymmetric
    rectangular drive, w = 1) that this waveform accumulates.
    """
    first, second = signed_half_integrals(wf, seq, 0.0)
    return (first - second) / seq.total_time_us


# ---------------------------------------------------------------------------
# phase and signal
# ---------------------------------------------------------------------------


def imaging_coordinate_nm(nv: NvCenter, origin_um=(0.0, 0.0, 0.0), imaging_axis=(1.0, 0.0, 0.0)) -> float:
    """NV coordinate (nm) along the imaging axis, relative to the origin."""
    e = _unit_floats(imaging_axis, "imaging_axis")
    return _dot((nv.position_um - _vec3(origin_um, "origin_um")).tolist(), e) / NM_TO_UM


def phase_from_coordinate(x_nm, peak_gradient_g_per_um, seq: EchoSequence, wf: GradientWaveform):
    """Echo phase (rad) for a point at x_nm under a shaped gradient drive.

    ``x_nm`` is the coordinate along the imaging axis relative to the origin
    (see ``imaging_coordinate_nm``) and the gradient the peak projected
    gradient (G/um); either may be an array (one entry per point).  The
    phase is linear in each and zero at x = 0.  ``seq.sync_offset_us``
    shifts the drive against the pulses; the phase error, the phase minus
    that at zero offset, is first order in the offset for a rectangular
    drive and second order for a sine drive that vanishes at its window
    edges.
    """
    first, second = signed_half_integrals(wf, seq, seq.sync_offset_us)
    x_um = x_nm * NM_TO_UM
    return (
        2.0
        * math.pi
        * GAMMA_CYC_MHZ_PER_G
        * x_um
        * peak_gradient_g_per_um
        * (first - second)
    )


def echo_signal(nv: NvCenter, phase_rad, seq: EchoSequence) -> EchoSignal:
    """Expected normalized echo signal and photon yield for a given phase.

    The decoherence envelope is exp[-(2tau/T2)^p]; readout maps the signal s
    to expected counts beta*(1 + alpha*s)/(1 + alpha), so the bright level
    (s = 1, no decoherence) reads beta.  An imperfect pi pulse
    (seq.pi_fidelity < 1) scales the contrast.  An array of phases gives
    arrays of signals and counts; a scalar phase gives floats.
    """
    envelope = math.exp(-((seq.total_time_us / nv.t2_us) ** nv.stretch_p))
    s = seq.pi_fidelity * envelope * np.cos(phase_rad)
    counts = nv.yield_beta * (1.0 + nv.contrast_alpha * s) / (1.0 + nv.contrast_alpha)
    if not np.ndim(s):
        s, counts = float(s), float(counts)
    return EchoSignal(
        phase_rad=phase_rad,
        coherence_envelope=envelope,
        expected_signal=s,
        expected_counts=counts,
    )


def sample_counts(expected_counts, shots: int, seed):
    """Poisson-sampled mean counts per shot and its standard error.

    The sum of ``shots`` i.i.d. Poisson draws is itself Poisson with mean
    shots*lambda, so the total is drawn in one step; the returned pair is
    statistically identical to averaging per-shot draws.  ``seed`` is
    anything ``np.random.default_rng`` accepts: an int or int sequence, which
    gives a deterministic draw, or a ``Generator``, which is drawn from
    directly.  An array of expected counts is drawn with one ``poisson``
    call, element by element in order, and gives arrays; a scalar gives
    floats.  A Poisson mean (expected counts x shots) that is negative, not
    finite or above ``POISSON_LAM_MAX`` raises ValidationError.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    counts = np.asarray(expected_counts, dtype=float)
    lam = counts * shots
    refused = ~((lam >= 0) & (lam <= POISSON_LAM_MAX))
    if refused.any():
        raise ValidationError(
            "shot noise needs expected counts x shots per point >= 0, finite and "
            f"<= {POISSON_LAM_MAX:.4g}, got {np.extract(refused, lam)[0]:.4g}"
        )
    # float64 true division: equal to the exact quotient's rounding while the
    # totals and shots stay below 2**53
    mean = np.random.default_rng(seed).poisson(lam) / shots
    err = np.sqrt(mean / shots)
    return (mean, err) if counts.ndim else (float(mean), float(err))


def signal_from_counts(mean_counts, counts_error, nv: NvCenter):
    """Invert the readout map: estimated normalized signal and its error.

    Arrays map elementwise; scalars give floats.
    """
    a, b = nv.contrast_alpha, nv.yield_beta
    s = ((1.0 + a) * np.asarray(mean_counts, dtype=float) / b - 1.0) / a
    err = (1.0 + a) / (a * b) * np.asarray(counts_error, dtype=float)
    return (s, err) if s.ndim else (float(s), float(err))
