"""Real-space reconstruction and peak fitting of K-space records.

The measured signal at each K is cos(2*pi*K*x0) (times envelope and noise),
so the real-space localization is a one-sided cosine transform evaluated on
a uniform x grid:

    A(x_i) = [ s_0 + (-1)^i s_{M-1} + 2 * sum_{0<j<M-1} s_j cos(pi j i / (M-1)) ] / (N-1)

i.e. an unnormalized DCT-I of the (windowed, zero-padded) signal divided by
N-1, where N is the number of K samples before padding.  The DCT-I is the
real part of the real FFT of the signal's even extension.  With this scale a
unit-amplitude cosine reconstructs to a peak of height ~1.  The grid spans
x in [0, 1/(2*dK)] with spacing pixel/zero_pad_factor, pixel = 1/(2*K_max).
The profile stores |A|; with no quadrature channel the position sign is
unresolvable and the field of view is defined as x >= 0.

Undersampling: block-masked records are zero-filled onto the full K grid
(using the sidecar mask) before transforming; stride-masked records are
uniform on a compact grid and transform directly, giving an aliased profile
that ``disambiguate_alias`` unfolds against a coarse full prescan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .acquisition import KSpaceRecord
from .constants import GAMMA_CYC_MHZ_PER_G
from .errors import (
    AliasAmbiguityError,
    DegenerateFitError,
    EmptyRecordError,
    InsufficientSpanError,
    MetadataError,
    NoPeakError,
    NonUniformKError,
    ValidationError,
)
# both fits look curve_fit up on this module at call time, so a wrapper set
# on reconstruction.curve_fit sees every evaluation of their models
from .lsq import curve_fit
from .serialize import to_plain, write_csv, write_json

WINDOWS = ("none", "hann")

# relative tolerance for the uniform-K-grid check
_GRID_RTOL = 1e-9

# residual norm, relative to the mean-subtracted signal, at or below which a
# cosine fit counts as exact; noiseless 60-point sweeps (0.6-1.0 mA, NV at
# 26-46 nm) fit to at most 1.4e-11
_EXACT_FIT_RTOL = 1e-6

# sideband_analysis: a satellite must reach this fraction of the main peak;
# a left/right pair must match in offset within this many grid steps; and
# the main peak's exclusion zone is the larger of these FWHMs and pixels
_SIDEBAND_MIN_REL_AMPLITUDE = 0.05
_SIDEBAND_PAIR_TOLERANCE_STEPS = 2.5
_SIDEBAND_EXCLUSION_FWHMS = 3.0
_SIDEBAND_EXCLUSION_PIXELS = 5.0


@dataclass(eq=False)
class RealSpaceProfile:
    """Reconstructed localization amplitude on a uniform x grid (nm)."""

    x_grid_nm: np.ndarray
    amplitude: np.ndarray
    pixel_size_nm: float
    k_max_per_nm: float
    window: str = "none"
    zero_pad_factor: int = 1

    def __post_init__(self):
        self.x_grid_nm = np.asarray(self.x_grid_nm, dtype=float)
        self.amplitude = np.asarray(self.amplitude, dtype=float)
        if len(self.x_grid_nm) != len(self.amplitude):
            raise ValidationError("x_grid and amplitude must have equal length")
        if not np.all(np.isfinite(self.amplitude)):
            raise ValidationError("profile amplitude must be finite")

    @property
    def grid_step_nm(self) -> float:
        return float(self.x_grid_nm[1] - self.x_grid_nm[0])


@dataclass
class PeakFit:
    """Lorentzian peak parameters: A*w^2/((x-x0)^2+w^2) + c, fwhm = 2w."""

    model: ClassVar[str] = "lorentzian"

    center_nm: float
    fwhm_nm: float
    amplitude: float
    offset: float
    uncertainties: dict = field(default_factory=dict)
    residual_norm: float = float("nan")


@dataclass
class CosineFit:
    """Cosine fit of a raw K sweep: A*cos(2*pi*f*I + phi) + c in current."""

    model: ClassVar[str] = "cosine"

    frequency_per_ma: float
    phase_rad: float
    amplitude: float
    offset: float
    implied_position_nm: float
    uncertainties: dict = field(default_factory=dict)
    residual_norm: float = float("nan")


def lorentzian(x, amplitude, center, half_width, offset):
    return amplitude * half_width**2 / ((x - center) ** 2 + half_width**2) + offset


def _lorentzian_jac(x, amplitude, center, half_width, offset):
    d = x - center
    q = 1.0 / (d * d + half_width * half_width)
    shape = half_width * half_width * q
    dq = d * q
    d_center = (2.0 * amplitude) * shape * dq
    d_width = (2.0 * amplitude * half_width) * dq * dq
    return np.array([shape, d_center, d_width, np.ones(x.shape)]).T


def _expand_to_full_grid(record: KSpaceRecord) -> tuple[np.ndarray, float]:
    """Signal on the uniform K grid starting at K=0, zero-filling gaps.

    A record whose own K values are uniform is used as-is (stride masks land
    here: a compact grid with larger dK).  Otherwise the sidecar mask and
    full-grid spacing expand it; without that metadata the grid is rejected.
    """
    k = record.k_values
    s = record.signals
    if len(k) == 0:
        raise EmptyRecordError("record has no samples")
    if len(k) == 1:
        raise NonUniformKError("at least two K samples are required")
    diffs = np.diff(k)
    dk = float(np.median(diffs))
    uniform = np.allclose(diffs, dk, rtol=_GRID_RTOL, atol=dk * _GRID_RTOL)
    if uniform:
        lead = int(round(k[0] / dk))
        if abs(k[0] - lead * dk) > dk * 1e-6:
            raise NonUniformKError("K grid does not extend to K = 0 on its own spacing")
        full = np.concatenate([np.zeros(lead), s])
        return full, dk
    meta = record.metadata or {}
    mask = meta.get("mask")
    n_points = meta.get("n_points")
    dk_full = meta.get("delta_k_per_nm")
    if mask is None or n_points is None or dk_full is None:
        raise NonUniformKError(
            "K values are not on a uniform grid and the sidecar metadata "
            "(mask, n_points, delta_k_per_nm) is unavailable for zero-filling"
        )
    if len(mask) != len(s):
        raise MetadataError("sidecar mask length does not match record length")
    expected = np.asarray(mask, dtype=float) * float(dk_full)
    if not np.allclose(k, expected, rtol=1e-6, atol=float(dk_full) * 1e-6):
        raise MetadataError("record K values are inconsistent with the sidecar mask")
    full = np.zeros(int(n_points))
    full[np.asarray(mask, dtype=int)] = s
    return full, float(dk_full)


def fourier_reconstruct(
    record: KSpaceRecord, window: str = "none", zero_pad_factor: int = 1
) -> RealSpaceProfile:
    """Cosine-transform magnitude profile of a K-space record.

    ``window`` tapers the K aperture ('hann' suppresses the far transform
    sidelobes -- useful for sideband hunting -- but, with no quadrature
    channel, leaves nulls at +-1 pixel and shoulders of half the peak height
    at +-1.5-2 pixels around the peak rather than a wider main lobe);
    ``zero_pad_factor`` refines the output grid by that integer factor
    without changing the underlying resolution.
    """
    if window not in WINDOWS:
        raise ValidationError(f"window must be one of {WINDOWS}")
    if int(zero_pad_factor) != zero_pad_factor or zero_pad_factor < 1:
        raise ValidationError("zero_pad_factor must be an integer >= 1")
    zero_pad_factor = int(zero_pad_factor)

    signal, dk = _expand_to_full_grid(record)
    n = len(signal)
    if n < 2:
        raise EmptyRecordError("need at least two points on the K grid")
    if window == "hann":
        signal = signal * np.hanning(n)
    padded = np.concatenate([signal, np.zeros((n - 1) * (zero_pad_factor - 1))])
    # DCT-I: the real part of the real FFT of the even extension
    amplitude = np.abs(np.fft.rfft(np.concatenate([padded, padded[-2:0:-1]])).real) / (n - 1)

    k_max = (n - 1) * dk
    pixel = 1.0 / (2.0 * k_max)
    x_grid = np.arange(len(amplitude)) * (pixel / zero_pad_factor)
    return RealSpaceProfile(
        x_grid_nm=x_grid,
        amplitude=amplitude,
        pixel_size_nm=pixel,
        k_max_per_nm=k_max,
        window=window,
        zero_pad_factor=zero_pad_factor,
    )


# ---------------------------------------------------------------------------
# peak fitting
# ---------------------------------------------------------------------------


def default_fit_window(profile: RealSpaceProfile) -> tuple[float, float]:
    """Fit window covering the resolution-bearing main lobe of the peak.

    Half-width 1.5 pixels around the tallest bin (at least 5 grid steps so
    coarse grids still give the fitter enough points).  Beyond the first
    nulls the transform kernel's sidelobe train is not Lorentzian-like and
    only biases the width estimate.
    """
    ipk = int(np.argmax(profile.amplitude))
    half = max(1.5 * profile.pixel_size_nm, 5.0 * profile.grid_step_nm)
    x = float(profile.x_grid_nm[ipk])
    return x - half, x + half


def fit_lorentzian(
    profile: RealSpaceProfile, initial_window: tuple[float, float] | None = None
) -> PeakFit:
    """Least-squares Lorentzian fit of the profile peak inside a window.

    The window defaults to the main lobe (see default_fit_window).
    Initialization: tallest in-window bin for the center (ties break to the
    lowest x), 3-bin parabolic curvature for the width, in-window median for
    the offset.
    """
    if initial_window is None:
        initial_window = default_fit_window(profile)
    lo, hi = float(initial_window[0]), float(initial_window[1])
    if not hi > lo:
        raise ValidationError("initial_window must be an increasing (lo, hi) pair")
    x = profile.x_grid_nm
    y = profile.amplitude
    sel = (x >= lo) & (x <= hi)
    if int(np.count_nonzero(sel)) < 5:
        raise NoPeakError("fit window contains fewer than 5 samples")
    xs, ys = x[sel], y[sel]
    ipk = int(np.argmax(ys))  # argmax returns the first (lowest-x) maximum
    if ipk == 0 or ipk == len(ys) - 1:
        raise NoPeakError("no interior local maximum inside the fit window")
    if not (ys[ipk] > ys[0] and ys[ipk] > ys[-1]):
        raise NoPeakError("window content is flat; no peak to fit")

    offset0 = float(np.median(ys))
    amp0 = float(ys[ipk] - offset0)
    if amp0 <= 0:
        raise NoPeakError("peak does not rise above the window median")
    dx = float(xs[1] - xs[0])
    curvature = (ys[ipk - 1] - 2.0 * ys[ipk] + ys[ipk + 1]) / dx**2
    if curvature < 0:
        width0 = math.sqrt(max(-2.0 * amp0 / curvature, (dx / 2.0) ** 2))
    else:
        width0 = profile.pixel_size_nm / 2.0
    p0 = [amp0, float(xs[ipk]), width0, offset0]
    popt, pcov = curve_fit(lorentzian, xs, ys, p0, _lorentzian_jac)
    amp, center, half_width, offset = popt
    if half_width < 0:  # width enters squared; fold the sign
        half_width = -half_width
    perr = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    resid = ys - lorentzian(xs, *popt)
    return PeakFit(
        center_nm=float(center),
        fwhm_nm=float(2.0 * half_width),
        amplitude=float(amp),
        offset=float(offset),
        uncertainties={
            "center_nm": float(perr[1]),
            "fwhm_nm": float(2.0 * perr[2]),
            "amplitude": float(perr[0]),
            "offset": float(perr[3]),
        },
        residual_norm=float(np.linalg.norm(resid)),
    )


def _cosine(i, amplitude, frequency, phase, offset):
    return amplitude * np.cos(2.0 * np.pi * frequency * i + phase) + offset


def _cosine_jac(i, amplitude, frequency, phase, offset):
    theta = 2.0 * np.pi * frequency * i + phase
    slope = -amplitude * np.sin(theta)
    return np.array([np.cos(theta), (2.0 * np.pi) * i * slope, slope, np.ones(i.shape)]).T


def fit_cosine(record: KSpaceRecord) -> CosineFit:
    """Cosine fit of signal vs current, for single-oscillation raw sweeps.

    The initial frequency comes from the dominant bin of the periodogram of
    the mean-subtracted signal.  The implied NV position is
    frequency / (w * 2 * gamma_cyc * tau * gradient_per_ma).
    """
    n = len(record)
    if n < 6:
        raise InsufficientSpanError(f"cosine fit needs >= 6 points, got {n}")
    currents = record.currents
    s = record.signals
    centered = s - float(np.mean(s))
    scale = max(float(np.max(np.abs(s))), 1.0)
    if float(np.max(np.abs(centered))) <= 1e-12 * scale:
        raise DegenerateFitError("record signal has zero amplitude")
    span = float(currents[-1] - currents[0])
    if span <= 0:
        raise ValidationError("currents must span a positive range")

    # zero-padded periodogram: near-Nyquist sweeps need the finer initial
    # frequency to land in the right least-squares basin
    step = span / (n - 1)
    n_pad = 8 * n
    transform = np.fft.rfft(centered, n=n_pad)
    spectrum = np.abs(transform)
    if len(spectrum) < 2:
        raise InsufficientSpanError("too few points for a periodogram estimate")
    bin_idx = int(np.argmax(spectrum[1:])) + 1
    f0 = bin_idx / (n_pad * step)
    phase0 = float(np.angle(transform[bin_idx]))
    amp0 = 2.0 * float(spectrum[bin_idx]) / n
    p0 = [amp0, f0, phase0, float(np.mean(s))]
    popt, pcov = curve_fit(_cosine, currents, s, p0, _cosine_jac)
    amp, freq, phase, offset = popt
    if amp < 0:
        amp, phase = -amp, phase + math.pi
    if freq < 0:
        freq, phase = -freq, -phase
    phase = math.remainder(phase, 2.0 * math.pi)
    residual_norm = float(np.linalg.norm(s - _cosine(currents, amp, freq, phase, offset)))
    perr = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    if residual_norm <= _EXACT_FIT_RTOL * float(np.linalg.norm(centered)):
        # an exact fit has no residual variance to scale the covariance by,
        # whether or not JᵀJ could be inverted
        perr = np.zeros_like(perr)
    if not np.isfinite(perr[0]) or (perr[0] > 0 and abs(amp) < perr[0]):
        raise DegenerateFitError("fitted amplitude indistinguishable from zero")
    if freq * span < 0.8:
        raise InsufficientSpanError(
            f"record spans {freq * span:.2f} oscillation periods; need >= 1"
        )

    meta = record.metadata or {}
    try:
        k_per_ma = (
            meta["waveform_efficiency"]
            * 2.0
            * GAMMA_CYC_MHZ_PER_G
            * meta["tau_us"]
            * meta["gradient_per_ma_g_per_um"]
            / 1e3
        )
    except KeyError as exc:
        raise MetadataError(f"record metadata missing {exc} for position conversion") from exc
    implied = float(freq / k_per_ma)
    return CosineFit(
        frequency_per_ma=float(freq),
        phase_rad=float(phase),
        amplitude=float(amp),
        offset=float(offset),
        implied_position_nm=implied,
        uncertainties={
            "frequency_per_ma": float(perr[1]),
            "amplitude": float(perr[0]),
            "phase_rad": float(perr[2]),
            "offset": float(perr[3]),
        },
        residual_norm=residual_norm,
    )


# ---------------------------------------------------------------------------
# aliasing and sidebands
# ---------------------------------------------------------------------------


def disambiguate_alias(
    coarse: RealSpaceProfile, fine_folded: RealSpaceProfile, stride: int
) -> float:
    """Unfold an aliased fine-scan peak using a coarse full-sampling prescan.

    A stride-undersampled sweep folds positions with period
    P = 1/(stride*dK) = 2 * fine field of view (mirror images included, since
    the cosine transform cannot distinguish x from P - x).  The coarse scan
    must localize the NV to better than P/2; the alias replica closest to
    the coarse estimate is returned.
    """
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    coarse_fit = fit_lorentzian(coarse)
    fine_fit = fit_lorentzian(fine_folded)
    alias_period = 2.0 * float(fine_folded.x_grid_nm[-1])
    sigma = max(coarse_fit.uncertainties.get("center_nm", 0.0), coarse.pixel_size_nm / 2.0)
    if sigma >= alias_period / 2.0:
        raise AliasAmbiguityError(
            f"coarse uncertainty {sigma:.3g} nm exceeds half the alias period "
            f"{alias_period / 2.0:.3g} nm"
        )
    x_f = fine_fit.center_nm
    target = coarse_fit.center_nm
    fov = float(coarse.x_grid_nm[-1])
    candidates = []
    m = 0
    while m * alias_period - x_f <= fov + alias_period:
        for cand in (m * alias_period + x_f, m * alias_period - x_f):
            if -alias_period * 0.5 <= cand <= fov + alias_period * 0.5:
                candidates.append(cand)
        m += 1
    best = min(candidates, key=lambda c: abs(c - target))
    return float(best)


def sideband_analysis(profile: RealSpaceProfile, main_peak: PeakFit) -> list[tuple[float, float]]:
    """Symmetric satellite peaks around the main localization peak.

    Local maxima outside the main-peak exclusion zone that exceed both the
    3-MAD noise floor and a fixed fraction of the main peak are paired
    left/right when their offsets match within a few grid steps and their
    amplitudes within a factor of two.  Returns (offset_nm,
    relative_amplitude) pairs, strongest first; an empty list means no
    stable sidebands.  Run this on a hann-windowed profile: kernel sidelobes
    of an unwindowed transform pair up symmetrically just like real
    modulation sidebands do.
    """
    x = profile.x_grid_nm
    amp = profile.amplitude
    exclusion_nm = max(
        _SIDEBAND_EXCLUSION_FWHMS * main_peak.fwhm_nm,
        _SIDEBAND_EXCLUSION_PIXELS * profile.pixel_size_nm,
    )
    center = main_peak.center_nm
    outside = np.abs(x - center) > exclusion_nm
    if int(np.count_nonzero(outside)) < 8:
        return []
    floor = float(np.median(amp[outside]))
    mad = float(np.median(np.abs(amp[outside] - floor)))
    main_amp = float(amp[int(np.argmin(np.abs(x - center)))])
    threshold = max(floor + 3.0 * mad, _SIDEBAND_MIN_REL_AMPLITUDE * main_amp)

    inner = amp[1:-1]
    is_max = outside[1:-1] & (inner > threshold) & (inner >= amp[:-2]) & (inner > amp[2:])
    maxima = np.flatnonzero(is_max) + 1
    left, right = maxima[x[maxima] < center], maxima[x[maxima] > center]
    # every left maximum against every right one, rows left, columns right
    d_left = (center - x[left])[:, np.newaxis]
    d_right = x[right] - center
    a_left, a_right = amp[left][:, np.newaxis], amp[right]
    hi, lo_amp = np.maximum(a_left, a_right), np.minimum(a_left, a_right)
    with np.errstate(divide="ignore", invalid="ignore"):  # hi / lo_amp counts only where lo_amp > 0
        keep = ~(
            (np.abs(d_left - d_right) > _SIDEBAND_PAIR_TOLERANCE_STEPS * profile.grid_step_nm)
            | (lo_amp <= 0)
            | (hi / lo_amp > 2.0)
        )
    offsets = (0.5 * (d_left + d_right))[keep]
    relative = (0.5 * (a_left + a_right) / main_amp)[keep]
    return sorted(zip(offsets.tolist(), relative.tolist()), key=lambda p: -p[1])


# ---------------------------------------------------------------------------
# profile / fit persistence
# ---------------------------------------------------------------------------


def save_profile_csv(profile: RealSpaceProfile, path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    write_csv(p, ["x_nm", "amplitude"], profile.x_grid_nm, profile.amplitude)


def save_fit_json(fit, path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    write_json(p, {"model": fit.model, **to_plain(fit)})
