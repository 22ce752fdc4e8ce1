"""Real-space reconstruction and peak fitting of K-space records.

The measured signal at each K is cos(2*pi*K*x0) (times envelope and noise),
so the real-space localization is a one-sided cosine transform evaluated on
a uniform x grid.  The n samples s_m on the K grid, zero-padded to
M + 1 = (n-1)*z + 1 points by the zero-pad factor z, give

    A(x_j) = [ sum_{0<=m<n} c_m cos(pi m j / M) ] / (n-1),   j = 0..M,

with c_0 = s_0, c_{n-1} = s_{n-1} when z = 1 (the last sample is then also
the last padded one), and c_m = 2 s_m otherwise: an unnormalized DCT-I of
the (windowed, zero-padded) signal divided by n-1.  With this scale a
unit-amplitude cosine reconstructs to a peak of height ~1.  The grid spans
x in [0, 1/(2*dK)] with spacing pixel/z, pixel = 1/(2*K_max).  The profile
stores |A|; with no quadrature channel the position sign is unresolvable and
the field of view is defined as x >= 0.

The sum is a chirp-z transform (Bluestein, IEEE Trans. Audio Electroacoust.
18, 451 (1970)).  With w_k = exp(-i pi k^2 / (2M)), the identity
m*j = (m^2 + j^2 - (j-m)^2) / 2 gives

    sum_m c_m cos(pi m j / M) = Re[ w_j sum_m (c_m w_m) conj(w_{j-m}) ],

a convolution of n samples with a chirp of n + M taps, done by complex FFTs
of the smallest 2^a 3^b 5^c length >= n + M.  Its cost therefore does not
depend on the prime factors of 2M: the shipped 458-point sweep at zero-pad 4
has 2M = 8*457, on which a real FFT of the even extension runs 457-point
prime passes.  The chirp and the chirp filter's spectrum depend on (n, z)
alone and are cached per grid.  The result equals the DCT-I to round-off,
not bit for bit with a real FFT of the even extension.

Undersampling: block-masked records are zero-filled onto the full K grid
(using the sidecar mask) before transforming; stride-masked records are
uniform on a compact grid and transform directly, giving an aliased profile
that ``disambiguate_alias`` unfolds against a coarse full prescan.
"""

from __future__ import annotations

import functools
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

# Longest profile, (n-1)*z + 1 points, that fourier_reconstruct builds.  It
# admits the longest sweep a config accepts (acquisition.MAX_N_POINTS = 10**6)
# at the default zero-pad 4, 3 999 997 points, and it refuses a mistyped
# zero-pad factor before anything of that length is allocated.  It also caps
# the plan cache: a plan at the bound holds at most 16*(2**22 + 2**23) bytes
# (192 MiB), so the cache holds at most _PLAN_CACHE_SIZE times that.
MAX_PROFILE_POINTS = 2**22

# K grids whose DCT-I plan stays cached: analysing one run takes up to three
# (the full sweep, a stride-undersampled sweep and its coarse prescan)
_PLAN_CACHE_SIZE = 4

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


def _full_grid(record: KSpaceRecord) -> tuple[slice | np.ndarray, int, float]:
    """Where the record's samples sit on the uniform K grid from K = 0:
    their positions on it, its length and its spacing.

    A record whose own K values are uniform is used as-is (stride masks land
    here: a compact grid with larger dK).  Otherwise the sidecar mask and
    full-grid spacing place it; without that metadata the grid is rejected.
    """
    k = record.k_values
    if len(k) == 0:
        raise EmptyRecordError("record has no samples")
    if len(k) == 1:
        raise NonUniformKError("at least two K samples are required")
    diffs = np.diff(k)
    dk = float(np.median(diffs))
    # every spacing within 2·_GRID_RTOL·dk of the median (K increases, so dk > 0)
    if np.all(np.abs(diffs - dk) <= 2 * _GRID_RTOL * dk):
        lead = int(round(k[0] / dk))
        if abs(k[0] - lead * dk) > dk * 1e-6:
            raise NonUniformKError("K grid does not extend to K = 0 on its own spacing")
        return slice(lead, None), lead + len(k), dk
    meta = record.metadata or {}
    mask = meta.get("mask")
    n_points = meta.get("n_points")
    dk_full = meta.get("delta_k_per_nm")
    if mask is None or n_points is None or dk_full is None:
        raise NonUniformKError(
            "K values are not on a uniform grid and the sidecar metadata "
            "(mask, n_points, delta_k_per_nm) is unavailable for zero-filling"
        )
    if len(mask) != len(k):
        raise MetadataError("sidecar mask length does not match record length")
    expected = np.asarray(mask, dtype=float) * float(dk_full)
    if not np.allclose(k, expected, rtol=1e-6, atol=float(dk_full) * 1e-6):
        raise MetadataError("record K values are inconsistent with the sidecar mask")
    index = np.asarray(mask, dtype=int)  # increasing, as the record's K values are
    if index[-1] >= n_points:
        raise MetadataError(f"sidecar mask reaches index {index[-1]}, past n_points = {n_points}")
    return index, int(n_points), float(dk_full)


def profile_length(n: int, zero_pad_factor) -> int:
    """Points of the profile of an n-point K grid zero-padded by the factor
    z: (n-1)*z + 1.

    Raises ValidationError unless z is an integer >= 1 and the profile has
    at most MAX_PROFILE_POINTS points.
    """
    # // 1 keeps an integral value and turns inf and nan into nan
    if zero_pad_factor // 1 != zero_pad_factor or zero_pad_factor < 1:
        raise ValidationError("zero_pad_factor must be an integer >= 1")
    length = (n - 1) * int(zero_pad_factor) + 1
    if length > MAX_PROFILE_POINTS:
        raise ValidationError(
            f"zero_pad_factor {zero_pad_factor} makes a profile of {length} points "
            f"from {n} K points; at most {MAX_PROFILE_POINTS} are allowed"
        )
    return length


def _fast_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target: a length pocketfft runs in radix-2,
    -3, -4 and -5 passes only."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _dct1_plan(n: int, zero_pad_factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp-z plan of the DCT-I of n samples zero-padded to M + 1 points,
    M = (n-1)*z.

    Returns the chirp w_k = exp(-i pi k^2 / (2M)) for k = 0..M, and the FFT
    of the conjugate chirp conj(w_k), k = -(n-1)..M, laid out circularly on
    L = _fast_length(n + M) points (w is even in k, so the negative taps are
    the first n-1 mirrored).  The phase k^2 is reduced mod 4M in integers
    first, so every angle lies in [0, 2 pi) and is exact to round-off at any
    M.  Both arrays are complex128 and read-only: 16*(M + 1 + L) bytes, 66 128
    at the shipped grid (n = 458, z = 4: M = 1828, L = 2304).
    """
    m = (n - 1) * zero_pad_factor
    k = np.arange(m + 1)
    chirp = np.exp((-0.5j * np.pi / m) * (k * k % (4 * m)))
    length = _fast_length(n + m)
    taps = np.zeros(length, dtype=complex)
    taps[: m + 1] = chirp.conj()
    taps[length - n + 1 :] = taps[n - 1 : 0 : -1]
    spectrum = np.fft.fft(taps)
    chirp.flags.writeable = False
    spectrum.flags.writeable = False
    return chirp, spectrum


def fourier_reconstruct(
    record: KSpaceRecord, window: str = "none", zero_pad_factor: int = 1
) -> RealSpaceProfile:
    """Cosine-transform magnitude profile of a K-space record.

    ``window`` tapers the K aperture ('hann' suppresses the far transform
    sidelobes -- useful for sideband hunting -- but, with no quadrature
    channel, leaves nulls at +-1 pixel and shoulders of half the peak height
    at +-1.5-2 pixels around the peak rather than a wider main lobe);
    ``zero_pad_factor`` refines the output grid by that integer factor
    without changing the underlying resolution.  A profile longer than
    MAX_PROFILE_POINTS is refused before it is allocated.
    """
    if window not in WINDOWS:
        raise ValidationError(f"window must be one of {WINDOWS}")
    where, n, dk = _full_grid(record)
    if n < 2:
        raise EmptyRecordError("need at least two points on the K grid")
    length = profile_length(n, zero_pad_factor)
    zero_pad_factor = int(zero_pad_factor)

    signal = np.zeros(n)
    signal[where] = record.signals
    if window == "hann":
        signal = signal * np.hanning(n)
    # DCT-I end weights: the first sample once, the last once only when it
    # is also the last of the padded signal, every other sample twice
    weighted = 2.0 * signal
    weighted[0] = signal[0]
    if zero_pad_factor == 1:
        weighted[-1] = signal[-1]
    chirp, spectrum = _dct1_plan(n, zero_pad_factor)
    conv = np.fft.ifft(np.fft.fft(weighted * chirp[:n], len(spectrum)) * spectrum)
    amplitude = np.abs((chirp * conv[:length]).real) / (n - 1)

    k_max = (n - 1) * dk
    pixel = 1.0 / (2.0 * k_max)
    x_grid = np.arange(length) * (pixel / zero_pad_factor)
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
