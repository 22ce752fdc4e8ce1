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

Gapped records: ``run_sweep`` acquires every ramp point, but a measured
record can arrive with points missing.  ``fourier_reconstruct`` and
``fit_cosine`` place each sample at round(K/dK) on the uniform K grid from
K = 0 (``_full_grid``).  A record that keeps every stride-th point is
uniform on its own compact spacing, giving an aliased profile that
``disambiguate_alias`` unfolds against a coarse full prescan; a record with
gaps in it is zero-filled onto the sidecar's ``n_points``/``delta_k_per_nm``
grid.

Two fits share one damped variable-projection solver, ``_separable_fit``,
with the amplitude and offset in closed form.  ``fit_lorentzian`` fits
A*w^2/((x-x0)^2+w^2) + c to the profile's main lobe, searching x0 and w.
``fit_cosine`` reads the position without a transform: it fits
a cos(2*pi*K*x0) + c, phase zero at K = 0, to the record's own K column,
searching x0 alone.  Neither fit calls BLAS, so their bytes do not depend
on the OpenBLAS kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .acquisition import MAX_N_POINTS, KSpaceRecord
from .errors import (
    AliasAmbiguityError,
    DegenerateFitError,
    EmptyRecordError,
    FitConvergenceError,
    InsufficientSpanError,
    MetadataError,
    NoPeakError,
    NonUniformKError,
    ValidationError,
)
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

# Levenberg-Marquardt constants of _separable_fit and curve_fit: initial
# damping, MINPACK's default stopping tolerances, and the budget of trial
# steps.  A resolved peak takes about ten steps; a peak narrower than the grid
# step (zero-pad 1, or a hann profile split by its nulls at +-1 pixel) has no
# minimum, and the fit then crawls towards a spike, stopping where a step
# gains too little
_LM_LAMBDA0 = 1e-3
_LM_FTOL = 1.5e-8
_LM_XTOL = 1.5e-8
_LM_MAX_STEPS = 20000


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
    """Cosine fit of a raw K sweep: a*cos(2*pi*K*x0) + c, x0 in nm."""

    model: ClassVar[str] = "cosine"

    amplitude: float
    offset: float
    implied_position_nm: float
    uncertainties: dict = field(default_factory=dict)
    residual_norm: float = float("nan")


def lorentzian(x, amplitude, center, half_width, offset):
    return amplitude * half_width**2 / ((x - center) ** 2 + half_width**2) + offset


def _median(values) -> float:
    """np.median of finite values, bit for bit, without its NaN check,
    which imports numpy.ma."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def _full_grid(record: KSpaceRecord) -> tuple[slice | np.ndarray, int, float]:
    """Where the record's samples sit on the uniform K grid from K = 0:
    their positions on it, its length and its spacing.

    Every sample sits at round(K/dK).  A record whose own K values are
    uniform gives dK (a full sweep, or one that keeps every stride-th point:
    a compact grid with larger dK); a gapped record takes dK and the grid
    length from its sidecar's ``delta_k_per_nm`` and ``n_points``, and is
    refused without them.
    """
    k = record.k_values
    if len(k) == 0:
        raise EmptyRecordError("record has no samples")
    if len(k) == 1:
        raise NonUniformKError("at least two K samples are required")
    diffs = np.diff(k)
    dk = _median(diffs)
    # every spacing within 2·_GRID_RTOL·dk of the median (K increases, so dk > 0)
    if np.all(np.abs(diffs - dk) <= 2 * _GRID_RTOL * dk):
        lead = int(round(k[0] / dk))
        if abs(k[0] - lead * dk) > dk * 1e-6:
            raise NonUniformKError("K grid does not extend to K = 0 on its own spacing")
        if lead + len(k) > MAX_N_POINTS:  # before a grid of that length is allocated
            raise ValidationError(f"K grid from K = 0 holds more than {MAX_N_POINTS} points")
        return slice(lead, None), lead + len(k), dk
    meta = record.metadata or {}
    if meta.get("n_points") is None or meta.get("delta_k_per_nm") is None:
        raise NonUniformKError("K values are not uniform and the sidecar has no K grid keys")
    n_points = _positive_metadata(meta, "n_points")
    if n_points % 1:
        raise MetadataError(f"record metadata n_points must be an integer, got {n_points!r}")
    if n_points > MAX_N_POINTS:
        raise MetadataError(f"record metadata n_points must be <= {MAX_N_POINTS}")
    dk = float(_positive_metadata(meta, "delta_k_per_nm"))
    # round(K/dK) < n_points, checked before K/dK is formed, which could overflow
    if k[-1] >= (n_points - 0.5) * dk:
        raise MetadataError(f"record K reaches past n_points = {n_points} of the sidecar grid")
    index = np.rint(k / dk)
    if np.any(np.abs(k - index * dk) > dk * 1e-6):  # within dK alone, at any index
        raise MetadataError("record K values are off the sidecar grid of delta_k_per_nm")
    if np.any(index[1:] == index[:-1]):  # K increases, so the indices never fall
        raise MetadataError("two record K values fall on one sidecar grid index")
    return index.astype(int), int(n_points), dk


def _positive_metadata(meta: dict, name: str) -> float:
    """The record sidecar's ``name``, refused (MetadataError) unless it is
    present and a finite number > 0."""
    if name not in meta:
        raise MetadataError(f"record metadata missing {name!r}")
    value = meta[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise MetadataError(f"record metadata {name} must be a finite number > 0, got {value!r}")
    return value


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
    return RealSpaceProfile(x_grid_nm=x_grid, amplitude=amplitude, pixel_size_nm=pixel)


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


# no fit in the package calls curve_fit; the benchmark's traced run wraps
# reconstruction.curve_fit by name, and its wrapper needs the name to exist
def curve_fit(model, xdata, ydata, p0, jac):
    """Levenberg-Marquardt least squares of ``model(xdata, *p)`` to ``ydata``.

    ``jac(xdata, *p)`` is the model's (m, n) Jacobian.  Each step solves the
    normal equations with the diagonal of JᵀJ scaled by (1 + λ); λ starts at
    1e-3 and is divided by 10 when a step lowers the residual sum of squares
    and multiplied by 10 when it does not.  The fit stops on MINPACK's tests:
    an accepted step lowers the sum of squares by at most ``_LM_FTOL`` of it,
    or a step is at most ``_LM_XTOL`` of the parameters, with step and
    parameters both scaled by the column norms of J.  Returns ``(popt, pcov)`` with
    pcov = inv(JᵀJ)·RSS/(m - n), infinite when m <= n or JᵀJ is singular;
    raises ValidationError when the residual sum of squares at ``p0`` is not
    finite (NaN or infinite data), and FitConvergenceError when
    ``_LM_MAX_STEPS`` trial steps do not reach a stop.

    The model is called once for every evaluation, so a wrapper around it
    can count evaluations.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.asarray(p0, dtype=float)
    resid = y - model(x, *p.tolist())
    rss = float(resid @ resid)
    if not math.isfinite(rss):
        raise ValidationError("fit data or starting point give a non-finite residual")
    lam = _LM_LAMBDA0
    jtj = None
    for _ in range(_LM_MAX_STEPS):
        if jtj is None:
            j = jac(x, *p.tolist())
            jtj, grad = j.T @ j, j.T @ resid
            scale = np.sqrt(jtj.diagonal())
            scaled_p = scale * p
            xtol_bound = _LM_XTOL**2 * (scaled_p @ scaled_p)
        damped = jtj.copy()
        damped.flat[:: len(p) + 1] += lam * jtj.diagonal()
        try:
            step = np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(f"fit normal equations are singular: {exc}") from exc
        scaled_step = scale * step
        small_step = scaled_step @ scaled_step <= xtol_bound
        trial = p + step
        trial_resid = y - model(x, *trial.tolist())
        trial_rss = float(trial_resid @ trial_resid)
        if trial_rss < rss:
            small_decrease = rss - trial_rss <= _LM_FTOL * rss
            p, resid, rss = trial, trial_resid, trial_rss
            if small_decrease or small_step:
                return p, _covariance(jac(x, *p.tolist()), rss)
            lam /= 10.0
            jtj = None
        elif small_step:
            return p, _covariance(j, rss)
        else:
            lam *= 10.0
    raise FitConvergenceError(f"least-squares fit did not converge in {_LM_MAX_STEPS} steps")


def _covariance(j: np.ndarray, rss: float) -> np.ndarray:
    """inv(JᵀJ)·RSS/(m - n); infinite when m <= n or JᵀJ is singular."""
    m, n = j.shape
    if m > n:
        try:
            return np.linalg.inv(j.T @ j) * (rss / (m - n))
        except np.linalg.LinAlgError:
            pass
    return np.full((n, n), np.inf)


def _separable_fit(ys: np.ndarray, start: list, shape, columns):
    """Least squares of ys ≈ a·s(θ) + c over θ = (x, w), or x alone (w = 0).

    The model is separable (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): a and c are their 2x2 linear least squares at each θ, so only θ
    is searched.  ``shape(x, w, out)`` writes s(θ) into ``out``.  Called
    after s is written at an accepted θ, ``columns(x, w, a, s, out)`` writes
    each Jacobian column ∂(a·s)/∂θᵢ as kᵢ·out[i] and returns (kx, kw), with
    kw = 0 for an absent w.  Each step is Kaufman's (BIT 15, 49 (1975)): the
    columns projected off s and the constant give a 2x2 system whose
    diagonal is damped by (1 + λ), with ``curve_fit``'s λ schedule, stop
    rules and budget of ``_LM_MAX_STEPS`` trial steps.  Every sum is numpy's
    pairwise ``sum`` of elementwise products and the algebra runs in Python
    floats, so no BLAS kernel moves a bit.

    Returns (x, w), a, c, the RSS and the standard errors of (x, w, a, c):
    the diagonal of inv(JᵀJ)·RSS/(m - k - 2) for k unknowns where the fit
    stops, infinite when JᵀJ is singular; an absent w's error means nothing.
    Raises ValidationError when the RSS at the start is not finite, and
    FitConvergenceError when a damped system is singular or the budget runs
    out.
    """
    # Rows of one buffer, so that each batch of sums is one product into a
    # scratch array and one sum along the rows: the data, ones, and at the
    # last θ evaluated the shape s, the columns of x and w, and the residual.
    # A step is taken only from an accepted θ, which is the last one
    # evaluated.  An absent w's column stays zero.
    m, k = len(ys), len(start)
    rows = np.zeros((6, m))
    rows[0], rows[1] = ys, 1.0
    s, resid, out = rows[2], rows[5], rows[3:5]
    head, head_products = rows[:3], np.empty((3, m))
    pairs, pair_products = (rows[3:5, np.newaxis], rows[np.newaxis, 1:]), np.empty((2, 5, m))
    y_sum = float(ys.sum())

    def project(x, w):
        """(a, c, Σs, Σs², det P, RSS) at (x, w), leaving s and the residual in
        their rows; the RSS is infinite where s is a constant, det P <= 0."""
        shape(x, w, s)
        sy_sum, s_sum, ss_sum = np.multiply(head, s, out=head_products).sum(-1).tolist()
        det = m * ss_sum - s_sum * s_sum
        if not det > 0.0:
            return math.nan, math.nan, s_sum, ss_sum, det, math.inf
        amp = (m * sy_sum - s_sum * y_sum) / det
        offset = (ss_sum * y_sum - s_sum * sy_sum) / det
        np.multiply(s, amp, out=resid)
        np.add(resid, offset, out=resid)
        np.subtract(rows[0], resid, out=resid)
        return amp, offset, s_sum, ss_sum, det, float((resid * resid).sum())

    x, w = start if k == 2 else (start[0], 0.0)
    amp, offset, s_sum, ss_sum, det_p, rss = project(x, w)
    if not math.isfinite(rss):
        raise ValidationError("fit data or starting point give a non-finite residual")
    lam, fresh, done = _LM_LAMBDA0, True, False
    for steps in range(_LM_MAX_STEPS + 1):
        if fresh:
            # the columns are gx = kx·rows[3] and gw = kw·rows[4]; first the
            # sums of each against 1, s, both columns and the residual
            kx, kw = columns(x, w, amp, s, out)
            (a1, a_s, aa, ab, a_r), (b1, b_s, _, bb, b_r) = (
                np.multiply(*pairs, out=pair_products).sum(-1).tolist()
            )
            gx_sum, sgx, grad_x = kx * a1, kx * a_s, kx * a_r
            gw_sum, sgw, grad_w = kw * b1, kw * b_s, kw * b_r
            gxx, gxw, gww = kx * kx * aa, kx * kw * ab, kw * kw * bb
            # b = inv(P)·[Σs·g, Σg] regresses each column on (s, 1), whose
            # normal matrix is P = [[Σs², Σs], [Σs, m]]; S = [[sxx, sxw],
            # [sxw, sww]] is the Schur complement of P in JᵀJ, the normal
            # matrix of the projected columns
            ba_x, bc_x = (m * sgx - s_sum * gx_sum) / det_p, (ss_sum * gx_sum - s_sum * sgx) / det_p
            ba_w, bc_w = (m * sgw - s_sum * gw_sum) / det_p, (ss_sum * gw_sum - s_sum * sgw) / det_p
            sxx = gxx - (sgx * ba_x + gx_sum * bc_x)
            sxw = gxw - (sgx * ba_w + gx_sum * bc_w)
            # an absent w takes a unit diagonal: S stays regular, w's step is
            # 0, and x's step and errors are those of the 1x1 system
            sww = gww - (sgw * ba_w + gw_sum * bc_w) if k == 2 else 1.0
            xtol_bound = _LM_XTOL**2 * (sxx * x * x + sww * w * w)
            fresh = False
        if done:
            break
        if steps == _LM_MAX_STEPS:
            raise FitConvergenceError(f"least-squares fit did not converge in {steps} steps")
        dxx, dww = sxx * (1.0 + lam), sww * (1.0 + lam)
        det = dxx * dww - sxw * sxw
        if not 0.0 < det < math.inf:
            raise FitConvergenceError("fit normal equations are singular")
        step_x = (dww * grad_x - sxw * grad_w) / det
        step_w = (dxx * grad_w - sxw * grad_x) / det
        small_step = sxx * step_x * step_x + sww * step_w * step_w <= xtol_bound
        trial = project(x + step_x, w + step_w)
        if trial[-1] < rss:
            done = small_step or rss - trial[-1] <= _LM_FTOL * rss
            x, w = x + step_x, w + step_w
            amp, offset, s_sum, ss_sum, det_p, rss = trial
            lam /= 10.0
            fresh = True
        elif small_step:
            done = True
        else:
            lam *= 10.0

    det_s = sxx * sww - sxw * sxw
    errors = [math.inf] * 4
    if det_s > 0.0:
        # inv(JᵀJ) is inv(S) for (x, w) and inv(P) + B·inv(S)·Bᵀ for (a, c);
        # det P > 0 at every accepted θ
        variances = (
            sww / det_s,
            sxx / det_s,
            m / det_p + (sww * ba_x * ba_x - 2.0 * sxw * ba_x * ba_w + sxx * ba_w * ba_w) / det_s,
            ss_sum / det_p + (sww * bc_x * bc_x - 2.0 * sxw * bc_x * bc_w + sxx * bc_w * bc_w) / det_s,
        )
        errors = [math.sqrt(max(v, 0.0) * rss / (m - k - 2)) for v in variances]
    return (x, w), amp, offset, rss, errors


def _lorentzian_start(
    profile: RealSpaceProfile, initial_window: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The samples inside the fit window, and the Lorentzian's start there:
    [amplitude, center, half-width, offset].

    Tallest in-window bin for the center (ties break to the lowest x), 3-bin
    parabolic curvature for the width, in-window median for the offset.
    Raises ValidationError unless the window is an increasing (lo, hi) pair,
    and NoPeakError when it holds no peak to fit.
    """
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

    offset0 = _median(ys)
    amp0 = float(ys[ipk] - offset0)
    if amp0 <= 0:
        raise NoPeakError("peak does not rise above the window median")
    dx = float(xs[1] - xs[0])
    curvature = (ys[ipk - 1] - 2.0 * ys[ipk] + ys[ipk + 1]) / dx**2
    if curvature < 0:
        width0 = math.sqrt(max(-2.0 * amp0 / curvature, (dx / 2.0) ** 2))
    else:
        width0 = float(profile.pixel_size_nm) / 2.0
    return xs, ys, [amp0, float(xs[ipk]), width0, offset0]


def fit_lorentzian(
    profile: RealSpaceProfile, initial_window: tuple[float, float] | None = None
) -> PeakFit:
    """Least-squares Lorentzian fit of the profile peak inside a window.

    The window defaults to the main lobe (see default_fit_window), and the
    fit starts where ``_lorentzian_start`` puts it.  ``_separable_fit``
    searches the center x0 and half-width w, with the amplitude and offset in
    closed form at each (x0, w) and damped 2x2 steps.  The uncertainties are
    the diagonal of inv(JᵀJ)·RSS/(m - 4) for the full Jacobian of
    (amplitude, x0, w, offset) where the fit stops, infinite when JᵀJ is
    singular.
    """
    if initial_window is None:
        initial_window = default_fit_window(profile)
    xs, ys, (_, center, half_width, _) = _lorentzian_start(profile, initial_window)
    d = np.empty(len(xs))  # x - x0 at the last (x0, w) evaluated

    def shape(x0, w, out):
        np.subtract(xs, x0, out=d)
        w2 = w * w
        np.multiply(d, d, out=out)
        np.add(out, w2, out=out)
        np.divide(w2, out, out=out)

    def columns(x0, w, amp, s, out):
        # A·∂s/∂x0 = kx·s·u and A·∂s/∂w = kw·u², u = (x - x0)·s
        np.multiply(d, s, out=d)
        np.multiply(s, d, out=out[0])
        np.multiply(d, d, out=out[1])
        kx = 2.0 * amp / (w * w)
        return kx, kx / w

    # the window holds m >= 5 samples, so m - 4 >= 1 degrees of freedom
    (center, half_width), amp, offset, rss, (sd_x, sd_w, sd_a, sd_c) = _separable_fit(
        ys, [center, half_width], shape, columns
    )
    return PeakFit(
        center_nm=center,
        fwhm_nm=2.0 * abs(half_width),  # width enters squared; fold the sign
        amplitude=amp,
        offset=offset,
        uncertainties={"center_nm": sd_x, "fwhm_nm": 2.0 * sd_w, "amplitude": sd_a, "offset": sd_c},
        residual_norm=math.sqrt(rss),
    )


def fit_cosine(record: KSpaceRecord) -> CosineFit:
    """Fit a*cos(2*pi*K*x0) + c to a raw sweep's signal vs K; x0 is the NV
    position in nm (Rife and Boorstyn, IEEE Trans. Inf. Theory 20, 591
    (1974)).  The phase is zero at K = 0, where no current flows.

    x0 starts at the tallest bin of the zero-padded periodogram on
    ``fourier_reconstruct``'s K grid (``_full_grid``, or the mean K spacing
    where that grid is refused).  ``_separable_fit`` then takes damped steps
    on x0 alone, with (a, c) in closed form at each x0; its standard errors
    are the diagonal of inv(JᵀJ)·RSS/(n - 3).
    """
    n = len(record)
    if n < 6:
        raise InsufficientSpanError(f"cosine fit needs >= 6 points, got {n}")
    k, s = record.k_values, record.signals
    if not np.all(np.isfinite(s)):
        raise ValidationError("cosine fit needs finite signals")
    centered = s - float(np.mean(s))
    scale = max(float(np.max(np.abs(s))), 1.0)
    if float(np.max(np.abs(centered))) <= 1e-12 * scale:
        raise DegenerateFitError("record signal has zero amplitude")
    span = float(k[-1] - k[0])  # > 0: a record's K values increase

    # zero-padded periodogram, gaps zero-filled: near-Nyquist sweeps need the
    # finer start to land in the right least-squares basin
    try:
        where, n_grid, dk = _full_grid(record)
    except (MetadataError, NonUniformKError, ValidationError):
        where, n_grid, dk = slice(None), n, span / (n - 1)
    placed = np.zeros(n_grid)
    placed[where] = centered
    spectrum = np.abs(np.fft.rfft(placed, n=8 * n_grid))
    x0 = (int(np.argmax(spectrum[1:])) + 1) / (8 * n_grid * dk)
    two_pi_k = 2.0 * np.pi * k
    phase = np.empty(n)

    def shape(x0, w, out):
        np.multiply(two_pi_k, x0, out=phase)
        np.cos(phase, out=out)

    def columns(x0, w, amp, _, out):
        # a·∂s/∂x0 = -a·2πK·sin(2πK·x0)
        np.sin(phase, out=out[0])
        np.multiply(out[0], two_pi_k, out=out[0])
        return -amp, 0.0

    (x0, _), a, c, rss, (sd_x0, _, sd_a, sd_c) = _separable_fit(s, [x0], shape, columns)
    if abs(a) < sd_a:
        raise DegenerateFitError("fitted amplitude indistinguishable from zero")
    if x0 * span < 0.8:
        raise InsufficientSpanError(f"record spans {x0 * span:.2f} oscillation periods; need >= 1")
    uncertainties = {"implied_position_nm": sd_x0, "amplitude": sd_a, "offset": sd_c}
    return CosineFit(a, c, x0, uncertainties, residual_norm=math.sqrt(rss))


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
    floor = _median(amp[outside])
    mad = _median(np.abs(amp[outside] - floor))
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
    write_csv(path, ["x_nm", "amplitude"], profile.x_grid_nm, profile.amplitude)


def save_fit_json(fit, path) -> None:
    write_json(path, {"model": fit.model, **to_plain(fit)})
