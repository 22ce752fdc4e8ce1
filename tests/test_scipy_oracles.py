"""The numpy-only transform and fits against scipy, kept as a test oracle.

``fourier_reconstruct`` computes its DCT-I as a chirp-z transform, so its
profile must equal ``scipy.fft.dct(type=1)`` to a bound derived from FFT
round-off.  ``lsq.curve_fit`` is an in-house
Levenberg-Marquardt solver; both peak fits must land where scipy's MINPACK
``curve_fit`` lands, with no more residual, and the wire calibration where
scipy's fit to the same weighted model lands when run to convergence.

The Lorentzian comparison runs on unwindowed profiles at zero-pad 2 and
above, where the main lobe spans several grid steps and the fit has a
minimum.  At zero-pad 1 a peak can fall within a grid step of one sample,
and a hann profile has nulls at +-1 pixel inside the fit window; there the
best Lorentzian is a spike of vanishing width, and the two solvers stop at
different points along that valley.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.optimize import curve_fit as scipy_curve_fit

import nvfourier as nf
from nvfourier import lsq, reconstruction
from nvfourier.config import load_config
from nvfourier.errors import DegenerateFitError, FitConvergenceError
from nvfourier.field_model import load_calibration_csv

from helpers import dct_oracle

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default_run.yaml"

K_MAX = 2.0
PIXEL = 1.0 / (2.0 * K_MAX)
COSINE_METADATA = {"waveform_efficiency": 0.5, "tau_us": 250.0, "gradient_per_ma_g_per_um": 0.326}
# Both solvers stop once a step lowers the residual sum of squares by at most
# 1.5e-8 of it, which leaves each parameter about sqrt(1.5e-8 * (m - n))
# standard errors from the minimum: up to 1.4e-3 for the 120-point sweeps
# here.  On a poorly conditioned fit that exceeds the fixed bounds, so
# parameters agree to the fixed bound or to STOP_SD standard errors, which
# covers the two stops falling on either side of the minimum.
STOP_SD = 5e-3


def record_of(signals, currents=None, metadata=None):
    n = len(signals)
    return nf.KSpaceRecord(
        k_values=np.arange(n) * (K_MAX / (n - 1)),
        currents=np.arange(n, dtype=float) if currents is None else currents,
        signals=signals, errors=np.zeros(n), t_hours=np.zeros(n), metadata=metadata or {},
    )


def with_scipy(fit, *args):
    """Run ``fit`` with scipy's curve_fit in place of the in-house solver."""
    def scipy_fit(model, xdata, ydata, p0, jac):
        return scipy_curve_fit(model, xdata, ydata, p0=p0, maxfev=20000)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruction, "curve_fit", scipy_fit)
        return fit(*args)


def localization_profile(n, x0_frac, sigma_pixels, noise, zero_pad, seed):
    """Profile of a decaying cosine sweep with Gaussian noise (K_max = 2 / nm)."""
    k = np.arange(n) * (K_MAX / (n - 1))
    x0 = x0_frac * (n - 1) * PIXEL
    sigma = sigma_pixels * PIXEL
    signals = np.cos(2.0 * math.pi * k * x0) * np.exp(-2.0 * math.pi**2 * sigma**2 * k**2)
    signals = signals + noise * np.random.default_rng(seed).standard_normal(n)
    return nf.fourier_reconstruct(record_of(signals), zero_pad_factor=zero_pad)


# Higham's per-pass error constant of a floating-point FFT, eta = mu +
# gamma_4 (sqrt(2) + mu), with twiddle factors exact to mu = u
U = 2.0**-53
ETA = U + 4.0 * U / (1.0 - 4.0 * U) * (math.sqrt(2.0) + U)
# max|B| / sqrt(2M) of the chirp filter spectrum: at most 1.36 on 300
# random grids with n in [2, 2000] and zero-pad in [1, 8]
CHIRP_GAIN = 1.5


def dct1_roundoff_bound(padded, n):
    """Bound on |fourier_reconstruct - exact DCT-I| plus |scipy - exact|,
    per profile point, for the padded signal x of M + 1 points.

    A computed FFT of length L is off by at most rho_L |Fv|_2 in 2-norm,
    rho_L = eta log2(L) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 24.2), and a 2-norm bounds every entry.

    - scipy transforms the 2M-point even extension e, |e|_2 <= sqrt(2)|x|_2,
      so |Fe|_2 <= sqrt(2M) sqrt(2) |x|_2 bounds its error over rho_2M.
    - The chirp-z path transforms c*w (|c|_2 <= 2|x|_2, |w| = 1) on
      L < 2(n + M) points, multiplies by the chirp filter's spectrum B and
      transforms back; B is itself an FFT.  The forward and the inverse
      FFT's errors reach the output scaled by max|B|, and so does B's own
      error when it is spread over the L bins rather than aligned with the
      peaks of F(c*w), as for any input not built against the chirp: each is
      at most rho_L max|B| |c|_2.  B is the spectrum of a unit-modulus chirp
      whose frequency sweeps 1/(2M) cycles per sample per sample, so by
      stationary phase |B| is about sqrt(2M); CHIRP_GAIN covers the ripple.
    - Each chirp angle lies in [0, 2 pi) and is rounded three times, so w
      carries at most 20 u.  The pre-chirp, the filter taps and the
      post-chirp, with their pointwise products, add at most 70 u |c|_1 <=
      140 u sqrt(2M) |x|_2, since |c|_1 <= sqrt(n)|c|_2 and n <= 2M.

    The profile is |A| / (n - 1); taking magnitudes does not enlarge a
    difference.  Measured on 300 random grids (n in [2, 2000], zero-pad in
    [1, 8], both windows): the largest difference was 0.3 % of the bound.
    """
    m = len(padded) - 1
    scale = math.sqrt(2 * m) * float(np.linalg.norm(padded)) / (n - 1)
    ours = 3.0 * ETA * math.log2(2 * (n + m)) * CHIRP_GAIN * 2.0 + 140.0 * U
    theirs = ETA * math.log2(2 * m) * math.sqrt(2.0)
    return (ours + theirs) * scale


def padded_signal(signals, window, zero_pad):
    n = len(signals)
    tapered = signals * np.hanning(n) if window == "hann" else signals
    return np.concatenate([tapered, np.zeros((n - 1) * (zero_pad - 1))])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 2000),
    zero_pad=st.integers(1, 8),
    window=st.sampled_from(reconstruction.WINDOWS),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, zero_pad=1, window="none", seed=0)
@example(n=458, zero_pad=4, window="none", seed=1)  # 8 * 457: a prime factor
@example(n=1998, zero_pad=3, window="hann", seed=2)  # 6 * 1997: a prime factor
@example(n=1900, zero_pad=4, window="none", seed=3)  # 1899 = 3^2 * 211
def test_dct_matches_scipy_within_roundoff(n, zero_pad, window, seed):
    signals = np.random.default_rng(seed).standard_normal(n)
    profile = nf.fourier_reconstruct(record_of(signals), window=window, zero_pad_factor=zero_pad)
    padded = padded_signal(signals, window, zero_pad)
    expected = np.abs(dct(padded, type=1)) / (n - 1)
    assert np.max(np.abs(profile.amplitude - expected)) <= dct1_roundoff_bound(padded, n)


@pytest.mark.parametrize(
    ("n", "zero_pad", "window"),
    [(2, 1, "none"), (3, 2, "none"), (60, 4, "none"), (115, 4, "hann"), (458, 1, "hann"),
     (458, 4, "none")],
)
def test_dct_matches_direct_cosine_sum(n, zero_pad, window):
    """The DCT-I's defining sum, term by term (helpers.dct_oracle, O(n*M)),
    whose angles are reduced mod 2 pi in integers, so it carries only the
    round-off of its cosines and of one sum per point, below the bound of
    the FFT paths."""
    signals = np.random.default_rng(n).standard_normal(n)
    profile = nf.fourier_reconstruct(record_of(signals), window=window, zero_pad_factor=zero_pad)
    padded = padded_signal(signals, window, zero_pad)
    direct = dct_oracle(padded[:n], zero_pad)
    assert np.max(np.abs(profile.amplitude - direct)) <= dct1_roundoff_bound(padded, n)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 600),
    x0_frac=st.floats(0.1, 0.9),
    sigma_pixels=st.floats(0.0, 0.5),
    noise=st.floats(0.0, 0.1),
    zero_pad=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=458, x0_frac=0.3, sigma_pixels=0.2, noise=0.0, zero_pad=4, seed=0)
def test_fit_lorentzian_matches_scipy(n, x0_frac, sigma_pixels, noise, zero_pad, seed):
    profile = localization_profile(n, x0_frac, sigma_pixels, noise, zero_pad, seed)
    ours = nf.fit_lorentzian(profile)
    theirs = with_scipy(nf.fit_lorentzian, profile)
    sd = ours.uncertainties
    assert abs(ours.center_nm - theirs.center_nm) <= max(1e-5 * PIXEL, STOP_SD * sd["center_nm"])
    assert abs(ours.fwhm_nm - theirs.fwhm_nm) <= max(2e-4 * theirs.fwhm_nm, STOP_SD * sd["fwhm_nm"])
    assert ours.residual_norm**2 <= theirs.residual_norm**2 * (1.0 + 1e-8)
    # scipy's covariance uses a finite-difference Jacobian one step back
    assert ours.uncertainties == pytest.approx(theirs.uncertainties, rel=1e-2)


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(20, 120),
    span_ma=st.floats(0.5, 10.0),
    periods_frac=st.floats(0.0, 1.0),
    amplitude=st.floats(0.05, 1.0),
    phase=st.floats(-math.pi, math.pi),
    offset=st.floats(-0.5, 0.5),
    noise_frac=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    n=60, span_ma=0.6, periods_frac=0.1, amplitude=0.08, phase=0.0, offset=0.9, noise_frac=0.0, seed=0
)
def test_fit_cosine_matches_scipy(
    n, span_ma, periods_frac, amplitude, phase, offset, noise_frac, seed
):
    # from one period across the sweep up to 0.45 cycles per step (Nyquist: 0.5)
    periods = 1.0 + periods_frac * (0.45 * (n - 1) - 1.0)
    currents = np.linspace(0.0, span_ma, n)
    signals = amplitude * np.cos(2.0 * math.pi * periods / span_ma * currents + phase) + offset
    signals = signals + noise_frac * amplitude * np.random.default_rng(seed).standard_normal(n)
    record = record_of(signals, currents, COSINE_METADATA)
    ours = nf.fit_cosine(record)
    try:
        theirs = with_scipy(nf.fit_cosine, record)
    except DegenerateFitError:
        # scipy's covariance of a nearly exact fit (residual just above
        # _EXACT_FIT_RTOL) can be infinite; there is nothing to compare
        return
    freq_sd = ours.uncertainties["frequency_per_ma"]
    assert abs(ours.frequency_per_ma - theirs.frequency_per_ma) <= max(
        1e-6 * theirs.frequency_per_ma, STOP_SD * freq_sd
    )
    # an exact fit leaves only rounding, which no relative bound can compare
    rounding = (1e-9 * float(np.linalg.norm(signals - signals.mean()))) ** 2
    assert ours.residual_norm**2 <= theirs.residual_norm**2 * (1.0 + 1e-8) + rounding


@pytest.mark.parametrize("seed", range(10))
def test_calibrate_wire_matches_scipy(seed):
    # the shipped samples with 0.02 MHz of Gaussian noise on each shift
    cfg = load_config(DEFAULT_CONFIG)
    rng = np.random.default_rng(seed)
    samples = [
        replace(s, delta_f_mhz=s.delta_f_mhz + 0.02 * rng.standard_normal())
        for s in load_calibration_csv(cfg.calibration_csv)
    ]
    _, report = nf.calibrate_wire(samples, cfg.wire, cfg.nv_axis)

    def shifts(_, shift, scale):
        anchor = cfg.wire.anchor_point_um + shift * report.standoff_axis
        wire = replace(cfg.wire, anchor_point_um=anchor)
        b = [nf.project_on_axis(nf.field_at(wire, s.position_um), cfg.nv_axis) for s in samples]
        return scale * nf.odmr_shift(1.0) * np.array(b)

    # scipy's trust-region solver with a central-difference Jacobian, run to
    # the minimum; its covariance is the same inv(JᵀJ)·RSS/(m - n) of the
    # weighted problem
    popt, pcov = scipy_curve_fit(
        shifts, np.arange(len(samples)), [s.delta_f_mhz for s in samples], p0=[0.0, 1.0],
        sigma=[s.sigma_mhz for s in samples], method="trf", jac="3-point",
        ftol=1e-14, xtol=1e-14, gtol=1e-14,
    )
    ours = [report.standoff_shift_um, report.current_scale]
    sd = [report.uncertainties["standoff_shift_um"], report.uncertainties["current_scale"]]
    # the shift lies near zero, so its stop is bounded in standard errors
    for value, theirs, error in zip(ours, popt, sd):
        assert abs(value - theirs) <= max(1e-8 * abs(theirs), STOP_SD * error)
    assert sd == pytest.approx(np.sqrt(np.diag(pcov)), rel=1e-6)


def test_starved_solver_raises(monkeypatch):
    profile = localization_profile(458, 0.3, 0.2, 0.01, 4, 0)
    nf.fit_lorentzian(profile)
    monkeypatch.setattr(lsq, "_LM_MAX_STEPS", 2)
    with pytest.raises(FitConvergenceError):
        nf.fit_lorentzian(profile)
