"""Resolution and magnetometry figures of merit.

Unit conversions between gauss, microtesla and nanotesla are centralized
here with exact factors (1 G = 100 uT, 1 uT = 1000 nT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GAMMA_ANG_RAD_PER_US_G
from .errors import ValidationError
from .reconstruction import PeakFit, RealSpaceProfile

GAUSS_TO_MICROTESLA = 100.0
MICROTESLA_TO_NANOTESLA = 1000.0

TIME_CONVENTIONS = ("total", "half")


@dataclass
class SensitivityReport:
    """Sensitivity chain: signal slope -> eta -> deviation after averaging.

    The evolution time entering the slope is by default the TOTAL echo time
    (time_convention='total'); 'half' uses half of it.  The two readings
    differ by a factor of two, so the convention in force is recorded in
    every report.
    """

    slope_inverse_g: float
    eta_ut_per_sqrt_hz: float
    sigma_s: float
    alpha: float
    beta: float
    evolution_time_us: float
    time_convention: str = "total"
    n_averages: int | None = None
    total_time_s: float | None = None
    deviation_nt: float | None = None


def pixel_resolution(k_max_per_nm: float) -> float:
    """Real-space pixel (nm) set by the largest acquired K: 1/(2*K_max)."""
    if not k_max_per_nm > 0:
        raise ValidationError("k_max must be > 0")
    return 1.0 / (2.0 * k_max_per_nm)


def sensitivity(
    alpha: float,
    beta: float,
    sigma_s: float,
    evolution_time_us: float,
    time_convention: str = "total",
) -> SensitivityReport:
    """Shot-noise magnetic sensitivity eta = |dB/dS|_max * sigma_S.

    |dB/dS|_max = 1/(2 * gamma_angular * T * alpha * beta) is the inverse of
    the maximum slope of the echo fringe versus field; sigma_S is the
    normalized-signal noise density (per sqrt(Hz)).  eta is returned in
    uT/sqrt(Hz).
    """
    for name, value in (
        ("alpha", alpha),
        ("beta", beta),
        ("sigma_s", sigma_s),
        ("evolution_time_us", evolution_time_us),
    ):
        if not value > 0:
            raise ValidationError(f"{name} must be > 0")
    if time_convention not in TIME_CONVENTIONS:
        raise ValidationError(f"time_convention must be one of {TIME_CONVENTIONS}")
    t_eff = evolution_time_us if time_convention == "total" else evolution_time_us / 2.0
    slope_inverse_g = 1.0 / (2.0 * GAMMA_ANG_RAD_PER_US_G * t_eff * alpha * beta)
    eta = slope_inverse_g * sigma_s * GAUSS_TO_MICROTESLA
    return SensitivityReport(
        slope_inverse_g=slope_inverse_g,
        eta_ut_per_sqrt_hz=eta,
        sigma_s=sigma_s,
        alpha=alpha,
        beta=beta,
        evolution_time_us=evolution_time_us,
        time_convention=time_convention,
    )


def deviation_after_averaging(
    eta_ut_per_sqrt_hz: float, n_averages: int, sequence_time_us: float
) -> float:
    """Field deviation (nT) after n averages of one sequence each.

    Total integration time is n * sequence_time; deviation = eta/sqrt(T).
    """
    if not eta_ut_per_sqrt_hz > 0:
        raise ValidationError("eta must be > 0")
    if not n_averages >= 1:
        raise ValidationError("n_averages must be >= 1")
    if not sequence_time_us > 0:
        raise ValidationError("sequence_time_us must be > 0")
    total_s = n_averages * sequence_time_us * 1e-6
    return eta_ut_per_sqrt_hz / math.sqrt(total_s) * MICROTESLA_TO_NANOTESLA


def full_sensitivity_report(
    alpha: float,
    beta: float,
    sigma_s: float,
    evolution_time_us: float,
    n_averages: int,
    time_convention: str = "total",
) -> SensitivityReport:
    """Sensitivity plus the deviation reached after n_averages repetitions."""
    report = sensitivity(alpha, beta, sigma_s, evolution_time_us, time_convention)
    report.n_averages = int(n_averages)
    report.total_time_s = n_averages * evolution_time_us * 1e-6
    report.deviation_nt = deviation_after_averaging(
        report.eta_ut_per_sqrt_hz, n_averages, evolution_time_us
    )
    return report


def empirical_resolution(fit: PeakFit, profile: RealSpaceProfile) -> dict:
    """Measured FWHM and its ratio to the theoretical pixel resolution."""
    if not fit.fwhm_nm > 0:
        raise ValidationError("fit fwhm must be > 0")
    pixel = pixel_resolution(profile.k_max_per_nm)
    return {"fwhm_nm": fit.fwhm_nm, "fwhm_over_pixel": fit.fwhm_nm / pixel}
