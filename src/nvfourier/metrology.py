"""Resolution and magnetometry figures of merit.

Unit conversions between gauss, microtesla and nanotesla are centralized
here with exact factors (1 G = 100 uT, 1 uT = 1000 nT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GAMMA_ANG_RAD_PER_US_G
from .errors import ValidationError

GAUSS_TO_MICROTESLA = 100.0
MICROTESLA_TO_NANOTESLA = 1000.0


@dataclass
class SensitivityReport:
    """Sensitivity chain: signal slope -> eta -> deviation after averaging.

    The evolution time entering the slope is the total echo time 2*tau.
    """

    slope_inverse_g: float
    eta_ut_per_sqrt_hz: float
    sigma_s: float
    alpha: float
    beta: float
    evolution_time_us: float
    n_averages: int
    total_time_s: float
    deviation_nt: float


def pixel_resolution(k_max_per_nm: float) -> float:
    """Real-space pixel (nm) set by the largest acquired K: 1/(2*K_max)."""
    if not k_max_per_nm > 0:
        raise ValidationError("k_max must be > 0")
    return 1.0 / (2.0 * k_max_per_nm)


def full_sensitivity_report(
    alpha: float,
    beta: float,
    sigma_s: float,
    evolution_time_us: float,
    n_averages: int,
) -> SensitivityReport:
    """Shot-noise magnetic sensitivity and the field deviation after
    n_averages repetitions of one sequence each.

    eta = |dB/dS|_max * sigma_S, where |dB/dS|_max = 1/(2 * gamma_angular *
    T * alpha * beta) is the inverse of the maximum slope of the echo fringe
    versus field and sigma_S is the normalized-signal noise density (per
    sqrt(Hz)); eta is reported in uT/sqrt(Hz).  The total integration time is
    n_averages * T, and the deviation (nT) is eta/sqrt(that time).
    """
    for name, value in (
        ("alpha", alpha),
        ("beta", beta),
        ("sigma_s", sigma_s),
        ("evolution_time_us", evolution_time_us),
    ):
        if not value > 0:
            raise ValidationError(f"{name} must be > 0")
    if not n_averages >= 1:
        raise ValidationError("n_averages must be >= 1")
    slope_inverse_g = 1.0 / (2.0 * GAMMA_ANG_RAD_PER_US_G * evolution_time_us * alpha * beta)
    eta = slope_inverse_g * sigma_s * GAUSS_TO_MICROTESLA
    if not eta > 0:
        raise ValidationError("eta must be > 0")
    total_time_s = n_averages * evolution_time_us * 1e-6
    return SensitivityReport(
        slope_inverse_g=slope_inverse_g,
        eta_ut_per_sqrt_hz=eta,
        sigma_s=sigma_s,
        alpha=alpha,
        beta=beta,
        evolution_time_us=evolution_time_us,
        n_averages=int(n_averages),
        total_time_s=total_time_s,
        deviation_nt=eta / math.sqrt(total_time_s) * MICROTESLA_TO_NANOTESLA,
    )
