"""Magnetometry figures of merit.

Unit conversions between gauss, microtesla and nanotesla are centralized
here with exact factors (1 G = 100 uT, 1 uT = 1000 nT).
"""

from __future__ import annotations

import math
import sys
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
    n_averages * T, and the deviation (nT) is eta/sqrt(that time).  Each
    input and each of the three results must be finite and > 0.
    """
    _check_finite_positive(
        alpha=alpha, beta=beta, sigma_s=sigma_s, evolution_time_us=evolution_time_us
    )
    # compared, not converted: an int past the float range cannot overflow here
    if not 1 <= n_averages <= sys.float_info.max:
        raise ValidationError(f"n_averages must be >= 1 and <= {sys.float_info.max:.4g}")
    slope = 2.0 * GAMMA_ANG_RAD_PER_US_G * evolution_time_us * alpha * beta
    # a product that underflows to 0 makes its inverse infinite, which the
    # last check refuses
    slope_inverse_g = 1.0 / slope if slope else math.inf
    eta = slope_inverse_g * sigma_s * GAUSS_TO_MICROTESLA
    total_time_s = n_averages * evolution_time_us * 1e-6
    deviation_nt = (
        eta / math.sqrt(total_time_s) * MICROTESLA_TO_NANOTESLA if total_time_s else math.inf
    )
    _check_finite_positive(slope_inverse_g=slope_inverse_g, eta=eta, deviation_nt=deviation_nt)
    return SensitivityReport(
        slope_inverse_g=slope_inverse_g,
        eta_ut_per_sqrt_hz=eta,
        sigma_s=sigma_s,
        alpha=alpha,
        beta=beta,
        evolution_time_us=evolution_time_us,
        n_averages=int(n_averages),
        total_time_s=total_time_s,
        deviation_nt=deviation_nt,
    )


def _check_finite_positive(**values: float) -> None:
    """Raise ValidationError, naming the first offender, unless every value
    is finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
