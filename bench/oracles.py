"""Reference values computed apart from nvfourier.

Nothing here imports the package under test: every quantity the benchmark
checks is derived again from the physics, with the constants written out
(gamma = 2.8 MHz/G, mu0/2pi = 2 G*um/mA) and the transform evaluated as a
plain cosine sum.  Units follow the package: um, mA, G, MHz, us; imaging
coordinates in nm and K in 1/nm.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA_CYC_MHZ_PER_G = 2.8
WIRE_G_UM_PER_MA = 2.0
GAUSS_TO_MICROTESLA = 100.0


def sine_lobe_efficiency(active_fraction: float) -> float:
    """Phase efficiency w = 2a/pi of a one-lobe-per-half antisymmetric sine drive."""
    return 2.0 * active_fraction / math.pi


def k_per_ma(efficiency: float, total_time_us: float, gradient_per_ma: float) -> float:
    """Slope dK/dI (1/nm per mA) of K = w * 2*gamma*tau * G * I."""
    tau_us = total_time_us / 2.0
    return efficiency * 2.0 * GAMMA_CYC_MHZ_PER_G * tau_us * gradient_per_ma * 1e-3


def current_ramp(i_max_ma: float, n_points: int) -> np.ndarray:
    """Linear ramp 0 .. i_max over n_points steps."""
    return np.arange(n_points) * (i_max_ma / (n_points - 1))


def echo_signal(k_per_nm, x_nm: float, total_time_us: float, t2_us: float, stretch_p: float = 1.0):
    """Closed-form echo signal exp(-(2tau/T2)^p) * cos(2*pi*K*x)."""
    envelope = math.exp(-((total_time_us / t2_us) ** stretch_p))
    return envelope * np.cos(2.0 * math.pi * np.asarray(k_per_nm, dtype=float) * x_nm)


def hann(n: int) -> np.ndarray:
    """Symmetric Hann taper 0.5 - 0.5*cos(2*pi*j/(n-1))."""
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / (n - 1))


def _cosine_sum_weights(n: int, zero_pad_factor: int) -> np.ndarray:
    weights = np.ones(n)
    weights[0] = 0.5
    if zero_pad_factor == 1:
        weights[-1] = 0.5
    return weights


def cosine_sum_profile(signal, k_max_per_nm: float, zero_pad_factor: int = 1):
    """Direct O(N*M) one-sided cosine transform of a signal on a uniform K grid.

    ``signal`` holds N samples at K_j = j*K_max/(N-1) (zeros where a point
    was not acquired).  Returns (x_nm, |A|) with x_i = i/(2*K_max*Z),
    i = 0..(N-1)*Z, and

        A(x) = 2/(N-1) * sum_j c_j s_j cos(2*pi*K_j*x)

    where c_j = 1/2 at the ends of the zero-padded sequence, so the last
    acquired sample is halved only when there is no padding.
    """
    s = np.asarray(signal, dtype=float)
    n = len(s)
    m = (n - 1) * zero_pad_factor + 1
    weights = _cosine_sum_weights(n, zero_pad_factor)
    k = np.arange(n) * (k_max_per_nm / (n - 1))
    x = np.arange(m) / (2.0 * k_max_per_nm * zero_pad_factor)
    amplitude = np.empty(m)
    for start in range(0, m, 512):
        xs = x[start : start + 512]
        amplitude[start : start + 512] = np.cos(2.0 * math.pi * np.outer(xs, k)) @ (weights * s)
    return x, np.abs(amplitude) * (2.0 / (n - 1))


def current_noise_signal_sd(k_per_nm, x_nm, total_time_us: float, t2_us: float, stretch_p: float,
                            white_sigma: float):
    """Signal standard deviation caused by white current noise of relative size white_sigma.

    The echo phase 2*pi*K*x scales with the current, so to first order the
    signal exp(-(2tau/T2)^p) * cos(phase) moves by
    -envelope * sin(phase) * phase * white_sigma * xi, xi standard normal.
    ``x_nm`` may be one position per sample (a drifting NV).
    """
    envelope = math.exp(-((total_time_us / t2_us) ** stretch_p))
    phase = 2.0 * math.pi * np.asarray(k_per_nm, dtype=float) * np.asarray(x_nm, dtype=float)
    return envelope * np.abs(np.sin(phase) * phase) * white_sigma


def _lorentzian_jacobian(x, amplitude: float, center: float, half_width: float) -> np.ndarray:
    d = x - center
    q = d * d + half_width**2
    return np.column_stack([
        half_width**2 / q,
        2.0 * amplitude * half_width**2 * d / q**2,
        2.0 * amplitude * half_width * d * d / q**2,
        np.ones_like(x),
    ])


def lorentzian_width_sd(x_nm, params, signal, signal_sd, k_max_per_nm: float, zero_pad_factor: int) -> float:
    """Standard deviation of the FWHM of an unweighted least-squares Lorentzian fit.

    The fit is A*w^2/((x-x0)^2+w^2) + c on the profile points x_nm, with
    ``params`` = (A, x0, w, c) its optimum; the profile is
    |cosine_sum_profile| of ``signal`` (N samples on the uniform K grid up
    to k_max), each sample carrying an independent error of ``signal_sd``.

    To first order a signal change ds moves the profile by D @ ds, with
    D = sign(y) * dy/ds the rows of the cosine sum folded by the magnitude.
    The optimum keeps J^T r = 0, r = model - y, so it moves by
    H^-1 J^T D ds with H = J^T J + sum_i r_i * Hess(model_i): the Lorentzian
    does not fit the transform's main lobe exactly, and r is not small.
    The parameters' covariance is then M diag(sd^2) M^T, M = H^-1 J^T D,
    and the FWHM = 2w has twice the standard deviation of w.
    """
    s = np.asarray(signal, dtype=float)
    x = np.asarray(x_nm, dtype=float)
    p = np.asarray(params, dtype=float)
    n = len(s)
    k = np.arange(n) * (k_max_per_nm / (n - 1))
    rows = np.cos(2.0 * math.pi * np.outer(x, k)) * (_cosine_sum_weights(n, zero_pad_factor) * (2.0 / (n - 1)))
    y = rows @ s
    rows *= np.sign(y)[:, None]
    jacobian = _lorentzian_jacobian(x, *p[:3])
    d = x - p[1]
    residual = p[0] * p[2] ** 2 / (d * d + p[2] ** 2) + p[3] - np.abs(y)
    hessian = jacobian.T @ jacobian
    for j in range(3):  # the offset enters linearly
        step = 1e-6 * max(abs(p[j]), 1e-3)
        up, down = p.copy(), p.copy()
        up[j] += step
        down[j] -= step
        dj = (_lorentzian_jacobian(x, *up[:3]) - _lorentzian_jacobian(x, *down[:3])) / (2.0 * step)
        hessian[:, j] += dj.T @ residual
    response = np.linalg.solve(hessian, jacobian.T) @ rows
    half_width_var = float(np.sum((response[2] * np.asarray(signal_sd, dtype=float)) ** 2))
    return 2.0 * math.sqrt(half_width_var)


def shot_noise_sensitivity(
    alpha: float, beta: float, sigma_s: float, evolution_time_us: float
) -> float:
    """eta (uT/sqrt(Hz)) = sigma_S / (2 * 2*pi*gamma * T * alpha * beta), in gauss -> uT."""
    slope_inverse_g = 1.0 / (2.0 * 2.0 * math.pi * GAMMA_CYC_MHZ_PER_G * evolution_time_us * alpha * beta)
    return slope_inverse_g * sigma_s * GAUSS_TO_MICROTESLA


def deviation_nt(eta_ut_per_sqrt_hz: float, n_averages: int, sequence_time_us: float) -> float:
    """Field deviation (nT) after n_averages sequences: eta / sqrt(n * T)."""
    return eta_ut_per_sqrt_hz / math.sqrt(n_averages * sequence_time_us * 1e-6) * 1e3


def wire_field(anchor_um, direction, current_ma: float, point_um) -> np.ndarray:
    """Field vector (G) of a straight wire: |B| = 2*I/r, azimuthal by the right-hand rule."""
    d = np.asarray(direction, dtype=float)
    d = d / math.sqrt(float(d @ d))
    rel = np.asarray(point_um, dtype=float) - np.asarray(anchor_um, dtype=float)
    rho = rel - (rel @ d) * d
    r = math.sqrt(float(rho @ rho))
    phi_hat = np.array(
        [d[1] * rho[2] - d[2] * rho[1], d[2] * rho[0] - d[0] * rho[2], d[0] * rho[1] - d[1] * rho[0]]
    ) / r
    return WIRE_G_UM_PER_MA * current_ma / r * phi_hat


def wire_shift_mhz(anchor_um, direction, current_ma: float, point_um, nv_axis) -> float:
    """ODMR shift gamma * (B . n) of an NV at point_um."""
    a = np.asarray(nv_axis, dtype=float)
    a = a / math.sqrt(float(a @ a))
    return GAMMA_CYC_MHZ_PER_G * float(wire_field(anchor_um, direction, current_ma, point_um) @ a)


def wire_gradient(anchor_um, direction, point_um, nv_axis, imaging_axis, step_um: float = 1e-4) -> float:
    """Central-difference derivative (G/um per mA) of B . n along the imaging axis."""
    e = np.asarray(imaging_axis, dtype=float)
    e = e / math.sqrt(float(e @ e))
    p = np.asarray(point_um, dtype=float)
    up = wire_shift_mhz(anchor_um, direction, 1.0, p + step_um * e, nv_axis)
    down = wire_shift_mhz(anchor_um, direction, 1.0, p - step_um * e, nv_axis)
    return (up - down) / (2.0 * step_um) / GAMMA_CYC_MHZ_PER_G


def poisson_signal_error(signal, alpha: float, beta: float, shots: int):
    """Standard error of a normalized signal read out from Poisson photon counts.

    Counts per shot are beta*(1 + alpha*s)/(1 + alpha); their mean over
    ``shots`` has error sqrt(mean/shots), scaled back by (1+alpha)/(alpha*beta).
    """
    mean_counts = beta * (1.0 + alpha * np.asarray(signal, dtype=float)) / (1.0 + alpha)
    return (1.0 + alpha) / (alpha * beta) * np.sqrt(mean_counts / shots)
