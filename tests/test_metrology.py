import math

import numpy as np
import pytest

import nvfourier as nf
from nvfourier.errors import ValidationError
from nvfourier.serialize import to_plain

from helpers import simulate


def pixel(k_max, n=64):
    """Pixel (nm) of the profile of an n-point K grid from 0 to k_max."""
    k = np.arange(n) * (k_max / (n - 1))
    record = nf.KSpaceRecord(k_values=k, currents=np.arange(n, dtype=float),
                             signals=np.cos(k), errors=np.zeros(n), t_hours=np.zeros(n),
                             metadata={})
    return nf.fourier_reconstruct(record).pixel_size_nm


class TestPixelResolution:
    # the real-space pixel 1/(2*K_max) is set by the largest acquired K
    def test_reference_value(self):
        assert pixel(2.2834) == pytest.approx(0.2190, abs=5e-5)

    def test_half_nm(self):
        assert pixel(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_strictly_decreasing(self):
        ks = np.linspace(0.1, 5.0, 50)
        values = [pixel(k) for k in ks]
        assert all(a > b for a, b in zip(values, values[1:]))


def eta(alpha, beta, sigma_s, t):
    return nf.full_sensitivity_report(alpha, beta, sigma_s, t, 1).eta_ut_per_sqrt_hz


class TestSensitivity:
    def test_reference_parameters(self):
        # alpha=0.08, beta=0.02, sigma_s=0.06, T=500 us -> ~0.213 uT/sqrt(Hz)
        report = nf.full_sensitivity_report(0.08, 0.02, 0.06, 500.0, 10**6)
        expected_slope = 1.0 / (2 * 2 * math.pi * 2.8 * 500.0 * 0.08 * 0.02)
        assert report.slope_inverse_g == pytest.approx(expected_slope, rel=1e-12)
        assert report.eta_ut_per_sqrt_hz == pytest.approx(0.213, abs=0.001)
        assert abs(report.eta_ut_per_sqrt_hz - 0.2) / 0.2 < 0.10

    def test_doubling_time_halves_eta(self):
        assert eta(0.08, 0.02, 0.06, 500.0) == pytest.approx(2 * eta(0.08, 0.02, 0.06, 1000.0), rel=1e-12)

    def test_doubling_sigma_doubles_eta(self):
        assert eta(0.08, 0.02, 0.12, 500.0) == pytest.approx(2 * eta(0.08, 0.02, 0.06, 500.0), rel=1e-12)

    def test_scaling_in_alpha_beta_time(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            alpha, beta = rng.uniform(0.01, 0.5, 2)
            t = rng.uniform(10, 2000)
            sigma = rng.uniform(0.01, 0.2)
            base = eta(alpha, beta, sigma, t)
            assert eta(2 * alpha, beta, sigma, t) == pytest.approx(base / 2, rel=1e-12)
            assert eta(alpha, 2 * beta, sigma, t) == pytest.approx(base / 2, rel=1e-12)
            assert eta(alpha, beta, sigma, 2 * t) == pytest.approx(base / 2, rel=1e-12)

    def test_validation(self):
        for args, message in [
            ((0.0, 0.02, 0.06, 500.0, 10), "alpha must be finite and > 0"),
            ((0.08, -0.02, 0.06, 500.0, 10), "beta must be finite and > 0"),
            ((0.08, 0.02, float("nan"), 500.0, 10), "sigma_s must be finite and > 0"),
            ((0.08, 0.02, 0.06, 0.0, 10), "evolution_time_us must be finite and > 0"),
            ((float("inf"), 0.02, 0.06, 500.0, 10), "alpha must be finite and > 0"),
            ((1e300, 1e300, 0.06, 500.0, 10), "slope_inverse_g must be finite and > 0"),
            ((1e-300, 1e-300, 0.06, 500.0, 10), "slope_inverse_g must be finite and > 0"),
            ((1e-320, 0.02, 0.06, 500.0, 10), "slope_inverse_g must be finite and > 0"),
            ((0.08, 0.02, 5e-324, 500.0, 10), "eta must be finite and > 0"),
            ((0.08, 0.02, 1e300, 1e-300, 10), "eta must be finite and > 0"),
            ((0.08, 0.02, 0.06, 1e10, 10**308), "deviation_nt must be finite and > 0"),
            ((1e200, 1e200, 0.06, 1e-320, 1), "deviation_nt must be finite and > 0"),
        ]:
            with pytest.raises(ValidationError, match=message):
                nf.full_sensitivity_report(*args)


def deviation(eta_inputs, n, t):
    alpha, beta, sigma_s = eta_inputs
    return nf.full_sensitivity_report(alpha, beta, sigma_s, t, n).deviation_nt


REFERENCE = (0.08, 0.02, 0.06)


class TestDeviation:
    def test_reference_chain(self):
        # eta ~ 0.213 uT/sqrt(Hz), 1e6 averages of 500 us -> 500 s -> 9.53 nT
        report = nf.full_sensitivity_report(*REFERENCE, 500.0, 10**6)
        assert report.deviation_nt == pytest.approx(
            report.eta_ut_per_sqrt_hz / math.sqrt(500.0) * 1000.0, rel=1e-12
        )
        assert report.deviation_nt == pytest.approx(9.53, abs=0.01)

    def test_unit_identity(self):
        # n = 1 average of a 1 s sequence: deviation (nT) = 1000 * eta
        report = nf.full_sensitivity_report(*REFERENCE, 1e6, 1)
        assert report.deviation_nt == pytest.approx(1000.0 * report.eta_ut_per_sqrt_hz, rel=1e-12)

    def test_quadrupling_averages_halves_deviation(self):
        a = deviation(REFERENCE, 10**6, 500.0)
        b = deviation(REFERENCE, 4 * 10**6, 500.0)
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_monotone_decreasing_chain(self):
        alpha, beta, sigma_s = REFERENCE
        ref = deviation(REFERENCE, 10**6, 500.0)
        assert deviation((alpha * 2, beta, sigma_s), 10**6, 500.0) < ref
        assert deviation((alpha, beta * 2, sigma_s), 10**6, 500.0) < ref
        assert deviation(REFERENCE, 10**6, 1000.0) < ref
        assert deviation(REFERENCE, 4 * 10**6, 500.0) < ref

    def test_validation(self):
        for n_averages in (0, float("nan"), 10**400):
            with pytest.raises(ValidationError, match="n_averages must be >= 1"):
                nf.full_sensitivity_report(*REFERENCE, 500.0, n_averages)


class TestFullReport:
    def test_report_fields(self):
        report = nf.full_sensitivity_report(0.08, 0.02, 0.06, 500.0, 10**6)
        assert report.n_averages == 10**6
        assert report.total_time_s == pytest.approx(500.0, rel=1e-12)
        assert report.deviation_nt == pytest.approx(
            report.eta_ut_per_sqrt_hz * 1000.0 / math.sqrt(report.total_time_s), rel=1e-12
        )
        doc = to_plain(report)
        assert set(doc) == {
            "slope_inverse_g", "eta_ut_per_sqrt_hz", "sigma_s", "alpha", "beta",
            "evolution_time_us", "n_averages", "total_time_s", "deviation_nt",
        }


class TestEmpiricalResolution:
    # run-all reports FWHM / pixel with the profile's pixel size as the
    # denominator; these pin that ratio against the theoretical pixel resolution
    def test_reference_numbers(self):
        # 0.28 nm FWHM at k_max = 2.2834 /nm (0.219 nm pixel) -> 1.279
        assert 0.28 / pixel(2.2834) == pytest.approx(1.279, abs=2e-3)

    def test_unit_ratio(self):
        record = simulate(x_nm=30.0)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        size = 1.0 / (2.0 * record.k_max)
        assert profile.pixel_size_nm == pytest.approx(size, rel=1e-12)
        fit = nf.PeakFit(center_nm=30.0, fwhm_nm=size, amplitude=1.0, offset=0.0)
        assert fit.fwhm_nm / profile.pixel_size_nm == pytest.approx(1.0, rel=1e-12)

    def test_end_to_end_ratio_in_range(self):
        # the peak a reconstruction fits is one to two pixels wide
        record = simulate(x_nm=30.0)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        assert 1.0 <= fit.fwhm_nm / profile.pixel_size_nm <= 2.0
