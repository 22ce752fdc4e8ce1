import math

import numpy as np
import pytest

import nvfourier as nf
from nvfourier.errors import ValidationError
from nvfourier.serialize import to_plain

from helpers import simulate


class TestPixelResolution:
    def test_reference_value(self):
        assert nf.pixel_resolution(2.2834) == pytest.approx(0.2190, abs=5e-5)

    def test_half_nm(self):
        assert nf.pixel_resolution(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            nf.pixel_resolution(0.0)

    def test_strictly_decreasing(self):
        ks = np.linspace(0.1, 5.0, 50)
        values = [nf.pixel_resolution(k) for k in ks]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSensitivity:
    def test_reference_parameters(self):
        # alpha=0.08, beta=0.02, sigma_s=0.06, T=500 us -> ~0.213 uT/sqrt(Hz)
        report = nf.sensitivity(0.08, 0.02, 0.06, 500.0)
        expected_slope = 1.0 / (2 * 2 * math.pi * 2.8 * 500.0 * 0.08 * 0.02)
        assert report.slope_inverse_g == pytest.approx(expected_slope, rel=1e-12)
        assert report.eta_ut_per_sqrt_hz == pytest.approx(0.213, abs=0.001)
        assert abs(report.eta_ut_per_sqrt_hz - 0.2) / 0.2 < 0.10

    def test_doubling_time_halves_eta(self):
        a = nf.sensitivity(0.08, 0.02, 0.06, 500.0).eta_ut_per_sqrt_hz
        b = nf.sensitivity(0.08, 0.02, 0.06, 1000.0).eta_ut_per_sqrt_hz
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_doubling_sigma_doubles_eta(self):
        a = nf.sensitivity(0.08, 0.02, 0.06, 500.0).eta_ut_per_sqrt_hz
        b = nf.sensitivity(0.08, 0.02, 0.12, 500.0).eta_ut_per_sqrt_hz
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_scaling_in_alpha_beta_time(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            alpha, beta = rng.uniform(0.01, 0.5, 2)
            t = rng.uniform(10, 2000)
            sigma = rng.uniform(0.01, 0.2)
            base = nf.sensitivity(alpha, beta, sigma, t).eta_ut_per_sqrt_hz
            assert nf.sensitivity(2 * alpha, beta, sigma, t).eta_ut_per_sqrt_hz == pytest.approx(base / 2, rel=1e-12)
            assert nf.sensitivity(alpha, 2 * beta, sigma, t).eta_ut_per_sqrt_hz == pytest.approx(base / 2, rel=1e-12)
            assert nf.sensitivity(alpha, beta, sigma, 2 * t).eta_ut_per_sqrt_hz == pytest.approx(base / 2, rel=1e-12)

    def test_half_time_convention(self):
        total = nf.sensitivity(0.08, 0.02, 0.06, 500.0, time_convention="total")
        half = nf.sensitivity(0.08, 0.02, 0.06, 500.0, time_convention="half")
        assert half.eta_ut_per_sqrt_hz == pytest.approx(2 * total.eta_ut_per_sqrt_hz, rel=1e-12)
        assert half.time_convention == "half"

    def test_validation(self):
        with pytest.raises(ValidationError):
            nf.sensitivity(0.0, 0.02, 0.06, 500.0)
        with pytest.raises(ValidationError):
            nf.sensitivity(0.08, 0.02, 0.06, 500.0, time_convention="quarter")


class TestDeviation:
    def test_reference_chain(self):
        # eta = 0.2 uT/sqrt(Hz), 1e6 averages of 500 us -> 500 s -> 8.94 nT
        dev = nf.deviation_after_averaging(0.2, 10**6, 500.0)
        assert dev == pytest.approx(0.2 / math.sqrt(500.0) * 1000.0, rel=1e-12)
        assert dev == pytest.approx(8.94, abs=0.01)

    def test_unit_identity(self):
        # n = 1 average of a 1 s sequence: deviation (nT) = 1000 * eta
        assert nf.deviation_after_averaging(0.3, 1, 1e6) == pytest.approx(300.0, rel=1e-12)

    def test_quadrupling_averages_halves_deviation(self):
        a = nf.deviation_after_averaging(0.2, 10**6, 500.0)
        b = nf.deviation_after_averaging(0.2, 4 * 10**6, 500.0)
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_monotone_decreasing_chain(self):
        base = dict(alpha=0.08, beta=0.02, sigma_s=0.06, t=500.0, n=10**6)

        def deviation(alpha, beta, sigma_s, t, n):
            eta = nf.sensitivity(alpha, beta, sigma_s, t).eta_ut_per_sqrt_hz
            return nf.deviation_after_averaging(eta, n, t)

        ref = deviation(**{k: base[k] for k in ("alpha", "beta", "sigma_s", "t", "n")})
        assert deviation(base["alpha"] * 2, base["beta"], base["sigma_s"], base["t"], base["n"]) < ref
        assert deviation(base["alpha"], base["beta"] * 2, base["sigma_s"], base["t"], base["n"]) < ref
        assert deviation(base["alpha"], base["beta"], base["sigma_s"], base["t"] * 2, base["n"]) < ref
        assert deviation(base["alpha"], base["beta"], base["sigma_s"], base["t"], base["n"] * 4) < ref

    def test_validation(self):
        with pytest.raises(ValidationError):
            nf.deviation_after_averaging(0.2, 0, 500.0)


class TestFullReport:
    def test_report_fields(self):
        report = nf.full_sensitivity_report(0.08, 0.02, 0.06, 500.0, 10**6)
        assert report.n_averages == 10**6
        assert report.total_time_s == pytest.approx(500.0, rel=1e-12)
        assert report.deviation_nt == pytest.approx(
            report.eta_ut_per_sqrt_hz * 1000.0 / math.sqrt(report.total_time_s), rel=1e-12
        )
        doc = to_plain(report)
        assert set(doc) >= {"eta_ut_per_sqrt_hz", "deviation_nt", "time_convention"}


class TestEmpiricalResolution:
    def test_reference_numbers(self):
        profile = nf.RealSpaceProfile(
            x_grid_nm=np.linspace(0, 10, 11), amplitude=np.zeros(11),
            pixel_size_nm=0.219, k_max_per_nm=2.2834,
        )
        fit = nf.PeakFit(center_nm=5.0, fwhm_nm=0.28, amplitude=1.0, offset=0.0)
        out = nf.empirical_resolution(fit, profile)
        assert out["fwhm_over_pixel"] == pytest.approx(1.279, abs=2e-3)

    def test_unit_ratio(self):
        profile = nf.RealSpaceProfile(
            x_grid_nm=np.linspace(0, 10, 11), amplitude=np.zeros(11),
            pixel_size_nm=0.25, k_max_per_nm=2.0,
        )
        fit = nf.PeakFit(center_nm=5.0, fwhm_nm=0.25, amplitude=1.0, offset=0.0)
        assert nf.empirical_resolution(fit, profile)["fwhm_over_pixel"] == pytest.approx(1.0, rel=1e-12)

    def test_end_to_end_ratio_in_range(self):
        record = simulate(x_nm=30.0)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        out = nf.empirical_resolution(fit, profile)
        assert 1.0 <= out["fwhm_over_pixel"] <= 2.0
