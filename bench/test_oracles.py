"""Hand values for the benchmark's oracles."""

import math

import numpy as np
import pytest
from scipy.fft import dct

import oracles

REF_ACTIVE_FRACTION = 0.78587993


def test_sine_lobe_efficiency_of_reference_drive():
    assert oracles.sine_lobe_efficiency(REF_ACTIVE_FRACTION) == pytest.approx(0.50031, abs=1e-5)
    assert oracles.sine_lobe_efficiency(math.pi / 2) == pytest.approx(1.0)


def test_reference_k_grid():
    w = oracles.sine_lobe_efficiency(REF_ACTIVE_FRACTION)
    # 0.50031 * 2 * 2.8 MHz/G * 250 us * 0.326 G/um per mA * 10 mA, per nm
    assert oracles.k_per_ma(w, 500.0, 0.326) * 10.0 == pytest.approx(2.2834, abs=1e-4)
    np.testing.assert_array_equal(oracles.current_ramp(10.0, 5), [0.0, 2.5, 5.0, 7.5, 10.0])


def test_echo_signal_hand_values():
    envelope = math.exp(-500.0 / 1200.0)  # 0.6592406...
    k = np.array([0.0, 0.25, 0.5, 1.0]) / 30.0  # quarter, half and whole turns at x = 30 nm
    got = oracles.echo_signal(k, 30.0, 500.0, 1200.0)
    np.testing.assert_allclose(got, [0.6592406303, 0.0, -0.6592406303, 0.6592406303], atol=1e-9)
    assert envelope == pytest.approx(0.6592406303, abs=1e-10)
    assert oracles.echo_signal([0.0], 1.0, 500.0, 1000.0, stretch_p=2.0)[0] == pytest.approx(math.exp(-0.25))


def test_cosine_sum_hand_values():
    x, amplitude = oracles.cosine_sum_profile([1.0, 1.0, 1.0], k_max_per_nm=1.0)
    np.testing.assert_allclose(x, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(amplitude, [2.0, 0.0, 0.0], atol=1e-15)
    # an impulse at K = 0 is flat: 2 * (1/2) / (N - 1)
    _, flat = oracles.cosine_sum_profile([1.0, 0.0, 0.0, 0.0, 0.0], k_max_per_nm=2.0)
    np.testing.assert_allclose(flat, 0.25)
    # zero padding keeps the full weight on the last acquired sample
    x, padded = oracles.cosine_sum_profile([1.0, 1.0], k_max_per_nm=1.0, zero_pad_factor=2)
    np.testing.assert_allclose(x, [0.0, 0.25, 0.5])
    np.testing.assert_allclose(padded, [3.0, 1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("zero_pad", [1, 4])
def test_cosine_sum_is_a_type_one_dct(zero_pad):
    s = np.random.default_rng(5).normal(size=37)
    padded = np.concatenate([s, np.zeros((len(s) - 1) * (zero_pad - 1))])
    _, amplitude = oracles.cosine_sum_profile(s, k_max_per_nm=1.7, zero_pad_factor=zero_pad)
    np.testing.assert_allclose(amplitude, np.abs(dct(padded, type=1)) / (len(s) - 1), atol=1e-12)


def test_hann_taper():
    np.testing.assert_allclose(oracles.hann(5), [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(oracles.hann(9), np.hanning(9), atol=1e-15)


def test_reference_sensitivity_and_deviation():
    eta = oracles.shot_noise_sensitivity(0.08, 0.02, 0.06, 500.0)
    assert eta == pytest.approx(0.2132, abs=5e-5)
    assert oracles.deviation_nt(eta, 1_000_000, 500.0) == pytest.approx(9.53, abs=5e-3)


def test_wire_field_hand_values():
    # 1 mA along z, 1 um away on x: 2 G along y
    np.testing.assert_allclose(oracles.wire_field([0, 0, 0], [0, 0, 1], 1.0, [1, 0, 0]), [0.0, 2.0, 0.0])
    # the first sample of configs/calibration_samples.csv: r^2 = 1.5^2 + 0.4^2
    shift = oracles.wire_shift_mhz([0, 0, 0.4], [0, 1, 0], 1.0, [1.5, 0, 0], [0, 0, -1])
    assert shift == pytest.approx(2.8 * 2.0 * 1.5 / 2.41, rel=1e-14)
    assert shift == pytest.approx(3.4854771784232366, rel=1e-14)


def test_wire_gradient_at_reference_nv():
    # B.n = 2x/(x^2 + 0.16) for the reference wire; minus its x-derivative
    x = 2.374083
    analytic = 2.0 * (x * x - 0.16) / (x * x + 0.16) ** 2
    got = oracles.wire_gradient([0, 0, 0.4], [0, 1, 0], [x, 0, 0], [0, 0, -1], [-1, 0, 0])
    assert got == pytest.approx(analytic, rel=1e-8)
    assert got == pytest.approx(0.326, abs=1e-6)


def test_poisson_signal_error_hand_value():
    # s = 0: counts beta/(1+alpha) per shot, scaled by (1+alpha)/(alpha*beta) = 675
    got = oracles.poisson_signal_error([0.0], 0.08, 0.02, 1_000_000)[0]
    assert got == pytest.approx(675.0 * math.sqrt(0.02 / 1.08 / 1e6), rel=1e-12)
    assert got == pytest.approx(0.0918559, abs=1e-7)


def test_current_noise_signal_sd_hand_value():
    # a quarter turn: |sin| = 1, phase = pi/2, envelope 1 when T2 is long
    got = oracles.current_noise_signal_sd([0.25], 1.0, 500.0, 1e12, 1.0, 1e-3)[0]
    assert got == pytest.approx(math.pi / 2 * 1e-3, rel=1e-9)
    assert oracles.current_noise_signal_sd([0.0, 0.5], 1.0, 500.0, 1e12, 1.0, 1e-3) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_lorentzian_width_sd_matches_monte_carlo():
    from scipy.optimize import curve_fit

    def lorentzian(x, a, x0, w, c):
        return a * w * w / ((x - x0) ** 2 + w * w) + c

    n, k_max, zero_pad, x0, sd = 101, 1.0, 4, 5.3, 0.02
    signal = np.cos(2.0 * math.pi * np.arange(n) * (k_max / (n - 1)) * x0)
    x, profile = oracles.cosine_sum_profile(signal, k_max, zero_pad)
    ipk = int(np.argmax(profile))
    sel = np.abs(x - x[ipk]) <= 1.5 / (2.0 * k_max) + 1e-12
    p0, _ = curve_fit(lorentzian, x[sel], profile[sel], p0=[1.0, x[ipk], 0.5, 0.0])
    want = oracles.lorentzian_width_sd(x[sel], p0, signal, np.full(n, sd), k_max, zero_pad)
    assert oracles.lorentzian_width_sd(x[sel], p0, signal, np.zeros(n), k_max, zero_pad) == 0.0
    rng = np.random.default_rng(7)
    widths = []
    for _ in range(400):
        _, noisy = oracles.cosine_sum_profile(signal + rng.normal(0.0, sd, n), k_max, zero_pad)
        widths.append(2.0 * curve_fit(lorentzian, x[sel], noisy[sel], p0=p0)[0][2])
    assert np.std(widths) == pytest.approx(want, rel=0.15)
