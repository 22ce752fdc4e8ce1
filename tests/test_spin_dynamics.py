import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvfourier as nf
from nvfourier.errors import ValidationError
from nvfourier.spin_dynamics import (
    DEFAULT_SINE_ACTIVE_FRACTION,
    POISSON_LAM_MAX,
    phase_from_coordinate,
    signal_from_counts,
    signed_half_integrals,
    waveform_cumulative,
)

from helpers import (
    midpoint_phase_oracle,
    numeric_echo_phase,
    reference_sequence,
    reference_waveform,
    rect_waveform,
    sync_phase_error,
    waveform_value,
)


def nv_at(x_nm, t2_us=1e12):
    return nf.NvCenter(position_um=[x_nm * 1e-3, 0, 0], t2_us=t2_us,
                       contrast_alpha=0.08, yield_beta=0.02)


class TestWaveform:
    def test_rect_full_duty_efficiency_is_one(self):
        seq = reference_sequence()
        assert nf.phase_efficiency(rect_waveform(), seq) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_drive_has_zero_efficiency(self):
        seq = reference_sequence()
        wf = rect_waveform(antisymmetric=False)
        assert nf.phase_efficiency(wf, seq) == pytest.approx(0.0, abs=1e-15)

    def test_single_lobe_sine_efficiency(self):
        # one half-sine lobe per echo half: w = 2 * active_fraction / pi
        seq = reference_sequence()
        for a in (0.5, 0.78587993, 1.0):
            wf = nf.GradientWaveform("sine", period_us=a * seq.total_time_us,
                                     active_fraction=a, antisymmetric=True)
            assert nf.phase_efficiency(wf, seq) == pytest.approx(2 * a / math.pi, rel=1e-12)

    def test_sine_fraction_for_efficiency_inverts(self):
        # the shipped single-lobe sine fraction is the one giving w = 0.5003:
        # w = 2a/pi inverts to a = pi*w/2
        a = DEFAULT_SINE_ACTIVE_FRACTION
        assert a == pytest.approx(math.pi * 0.5003 / 2.0, abs=1e-4)
        w = nf.phase_efficiency(reference_waveform(), reference_sequence())
        assert w == pytest.approx(2.0 * a / math.pi, rel=1e-12)
        assert w == pytest.approx(0.5003, abs=1e-4)

    def test_cumulative_matches_pointwise_integration(self):
        seq = reference_sequence()
        for wf in (reference_waveform(), rect_waveform(0.6), rect_waveform()):
            t = np.linspace(0, seq.total_time_us, 20001)
            g = np.array([waveform_value(wf, seq, tv) for tv in t])
            numeric = np.concatenate([[0.0], np.cumsum((g[1:] + g[:-1]) / 2 * np.diff(t))])
            for frac in (0.1, 0.35, 0.5, 0.77, 1.0):
                tv = frac * seq.total_time_us
                idx = np.argmin(np.abs(t - tv))
                assert waveform_cumulative(wf, seq, t[idx]) == pytest.approx(
                    numeric[idx], abs=2e-4 * seq.total_time_us
                )

    def test_zero_outside_sequence(self):
        seq = reference_sequence()
        wf = reference_waveform()
        assert waveform_value(wf, seq, -1.0) == 0.0
        assert waveform_value(wf, seq, seq.total_time_us + 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            nf.GradientWaveform("triangle", period_us=1.0)
        with pytest.raises(ValidationError):
            nf.GradientWaveform("sine", period_us=0.0)
        with pytest.raises(ValidationError):
            nf.GradientWaveform("sine", period_us=1.0, active_fraction=1.5)

    @pytest.mark.parametrize("period", [float("nan"), float("inf")])
    def test_non_finite_period_rejected(self, period):
        with pytest.raises(ValidationError, match="period_us must be finite"):
            nf.GradientWaveform("sine", period_us=period)


class TestEchoPhase:
    def test_zero_at_origin(self):
        seq = reference_sequence()
        for wf in (reference_waveform(), rect_waveform()):
            assert phase_from_coordinate(0.0, 3.26, seq, wf) == 0.0

    def test_rect_full_duty_value(self):
        # x = 1 nm, G = 3.26 G/um, 2tau = 500 us antisymmetric rectangular:
        # phi = 2*pi * gamma * x * G * 2tau = 2*pi * 4.564
        seq = reference_sequence()
        phi = phase_from_coordinate(1.0, 3.26, seq, rect_waveform())
        assert phi == pytest.approx(2 * math.pi * 4.564, rel=1e-12)

    def test_analytic_matches_midpoint_oracle(self):
        seq = reference_sequence()
        for wf in (reference_waveform(), rect_waveform(), rect_waveform(0.5)):
            phi = phase_from_coordinate(7.0, 2.2, seq, wf)
            oracle = midpoint_phase_oracle(7.0, 2.2, seq, wf)
            assert phi == pytest.approx(oracle, rel=1e-5, abs=1e-8)

    def test_symmetric_builtin_cancels(self):
        seq = reference_sequence()
        for shape in ("sine", "rectangular"):
            wf = nf.GradientWaveform(shape, period_us=100.0, active_fraction=0.8,
                                     antisymmetric=False)
            assert phase_from_coordinate(250.0, 5.0, seq, wf) == pytest.approx(0.0, abs=1e-10)

    def test_even_callable_waveforms_cancel(self):
        # gradient waveforms even about the pi pulse accumulate zero phase
        seq = reference_sequence()
        rng = np.random.default_rng(11)
        t_pi = seq.pi_pulse_time_us
        for _ in range(10):
            knots = np.linspace(0.0, t_pi, 12)
            values = rng.uniform(-5, 5, 12)
            x = rng.uniform(0.0, 500.0)

            def gradient(t, knots=knots, values=values):
                return np.interp(np.abs(np.asarray(t) - t_pi), knots, values)

            phi = numeric_echo_phase(nv_at(x), gradient, seq, num_steps=20_000)
            assert abs(phi) < 1e-10

    def test_linearity_in_x_and_gradient(self):
        seq = reference_sequence()
        wf = reference_waveform()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(0.1, 400.0)
            g = rng.uniform(0.05, 10.0)
            base = phase_from_coordinate(x, g, seq, wf)
            assert phase_from_coordinate(3.0 * x, g, seq, wf) == pytest.approx(3 * base, rel=1e-12)
            assert phase_from_coordinate(x, 3.0 * g, seq, wf) == pytest.approx(3 * base, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-500.0, 500.0),
        g=st.floats(-10.0, 10.0),
        scale=st.floats(-4.0, 4.0),
        sync=st.floats(-100.0, 100.0),
        fraction=st.floats(0.05, 1.0),
        rectangular=st.booleans(),
    )
    def test_phase_linear_in_x_and_gradient_and_zero_at_origin(
        self, x, g, scale, sync, fraction, rectangular
    ):
        # ROADMAP physics invariant: phi(x, G) = c * x * G for any waveform
        # and sync offset (|offset| < 2tau/4), so phi(0, G) = 0 exactly
        seq = reference_sequence(sync_offset_us=sync)
        wf = rect_waveform(fraction) if rectangular else reference_waveform(active_fraction=fraction)
        base = phase_from_coordinate(x, g, seq, wf)
        tol = 1e-12 * abs(scale * base) + 1e-300
        assert phase_from_coordinate(0.0, g, seq, wf) == 0.0
        assert abs(phase_from_coordinate(scale * x, g, seq, wf) - scale * base) <= tol
        assert abs(phase_from_coordinate(x, scale * g, seq, wf) - scale * base) <= tol

    def test_off_center_pi_pulse_numeric_matches_analytic(self):
        seq = nf.EchoSequence(total_time_us=500.0, pi_pulse_time_us=200.0)
        wf = rect_waveform()
        nv = nv_at(5.0)
        analytic = phase_from_coordinate(5.0, 1.7, seq, wf)

        def gradient(t, wf=wf, seq=seq):
            return 1.7 * np.array([waveform_value(wf, seq, tv) for tv in np.atleast_1d(t)])

        numeric = numeric_echo_phase(nv, gradient, seq, num_steps=100_000)
        assert numeric == pytest.approx(analytic, rel=1e-4)

    def test_half_integrals_shift_consistency(self):
        # shifting by dt redistributes but integral over both halves is conserved
        seq = reference_sequence()
        wf = reference_waveform()
        i1, i2 = signed_half_integrals(wf, seq, 0.0)
        j1, j2 = signed_half_integrals(wf, seq, 10.0)
        assert i1 + i2 == pytest.approx(
            waveform_cumulative(wf, seq, seq.total_time_us), rel=1e-12
        )
        total_shifted = waveform_cumulative(wf, seq, seq.total_time_us - 10.0) - \
            waveform_cumulative(wf, seq, -10.0)
        assert j1 + j2 == pytest.approx(total_shifted, rel=1e-12)


class TestEchoSignal:
    def test_bright_state(self):
        nv = nv_at(0.0, t2_us=1e15)
        seq = reference_sequence()
        sig = nf.echo_signal(nv, 0.0, seq)
        assert sig.expected_signal == pytest.approx(1.0, abs=1e-10)
        assert sig.expected_counts == pytest.approx(nv.yield_beta, rel=1e-10)

    def test_dark_fringe(self):
        sig = nf.echo_signal(nv_at(0.0, t2_us=1e15), math.pi, reference_sequence())
        assert sig.expected_signal == pytest.approx(-1.0, abs=1e-10)

    def test_envelope_at_t2(self):
        nv = nf.NvCenter(position_um=[0, 0, 0], t2_us=500.0, contrast_alpha=0.08,
                         yield_beta=0.02, stretch_p=1.0)
        sig = nf.echo_signal(nv, 0.0, reference_sequence(500.0))
        assert sig.coherence_envelope == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_bounds_random(self):
        rng = np.random.default_rng(8)
        seq = reference_sequence()
        for _ in range(200):
            nv = nf.NvCenter(position_um=[0, 0, 0], t2_us=rng.uniform(10, 5000),
                             contrast_alpha=rng.uniform(0.01, 1.0),
                             yield_beta=rng.uniform(0.001, 0.1),
                             stretch_p=rng.uniform(0.5, 3.0))
            sig = nf.echo_signal(nv, rng.uniform(-50, 50), seq)
            assert -1.0 <= sig.expected_signal <= 1.0
            lo = nv.yield_beta * (1 - nv.contrast_alpha) / (1 + nv.contrast_alpha)
            assert lo - 1e-15 <= sig.expected_counts <= nv.yield_beta + 1e-15

    def test_pi_fidelity_scales_contrast(self):
        nv = nv_at(0.0, t2_us=1e15)
        seq = nf.EchoSequence(total_time_us=500.0, pi_fidelity=0.5)
        sig = nf.echo_signal(nv, 0.0, seq)
        assert sig.expected_signal == pytest.approx(0.5, abs=1e-10)


class TestSampleCounts:
    def test_zero_counts(self):
        assert nf.sample_counts(0.0, 1000, 1) == (0.0, 0.0)

    def test_determinism(self):
        a = nf.sample_counts(0.02, 10**6, 12345)
        b = nf.sample_counts(0.02, 10**6, 12345)
        assert a == b
        c = nf.sample_counts(0.02, 10**6, 54321)
        assert a != c

    def test_std_error_value(self):
        # Poisson variance = mean: stderr ~ sqrt(0.02/1e6) = 1.41e-4
        _, err = nf.sample_counts(0.02, 10**6, 7)
        assert err == pytest.approx(math.sqrt(0.02 / 10**6), rel=0.05)

    def test_shots_validation(self):
        with pytest.raises(ValidationError):
            nf.sample_counts(0.02, 0, 1)

    def test_array_is_one_draw_in_order(self):
        # an array of expected counts is one poisson call on default_rng(seed),
        # element by element; the pair comes back as arrays
        counts, shots = np.array([0.02, 0.0, 0.015, 0.03]), 10**4
        mean, err = nf.sample_counts(counts, shots, [3, 2])
        totals = np.random.default_rng([3, 2]).poisson(counts * shots)
        assert isinstance(mean, np.ndarray) and isinstance(err, np.ndarray)
        np.testing.assert_array_equal(mean, totals / shots)
        np.testing.assert_array_equal(err, np.sqrt(totals / shots / shots))

    def test_generator_is_drawn_from_directly(self):
        # a Generator seed is advanced, so two calls on it draw different totals
        rng = np.random.default_rng(9)
        first, second = nf.sample_counts(0.02, 10**6, rng), nf.sample_counts(0.02, 10**6, rng)
        ref = np.random.default_rng(9)
        assert first[0] == ref.poisson(0.02 * 10**6) / 10**6
        assert second[0] == ref.poisson(0.02 * 10**6) / 10**6
        assert first != second

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, np.nextafter(POISSON_LAM_MAX, np.inf)])
    def test_refused_mean_raises(self, lam):
        with pytest.raises(ValidationError, match="expected counts x shots per point"):
            nf.sample_counts([2.0e4, lam], 1, 1)

    def test_limit_is_numpys(self):
        with pytest.raises(ValueError, match="too large"):
            np.random.default_rng(1).poisson(np.nextafter(POISSON_LAM_MAX, np.inf))
        mean, _ = nf.sample_counts(POISSON_LAM_MAX, 1, 1)
        assert mean == float(np.random.default_rng(1).poisson(POISSON_LAM_MAX))

    def test_convergence_slope(self):
        # |mean - lambda| averaged over seeds scales as shots^(-1/2)
        lam = 0.02
        shots_list = [10**2, 10**4, 10**6]
        mean_abs_err = []
        for shots in shots_list:
            errs = [abs(nf.sample_counts(lam, shots, [s, shots])[0] - lam) for s in range(400)]
            mean_abs_err.append(np.mean(errs))
        slope = np.polyfit(np.log10(shots_list), np.log10(mean_abs_err), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_signal_inversion_roundtrip(self):
        nv = nv_at(0.0)
        sig = nf.echo_signal(nv, 1.1, reference_sequence())
        s, _ = signal_from_counts(sig.expected_counts, 0.0, nv)
        assert s == pytest.approx(sig.expected_signal, rel=1e-12)


class TestSyncError:
    def test_zero_offset_zero_error(self):
        assert sync_phase_error(reference_sequence(), reference_waveform()) == 0.0

    def test_sine_error_is_second_order(self):
        # full-duty single-lobe sine: error(dt)/error(dt/2) -> 4
        wf = nf.GradientWaveform("sine", period_us=500.0, active_fraction=1.0,
                                 antisymmetric=True)
        errs = []
        for dt in (0.2, 0.1):
            seq = nf.EchoSequence(total_time_us=500.0, sync_offset_us=dt)
            errs.append(abs(sync_phase_error(seq, wf)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.02)

    def test_rect_error_is_first_order(self):
        wf = rect_waveform()
        errs = []
        for dt in (0.2, 0.1):
            seq = nf.EchoSequence(total_time_us=500.0, sync_offset_us=dt)
            errs.append(abs(sync_phase_error(seq, wf)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.02)


class TestSequenceValidation:
    def test_pi_pulse_default(self):
        seq = nf.EchoSequence(total_time_us=100.0)
        assert seq.pi_pulse_time_us == 50.0

    def test_pi_pulse_bounds(self):
        with pytest.raises(ValidationError):
            nf.EchoSequence(total_time_us=100.0, pi_pulse_time_us=100.0)

    def test_sync_offset_bound(self):
        with pytest.raises(ValidationError):
            nf.EchoSequence(total_time_us=100.0, sync_offset_us=30.0)

    @pytest.mark.parametrize(
        ("field", "value"),
        [("sync_offset_us", float("nan")), ("sync_offset_us", float("inf")),
         ("total_time_us", float("inf"))],
    )
    def test_non_finite_timing_rejected(self, field, value):
        kwargs = {"total_time_us": 100.0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            nf.EchoSequence(**kwargs)

    def test_nv_validation(self):
        with pytest.raises(ValidationError):
            nf.NvCenter(position_um=[0, 0, 0], t2_us=-1.0, contrast_alpha=0.08, yield_beta=0.02)
        with pytest.raises(ValidationError):
            nf.NvCenter(position_um=[0, 0, 0], t2_us=1.0, contrast_alpha=1.5, yield_beta=0.02)
