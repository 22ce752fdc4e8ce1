import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvfourier as nf
from nvfourier import reconstruction
from nvfourier.errors import (
    AliasAmbiguityError,
    DegenerateFitError,
    EmptyRecordError,
    InsufficientSpanError,
    MetadataError,
    NoPeakError,
    NonUniformKError,
    ValidationError,
)
from nvfourier.reconstruction import lorentzian

from helpers import REF_GRADIENT_PER_MA, dct_oracle, reference_nv, reference_plan, simulate


def synthetic_record(signals, dk=0.005, metadata=None):
    n = len(signals)
    k = np.arange(n) * dk
    return nf.KSpaceRecord(
        k_values=k, currents=np.arange(n, dtype=float), signals=signals,
        errors=np.zeros(n), t_hours=np.zeros(n), metadata=metadata or {},
    )


class TestFourierReconstruct:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_bruteforce_oracle(self, n):
        rng = np.random.default_rng(n)
        signals = rng.standard_normal(n)
        record = synthetic_record(signals)
        profile = nf.fourier_reconstruct(record)
        expected = dct_oracle(signals)
        np.testing.assert_allclose(profile.amplitude, expected, rtol=1e-9, atol=1e-12)

    def test_matches_oracle_with_padding(self):
        rng = np.random.default_rng(2)
        signals = rng.standard_normal(41)
        record = synthetic_record(signals)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=3)
        np.testing.assert_allclose(
            profile.amplitude, dct_oracle(signals, 3), rtol=1e-9, atol=1e-12
        )

    def test_parseval(self):
        # half-weighted endpoints: sum w_n s_n^2 == (N-1)/2 * sum w_k A_k^2
        rng = np.random.default_rng(9)
        s = rng.standard_normal(257)
        profile = nf.fourier_reconstruct(synthetic_record(s))
        n = len(s)
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        lhs = np.sum(w * s**2)
        rhs = (n - 1) / 2.0 * np.sum(w * profile.amplitude**2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_peak_at_known_position(self):
        # cos(2 pi K x0) with x0 = 100 nm, K in [0, 2.2834] full grid
        n = 458
        k = np.linspace(0.0, 2.2834, n)
        record = synthetic_record(np.cos(2 * np.pi * k * 100.0), dk=k[1])
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        peak_x = profile.x_grid_nm[np.argmax(profile.amplitude)]
        assert abs(peak_x - 100.0) <= profile.pixel_size_nm / 2

    def test_dc_signal(self):
        record = synthetic_record(np.ones(64))
        profile = nf.fourier_reconstruct(record)
        assert profile.amplitude[0] == pytest.approx(2.0, rel=1e-12)
        assert np.max(profile.amplitude[1:]) < 1e-9

    def test_pixel_size_reference_value(self):
        n = 458
        k = np.linspace(0.0, 2.2834, n)
        record = synthetic_record(np.cos(2 * np.pi * k * 30.0), dk=k[1])
        profile = nf.fourier_reconstruct(record)
        assert profile.pixel_size_nm == pytest.approx(0.2190, abs=5e-4)

    def test_zero_pad_center_invariance(self):
        record = simulate(x_nm=30.0)
        centers = {}
        for z in (1, 2, 4, 8):
            profile = nf.fourier_reconstruct(record, zero_pad_factor=z)
            centers[z] = nf.fit_lorentzian(profile).center_nm
        pixel = nf.fourier_reconstruct(record).pixel_size_nm
        spread = max(centers.values()) - min(centers.values())
        assert spread < pixel / (2 * 8)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(13)
        base = 30.0
        record0 = simulate(x_nm=base)
        profile0 = nf.fourier_reconstruct(record0, zero_pad_factor=4)
        c0 = nf.fit_lorentzian(profile0).center_nm
        for dx in rng.uniform(-8.0, 8.0, 10):
            record = simulate(x_nm=base + dx)
            profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
            c = nf.fit_lorentzian(profile).center_nm
            assert abs((c - c0) - dx) < profile.pixel_size_nm / 2

    def test_nonuniform_grid_rejected(self):
        k = np.array([0.0, 0.01, 0.025, 0.03])
        record = nf.KSpaceRecord(k_values=k, currents=np.arange(4.0),
                                 signals=np.ones(4), errors=np.zeros(4),
                                 t_hours=np.zeros(4), metadata={})
        with pytest.raises(NonUniformKError):
            nf.fourier_reconstruct(record)

    def test_empty_record_rejected(self):
        record = nf.KSpaceRecord(k_values=[], currents=[], signals=[],
                                 errors=[], t_hours=[], metadata={})
        with pytest.raises(EmptyRecordError):
            nf.fourier_reconstruct(record)

    def test_block_mask_zero_fill(self):
        n = 458
        mask = nf.make_undersampling_mask(n, "blocks", blocks=5, block_width=31)
        record = simulate(x_nm=30.0, n_points=n, mask=mask)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        assert abs(fit.center_nm - 30.0) <= profile.pixel_size_nm / 2

    def test_cold_and_warm_plans_give_identical_profiles(self):
        record = simulate(x_nm=30.0)
        reconstruction._dct1_plan.cache_clear()
        cold = nf.fourier_reconstruct(record, zero_pad_factor=4).amplitude.tobytes()
        warm = nf.fourier_reconstruct(record, zero_pad_factor=4).amplitude.tobytes()
        assert reconstruction._dct1_plan.cache_info().hits == 1
        assert cold == warm
        for cached in reconstruction._dct1_plan(len(record), 4):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_profile_length_bound(self):
        # checked in integers: nothing of the refused length is allocated
        bound = reconstruction.MAX_PROFILE_POINTS
        assert reconstruction.profile_length(2, bound - 1) == bound
        with pytest.raises(ValidationError, match="at most"):
            reconstruction.profile_length(2, bound)
        with pytest.raises(ValidationError, match="at most"):
            nf.fourier_reconstruct(simulate(x_nm=30.0, n_points=16), zero_pad_factor=10**12)

    def test_mask_past_sidecar_n_points_rejected(self):
        mask = nf.make_undersampling_mask(458, "blocks", blocks=5, block_width=31)
        record = simulate(x_nm=30.0, mask=mask)
        record.metadata["n_points"] = 300
        with pytest.raises(MetadataError, match="past n_points = 300"):
            nf.fourier_reconstruct(record)

    def test_window_validation(self):
        record = simulate(x_nm=30.0, n_points=16)
        with pytest.raises(nf.errors.ValidationError):
            nf.fourier_reconstruct(record, window="hamming")
        for zero_pad in (0, 2.5, float("inf"), float("nan")):
            with pytest.raises(nf.errors.ValidationError):
                nf.fourier_reconstruct(record, zero_pad_factor=zero_pad)


class TestLorentzianFit:
    def test_exact_model_recovery(self):
        x = np.linspace(3.0, 7.0, 200)
        truth = dict(amplitude=0.8, center=5.0, half_width=0.15, offset=0.05)
        y = lorentzian(x, truth["amplitude"], truth["center"], truth["half_width"], truth["offset"])
        profile = nf.RealSpaceProfile(x_grid_nm=x, amplitude=y, pixel_size_nm=0.3,
                                      k_max_per_nm=1.0 / 0.6)
        fit = nf.fit_lorentzian(profile, initial_window=(3.0, 7.0))
        assert fit.center_nm == pytest.approx(5.0, rel=1e-8)
        assert fit.fwhm_nm == pytest.approx(0.3, rel=1e-8)
        assert fit.amplitude == pytest.approx(0.8, rel=1e-8)
        assert fit.offset == pytest.approx(0.05, rel=1e-8)

    def test_idempotent_refit(self):
        record = simulate(x_nm=30.0)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        fit1 = nf.fit_lorentzian(profile)
        model = lorentzian(profile.x_grid_nm, fit1.amplitude, fit1.center_nm,
                           fit1.fwhm_nm / 2, fit1.offset)
        profile2 = nf.RealSpaceProfile(
            x_grid_nm=profile.x_grid_nm, amplitude=np.abs(model),
            pixel_size_nm=profile.pixel_size_nm, k_max_per_nm=profile.k_max_per_nm,
        )
        window = (fit1.center_nm - 1.5 * profile.pixel_size_nm,
                  fit1.center_nm + 1.5 * profile.pixel_size_nm)
        fit2 = nf.fit_lorentzian(profile2, initial_window=window)
        assert fit2.center_nm == pytest.approx(fit1.center_nm, abs=1e-10)
        assert fit2.fwhm_nm == pytest.approx(fit1.fwhm_nm, rel=1e-10)

    def test_flat_profile_no_peak(self):
        x = np.linspace(0.0, 10.0, 101)
        profile = nf.RealSpaceProfile(x_grid_nm=x, amplitude=np.ones(101),
                                      pixel_size_nm=0.1, k_max_per_nm=5.0)
        with pytest.raises(NoPeakError):
            nf.fit_lorentzian(profile, initial_window=(0.0, 10.0))

    def test_noiseless_reference_fwhm_range(self):
        record = simulate(x_nm=30.0)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        assert 0.18 <= fit.fwhm_nm <= 0.44

    def test_uncertainties_nonnegative_and_finite_residual(self):
        record = simulate(x_nm=30.0, shot_noise=True, shots_per_point=10**5, seed=2)
        profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        assert all(v >= 0 for v in fit.uncertainties.values())
        assert np.isfinite(fit.residual_norm)


class TestCosineFit:
    def test_roundtrip_position(self):
        # 2tau = 80 us: ~37 well-sampled oscillations across the ramp
        record = simulate(x_nm=100.0, total_time_us=80.0)
        fit = nf.fit_cosine(record)
        assert fit.implied_position_nm == pytest.approx(100.0, rel=1e-6)

    def test_zero_amplitude_flagged(self):
        record = synthetic_record(np.full(50, 0.37), metadata={
            "waveform_efficiency": 0.5, "tau_us": 250.0, "gradient_per_ma_g_per_um": 0.326,
        })
        with pytest.raises(DegenerateFitError):
            nf.fit_cosine(record)

    def test_nan_signal_fails_at_the_first_evaluation(self, monkeypatch):
        # a record built by hand with a NaN sample: the solver refuses it at
        # once instead of spending its step budget on a NaN residual
        signals = np.cos(np.linspace(0.0, 6.0 * np.pi, 50))
        signals[7] = np.nan
        record = synthetic_record(signals, metadata={
            "waveform_efficiency": 0.5, "tau_us": 250.0, "gradient_per_ma_g_per_um": 0.326,
        })
        evaluations = []
        fit_with = reconstruction.curve_fit

        def counting(model, *args, **kwargs):
            def counted(*a, **k):
                evaluations.append(1)
                return model(*a, **k)

            return fit_with(counted, *args, **kwargs)

        monkeypatch.setattr(reconstruction, "curve_fit", counting)
        with pytest.raises(ValidationError, match="non-finite residual"):
            nf.fit_cosine(record)
        assert len(evaluations) <= 1

    def test_exact_record_is_not_degenerate(self, monkeypatch):
        # noiseless 60-point sweep to 0.6 mA: the fit is exact; its covariance
        # is finite (about 1e-32) and the uncertainties are reported as zero
        plan = dataclasses.replace(reference_plan(n_points=60), i_max_ma=0.6)
        record = nf.run_sweep(plan, reference_nv(29.5), gradient_per_ma=REF_GRADIENT_PER_MA)
        covariances = []
        fit_with = reconstruction.curve_fit

        def spy(*args, **kwargs):
            popt, pcov = fit_with(*args, **kwargs)
            covariances.append(pcov)
            return popt, pcov

        monkeypatch.setattr(reconstruction, "curve_fit", spy)
        fit = nf.fit_cosine(record)
        assert np.all(np.isfinite(covariances[0]))
        pixel = 1.0 / (2.0 * record.k_max)
        assert abs(fit.implied_position_nm - 29.5) <= pixel / 2.0
        assert fit.implied_position_nm == pytest.approx(29.5, rel=1e-6)
        assert set(fit.uncertainties.values()) == {0.0}

    def test_too_few_points(self):
        record = synthetic_record(np.ones(4), metadata={})
        with pytest.raises(InsufficientSpanError):
            nf.fit_cosine(record)

    def test_insufficient_span(self):
        # x0 = 0.2 nm: only ~0.46 of a period over the full ramp
        record = simulate(x_nm=0.2, n_points=64)
        with pytest.raises(InsufficientSpanError):
            nf.fit_cosine(record)

    def test_short_sweep_single_oscillation(self):
        # 2tau = 21 us: one visible oscillation across the ramp for x0 ~ 10 nm
        record = simulate(x_nm=10.4, total_time_us=21.0, n_points=80)
        fit = nf.fit_cosine(record)
        periods = fit.frequency_per_ma * (record.currents[-1] - record.currents[0])
        assert 0.8 <= periods <= 1.5
        assert fit.implied_position_nm == pytest.approx(10.4, rel=1e-6)


class TestAliasDisambiguation:
    def make_coarse(self, x_nm):
        # low-K full scan: K_max ~0.228, pixel ~2.2 nm, FOV ~130 nm
        plan = reference_plan(n_points=60)
        plan = nf.AcquisitionPlan(
            i_max_ma=1.0, n_points=60, sequence=plan.sequence,
            waveform_template=plan.waveform_template, shot_noise=False, seed=1,
        )
        nv = nf.NvCenter(position_um=[x_nm * 1e-3, 0, 0], t2_us=1200.0,
                         contrast_alpha=0.08, yield_beta=0.02)
        record = nf.run_sweep(plan, nv, gradient_per_ma=0.326)
        return nf.fourier_reconstruct(record, zero_pad_factor=4)

    def test_stride_one_returns_fine_peak(self):
        record = simulate(x_nm=30.0)
        fine = nf.fourier_reconstruct(record, zero_pad_factor=4)
        coarse = self.make_coarse(30.0)
        result = nf.disambiguate_alias(coarse, fine, stride=1)
        assert result == pytest.approx(nf.fit_lorentzian(fine).center_nm, abs=1e-12)

    def test_unfold_stride4(self):
        x0 = 99.0
        mask = nf.make_undersampling_mask(458, "stride", stride=4)
        fine_record = simulate(x_nm=x0, mask=mask)
        fine = nf.fourier_reconstruct(fine_record, zero_pad_factor=4)
        # folded: the fine FOV is ~25 nm, so 99 nm wraps
        folded_peak = nf.fit_lorentzian(fine).center_nm
        assert folded_peak < 25.5
        coarse = self.make_coarse(x0)
        unfolded = nf.disambiguate_alias(coarse, fine, stride=4)
        assert unfolded == pytest.approx(x0, abs=fine.pixel_size_nm / 2)

    def test_ambiguity_error(self):
        x0 = 99.0
        mask = nf.make_undersampling_mask(458, "stride", stride=4)
        fine = nf.fourier_reconstruct(simulate(x_nm=x0, mask=mask), zero_pad_factor=4)
        # coarse scan so coarse that its pixel exceeds the alias period
        plan = reference_plan(n_points=60)
        blurry = nf.AcquisitionPlan(
            i_max_ma=0.04, n_points=60, sequence=plan.sequence,
            waveform_template=plan.waveform_template, shot_noise=False, seed=1,
        )
        nv = nf.NvCenter(position_um=[x0 * 1e-3, 0, 0], t2_us=1200.0,
                         contrast_alpha=0.08, yield_beta=0.02)
        coarse = nf.fourier_reconstruct(nf.run_sweep(blurry, nv, gradient_per_ma=0.326))
        with pytest.raises(AliasAmbiguityError):
            nf.disambiguate_alias(coarse, fine, stride=4)


class TestDriftBroadening:
    def test_directional_broadening_unwindowed(self):
        # two pixels of linear drift (2*pi quadratic phase) visibly broadens
        # the line even against the bare kernel's sidelobes
        shots = 36_000
        sweep_hours = 458 * shots * 500e-6 / 3600.0
        pixel = nf.pixel_resolution(2.2834)
        drift = nf.DriftModel(linear_rate_nm_per_hour=2 * pixel / sweep_hours)
        baseline = simulate(x_nm=30.0, shots_per_point=shots, seed=11)
        drifted = simulate(x_nm=30.0, shots_per_point=shots, seed=11, drift=drift)
        fwhms = []
        for record in (baseline, drifted):
            profile = nf.fourier_reconstruct(record, zero_pad_factor=4)
            peak = profile.x_grid_nm[np.argmax(profile.amplitude)]
            window = (peak - 8 * profile.pixel_size_nm, peak + 8 * profile.pixel_size_nm)
            fwhms.append(nf.fit_lorentzian(profile, initial_window=window).fwhm_nm)
        assert fwhms[1] / fwhms[0] >= 1.3


def reference_sideband_pairs(profile, main_peak):
    """sideband_analysis as a loop over grid indices and left/right pairs."""
    x = profile.x_grid_nm
    amp = profile.amplitude
    pair_tolerance_nm = 2.5 * profile.grid_step_nm
    exclusion_nm = max(3.0 * main_peak.fwhm_nm, 5.0 * profile.pixel_size_nm)
    center = main_peak.center_nm
    outside = np.abs(x - center) > exclusion_nm
    if int(np.count_nonzero(outside)) < 8:
        return []
    floor = float(np.median(amp[outside]))
    mad = float(np.median(np.abs(amp[outside] - floor)))
    main_amp = float(amp[int(np.argmin(np.abs(x - center)))])
    threshold = max(floor + 3.0 * mad, 0.05 * main_amp)
    maxima = [
        i
        for i in range(1, len(amp) - 1)
        if outside[i] and amp[i] > threshold and amp[i] >= amp[i - 1] and amp[i] > amp[i + 1]
    ]
    pairs = []
    for li in [i for i in maxima if x[i] < center]:
        d_left = center - x[li]
        for ri in [i for i in maxima if x[i] > center]:
            d_right = x[ri] - center
            if abs(d_left - d_right) > pair_tolerance_nm:
                continue
            hi, lo_amp = max(amp[li], amp[ri]), min(amp[li], amp[ri])
            if lo_amp <= 0 or hi / lo_amp > 2.0:
                continue
            pairs.append(
                (float(0.5 * (d_left + d_right)), float(0.5 * (amp[li] + amp[ri]) / main_amp))
            )
    pairs.sort(key=lambda p: -p[1])
    return pairs


@st.composite
def sideband_profiles(draw):
    """A peak with satellite pairs beyond its exclusion zone on a noise floor.

    Amplitudes are rounded to a few levels so that plateaus occur.  Half the
    profiles are exact: the peak and the satellites sit on grid points with
    equal heights from a short list and no jitter or noise, so that several
    pairs tie in strength and their order shows.
    """
    n = draw(st.integers(40, 400))
    step = draw(st.sampled_from([0.01, 0.025, 0.0625]))
    pixels = draw(st.sampled_from([1, 2, 4]))
    fwhm_steps = draw(st.floats(0.5, 6.0))
    exact = draw(st.booleans())
    x = np.arange(n) * step
    center = draw(st.floats(0.3, 0.7)) * float(x[-1])
    if exact:
        center = float(x[int(center / step)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = 1.0 / (1.0 + ((x - center) / (0.5 * fwhm_steps * step)) ** 2)
    excluded_steps = max(3.0 * fwhm_steps, 5.0 * pixels)
    for _ in range(draw(st.integers(0, 4))):
        if exact:
            offset = (math.ceil(excluded_steps) + draw(st.integers(1, 12))) * step
            height, jitter, width = draw(st.sampled_from([0.1, 0.2, 0.4])), 0.0, 0.6 * step
        else:
            offset = (excluded_steps + draw(st.floats(0.0, 0.25 * n))) * step
            height, jitter, width = draw(st.floats(0.02, 0.6)), 0.7 * step, 2.0 * step
        for side in (-1.0, 1.0):
            where = center + side * offset + jitter * rng.normal()
            factor = 1.0 if exact else rng.uniform(0.6, 1.4)
            amp = amp + height * factor * np.exp(-(((x - where) / width) ** 2))
    if not exact:
        amp = amp + draw(st.floats(0.0, 0.05)) * rng.random(n)
    amp = np.round(amp, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        amp = amp - draw(st.floats(0.0, 0.3))  # a hand-built profile may dip below zero
    profile = nf.RealSpaceProfile(
        x_grid_nm=x, amplitude=amp, pixel_size_nm=pixels * step, k_max_per_nm=1.0
    )
    fit = nf.PeakFit(center_nm=center, fwhm_nm=fwhm_steps * step, amplitude=1.0, offset=0.0)
    return profile, fit


class TestSidebands:
    @settings(max_examples=50, deadline=None)
    @given(case=sideband_profiles())
    def test_pairs_equal_the_per_index_loop(self, case):
        profile, fit = case
        assert nf.sideband_analysis(profile, fit) == reference_sideband_pairs(profile, fit)

    def analyze(self, record):
        profile = nf.fourier_reconstruct(record, window="hann", zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        return nf.sideband_analysis(profile, fit)

    def test_clean_record_empty(self):
        record = simulate(x_nm=3.0)
        assert self.analyze(record) == []

    def test_modulation_produces_symmetric_pair(self):
        noise = nf.CurrentNoiseModel(relative_amplitude=0.05, modulation_frequency_cycles=3.0)
        record = simulate(x_nm=3.0, current_noise=noise)
        pairs = self.analyze(record)
        assert pairs
        # strongest sideband near 3 cycles/sweep -> offset 3/K_max ~ 1.31 nm
        offsets = [p[0] for p in pairs]
        assert min(abs(o - 3.0 / record.k_max) for o in offsets) < 0.2

    def test_white_noise_no_stable_pair(self):
        detections = 0
        for seed in range(10):
            noise = nf.CurrentNoiseModel(white_sigma=0.01)
            record = simulate(x_nm=3.0, current_noise=noise, shot_noise=True,
                              shots_per_point=10**6, seed=seed)
            if self.analyze(record):
                detections += 1
        assert detections <= 1
