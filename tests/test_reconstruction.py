import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvfourier as nf
from nvfourier import reconstruction
from nvfourier.config import load_config
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

from helpers import (
    REF_GRADIENT_PER_MA,
    block_indices,
    dct_oracle,
    gapped,
    reference_nv,
    reference_plan,
    simulate,
)

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"


def synthetic_record(signals, dk=0.005):
    n = len(signals)
    k = np.arange(n) * dk
    return nf.KSpaceRecord(
        k_values=k, currents=np.arange(n, dtype=float), signals=signals,
        errors=np.zeros(n), t_hours=np.zeros(n), metadata={},
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
        record = gapped(simulate(x_nm=30.0, n_points=n), block_indices(n, blocks=5, block_width=31))
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

    def test_grid_from_k_zero_is_bounded(self):
        # a uniform record far from K = 0 is refused before its grid exists
        k = (reconstruction.MAX_N_POINTS + np.arange(16.0)) / 256.0  # exact in binary
        record = nf.KSpaceRecord(
            k_values=k, currents=np.arange(16.0), signals=np.cos(np.arange(16.0)),
            errors=np.zeros(16), t_hours=np.zeros(16), metadata={},
        )
        with pytest.raises(ValidationError, match="more than 1000000 points"):
            nf.fourier_reconstruct(record)

    def test_k_off_the_sidecar_grid_at_a_large_index_rejected(self):
        # 0.4 dK off at index 999 000: a tolerance relative to K would pass it
        # and round it onto a neighbouring index
        k = np.array([0.0, 1.0, 3.0, 999_000.4])
        record = nf.KSpaceRecord(
            k_values=k, currents=np.arange(4.0), signals=np.ones(4), errors=np.zeros(4),
            t_hours=np.zeros(4), metadata={"n_points": 10**6, "delta_k_per_nm": 1.0},
        )
        with pytest.raises(MetadataError, match="off the sidecar grid"):
            nf.fourier_reconstruct(record)

    def test_mask_past_sidecar_n_points_rejected(self):
        record = gapped(simulate(x_nm=30.0), block_indices(458, blocks=5, block_width=31))
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
        profile = nf.RealSpaceProfile(x_grid_nm=x, amplitude=y, pixel_size_nm=0.3)
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
            pixel_size_nm=profile.pixel_size_nm,
        )
        window = (fit1.center_nm - 1.5 * profile.pixel_size_nm,
                  fit1.center_nm + 1.5 * profile.pixel_size_nm)
        fit2 = nf.fit_lorentzian(profile2, initial_window=window)
        assert fit2.center_nm == pytest.approx(fit1.center_nm, abs=1e-10)
        assert fit2.fwhm_nm == pytest.approx(fit1.fwhm_nm, rel=1e-10)

    def test_amplitude_units_do_not_move_the_fit(self):
        # the damping scales with the diagonal of the normal matrix, so
        # rescaling the profile rescales amplitude, offset and their errors
        # and leaves the center and width where they were
        profile = nf.fourier_reconstruct(simulate(x_nm=30.0, shot_noise=True, seed=3), zero_pad_factor=4)
        fit = nf.fit_lorentzian(profile)
        for scale in (1e-6, 1e3):
            scaled = nf.RealSpaceProfile(profile.x_grid_nm, scale * profile.amplitude, profile.pixel_size_nm)
            refit = nf.fit_lorentzian(scaled)
            assert refit.center_nm == pytest.approx(fit.center_nm, rel=1e-12)
            assert refit.fwhm_nm == pytest.approx(fit.fwhm_nm, rel=1e-9)
            assert refit.amplitude == pytest.approx(scale * fit.amplitude, rel=1e-9)

    def test_flat_profile_no_peak(self):
        x = np.linspace(0.0, 10.0, 101)
        profile = nf.RealSpaceProfile(x_grid_nm=x, amplitude=np.ones(101), pixel_size_nm=0.1)
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
        record = synthetic_record(np.full(50, 0.37))
        with pytest.raises(DegenerateFitError):
            nf.fit_cosine(record)

    def test_nan_signal_fails_at_the_first_evaluation(self, monkeypatch):
        # a record built by hand with a non-finite sample is refused before
        # any damped step: with no step budget at all it is still a
        # validation error, not fit-non-convergence
        monkeypatch.setattr(reconstruction, "_LM_MAX_STEPS", 0)
        for bad in (np.nan, np.inf):
            signals = np.cos(np.linspace(0.0, 6.0 * np.pi, 50))
            signals[7] = bad
            with pytest.raises(ValidationError, match="finite signals"):
                nf.fit_cosine(synthetic_record(signals))

    def test_exact_record_is_not_degenerate(self):
        # noiseless 60-point sweep to 0.6 mA: the fit is exact, so RSS/(n - 3)
        # holds only round-off and so do the uncertainties it scales
        plan = dataclasses.replace(reference_plan(n_points=60), i_max_ma=0.6)
        record = nf.run_sweep(plan, reference_nv(29.5), gradient_per_ma=REF_GRADIENT_PER_MA)
        fit = nf.fit_cosine(record)
        pixel = 1.0 / (2.0 * record.k_max)
        assert abs(fit.implied_position_nm - 29.5) <= pixel / 2.0
        assert fit.implied_position_nm == pytest.approx(29.5, rel=1e-6)
        assert all(0.0 <= sd <= 1e-9 for sd in fit.uncertainties.values())

    def test_block_masked_record(self):
        # the periodogram seed zero-fills the gaps on the sidecar's K grid
        record = gapped(simulate(x_nm=30.0), block_indices(458, blocks=4, block_width=40))
        fit = nf.fit_cosine(record)
        pixel = nf.fourier_reconstruct(record).pixel_size_nm  # of the full grid
        assert abs(fit.implied_position_nm - 30.0) <= pixel / 20.0

    @pytest.mark.parametrize("metadata", [{}, {"n_points": "x", "delta_k_per_nm": 1.0}])
    def test_record_with_no_grid_still_fits(self, metadata):
        # a record whose grid fourier_reconstruct refuses (uniform but off
        # K = 0, or missing a sample with no usable sidecar) is seeded at its
        # mean spacing
        k = 0.0037 + 0.005 * np.arange(458.0)
        for keep in (slice(None), np.r_[0:200, 201:458]):
            record = synthetic_record(np.cos(2.0 * np.pi * 30.0 * k[keep]))
            record = dataclasses.replace(record, k_values=k[keep], metadata=metadata)
            with pytest.raises((MetadataError, NonUniformKError)):
                nf.fourier_reconstruct(record)
            assert nf.fit_cosine(record).implied_position_nm == pytest.approx(30.0, rel=1e-9)

    def test_too_few_points(self):
        record = synthetic_record(np.ones(4))
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
        periods = fit.implied_position_nm * (record.k_values[-1] - record.k_values[0])
        assert 0.8 <= periods <= 1.5
        assert fit.implied_position_nm == pytest.approx(10.4, rel=1e-6)


def shot_noise_record(seed):
    """The shipped plan with shot noise on, swept at REF_GRADIENT_PER_MA."""
    cfg = load_config(DEFAULT_CONFIG)
    plan = dataclasses.replace(cfg.plan, shot_noise=True, seed=seed)
    return nf.run_sweep(plan, cfg.nv, cfg.wire, cfg.nv_axis, REF_GRADIENT_PER_MA)


def drifting_record(seed, shot_noise):
    """The shipped plan under a random walk of 0.04 nm/sqrt(h), swept at
    REF_GRADIENT_PER_MA."""
    cfg = load_config(DEFAULT_CONFIG)
    drift = nf.DriftModel(random_walk_sigma_nm_per_sqrt_hour=0.04)
    plan = dataclasses.replace(cfg.plan, shot_noise=shot_noise, seed=seed, drift=drift)
    return nf.run_sweep(plan, cfg.nv, cfg.wire, cfg.nv_axis, REF_GRADIENT_PER_MA)


@pytest.mark.parametrize(
    "shot_noise, seed",
    [(True, seed) for seed in (1007, 1008, 1021, 1027)]
    + [(False, seed) for seed in (1007, 1008, 1019, 1021, 1027)],
)
def test_fit_cosine_converges_on_a_drifting_record(shot_noise, seed):
    # reconstruct accepts each of these records, but from the periodogram
    # start the RSS over x0 has several nearby minima, and undamped
    # Gauss-Newton steps on them ended in fit-non-convergence; damped steps
    # converge (noiseless seed 1008 takes 391)
    fit = nf.fit_cosine(drifting_record(seed, shot_noise))
    assert isinstance(fit, nf.CosineFit)
    assert all(math.isfinite(sd) for sd in fit.uncertainties.values())


def printed_under_kernels(code, *args):
    """What ``code`` prints, run with ``args`` in a fresh interpreter under
    each of two forced OpenBLAS kernels.  Only these two are forced, since an
    AVX-512 kernel crashes a CPU without AVX-512."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    printed = {}
    for kernel in ("Prescott", "Haswell"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_CORETYPE": kernel}
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        printed[kernel] = proc.stdout.splitlines()
    return printed


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_fit_cosine_is_the_same_under_every_blas_kernel(tmp_path):
    # the fit sums elementwise products with .sum() and does its 2x2 algebra
    # in Python floats, so the BLAS kernel cannot move a bit of it
    path = tmp_path / "record.csv"
    nf.save_record(shot_noise_record(1000), path)
    code = (
        "import dataclasses, sys\n"
        "import nvfourier as nf\n"
        "fit = nf.fit_cosine(nf.load_record(sys.argv[1]))\n"
        "for f in dataclasses.fields(fit):\n"
        "    print(f.name, repr(getattr(fit, f.name)))\n"
    )
    printed = printed_under_kernels(code, path)
    assert printed["Prescott"] == printed["Haswell"]


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_fit_lorentzian_is_the_same_under_every_blas_kernel():
    # the fit sums elementwise products with .sum() and does its 2x2 algebra
    # in Python floats, so the BLAS kernel cannot move a bit of it
    code = (
        "import dataclasses, math\n"
        "import numpy as np\n"
        "import nvfourier as nf\n"
        "n = 458\n"
        "k = np.arange(n) * (2.0 / (n - 1))\n"
        "signals = np.cos(2.0 * math.pi * 30.0 * k) + 0.05 * np.random.default_rng(0).standard_normal(n)\n"
        "record = nf.KSpaceRecord(k, np.arange(n, dtype=float), signals, np.zeros(n), np.zeros(n), {})\n"
        "fit = nf.fit_lorentzian(nf.fourier_reconstruct(record, zero_pad_factor=4))\n"
        "for f in dataclasses.fields(fit):\n"
        "    print(f.name, repr(getattr(fit, f.name)))\n"
    )
    printed = printed_under_kernels(code)
    assert printed["Prescott"] == printed["Haswell"]


def test_fit_cosine_centre_spread_is_at_its_reported_error():
    # 50 shot-noise sweeps of the shipped plan: with the phase anchored at
    # K = 0 the centre scatters by about 0.0010 nm, half the 0.0021 nm of a
    # fit that frees it, and the median reported standard error matches it
    fits = [nf.fit_cosine(shot_noise_record(seed)) for seed in range(1000, 1050)]
    spread = float(np.std([fit.implied_position_nm for fit in fits], ddof=1))
    assert spread <= 0.0013
    reported = float(np.median([fit.uncertainties["implied_position_nm"] for fit in fits]))
    assert abs(reported - spread) <= 0.2 * spread


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
        fine_record = gapped(simulate(x_nm=x0), slice(None, None, 4))
        fine = nf.fourier_reconstruct(fine_record, zero_pad_factor=4)
        # folded: the fine FOV is ~25 nm, so 99 nm wraps
        folded_peak = nf.fit_lorentzian(fine).center_nm
        assert folded_peak < 25.5
        coarse = self.make_coarse(x0)
        unfolded = nf.disambiguate_alias(coarse, fine, stride=4)
        assert unfolded == pytest.approx(x0, abs=fine.pixel_size_nm / 2)

    def test_ambiguity_error(self):
        x0 = 99.0
        fine = nf.fourier_reconstruct(gapped(simulate(x_nm=x0), slice(None, None, 4)), zero_pad_factor=4)
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
        baseline = simulate(x_nm=30.0, shots_per_point=shots, seed=11)
        pixel = nf.fourier_reconstruct(baseline).pixel_size_nm
        drift = nf.DriftModel(linear_rate_nm_per_hour=2 * pixel / sweep_hours)
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
        x_grid_nm=x, amplitude=amp, pixel_size_nm=pixels * step
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
