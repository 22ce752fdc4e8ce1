import warnings
from dataclasses import fields

import numpy as np
import pytest

import nvfourier as nf
from nvfourier.acquisition import point_times_hours, sweep_currents
from nvfourier.errors import MissingCalibrationError, ValidationError

from helpers import reference_nv, reference_plan, reference_sequence, rect_waveform, simulate


class TestKOfCurrent:
    def test_rect_full_duty(self):
        # w = 1: K = 2 * 2.8 * 250 * 3.26 / 1000 = 4.564 1/nm at 10 mA
        plan = nf.AcquisitionPlan(
            i_max_ma=10.0, n_points=100, sequence=reference_sequence(),
            waveform_template=rect_waveform(), shot_noise=False,
        )
        k = nf.k_of_current(plan, 10.0, 0.326)
        assert k == pytest.approx(4.564, rel=1e-12)

    def test_reference_endpoint_with_calibrated_sine(self):
        plan = reference_plan()
        k = nf.k_of_current(plan, 10.0, 0.326)
        assert k == pytest.approx(2.2834, rel=5e-3)

    def test_zero_current(self):
        plan = reference_plan()
        assert nf.k_of_current(plan, 0.0, 0.326) == 0.0

    def test_missing_calibration(self):
        plan = reference_plan()
        with pytest.raises(MissingCalibrationError):
            nf.k_of_current(plan, 1.0, None)

    def test_k_linear_in_index(self):
        plan = reference_plan(n_points=100)
        currents = sweep_currents(plan)
        k = nf.k_of_current(plan, currents, 0.326)
        coeff = nf.k_of_current(plan, 1.0, 0.326)
        # exact linearity in the current array, by construction
        np.testing.assert_array_equal(k, currents * coeff)
        diffs = np.diff(k)
        assert np.allclose(diffs, diffs[0], rtol=1e-9)


class TestMasks:
    def test_full(self):
        assert nf.make_undersampling_mask(100, "full").tolist() == list(range(100))

    def test_stride(self):
        mask = nf.make_undersampling_mask(100, "stride", stride=4)
        assert len(mask) == 25
        assert mask[:3].tolist() == [0, 4, 8]

    def test_blocks(self):
        mask = nf.make_undersampling_mask(1000, "blocks", blocks=5, block_width=20)
        assert len(mask) == 100
        runs = np.split(np.asarray(mask), np.where(np.diff(mask) > 1)[0] + 1)
        assert len(runs) == 5
        assert all(len(r) == 20 for r in runs)

    def test_empty_and_invalid(self):
        with pytest.raises(ValidationError):
            nf.make_undersampling_mask(100, "stride")
        with pytest.raises(ValidationError):
            nf.make_undersampling_mask(100, "bogus")
        with pytest.raises(ValidationError, match=r"blocks <= n_points \(101 > 100\)"):
            nf.make_undersampling_mask(100, "blocks", blocks=101, block_width=1)
        every = nf.make_undersampling_mask(100, "blocks", blocks=100, block_width=1)
        assert every.tolist() == list(range(100))

    def test_mask_is_a_read_only_index_array(self):
        plan = reference_plan(n_points=40, mask=[0, 3, 7])
        assert plan.mask.dtype == np.int64 and plan.mask.tolist() == [0, 3, 7]
        assert not plan.mask.flags.writeable
        assert reference_plan(n_points=40).mask.tolist() == list(range(40))

    def test_n_points_upper_bound(self):
        # checked before any array of that length is built
        with pytest.raises(ValidationError, match="n_points must be <= 1000000"):
            nf.make_undersampling_mask(10**12)
        with pytest.raises(ValidationError, match="n_points must be <= 1000000"):
            reference_plan(n_points=10**12)
        assert len(nf.make_undersampling_mask(1_000_000)) == 1_000_000

    def test_plan_mask_validation(self):
        for mask in ((5, 3), (3, 3), (-1, 2), (0, 9999)):
            with pytest.raises(ValidationError):
                reference_plan(mask=mask)


class TestDrift:
    def test_all_zero(self):
        drift = nf.DriftModel()
        for t in (0.0, 1.0, 17.3):
            assert nf.drift_trajectory(drift, [t], seed=1)[0] == 0.0

    def test_linear(self):
        drift = nf.DriftModel(linear_rate_nm_per_hour=0.1)
        assert nf.drift_trajectory(drift, [10.0], seed=1)[0] == pytest.approx(1.0, rel=1e-12)

    def test_random_walk_variance_grows_linearly(self):
        drift = nf.DriftModel(random_walk_sigma_nm_per_sqrt_hour=1.0)
        times = [1.0, 4.0, 16.0]
        variances = []
        for t in times:
            draws = [nf.drift_trajectory(drift, [t], seed=s)[0] for s in range(1000)]
            variances.append(np.var(draws))
        slope = np.polyfit(np.log(times), np.log(variances), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_temperature_term(self):
        drift = nf.DriftModel(temperature_coupling_nm_per_k=2.0,
                              temperature_amplitude_k=0.25,
                              temperature_period_hours=24.0)
        # quarter period: dT = +0.25 K
        assert nf.drift_trajectory(drift, [6.0], seed=0)[0] == pytest.approx(0.5, rel=1e-12)

    def test_trajectory_consistent_and_deterministic(self):
        drift = nf.DriftModel(linear_rate_nm_per_hour=0.3,
                              random_walk_sigma_nm_per_sqrt_hour=0.5)
        t = np.linspace(0, 10, 50)
        a = nf.drift_trajectory(drift, t, seed=42)
        b = nf.drift_trajectory(drift, t, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, nf.drift_trajectory(drift, t, seed=43))

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValidationError):
            nf.drift_trajectory(nf.DriftModel(), [-1.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in fields(nf.DriftModel)])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            nf.DriftModel(**{name: value})


class TestCurrentNoise:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in fields(nf.CurrentNoiseModel)])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            nf.CurrentNoiseModel(**{name: value})


class TestRunSweep:
    def test_noiseless_identity(self):
        # all noise/drift off: signal == cos(2 pi K x) * envelope to 1e-12
        record = simulate(x_nm=100.0, t2_us=1200.0)
        envelope = np.exp(-(500.0 / 1200.0))
        expected = envelope * np.cos(2 * np.pi * record.k_values * 100.0)
        assert np.max(np.abs(record.signals - expected)) < 1e-12
        np.testing.assert_array_equal(record.errors, np.zeros(len(record)))

    def test_stride_mask_semantics(self):
        n = 100
        mask = nf.make_undersampling_mask(n, "stride", stride=4)
        record = simulate(x_nm=30.0, n_points=n, mask=mask)
        assert len(record) == 25
        full = simulate(x_nm=30.0, n_points=n)
        np.testing.assert_array_equal(record.k_values, full.k_values[::4])
        np.testing.assert_allclose(record.signals, full.signals[::4], atol=1e-15)

    def test_order_independence(self):
        # white current noise is keyed by sweep index: single-point masks,
        # run in reverse order, reproduce the full sweep bitwise
        kwargs = dict(n_points=60, seed=99, current_noise=nf.CurrentNoiseModel(white_sigma=0.01))
        full = simulate(x_nm=25.0, **kwargs)
        for idx in reversed(range(0, 60, 3)):
            point = simulate(x_nm=25.0, mask=[idx], **kwargs)
            assert point.signals.tobytes() == full.signals[[idx]].tobytes()

    def test_noise_streams_built_only_when_noise_is_on(self, monkeypatch):
        streams = []
        default_rng = np.random.default_rng

        def counting_default_rng(seed=None):
            streams.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        simulate(x_nm=30.0, n_points=40)
        assert streams == []
        # white current noise: one stream for the whole sweep
        simulate(x_nm=30.0, n_points=40, seed=7, current_noise=nf.CurrentNoiseModel(white_sigma=0.01))
        assert streams == [[7, nf.acquisition._STREAM_CURRENT]]
        streams.clear()
        # shot noise: one stream for the whole sweep, masked or not
        simulate(x_nm=30.0, n_points=40, seed=7, shot_noise=True, shots_per_point=10**6)
        simulate(x_nm=30.0, n_points=40, seed=7, shot_noise=True, mask=[0, 5, 9])
        assert streams == [[7, nf.acquisition._STREAM_SHOTS]] * 2

    def test_noisy_stride_sweep_equals_full_sweep(self):
        # white current noise depends only on the seed, n_points and the
        # sweep index, so the stride-3 points are bitwise the full sweep's
        kwargs = dict(n_points=90, seed=31, current_noise=nf.CurrentNoiseModel(white_sigma=0.01))
        full = simulate(x_nm=25.0, **kwargs)
        strided = simulate(x_nm=25.0, mask=nf.make_undersampling_mask(90, "stride", stride=3), **kwargs)
        assert strided.signals.tobytes() == full.signals[::3].tobytes()

    def test_shot_totals_are_one_draw_over_the_acquired_points(self):
        # the photon totals of a masked sweep are one poisson(lam) call on
        # the sweep's shot stream, over the acquired points in order
        shots, mask = 10_000, nf.make_undersampling_mask(60, "stride", stride=4)
        nv = reference_nv(25.0)
        a, b = nv.contrast_alpha, nv.yield_beta
        clean = simulate(x_nm=25.0, n_points=60, shots_per_point=shots, mask=mask)
        noisy = simulate(x_nm=25.0, n_points=60, shots_per_point=shots, mask=mask,
                         shot_noise=True, seed=8)
        lam = b * (1.0 + a * clean.signals) / (1.0 + a) * shots
        totals = np.random.default_rng([8, nf.acquisition._STREAM_SHOTS]).poisson(lam)
        np.testing.assert_allclose(noisy.signals, ((1.0 + a) * totals / shots / b - 1.0) / a,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("other_noise", [
        dict(current_noise=nf.CurrentNoiseModel(white_sigma=0.01)),
        dict(drift=nf.DriftModel(random_walk_sigma_nm_per_sqrt_hour=0.5)),
    ], ids=["white_current", "drift_walk"])
    def test_shot_stream_is_separate_from_other_noise(self, other_noise):
        # with white current noise or the drift walk on, the shot totals are
        # still one poisson(lam) draw on the shot stream, lam taken from the
        # same seed's sweep without shot noise
        shots, seed = 10_000, 12
        nv = reference_nv(25.0)
        a, b = nv.contrast_alpha, nv.yield_beta
        kwargs = dict(x_nm=25.0, n_points=60, shots_per_point=shots, seed=seed, **other_noise)
        clean = simulate(**kwargs)
        assert not np.array_equal(clean.signals, simulate(x_nm=25.0, n_points=60).signals)
        noisy = simulate(shot_noise=True, **kwargs)
        lam = b * (1.0 + a * clean.signals) / (1.0 + a) * shots
        totals = np.random.default_rng([seed, nf.acquisition._STREAM_SHOTS]).poisson(lam)
        np.testing.assert_allclose(noisy.signals, ((1.0 + a) * totals / shots / b - 1.0) / a,
                                   rtol=0, atol=1e-12)

    def test_shot_noise_is_poisson_per_point(self):
        # over 400 consecutive seeds each point's photon total has its own
        # Poisson mean and variance lam_i: sample mean within 5 sigma of
        # lam_i, sample variance within 5 sigma of lam_i
        shots, seeds = 10_000, 400
        nv = reference_nv(25.0)
        a, b = nv.contrast_alpha, nv.yield_beta
        clean = simulate(x_nm=25.0, n_points=40, shots_per_point=shots)
        lam = b * (1.0 + a * clean.signals) / (1.0 + a) * shots
        totals = np.array([
            b * (1.0 + a * simulate(x_nm=25.0, n_points=40, shots_per_point=shots, shot_noise=True,
                                    seed=seed).signals) / (1.0 + a) * shots
            for seed in range(seeds)
        ])
        np.testing.assert_allclose(totals, np.rint(totals), rtol=0, atol=1e-6)
        assert np.all(np.abs(totals.mean(axis=0) - lam) < 5.0 * np.sqrt(lam / seeds))
        rel_var = totals.var(axis=0, ddof=1) / lam
        assert np.all(np.abs(rel_var - 1.0) < 5.0 * np.sqrt((2.0 + 1.0 / lam) / seeds))

    def test_seed_determinism(self):
        a = simulate(x_nm=30.0, shot_noise=True, shots_per_point=10_000, seed=5)
        b = simulate(x_nm=30.0, shot_noise=True, shots_per_point=10_000, seed=5)
        np.testing.assert_array_equal(a.signals, b.signals)
        c = simulate(x_nm=30.0, shot_noise=True, shots_per_point=10_000, seed=6)
        assert not np.array_equal(a.signals, c.signals)

    def test_wire_geometry_path(self):
        wire = nf.MicrowireModel([0.0, 0.0, 0.4], [0, 1, 0], 1.0)
        axis = nf.NvAxis([0, 0, -1])
        nv = nf.NvCenter(position_um=[2.374083, 0, 0], t2_us=1200.0,
                         contrast_alpha=0.08, yield_beta=0.02)
        plan = nf.AcquisitionPlan(
            i_max_ma=10.0, n_points=50, sequence=reference_sequence(),
            waveform_template=reference_plan().waveform_template, shot_noise=False,
            origin_um=[2.404083, 0, 0], imaging_axis=[-1, 0, 0],
        )
        record = nf.run_sweep(plan, nv, wire=wire, axis=axis)
        assert record.metadata["gradient_per_ma_g_per_um"] == pytest.approx(0.326, rel=1e-4)
        expected = np.exp(-(500.0 / 1200.0)) * np.cos(2 * np.pi * record.k_values * 30.0)
        np.testing.assert_allclose(record.signals, expected, atol=1e-10)

    def test_negative_polarity_wire(self):
        # polarity -1 with the NV axis flipped reproduces the polarity +1 sweep
        base_axis = nf.NvAxis([0, 0, -1])
        flip_axis = nf.NvAxis([0, 0, 1])
        nv = nf.NvCenter(position_um=[2.374083, 0, 0], t2_us=1200.0,
                         contrast_alpha=0.08, yield_beta=0.02)
        plan = nf.AcquisitionPlan(
            i_max_ma=10.0, n_points=30, sequence=reference_sequence(),
            waveform_template=reference_plan().waveform_template, shot_noise=False,
            origin_um=[2.404083, 0, 0], imaging_axis=[-1, 0, 0],
        )
        plus = nf.run_sweep(plan, nv, wire=nf.MicrowireModel([0, 0, 0.4], [0, 1, 0], 1.0, 1),
                            axis=base_axis)
        minus = nf.run_sweep(plan, nv, wire=nf.MicrowireModel([0, 0, 0.4], [0, 1, 0], 1.0, -1),
                             axis=flip_axis)
        np.testing.assert_allclose(minus.signals, plus.signals, atol=1e-14)
        assert minus.metadata["gradient_per_ma_g_per_um"] == pytest.approx(
            plus.metadata["gradient_per_ma_g_per_um"], rel=1e-12
        )

    def test_gradient_must_be_positive(self):
        plan = reference_plan()
        with pytest.raises(ValidationError, match="positive"):
            nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=-0.3)

    def test_symmetric_waveform_rejected(self):
        plan = nf.AcquisitionPlan(
            i_max_ma=10.0, n_points=50, sequence=reference_sequence(),
            waveform_template=rect_waveform(antisymmetric=False), shot_noise=False,
        )
        with pytest.raises(ValidationError, match="efficiency"):
            nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=0.326)

    def test_timestamps(self):
        plan = reference_plan(n_points=10, shots_per_point=1_000_000)
        times = point_times_hours(plan)
        dwell = 1_000_000 * 500e-6 / 3600.0
        np.testing.assert_allclose(times, np.arange(10) * dwell, rtol=1e-12)

    def test_linear_drift_shifts_position(self):
        drift = nf.DriftModel(linear_rate_nm_per_hour=1.0)
        plan = reference_plan(n_points=20, drift=drift, shots_per_point=36_000)
        # dwell per point: 36000 * 500us = 18 s = 0.005 h -> total drift ~0.1 nm
        record = nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=0.326)
        offsets = nf.drift_trajectory(drift, record.t_hours, seed=plan.seed)
        envelope = np.exp(-(500.0 / 1200.0))
        expected = envelope * np.cos(2 * np.pi * record.k_values * (30.0 + offsets))
        np.testing.assert_allclose(record.signals, expected, atol=1e-12)

    def test_current_modulation_enters_phase(self):
        noise = nf.CurrentNoiseModel(relative_amplitude=0.05, modulation_frequency_cycles=3.0)
        record = simulate(x_nm=30.0, n_points=40, current_noise=noise)
        clean = simulate(x_nm=30.0, n_points=40)
        assert not np.allclose(record.signals, clean.signals)
        # modulation is deterministic (no white term): check one point explicitly
        j = 20
        frac = j / 39
        i_mod = clean.currents[j] * (1 + 0.05 * np.sin(2 * np.pi * 3.0 * frac))
        k_mod = nf.k_of_current(reference_plan(n_points=40), i_mod, 0.326)
        expected = np.exp(-(500.0 / 1200.0)) * np.cos(2 * np.pi * k_mod * 30.0)
        assert record.signals[j] == pytest.approx(expected, abs=1e-12)


class TestRecordSerialization:
    def test_bit_exact_roundtrip(self, tmp_path):
        record = simulate(x_nm=30.0, shot_noise=True, shots_per_point=5000, seed=3,
                          n_points=64)
        path = tmp_path / "record.csv"
        nf.save_record(record, path)
        loaded = nf.load_record(path)
        for name in ("k_values", "currents", "signals", "errors", "t_hours"):
            np.testing.assert_array_equal(getattr(record, name), getattr(loaded, name))
        assert record.metadata == loaded.metadata

    def test_sidecar_rebuilds_the_sequence(self, tmp_path):
        plan = reference_plan(
            n_points=16, sequence=reference_sequence(pi_pulse_time_us=240.0, pi_fidelity=0.9)
        )
        path = tmp_path / "record.csv"
        nf.save_record(nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=0.326), path)
        metadata = nf.load_record(path).metadata
        assert nf.EchoSequence(**metadata["sequence"]) == plan.sequence

    def test_missing_sidecar(self, tmp_path):
        record = simulate(x_nm=30.0, n_points=16)
        path = tmp_path / "record.csv"
        nf.save_record(record, path)
        (tmp_path / "record.meta.json").unlink()
        with pytest.raises(nf.errors.MetadataError):
            nf.load_record(path)

    def test_non_finite_k_rejected_without_warning(self):
        k = np.linspace(0.0, 2.0, 50)
        k[5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="k_values must be finite"):
                nf.KSpaceRecord(
                    k_values=k, currents=np.arange(50.0), signals=np.zeros(50),
                    errors=np.zeros(50), t_hours=np.zeros(50), metadata={},
                )

    def test_record_invariants(self):
        with pytest.raises(ValidationError):
            nf.KSpaceRecord(
                k_values=[0.0, 0.2, 0.1], currents=[0, 1, 2], signals=[0, 0, 0],
                errors=[0, 0, 0], t_hours=[0, 1, 2], metadata={},
            )
