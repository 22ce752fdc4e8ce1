import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import nvfourier as nf
from nvfourier.acquisition import (
    drift_trajectory,
    k_per_ma,
    point_times_hours,
    sweep_currents,
)
from nvfourier.errors import MissingCalibrationError, ValidationError

from helpers import reference_nv, reference_plan, reference_sequence, rect_waveform, simulate


def k_of_current(plan, current_ma, gradient_per_ma):
    """K (nm^-1) at a drive current: I * k_per_ma, as run_sweep's K column."""
    w = nf.phase_efficiency(plan.waveform_template, plan.sequence)
    return current_ma * k_per_ma(w, plan.sequence.tau_us, gradient_per_ma)


class TestKOfCurrent:
    def test_rect_full_duty(self):
        # w = 1: K = 2 * 2.8 * 250 * 3.26 / 1000 = 4.564 1/nm at 10 mA
        plan = nf.AcquisitionPlan(
            i_max_ma=10.0, n_points=100, sequence=reference_sequence(),
            waveform_template=rect_waveform(), shot_noise=False,
        )
        k = k_of_current(plan, 10.0, 0.326)
        assert k == pytest.approx(4.564, rel=1e-12)

    def test_reference_endpoint_with_calibrated_sine(self):
        plan = reference_plan()
        k = k_of_current(plan, 10.0, 0.326)
        assert k == pytest.approx(2.2834, rel=5e-3)
        assert nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=0.326).k_max == k

    def test_zero_current(self):
        plan = reference_plan()
        assert k_of_current(plan, 0.0, 0.326) == 0.0

    def test_missing_calibration(self):
        # neither a gradient per mA nor a wire to derive one from
        with pytest.raises(MissingCalibrationError):
            nf.run_sweep(reference_plan(), reference_nv(30.0))

    def test_k_linear_in_index(self):
        plan = reference_plan(n_points=100)
        currents = sweep_currents(plan)
        k = k_of_current(plan, currents, 0.326)
        coeff = k_of_current(plan, 1.0, 0.326)
        # exact linearity in the current array, by construction
        np.testing.assert_array_equal(k, currents * coeff)
        record = nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=0.326)
        np.testing.assert_array_equal(record.k_values, k)
        diffs = np.diff(k)
        assert np.allclose(diffs, diffs[0], rtol=1e-9)


class TestPlan:
    def test_replaced_n_points_sweeps_every_point(self):
        # a replaced n_points sweeps all of its own points up to the same K_max
        plan = reference_plan()
        full = nf.run_sweep(plan, reference_nv(30.0), gradient_per_ma=0.326)
        for n_points in (1000, 100):
            record = nf.run_sweep(replace(plan, n_points=n_points), reference_nv(30.0), gradient_per_ma=0.326)
            assert len(record) == n_points and record.k_max == full.k_max
        assert full.k_max == pytest.approx(2.2834, rel=5e-3)

    def test_n_points_upper_bound(self):
        # checked by the plan, before any array of that length is built
        with pytest.raises(ValidationError, match="n_points must be <= 1000000"):
            reference_plan(n_points=10**12)
        assert len(sweep_currents(reference_plan(n_points=1_000_000))) == 1_000_000


class TestDrift:
    def test_all_zero(self):
        drift = nf.DriftModel()
        for t in (0.0, 1.0, 17.3):
            assert drift_trajectory(drift, [t], seed=1)[0] == 0.0

    def test_linear(self):
        drift = nf.DriftModel(linear_rate_nm_per_hour=0.1)
        assert drift_trajectory(drift, [10.0], seed=1)[0] == pytest.approx(1.0, rel=1e-12)

    def test_random_walk_variance_grows_linearly(self):
        drift = nf.DriftModel(random_walk_sigma_nm_per_sqrt_hour=1.0)
        times = [1.0, 4.0, 16.0]
        variances = []
        for t in times:
            draws = [drift_trajectory(drift, [t], seed=s)[0] for s in range(1000)]
            variances.append(np.var(draws))
        slope = np.polyfit(np.log(times), np.log(variances), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_temperature_term(self):
        drift = nf.DriftModel(temperature_coupling_nm_per_k=2.0,
                              temperature_amplitude_k=0.25,
                              temperature_period_hours=24.0)
        # quarter period: dT = +0.25 K
        assert drift_trajectory(drift, [6.0], seed=0)[0] == pytest.approx(0.5, rel=1e-12)

    def test_trajectory_consistent_and_deterministic(self):
        drift = nf.DriftModel(linear_rate_nm_per_hour=0.3,
                              random_walk_sigma_nm_per_sqrt_hour=0.5)
        t = np.linspace(0, 10, 50)
        a = drift_trajectory(drift, t, seed=42)
        b = drift_trajectory(drift, t, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, drift_trajectory(drift, t, seed=43))

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValidationError):
            drift_trajectory(nf.DriftModel(), [-1.0])

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
        # shot noise: one stream for the whole sweep
        simulate(x_nm=30.0, n_points=40, seed=7, shot_noise=True, shots_per_point=10**6)
        assert streams == [[7, nf.acquisition._STREAM_SHOTS]]

    def test_shot_totals_are_one_draw_over_the_acquired_points(self):
        # the photon totals of a sweep are one poisson(lam) call on the
        # sweep's shot stream, over the points in sweep order
        shots = 10_000
        nv = reference_nv(25.0)
        a, b = nv.contrast_alpha, nv.yield_beta
        clean = simulate(x_nm=25.0, n_points=60, shots_per_point=shots)
        noisy = simulate(x_nm=25.0, n_points=60, shots_per_point=shots, shot_noise=True, seed=8)
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
        offsets = drift_trajectory(drift, record.t_hours, seed=plan.seed)
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
        k_mod = k_of_current(reference_plan(n_points=40), i_mod, 0.326)
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
