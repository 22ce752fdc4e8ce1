"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), then runs one kind of operation again and again.  ``op`` does only
the work that is timed; ``check`` compares its outputs with the references
of oracles.py and raises checks.CheckFailed on a mismatch.

Program functions are called through their module (``acquisition.run_sweep``)
so that the traced run can wrap them where they are looked up.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import oracles
from nvfourier import acquisition, config, reconstruction, spin_dynamics

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_RELPATH = Path("configs") / "default_run.yaml"
CALIBRATION_TOLERANCE = 1e-6

# sweep_dense: one noiseless full-mask sweep of this many points, then save
DENSE_POINTS = 15_000
DENSE_POSITIONS = 8

# localize_noisy: a pool of seeded trials, cycled
TRIALS = 32
DRIFT_PIXELS = 0.5  # linear drift over one sweep, in pixels
WHITE_SIGMA = 1e-4  # white current noise, fraction of the setpoint
WIDTH_SDS = 5  # a single trial's fitted width may leave [1, 2] pixels by this many of its standard deviations

# analyze_records
RECORD_NOISE = 0.01  # Gaussian signal noise of the generated records
STRIDE = 4
BLOCKS, BLOCK_WIDTH = 8, 30
COARSE_POINTS, COARSE_CURRENT_FRACTION = 60, 0.1
MODULATION_DEPTH = 0.02
ZERO_PAD = 4

CLI_SESSION = ("run-all", "calibrate", "simulate", "reconstruct", "sensitivity")
CLI_TIMEOUT_S = 120
K_MAX_HAND = 2.2834  # 1/nm, the reference sweep
CENTER_HAND_NM = 30.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class Reference:
    """The reference configuration and the oracle values derived from it."""

    root: Path
    config_path: Path
    cfg: config.RunConfig
    efficiency: float
    gradient_per_ma: float  # G/um per mA at the configured NV
    k_max: float
    x0_nm: float

    @property
    def pixel_nm(self) -> float:
        return 1.0 / (2.0 * self.k_max)

    @property
    def total_time_us(self) -> float:
        return self.cfg.plan.sequence.total_time_us

    def gradient_at_nv(self, position_um) -> float:
        cfg = self.cfg
        return oracles.wire_gradient(
            cfg.wire.anchor_point_um, cfg.wire.direction, position_um,
            cfg.nv_axis.orientation, cfg.plan.imaging_axis,
        )

    def echo(self, k, x_nm: float):
        nv = self.cfg.nv
        return oracles.echo_signal(k, x_nm, self.total_time_us, nv.t2_us, nv.stretch_p)


def load_reference(root: Path) -> Reference:
    path = root / CONFIG_RELPATH
    cfg = config.load_config(path)
    plan = cfg.plan
    efficiency = oracles.sine_lobe_efficiency(plan.waveform_template.active_fraction)
    gradient = oracles.wire_gradient(
        cfg.wire.anchor_point_um, cfg.wire.direction, cfg.nv.position_um,
        cfg.nv_axis.orientation, plan.imaging_axis,
    )
    k_max = oracles.k_per_ma(efficiency, plan.sequence.total_time_us, gradient) * plan.i_max_ma
    x0_nm = float(np.dot(cfg.nv.position_um - plan.origin_um, plan.imaging_axis)) * 1e3
    return Reference(root, path, cfg, efficiency, gradient, k_max, x0_nm)


def calibration_shifts(ref: Reference):
    """Positions, shifts and oracle B = 2I/r shifts of the configured calibration samples."""
    wire, cfg = ref.cfg.wire, ref.cfg
    data = np.loadtxt(cfg.calibration_csv, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    positions = data[:, :3]
    oracle_shifts = np.array([
        oracles.wire_shift_mhz(wire.anchor_point_um, wire.direction, wire.signed_current_ma, p, cfg.nv_axis.orientation)
        for p in positions
    ])
    return positions, data[:, 3], oracle_shifts


def axis_nv(ref: Reference, x_nm: float) -> spin_dynamics.NvCenter:
    """The reference NV moved to x_nm on the x axis (origin at zero)."""
    nv = ref.cfg.nv
    return spin_dynamics.NvCenter(
        position_um=[x_nm * 1e-3, 0.0, 0.0], t2_us=nv.t2_us, contrast_alpha=nv.contrast_alpha,
        yield_beta=nv.yield_beta, stretch_p=nv.stretch_p,
    )


class ScalingSweep:
    """Noiseless full-mask sweep of n points at the reference K_max, no I/O."""

    def __init__(self, ref: Reference, n_points: int, seed: int = 0):
        self.ref = ref
        plan = ref.cfg.plan
        self.plan = acquisition.AcquisitionPlan(
            i_max_ma=plan.i_max_ma, n_points=n_points, sequence=plan.sequence,
            waveform_template=plan.waveform_template, shot_noise=False, seed=seed,
        )
        self.k = oracles.current_ramp(plan.i_max_ma, n_points) * oracles.k_per_ma(
            ref.efficiency, ref.total_time_us, ref.gradient_per_ma
        )
        self.positions = [ref.x0_nm]
        self.nvs = [axis_nv(ref, ref.x0_nm)]
        self.turn = 0

    def op(self):
        i = self.turn % len(self.nvs)
        self.turn += 1
        return i, acquisition.run_sweep(self.plan, self.nvs[i], gradient_per_ma=self.ref.gradient_per_ma)

    def check(self, result) -> None:
        i, record = result
        checks.arrays_close("K grid", record.k_values, self.k, 1e-12 * self.k[-1])
        checks.arrays_close(
            "signal vs closed-form echo", record.signals, self.ref.echo(self.k, self.positions[i]), 1e-9
        )


class SweepDense(ScalingSweep):
    """Noiseless full-mask sweep of a dense record, then save_record."""

    def __init__(self, ref: Reference, seed: int, work: Path):
        super().__init__(ref, DENSE_POINTS, seed)
        self.positions = np.random.default_rng([seed, 1]).uniform(20.0, 60.0, DENSE_POSITIONS)
        self.nvs = [axis_nv(ref, x) for x in self.positions]
        self.path = work / "dense" / "record.csv"

    def op(self):
        i, record = super().op()
        acquisition.save_record(record, self.path)
        return i, record

    def check(self, result) -> None:
        super().check(result)
        record = result[1]
        loaded = acquisition.load_record(self.path)
        for attr in ("k_values", "currents", "signals", "errors", "t_hours"):
            checks.bit_identical(f"save/load {attr}", getattr(loaded, attr), getattr(record, attr))
        if loaded.metadata != record.metadata:
            raise checks.CheckFailed("save/load: sidecar metadata differs")


class LocalizeNoisy:
    """Seeded localization trials: noisy drifting sweep, transform, Lorentzian fit."""

    def __init__(self, ref: Reference, seed: int, work: Path):
        self.ref = ref
        cfg = ref.cfg
        plan = cfg.plan
        # the last point starts (n-1) dwells of shots * 2tau after the first
        sweep_h = (plan.n_points - 1) * plan.shots_per_point * ref.total_time_us * 1e-6 / 3600.0
        # a linear drift d(t) chirps the phase: the apparent position runs
        # from x0 to x0 + 2*d_end, so the peak lies around x0 + d_end
        self.drift_end_nm = DRIFT_PIXELS * ref.pixel_nm
        drift = acquisition.DriftModel(linear_rate_nm_per_hour=self.drift_end_nm / sweep_h)
        noise = acquisition.CurrentNoiseModel(white_sigma=WHITE_SIGMA)
        rng = np.random.default_rng([seed, 2])
        self.trials = []
        for x_nm, trial_seed in zip(rng.uniform(20.0, 40.0, TRIALS), rng.integers(0, 2**31, TRIALS)):
            position = plan.origin_um + x_nm * 1e-3 * plan.imaging_axis
            nv = spin_dynamics.NvCenter(
                position_um=position, t2_us=cfg.nv.t2_us, contrast_alpha=cfg.nv.contrast_alpha,
                yield_beta=cfg.nv.yield_beta, stretch_p=cfg.nv.stretch_p,
            )
            trial_plan = acquisition.AcquisitionPlan(
                i_max_ma=plan.i_max_ma, n_points=plan.n_points, sequence=plan.sequence,
                waveform_template=plan.waveform_template, shots_per_point=plan.shots_per_point,
                shot_noise=True, seed=int(trial_seed), drift=drift, current_noise=noise,
                origin_um=plan.origin_um, imaging_axis=plan.imaging_axis,
            )
            k_max = plan.i_max_ma * oracles.k_per_ma(
                ref.efficiency, ref.total_time_us, ref.gradient_at_nv(position)
            )
            self.trials.append((float(x_nm), trial_plan, nv, 1.0 / (2.0 * k_max)))
        self.turn = 0

    def op(self):
        i = self.turn % len(self.trials)
        self.turn += 1
        _, plan, nv, _ = self.trials[i]
        record = acquisition.run_sweep(plan, nv, wire=self.ref.cfg.wire, axis=self.ref.cfg.nv_axis)
        profile = reconstruction.fourier_reconstruct(record, zero_pad_factor=ZERO_PAD)
        fit = reconstruction.fit_lorentzian(profile)
        return i, record, profile, fit

    def check(self, result) -> None:
        i, record, profile, fit = result
        x_nm, _, nv, pixel = self.trials[i]
        checks.close("localize_noisy pixel", profile.pixel_size_nm, pixel, 1e-6)
        checks.within_half_pixel("localize_noisy centre", fit.center_nm, x_nm + self.drift_end_nm, pixel)
        sigma = oracles.poisson_signal_error(
            record.signals, nv.contrast_alpha, nv.yield_beta, self.ref.cfg.plan.shots_per_point
        )
        checks.arrays_close("localize_noisy sigma vs Poisson error", record.errors, sigma, 1e-9 * float(sigma.max()))
        # The noiseless width is 1 to 2 pixels; shot and current noise scatter the
        # fitted width of a single trial by width_sd, propagated from this trial's
        # own noise through the transform and the fit (oracles.lorentzian_width_sd).
        n = len(record.signals)
        k = np.arange(n) * (0.5 / pixel / (n - 1))
        x_drifting = x_nm + self.drift_end_nm * np.arange(n) / (n - 1)
        nv_cfg = self.ref.cfg.nv
        current_sd = oracles.current_noise_signal_sd(
            k, x_drifting, self.ref.total_time_us, nv_cfg.t2_us, nv_cfg.stretch_p, WHITE_SIGMA
        )
        lo, hi = reconstruction.default_fit_window(profile)
        window = (profile.x_grid_nm >= lo) & (profile.x_grid_nm <= hi)
        width_sd = oracles.lorentzian_width_sd(
            profile.x_grid_nm[window], (fit.amplitude, fit.center_nm, fit.fwhm_nm / 2.0, fit.offset),
            record.signals, np.hypot(sigma, current_sd), 0.5 / pixel, ZERO_PAD,
        ) / pixel
        checks.width_in_pixels(
            "localize_noisy FWHM", fit.fwhm_nm, pixel, 1.0 - WIDTH_SDS * width_sd, 2.0 + WIDTH_SDS * width_sd
        )


RECORD_COLUMNS = "k_per_nm,current_mA,signal,sigma,t_hours"


def write_record(path: Path, k, currents, signal, sigma: float, dwell_h: float, meta: dict) -> None:
    """Write a record in the package's CSV + sidecar format, without the package."""
    rows = [RECORD_COLUMNS]
    for j, (kv, iv, sv) in enumerate(zip(k, currents, signal)):
        rows.append(",".join(repr(float(v)) for v in (kv, iv, sv, sigma, j * dwell_h)))
    path.write_text("\n".join(rows) + "\n")
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


class AnalyzeRecords:
    """Read and analyze records made by the benchmark's own closed-form model."""

    def __init__(self, ref: Reference, seed: int, work: Path):
        self.ref = ref
        plan = ref.cfg.plan
        n, i_max = plan.n_points, plan.i_max_ma
        rng = np.random.default_rng([seed, 3])
        self.x0 = float(rng.uniform(26.0, 46.0))
        self.x_mod = float(rng.uniform(6.0, 10.0))
        self.f_mod = float(rng.uniform(3.0, 5.0))  # modulation cycles per sweep
        coef = oracles.k_per_ma(ref.efficiency, ref.total_time_us, ref.gradient_per_ma)
        dwell_h = plan.shots_per_point * ref.total_time_us * 1e-6 / 3600.0
        self.k_max = i_max * coef
        self.dir = work / "records"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        self.oracle = {}

        def emit(name, index, currents, truth, n_grid, grid_i_max, window, zero_fill=False):
            k = currents * coef
            noisy = truth + rng.normal(0.0, RECORD_NOISE, len(truth))
            meta = {
                "model": "closed-form echo",
                "mask": [int(j) for j in index],
                "n_points": n_grid,
                "delta_k_per_nm": grid_i_max / (n_grid - 1) * coef,
                "waveform_efficiency": ref.efficiency,
                "tau_us": ref.total_time_us / 2.0,
                "gradient_per_ma_g_per_um": ref.gradient_per_ma,
            }
            path = self.dir / f"{name}.csv"
            write_record(path, k, currents, noisy, RECORD_NOISE, dwell_h, meta)
            self.paths[name] = path
            # repr() round-trips, so the oracle transforms exactly what the program reads
            signal = noisy
            if zero_fill:
                signal = np.zeros(n_grid)
                signal[index] = noisy
            if window == "hann":
                signal = signal * oracles.hann(len(signal))
            k_max = (grid_i_max if zero_fill else currents[-1]) * coef
            self.oracle[name] = oracles.cosine_sum_profile(signal, k_max, ZERO_PAD)

        ramp = oracles.current_ramp(i_max, n)
        full = np.arange(n)
        emit("full", full, ramp, ref.echo(ramp * coef, self.x0), n, i_max, "hann")
        starts = [round(b * n / BLOCKS) for b in range(BLOCKS)]
        blocks = np.array(sorted({j for s in starts for j in range(s, min(s + BLOCK_WIDTH, n))}))
        emit("blocks", blocks, ramp[blocks], ref.echo(ramp[blocks] * coef, self.x0), n, i_max, "hann", True)
        stride = np.arange(0, n, STRIDE)
        emit("stride", stride, ramp[stride], ref.echo(ramp[stride] * coef, self.x0), n, i_max, "none")
        # sinusoidal modulation of the drive current: I -> I*(1 + m*sin(2*pi*f*j/(n-1)))
        modulated = ramp * (1.0 + MODULATION_DEPTH * np.sin(2.0 * math.pi * self.f_mod * full / (n - 1)))
        emit("modulated", full, ramp, ref.echo(modulated * coef, self.x_mod), n, i_max, "hann")
        coarse_i_max = COARSE_CURRENT_FRACTION * i_max
        coarse = oracles.current_ramp(coarse_i_max, COARSE_POINTS)
        emit("coarse", np.arange(COARSE_POINTS), coarse, ref.echo(coarse * coef, self.x0), COARSE_POINTS,
             coarse_i_max, "none")

    def op(self):
        rec = {name: acquisition.load_record(path) for name, path in self.paths.items()}
        profiles, fits = {}, {}
        for name in ("full", "blocks", "modulated"):
            profiles[name] = reconstruction.fourier_reconstruct(rec[name], window="hann", zero_pad_factor=ZERO_PAD)
            fits[name] = reconstruction.fit_lorentzian(profiles[name])
        for name in ("stride", "coarse"):
            profiles[name] = reconstruction.fourier_reconstruct(rec[name], zero_pad_factor=ZERO_PAD)
        sidebands = {
            name: reconstruction.sideband_analysis(profiles[name], fits[name]) for name in ("full", "modulated")
        }
        cosine = reconstruction.fit_cosine(rec["coarse"])
        unfolded = reconstruction.disambiguate_alias(profiles["coarse"], profiles["stride"], STRIDE)
        return profiles, fits, sidebands, cosine, unfolded

    def check(self, result) -> None:
        profiles, fits, sidebands, cosine, unfolded = result
        pixel = 1.0 / (2.0 * self.k_max)
        for name, (x, amplitude) in self.oracle.items():
            checks.arrays_close(f"analyze {name} x grid", profiles[name].x_grid_nm, x, 1e-12 * x[-1])
            checks.profile_matches(f"analyze {name} profile vs cosine sum", profiles[name].amplitude, amplitude)
        checks.within_half_pixel("analyze full centre", fits["full"].center_nm, self.x0, pixel)
        checks.within_half_pixel("analyze blocks centre", fits["blocks"].center_nm, self.x0, pixel)
        checks.within_half_pixel("analyze modulated centre", fits["modulated"].center_nm, self.x_mod, pixel)
        checks.within_half_pixel("analyze alias unfolding", unfolded, self.x0, pixel)
        checks.within_half_pixel("analyze fit_cosine position", cosine.implied_position_nm, self.x0, pixel)
        # Jacobi-Anger: f cycles per sweep put sidebands at x_mod +- f/K_max
        checks.sideband_pair_at(
            "analyze modulated sidebands", sidebands["modulated"], self.f_mod / self.k_max, pixel / 2.0
        )
        checks.no_sidebands("analyze clean sidebands", sidebands["full"])


class CliStages:
    """A session of fresh-interpreter CLI calls on the reference config, one at a time."""

    rss_of_children = True

    def __init__(self, ref: Reference, seed: int, work: Path):
        self.ref = ref
        self.out = work / "cli"
        self.env = child_env(ref.root)
        self.reference_digests = None
        self.check_calibration_samples()
        cfg = ref.cfg
        self.eta = oracles.shot_noise_sensitivity(
            cfg.nv.contrast_alpha, cfg.nv.yield_beta, cfg.sigma_s, ref.total_time_us
        )
        self.deviation = oracles.deviation_nt(self.eta, cfg.plan.shots_per_point, ref.total_time_us)

    def check_calibration_samples(self) -> None:
        """The shipped calibration samples are the B = 2I/r field of the configured wire."""
        for position, shift, want in zip(*calibration_shifts(self.ref)):
            checks.close(f"calibration sample at {tuple(position)}", float(shift), float(want), 1e-12)

    def command(self, sub: str, spans: Path | None = None) -> list[str]:
        args = [sub, "--config", str(self.ref.config_path), "--out", str(self.out), "--quiet"]
        if spans is None:
            return [sys.executable, "-m", "nvfourier.cli", *args]
        return [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans), *args]

    def op(self, spans_dir: Path | None = None):
        calls = []
        for sub in CLI_SESSION:
            spans = None if spans_dir is None else spans_dir / f"{sub}.json"
            t0 = time.perf_counter()
            proc = subprocess.run(
                self.command(sub, spans), cwd=self.ref.root, env=self.env,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
            manifest = self.out / "manifest.json"
            calls.append((sub, proc.returncode, proc.stderr, wall, manifest.read_text() if manifest.exists() else "{}"))
        return calls

    def check(self, calls) -> None:
        try:
            self._check(calls)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, calls) -> None:
        ref = self.ref
        for sub, returncode, stderr, _, manifest in calls:
            checks.call_ok(f"cli {sub}", returncode, stderr)
            derived = checks.manifest_hashes_match(f"cli {sub} manifest", manifest)["derived"]
            if "k_max_per_nm" in derived:
                checks.close(f"cli {sub} K_max vs hand value", derived["k_max_per_nm"], K_MAX_HAND, 0.005)
                checks.close(f"cli {sub} K_max vs oracle", derived["k_max_per_nm"], ref.k_max, CALIBRATION_TOLERANCE)
            if "reconstruction" in derived:
                center = derived["reconstruction"]["center_nm"]
                checks.within_half_pixel(f"cli {sub} centre", center, CENTER_HAND_NM, ref.pixel_nm)
                checks.within_half_pixel(f"cli {sub} centre vs geometry", center, ref.x0_nm, ref.pixel_nm)
            if "sensitivity" in derived:
                checks.close(f"cli {sub} eta", derived["sensitivity"]["eta_ut_per_sqrt_hz"], self.eta, 1e-9)
                checks.close(f"cli {sub} deviation", derived["sensitivity"]["deviation_nt"], self.deviation, 1e-9)
            if "calibration" in derived:
                checks.close(
                    f"cli {sub} calibrated gradient", derived["calibration"]["gradient_per_ma_g_per_um"],
                    ref.gradient_per_ma, CALIBRATION_TOLERANCE,
                )
        digests = checks.data_file_digests(self.out)
        if self.reference_digests is None:
            self.reference_digests = digests
        checks.same_digests("cli session", digests, self.reference_digests)


WORKLOADS = {
    "cli_stages": CliStages,
    "sweep_dense": SweepDense,
    "localize_noisy": LocalizeNoisy,
    "analyze_records": AnalyzeRecords,
}


def build(name: str, root: Path, seed: int, work: Path):
    return WORKLOADS[name](load_reference(root), seed, work)

