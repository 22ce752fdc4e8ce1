"""Command-line pipeline wiring calibration, simulation, reconstruction and
sensitivity into reproducible runs.

Subcommands: calibrate, simulate, reconstruct, fit-cosine, sensitivity,
run-all.  Every run is reproducible bit-exactly from (config, seed); the
manifest records the config hash, per-stage timings and a SHA-256 inventory
of every output file (timings and timestamps are the only non-deterministic
manifest fields).

Output directory precedence: --out flag, then $NVFOURIER_OUT, then the
config's output_dir.

Errors exit nonzero and print a single machine-parsable line to stderr:
``<code>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .acquisition import _resolve_gradient_per_ma, load_record, run_sweep, save_record
from .config import RunConfig, load_config, section_doc
from .errors import MissingCalibrationError, NvFourierError
from .field_model import calibrate_wire, gradient_at, load_calibration_csv, sample_field
from .metrology import empirical_resolution, full_sensitivity_report, pixel_resolution
from .reconstruction import (
    fit_cosine,
    fit_lorentzian,
    fourier_reconstruct,
    save_fit_json,
    save_profile_csv,
)
from .serialize import to_plain, write_csv, write_json

ENV_OUTPUT_DIR = "NVFOURIER_OUT"


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _out_dir(args, cfg: RunConfig) -> Path:
    if getattr(args, "out", None):
        base = args.out
    elif os.environ.get(ENV_OUTPUT_DIR):
        base = os.environ[ENV_OUTPUT_DIR]
    else:
        base = cfg.output_dir
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _load_config(args) -> RunConfig:
    if not args.config:
        raise NvFourierError("--config PATH is required")
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.plan = replace(cfg.plan, seed=int(args.seed))
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Manifest:
    """Collects stage timings, output files and derived quantities."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.stages: list[dict] = []
        self.outputs: list[Path] = []
        self.derived: dict = {}

    @contextmanager
    def stage(self, name: str):
        """Time the body; a stage that raises is not recorded."""
        t0 = time.perf_counter()
        yield
        self.stages.append({"name": name, "seconds": time.perf_counter() - t0})

    def add_output(self, path) -> None:
        self.outputs.append(Path(path))

    def write(self, path: Path) -> None:
        doc = {
            "version": __version__,
            "config_hash": self.cfg.config_hash,
            "seed": self.cfg.plan.seed,
            "config": self.cfg.resolved,
            "stages": self.stages,
            "outputs": [
                {
                    "path": str(p),
                    "sha256": _sha256(p),
                    "bytes": p.stat().st_size,
                }
                for p in self.outputs
                if p.exists()
            ],
            "derived": self.derived,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        write_json(path, doc)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_calibrate(cfg: RunConfig, samples_path, out: Path, manifest: Manifest, args) -> float:
    """Fit the wire to a calibration CSV; returns gradient per mA at the NV."""
    if cfg.wire is None:
        raise MissingCalibrationError("calibrate needs a wire block (initial guess) in the config")
    samples = load_calibration_csv(samples_path)
    fitted, report = calibrate_wire(samples, cfg.wire, cfg.nv_axis)
    unit_wire = replace(fitted, current_ma=fitted.current_ma / cfg.wire.current_ma)
    gradient = gradient_at(unit_wire, cfg.nv.position_um, cfg.nv_axis, cfg.plan.imaging_axis)

    report_doc = to_plain(report)
    report_doc["fitted_wire"] = section_doc("wire", fitted)
    report_doc["gradient_per_ma_g_per_um_at_nv"] = float(gradient)
    report_path = out / "calibration_report.json"
    write_json(report_path, report_doc)
    manifest.add_output(report_path)

    # predicted field/gradient curve along the imaging axis through the samples
    e = cfg.plan.imaging_axis
    proj = [float(np.dot(s.position_um, e)) for s in samples]
    centroid = np.mean([s.position_um for s in samples], axis=0)
    base = centroid - float(np.dot(centroid, e)) * e
    points = base + np.linspace(min(proj), max(proj), 101)[:, None] * e
    curve = [sample_field(fitted, p, cfg.nv_axis, e) for p in points]
    curve_path = out / "gradient_curve.csv"
    write_csv(
        curve_path, ["x_um", "y_um", "z_um", "b_G", "gradient_G_per_um", "delta_f_MHz"],
        *points.T,
        [fs.b_projected_g for fs in curve],
        [fs.gradient_projected_g_per_um for fs in curve],
        [fs.delta_f_mhz for fs in curve],
    )
    manifest.add_output(curve_path)

    residual_rms = float(np.sqrt(report.rss / len(samples)))
    manifest.derived["calibration"] = {
        "gradient_per_ma_g_per_um": float(gradient),
        "converged": report.converged,
        "residual_rms_mhz": residual_rms,
    }
    _say(args, f"calibrated gradient: {gradient:.6f} G/um per mA (converged={report.converged})")
    return float(gradient)


def stage_simulate(
    cfg: RunConfig, calibrated: float | None, out: Path, manifest: Manifest, args
) -> Path:
    """Run the sweep at the gradient per mA at the NV: the calibrated value,
    else the config's gradient_per_ma_g_per_um, else the wire's."""
    gradient, _ = _resolve_gradient_per_ma(
        cfg.nv, cfg.plan, cfg.wire, cfg.nv_axis,
        cfg.gradient_per_ma if calibrated is None else calibrated,
    )
    record = run_sweep(cfg.plan, cfg.nv, gradient_per_ma=gradient)
    record_path = out / "record.csv"
    sidecar = save_record(record, record_path)
    manifest.add_output(record_path)
    manifest.add_output(sidecar)
    manifest.derived["k_max_per_nm"] = record.k_max
    _say(
        args,
        f"simulated {len(record)} K points up to K_max = {record.k_max:.4f} 1/nm "
        f"(w = {record.metadata['waveform_efficiency']:.4f})",
    )
    return record_path


def stage_reconstruct(
    cfg: RunConfig, record_path, out: Path, manifest: Manifest, args,
    window: str | None = None, zero_pad_factor: int | None = None,
) -> dict:
    record = load_record(record_path)
    window = cfg.recon_window if window is None else window
    zpf = cfg.zero_pad_factor if zero_pad_factor is None else int(zero_pad_factor)
    profile = fourier_reconstruct(record, window=window, zero_pad_factor=zpf)
    fit = fit_lorentzian(profile)
    resolution = empirical_resolution(fit, profile)
    pixel = pixel_resolution(profile.k_max_per_nm)

    profile_path = out / "profile.csv"
    save_profile_csv(profile, profile_path)
    fit_path = out / "peak_fit.json"
    save_fit_json(fit, fit_path)
    manifest.add_output(profile_path)
    manifest.add_output(fit_path)

    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    kspace_plot = plots / "kspace_signal.csv"
    write_csv(kspace_plot, ["k_per_nm", "signal"], record.k_values, record.signals)
    spec_path = plots / "plot_spec.json"
    write_json(
        spec_path,
        {
            "plots": [
                {
                    "file": kspace_plot.name,
                    "x": "k_per_nm",
                    "y": "signal",
                    "xlabel": "K (1/nm)",
                    "ylabel": "normalized echo signal",
                    "title": "K-space record",
                },
                {
                    "file": f"../{profile_path.name}",
                    "x": "x_nm",
                    "y": "amplitude",
                    "xlabel": "x (nm)",
                    "ylabel": "amplitude",
                    "title": "real-space localization",
                },
            ]
        },
    )
    for p in (kspace_plot, spec_path):
        manifest.add_output(p)

    derived = {
        "center_nm": fit.center_nm,
        "fwhm_nm": fit.fwhm_nm,
        "pixel_nm": pixel,
        "fwhm_over_pixel": resolution["fwhm_over_pixel"],
        "window": window,
        "zero_pad_factor": zpf,
    }
    manifest.derived["reconstruction"] = derived
    _say(
        args,
        f"peak center = {fit.center_nm:.4f} nm, FWHM = {fit.fwhm_nm:.4f} nm, "
        f"pixel = {pixel:.4f} nm, FWHM/pixel = {resolution['fwhm_over_pixel']:.3f}",
    )
    return derived


def stage_sensitivity(cfg: RunConfig, out: Path, manifest: Manifest, args, **overrides) -> dict:
    def pick(key, fallback):
        value = overrides.get(key)
        return fallback if value is None else value

    alpha = pick("alpha", cfg.nv.contrast_alpha)
    beta = pick("beta", cfg.nv.yield_beta)
    sigma_s = pick("sigma_s", cfg.sigma_s)
    evolution = pick("evolution_time_us", cfg.plan.sequence.total_time_us)
    n_averages = pick("n_averages", cfg.plan.shots_per_point)
    report = full_sensitivity_report(
        alpha, beta, sigma_s, evolution, n_averages, cfg.time_convention
    )
    doc = to_plain(report)
    path = out / "sensitivity.json"
    write_json(path, doc)
    manifest.add_output(path)
    manifest.derived["sensitivity"] = {
        "eta_ut_per_sqrt_hz": report.eta_ut_per_sqrt_hz,
        "deviation_nt": report.deviation_nt,
    }
    _say(
        args,
        f"eta = {report.eta_ut_per_sqrt_hz:.4f} uT/sqrt(Hz), "
        f"deviation after {n_averages} averages = {report.deviation_nt:.3f} nT",
    )
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    manifest = Manifest(cfg)
    samples = args.samples or cfg.calibration_csv
    if not samples:
        raise MissingCalibrationError("no samples CSV: pass --samples or set calibration_csv")
    with manifest.stage("calibrate"):
        stage_calibrate(cfg, samples, out, manifest, args)
    manifest.write(out / "manifest.json")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    manifest = Manifest(cfg)
    with manifest.stage("simulate"):
        stage_simulate(cfg, None, out, manifest, args)
    manifest.write(out / "manifest.json")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    manifest = Manifest(cfg)
    record_path = args.record or (out / "record.csv")
    with manifest.stage("reconstruct"):
        stage_reconstruct(
            cfg, record_path, out, manifest, args,
            window=args.window, zero_pad_factor=args.zero_pad,
        )
    manifest.write(out / "manifest.json")
    return 0


def cmd_fit_cosine(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    manifest = Manifest(cfg)
    record_path = args.record or (out / "record.csv")
    with manifest.stage("fit-cosine"):
        record = load_record(record_path)
        fit = fit_cosine(record)
        path = out / "cosine_fit.json"
        save_fit_json(fit, path)
        manifest.add_output(path)
        manifest.derived["cosine_fit"] = {
            "frequency_per_ma": fit.frequency_per_ma,
            "implied_position_nm": fit.implied_position_nm,
        }
        _say(
            args,
            f"cosine frequency = {fit.frequency_per_ma:.5f} /mA, "
            f"implied position = {fit.implied_position_nm:.3f} nm",
        )
    manifest.write(out / "manifest.json")
    return 0


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    manifest = Manifest(cfg)
    overrides = {
        "alpha": args.alpha,
        "beta": args.beta,
        "sigma_s": args.sigma_s,
        "evolution_time_us": args.evolution_time_us,
        "n_averages": args.n_averages,
    }
    with manifest.stage("sensitivity"):
        stage_sensitivity(cfg, out, manifest, args, **overrides)
    manifest.write(out / "manifest.json")
    return 0


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    manifest = Manifest(cfg)
    calibrated = None
    if cfg.calibration_csv:
        with manifest.stage("calibrate"):
            calibrated = stage_calibrate(cfg, cfg.calibration_csv, out, manifest, args)
    with manifest.stage("simulate"):
        record_path = stage_simulate(cfg, calibrated, out, manifest, args)
    with manifest.stage("reconstruct"):
        stage_reconstruct(cfg, record_path, out, manifest, args)
    with manifest.stage("sensitivity"):
        stage_sensitivity(cfg, out, manifest, args)
    manifest.write(out / "manifest.json")
    _say(args, f"manifest written to {out / 'manifest.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    # defined on the root parser and again on each subparser (with SUPPRESS
    # defaults) so the flags work both before and after the subcommand
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", help="run configuration YAML", default=default)
    parser.add_argument("--seed", type=int, help="override the plan seed", default=default)
    parser.add_argument("--out", help="output directory", default=default)
    if suppress:
        parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    else:
        parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvfourier",
        description="Fourier magnetic imaging simulator and analysis pipeline",
    )
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit the wire model to a calibration CSV")
    _add_global_options(p, suppress=True)
    p.add_argument("--samples", default=None, help="calibration CSV path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run the K sweep and write the record")
    _add_global_options(p, suppress=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="transform a record and fit the peak")
    _add_global_options(p, suppress=True)
    p.add_argument("--record", default=None, help="record CSV (default <out>/record.csv)")
    p.add_argument("--window", default=None, choices=["none", "hann"])
    p.add_argument("--zero-pad", type=int, default=None, dest="zero_pad")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("fit-cosine", help="cosine-fit a raw record (single-oscillation sweeps)")
    _add_global_options(p, suppress=True)
    p.add_argument("--record", default=None)
    p.set_defaults(func=cmd_fit_cosine)

    p = sub.add_parser("sensitivity", help="compute the sensitivity chain")
    _add_global_options(p, suppress=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--sigma-s", type=float, default=None, dest="sigma_s")
    p.add_argument("--evolution-time-us", type=float, default=None, dest="evolution_time_us")
    p.add_argument("--n-averages", type=int, default=None, dest="n_averages")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("run-all", help="calibrate, simulate, reconstruct and report")
    _add_global_options(p, suppress=True)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NvFourierError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file-not-found: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
