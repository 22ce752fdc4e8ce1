"""Command-line pipeline wiring calibration, simulation, reconstruction and
sensitivity into reproducible runs.

Subcommands: calibrate, simulate, reconstruct, fit-cosine, sensitivity,
run-all.  Each command is one session: it loads the config, resolves the
output directory, runs its stages in order and writes the manifest, which a
command that fails does not write.  Every stage takes ``(cfg, out, manifest,
args)`` and reads its own flags from ``args``; a flag that is not given
falls back to the config value.  Every run is reproducible bit-exactly from
(config, seed); the manifest records the config hash, per-stage timings and
a SHA-256 inventory of every output file (timings and timestamps are the
only non-deterministic manifest fields).

The stages and the layer functions they call are attributes of this module,
looked up when called, so a wrapper set on one of these names sees its calls.

Output directory precedence: --out flag, then $NVFOURIER_OUT, then the
config's output_dir.

Errors exit nonzero and print a single machine-parsable line to stderr:
``<code>: <message>``.  A missing file is ``file-not-found``; any other
operating-system error (an output path that is a file, an input that is a
directory, ...) is ``io-error``.
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
    if not args.quiet:
        print(message)


def _flag(args, name: str, config_value):
    """The stage flag ``name`` as given, else the config's value (run-all
    takes no stage flags)."""
    value = getattr(args, name, None)
    return config_value if value is None else value


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
                    "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                    "bytes": p.stat().st_size,
                }
                for p in self.outputs
                if p.exists()
            ],
            "derived": self.derived,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        write_json(path, doc)


@contextmanager
def _session(args):
    """Load the config (with --seed), resolve the output directory and start
    the manifest; write the manifest when the body finishes, not when it
    raises."""
    if not args.config:
        raise NvFourierError("--config PATH is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.plan = replace(cfg.plan, seed=int(args.seed))
    out = Path(args.out or os.environ.get(ENV_OUTPUT_DIR) or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(cfg)
    yield cfg, out, manifest
    manifest.write(out / "manifest.json")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_calibrate(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Fit the wire to the calibration CSV (--samples, else calibration_csv)
    and derive the gradient per mA at the NV."""
    samples_path = _flag(args, "samples", cfg.calibration_csv)
    if not samples_path:
        raise MissingCalibrationError("no samples CSV: pass --samples or set calibration_csv")
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
    positions = np.array([s.position_um for s in samples])
    proj = np.vecdot(positions, e)
    centroid = np.mean(positions, axis=0)
    base = centroid - float(np.dot(centroid, e)) * e
    points = base + np.linspace(proj.min(), proj.max(), 101)[:, None] * e
    curve = sample_field(fitted, points, cfg.nv_axis, e)
    curve_path = out / "gradient_curve.csv"
    write_csv(
        curve_path, ["x_um", "y_um", "z_um", "b_G", "gradient_G_per_um", "delta_f_MHz"],
        *points.T, curve.b_projected_g, curve.gradient_projected_g_per_um, curve.delta_f_mhz,
    )
    manifest.add_output(curve_path)

    residual_rms = float(np.sqrt(report.rss / len(samples)))
    manifest.derived["calibration"] = {
        "gradient_per_ma_g_per_um": float(gradient),
        "converged": report.converged,
        "residual_rms_mhz": residual_rms,
    }
    _say(args, f"calibrated gradient: {gradient:.6f} G/um per mA (converged={report.converged})")


def stage_simulate(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Run the sweep at the gradient per mA at the NV: the one the session's
    calibrate stage derived, else the config's gradient_per_ma_g_per_um,
    else the wire's."""
    calibration = manifest.derived.get("calibration")
    gradient, _ = _resolve_gradient_per_ma(
        cfg.nv, cfg.plan, cfg.wire, cfg.nv_axis,
        cfg.gradient_per_ma if calibration is None else calibration["gradient_per_ma_g_per_um"],
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


def stage_reconstruct(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Transform the record (--record, else <out>/record.csv) with --window
    and --zero-pad (else the config's) and fit the peak."""
    record = load_record(_flag(args, "record", out / "record.csv"))
    window = _flag(args, "window", cfg.recon_window)
    zpf = _flag(args, "zero_pad", cfg.zero_pad_factor)
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

    manifest.derived["reconstruction"] = {
        "center_nm": fit.center_nm,
        "fwhm_nm": fit.fwhm_nm,
        "pixel_nm": pixel,
        "fwhm_over_pixel": resolution["fwhm_over_pixel"],
        "window": window,
        "zero_pad_factor": zpf,
    }
    _say(
        args,
        f"peak center = {fit.center_nm:.4f} nm, FWHM = {fit.fwhm_nm:.4f} nm, "
        f"pixel = {pixel:.4f} nm, FWHM/pixel = {resolution['fwhm_over_pixel']:.3f}",
    )


def stage_fit_cosine(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Cosine-fit the raw record (--record, else <out>/record.csv)."""
    record = load_record(_flag(args, "record", out / "record.csv"))
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


def stage_sensitivity(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """The sensitivity chain from the flags given, else the config's values."""
    n_averages = _flag(args, "n_averages", cfg.plan.shots_per_point)
    report = full_sensitivity_report(
        _flag(args, "alpha", cfg.nv.contrast_alpha),
        _flag(args, "beta", cfg.nv.yield_beta),
        _flag(args, "sigma_s", cfg.sigma_s),
        _flag(args, "evolution_time_us", cfg.plan.sequence.total_time_us),
        n_averages,
        cfg.time_convention,
    )
    path = out / "sensitivity.json"
    write_json(path, to_plain(report))
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_stage(args) -> int:
    """Run the subcommand's one stage, named as the subcommand, in a session."""
    with _session(args) as (cfg, out, manifest), manifest.stage(args.command):
        args.stage(cfg, out, manifest, args)
    return 0


def cmd_run_all(args) -> int:
    """Calibrate when the config names a samples CSV, then simulate at the
    calibrated gradient, reconstruct and report the sensitivity."""
    stages = [("simulate", stage_simulate), ("reconstruct", stage_reconstruct),
              ("sensitivity", stage_sensitivity)]
    with _session(args) as (cfg, out, manifest):
        if cfg.calibration_csv:
            stages.insert(0, ("calibrate", stage_calibrate))
        for name, stage in stages:
            with manifest.stage(name):
                stage(cfg, out, manifest, args)
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
    p.set_defaults(func=cmd_stage, stage=stage_calibrate)

    p = sub.add_parser("simulate", help="run the K sweep and write the record")
    _add_global_options(p, suppress=True)
    p.set_defaults(func=cmd_stage, stage=stage_simulate)

    p = sub.add_parser("reconstruct", help="transform a record and fit the peak")
    _add_global_options(p, suppress=True)
    p.add_argument("--record", default=None, help="record CSV (default <out>/record.csv)")
    p.add_argument("--window", default=None, choices=["none", "hann"])
    p.add_argument("--zero-pad", type=int, default=None, dest="zero_pad")
    p.set_defaults(func=cmd_stage, stage=stage_reconstruct)

    p = sub.add_parser("fit-cosine", help="cosine-fit a raw record (single-oscillation sweeps)")
    _add_global_options(p, suppress=True)
    p.add_argument("--record", default=None)
    p.set_defaults(func=cmd_stage, stage=stage_fit_cosine)

    p = sub.add_parser("sensitivity", help="compute the sensitivity chain")
    _add_global_options(p, suppress=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--sigma-s", type=float, default=None, dest="sigma_s")
    p.add_argument("--evolution-time-us", type=float, default=None, dest="evolution_time_us")
    p.add_argument("--n-averages", type=int, default=None, dest="n_averages")
    p.set_defaults(func=cmd_stage, stage=stage_sensitivity)

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
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
