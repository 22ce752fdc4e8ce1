"""Command-line pipeline wiring calibration, simulation, reconstruction and
sensitivity into reproducible runs.

Subcommands: calibrate, simulate, reconstruct, fit-cosine, sensitivity,
run-all; ``COMMANDS`` names the stages each one runs.  Each command is one
session: it loads the config, resolves the output directory, runs its stages
in order and writes the manifest.  A stage lists each output file
(``Manifest.output``) before it writes the file's first byte, so a command
that fails, in a stage or in writing the manifest, removes every file it
listed and leaves no manifest of its own.  Every stage takes ``(cfg, out,
manifest, args)`` and reads every value that shapes its results from
``cfg``; ``args`` gives only the input record (``--record``) and
``--quiet``.  The config file is the one place for those values, so every
run is reproducible bit-exactly from (config, seed); the manifest records
the config hash, per-stage timings and a SHA-256 inventory of every output
file (timings and timestamps are the only non-deterministic manifest
fields).  A command whose directory already holds a manifest of the same
config hash adds to it: the stages it did not run, and the outputs that
still exist, stay.

The stages and the layer functions they call are attributes of this module,
looked up when called, so a wrapper set on one of these names sees its calls.

Output directory precedence: --out flag, then $NVFOURIER_OUT, then the
config's output_dir.

Errors exit nonzero and print a single machine-parsable line to stderr:
``<code>: <message>``.  A bad command line (an unknown flag, a value of the
wrong type or choice, no subcommand, no --config) is ``usage``; a missing file is
``file-not-found``; any other operating-system error (an output path that is
a file, an input that is a directory, ...) is ``io-error``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .acquisition import drift_trajectory, load_record, run_sweep, save_record, sidecar_path
from .config import RunConfig, load_config, section_doc
from .errors import AliasAmbiguityError, MissingCalibrationError, NvFourierError, UsageError
from .field_model import _dot, calibrate_wire, gradient_at, load_calibration_csv, sample_field
from .metrology import full_sensitivity_report
from .reconstruction import (
    fit_cosine,
    fit_lorentzian,
    fourier_reconstruct,
    save_fit_json,
    save_profile_csv,
)
from .serialize import to_plain, write_csv, write_json
from .spin_dynamics import imaging_coordinate_nm

ENV_OUTPUT_DIR = "NVFOURIER_OUT"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


class Manifest:
    """Collects stage timings, output files and derived quantities."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.stages: list[dict] = []
        self.outputs: list[Path] = []
        self.derived: dict = {}

    @contextmanager
    def stage(self, name: str):
        """Time the body in wall-clock and CPU seconds; a stage that raises is not recorded."""
        t0, cpu0 = time.perf_counter(), time.process_time()
        yield
        seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - cpu0
        self.stages.append({"name": name, "seconds": seconds, "cpu_seconds": cpu_seconds})

    def output(self, path) -> Path:
        """List ``path`` as this command's output, before it is written, and return it."""
        path = Path(path)
        self.outputs.append(path)
        return path

    def write(self, path: Path) -> None:
        """Write the manifest to ``path``, merged into the one there when that
        parses and has this config hash: its stages this command did not run,
        its outputs that still exist and its derived values stay, and this
        command's replace those of the same name."""
        config_hash = self.cfg.config_hash
        stages, outputs, derived = _earlier_manifest(path, config_hash) or ([], [], {})
        ran = {stage["name"] for stage in self.stages}
        stages = [stage for stage in stages if stage["name"] not in ran] + self.stages
        written = {p.resolve() for p in self.outputs}
        outputs = [p for p in outputs if p.resolve() not in written] + self.outputs
        doc = {
            "version": __version__,
            "config_hash": config_hash,
            "seed": self.cfg.plan.seed,
            "config": self.cfg.resolved,
            "stages": stages,
            "outputs": [
                {
                    "path": str(p),
                    "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                    "bytes": p.stat().st_size,
                }
                for p in outputs
                if p.is_file()
            ],
            "derived": {**derived, **self.derived},
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        write_json(path, doc)


def _earlier_manifest(path: Path, config_hash: str):
    """The stages, output paths and derived values of the manifest at
    ``path``, or None when there is none, it does not parse as a manifest,
    or it has another config hash."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("config_hash") != config_hash:
        return None
    stages, outputs, derived = doc.get("stages"), doc.get("outputs"), doc.get("derived")
    if not (
        isinstance(stages, list) and all(isinstance(s, dict) and isinstance(s.get("name"), str) for s in stages)
        and isinstance(outputs, list) and all(isinstance(o, dict) and isinstance(o.get("path"), str) for o in outputs)
        and isinstance(derived, dict)
    ):
        return None
    return stages, [Path(o["path"]) for o in outputs], derived


@contextmanager
def _session(args):
    """Load the config (with --seed), resolve the output directory and start
    the manifest, and write it when the body finishes.  When the body or
    the manifest write raises, remove each listed output that is a regular
    file: every output is listed before its first byte is written, so none
    of this command's files stays.  The directory is made by the first file
    written to it."""
    if not args.config:
        raise UsageError("--config PATH is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.plan = replace(cfg.plan, seed=int(args.seed))
    out = Path(args.out or os.environ.get(ENV_OUTPUT_DIR) or cfg.output_dir)
    manifest = Manifest(cfg)
    try:
        yield cfg, out, manifest
        manifest.write(out / "manifest.json")
    except BaseException:
        for path in manifest.outputs:
            if path.is_file():
                path.unlink()
        raise


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_calibrate(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Fit the wire to the calibration CSV and derive the gradient per mA
    at the NV."""
    if not cfg.calibration_csv:
        raise MissingCalibrationError("no samples CSV: set calibration_csv")
    if cfg.wire is None:
        raise MissingCalibrationError("calibrate needs a wire block (initial guess) in the config")
    samples = load_calibration_csv(cfg.calibration_csv)
    fitted, report = calibrate_wire(samples, cfg.wire, cfg.nv_axis)
    unit_wire = replace(fitted, current_ma=fitted.current_ma / cfg.wire.current_ma)
    gradient = gradient_at(unit_wire, cfg.nv.position_um, cfg.nv_axis, cfg.plan.imaging_axis)

    report_doc = to_plain(report)
    report_doc["fitted_wire"] = section_doc("wire", fitted)
    report_doc["gradient_per_ma_g_per_um_at_nv"] = float(gradient)
    write_json(manifest.output(out / "calibration_report.json"), report_doc)

    # predicted field/gradient curve along the imaging axis through the samples
    e = cfg.plan.imaging_axis
    positions = np.array([s.position_um for s in samples])
    proj = _dot(positions.T, e)
    centroid = np.mean(positions, axis=0)
    base = centroid - _dot(centroid, e) * e
    points = base + np.linspace(proj.min(), proj.max(), 101)[:, None] * e
    curve = sample_field(fitted, points, cfg.nv_axis, e)
    write_csv(
        manifest.output(out / "gradient_curve.csv"),
        ["x_um", "y_um", "z_um", "b_G", "gradient_G_per_um", "delta_f_MHz"],
        *points.T, curve.b_projected_g, curve.gradient_projected_g_per_um, curve.delta_f_mhz,
    )

    residual_rms = float(np.sqrt(np.mean(np.square(report.residuals_mhz))))
    manifest.derived["calibration"] = {
        "gradient_per_ma_g_per_um": float(gradient),
        "converged": report.converged,
        "residual_rms_mhz": residual_rms,
    }
    _say(args, f"calibrated gradient: {gradient:.6f} G/um per mA (converged={report.converged})")


def stage_simulate(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Run the sweep at the gradient per mA the session's calibrate stage
    derived, else the config's gradient_per_ma_g_per_um, else the wire's at
    each drifted NV position (run_sweep resolves it)."""
    calibration = manifest.derived.get("calibration")
    gradient = cfg.gradient_per_ma if calibration is None else calibration["gradient_per_ma_g_per_um"]
    record = run_sweep(cfg.plan, cfg.nv, cfg.wire, cfg.nv_axis, gradient)
    # the profile spans x in [0, 1/(2 dK)); a coordinate outside it folds
    # back into it, and the peak lands at a false position
    field_of_view = 1.0 / (2.0 * record.metadata["delta_k_per_nm"])
    plan = cfg.plan
    x_nm = imaging_coordinate_nm(cfg.nv, plan.origin_um, plan.imaging_axis) + drift_trajectory(
        plan.drift, record.t_hours, seed=plan.seed
    )
    if not np.all((x_nm >= 0.0) & (x_nm < field_of_view)):
        raise AliasAmbiguityError(
            f"the NV's imaging coordinate spans [{x_nm.min():.4f}, {x_nm.max():.4f}] nm, outside the "
            f"field of view [0, {field_of_view:.4f}) nm = (n_points - 1)/(2 K_max); raise "
            "plan.n_points or lower plan.i_max_ma"
        )
    record_path = manifest.output(out / "record.csv")
    manifest.output(sidecar_path(record_path))
    save_record(record, record_path)
    manifest.derived["k_max_per_nm"] = record.k_max
    manifest.derived["field_of_view_nm"] = field_of_view
    _say(
        args,
        f"simulated {len(record)} K points up to K_max = {record.k_max:.4f} 1/nm "
        f"(w = {record.metadata['waveform_efficiency']:.4f})",
    )


def stage_reconstruct(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Transform the record (--record, else <out>/record.csv) with the
    config's window and zero-pad factor and fit the peak."""
    record = load_record(args.record or out / "record.csv")
    profile = fourier_reconstruct(record, window=cfg.recon_window, zero_pad_factor=cfg.zero_pad_factor)
    fit = fit_lorentzian(profile)
    pixel = profile.pixel_size_nm
    fwhm_over_pixel = fit.fwhm_nm / pixel

    profile_path = manifest.output(out / "profile.csv")
    save_profile_csv(profile, profile_path)
    save_fit_json(fit, manifest.output(out / "peak_fit.json"))

    kspace_plot = manifest.output(out / "plots" / "kspace_signal.csv")
    write_csv(kspace_plot, ["k_per_nm", "signal"], record.k_values, record.signals)
    write_json(
        manifest.output(out / "plots" / "plot_spec.json"),
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

    manifest.derived["reconstruction"] = {
        "center_nm": fit.center_nm,
        "fwhm_nm": fit.fwhm_nm,
        "pixel_nm": pixel,
        "fwhm_over_pixel": fwhm_over_pixel,
    }
    _say(
        args,
        f"peak center = {fit.center_nm:.4f} nm, FWHM = {fit.fwhm_nm:.4f} nm, "
        f"pixel = {pixel:.4f} nm, FWHM/pixel = {fwhm_over_pixel:.3f}",
    )


def stage_fit_cosine(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """Cosine-fit the raw record (--record, else <out>/record.csv)."""
    record = load_record(args.record or out / "record.csv")
    fit = fit_cosine(record)
    save_fit_json(fit, manifest.output(out / "cosine_fit.json"))
    manifest.derived["cosine_fit"] = {"implied_position_nm": fit.implied_position_nm}
    _say(args, f"implied position = {fit.implied_position_nm:.3f} nm")


def stage_sensitivity(cfg: RunConfig, out: Path, manifest: Manifest, args) -> None:
    """The sensitivity chain at the config's NV, sequence and shot count."""
    report = full_sensitivity_report(
        cfg.nv.contrast_alpha,
        cfg.nv.yield_beta,
        cfg.sigma_s,
        cfg.plan.sequence.total_time_us,
        cfg.plan.shots_per_point,
    )
    write_json(manifest.output(out / "sensitivity.json"), to_plain(report))
    manifest.derived["sensitivity"] = {
        "eta_ut_per_sqrt_hz": report.eta_ut_per_sqrt_hz,
        "deviation_nt": report.deviation_nt,
    }
    _say(
        args,
        f"eta = {report.eta_ut_per_sqrt_hz:.4f} uT/sqrt(Hz), "
        f"deviation after {report.n_averages} averages = {report.deviation_nt:.3f} nT",
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# subcommand: (help, the stages it runs in order, whether it takes --record)
COMMANDS = {
    "calibrate": ("fit the wire model to the config's calibration CSV", ["calibrate"], False),
    "simulate": ("run the K sweep and write the record", ["simulate"], False),
    "reconstruct": ("transform a record and fit the peak", ["reconstruct"], True),
    "fit-cosine": ("cosine-fit a raw record (single-oscillation sweeps)", ["fit-cosine"], True),
    "sensitivity": ("compute the sensitivity chain", ["sensitivity"], False),
    "run-all": ("calibrate, simulate, reconstruct and report",
                ["calibrate", "simulate", "reconstruct", "sensitivity"], False),
}


def run(args) -> int:
    """Run the subcommand's stages in order in one session, each recorded
    under its name.  run-all calibrates only when the config names a
    samples CSV, and then simulates at the calibrated gradient."""
    pipeline = args.command == "run-all"
    with _session(args) as (cfg, out, manifest):
        for name in COMMANDS[args.command][1]:
            if pipeline and name == "calibrate" and not cfg.calibration_csv:
                continue
            with manifest.stage(name):
                globals()["stage_" + name.replace("-", "_")](cfg, out, manifest, args)
    if pipeline:
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


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors as a UsageError, which main prints as one
    line, in place of a usage block and exit 2; subparsers share the class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nvfourier",
        description="Fourier magnetic imaging simulator and analysis pipeline",
    )
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, takes_record) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_global_options(p, suppress=True)
        if takes_record:
            p.add_argument("--record", default=None, help="record CSV (default <out>/record.csv)")
        else:
            p.set_defaults(record=None)
    return parser


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
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
