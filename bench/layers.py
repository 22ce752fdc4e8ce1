"""The traced run: per-layer metrics of every nvfourier layer.

A traced run reports every per-layer metric whatever workload it is given.
The probes use fixed inputs (the reference config, and the workloads built
with PROBE_SEED) so that counts repeat exactly from run to run; the named
workload, built from --seed, only serves to measure trace.overhead_frac:
its operation timed with all wrappers installed over the same operation
without them, minus one.

Timings of the outer layers (sweep, save/load, transform, fits) come from
spans with only those wrappers installed.  Per-point counts and per-call
times of the inner layers (gradient, echo, photon sampling) come from a
second pass that adds the inner wrappers.  All spans are written to
bench/out/spans-<workload>-<seed>.json when the run ends.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from nvfourier import acquisition, config, field_model, metrology, reconstruction, spin_dynamics
from spans import Tracer, median_duration

PROBE_SEED = 20240901
IMPORT_PROBES = 3
CONFIG_LOADS = 20
CALIBRATIONS = 20
SENSITIVITY_REPORTS = 200
SCALING = ((458, 7), (4580, 3), (45800, 1))  # (points, repeats), untraced
PROBE_OPS = {"sweep_dense": 2, "localize_noisy": 8, "analyze_records": 8}
INNER_SWEEPS, INNER_TRIALS = 3, 4
OVERHEAD_SECONDS, OVERHEAD_MIN_PAIRS = 6.0, 3
CLI_OVERHEAD_PAIRS = 2

IMPORT_SNIPPET = (
    "import json, sys, time; t0 = time.perf_counter(); import nvfourier; "
    "print(json.dumps([time.perf_counter() - t0, "
    "sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)]))"
)


def _bytes_written(args, kwargs, sidecar) -> int:
    return Path(args[1]).stat().st_size + Path(sidecar).stat().st_size


def install_outer(tracer: Tracer) -> None:
    tracer.wrap(acquisition, "run_sweep", "acquisition.run_sweep", size=lambda a, k, r: len(r))
    tracer.wrap(acquisition, "save_record", "acquisition.save_record", size=_bytes_written)
    tracer.wrap(acquisition, "load_record", "acquisition.load_record")
    tracer.wrap(
        reconstruction, "fourier_reconstruct", "reconstruction.fourier_reconstruct",
        size=lambda a, k, r: len(r.amplitude),
    )
    for name in ("fit_lorentzian", "fit_cosine", "sideband_analysis", "disambiguate_alias"):
        tracer.wrap(reconstruction, name, f"reconstruction.{name}")
    tracer.wrap_model_evals(reconstruction, "curve_fit", "model_evals")


def install_inner(tracer: Tracer) -> None:
    for name in ("gradient_at", "echo_signal", "sample_counts"):
        module = "field_model" if name == "gradient_at" else "spin_dynamics"
        tracer.wrap(acquisition, name, f"{module}.{name}")
    tracer.wrap_count(acquisition, "sweep_currents", "sweep_currents")
    tracer.wrap_count(spin_dynamics, "signed_half_integrals", "signed_half_integrals")
    tracer.wrap_count(np.random, "default_rng", "rng_streams")


def run_ops(tracer: Tracer, workload, ops: int, inner: bool = False) -> None:
    install_outer(tracer)
    if inner:
        install_inner(tracer)
    try:
        for _ in range(ops):
            workload.check(tracer.call("op", workload.op, (), {}))
    finally:
        tracer.restore()


def per_call(tracer: Tracer, counter: str, span: str) -> float:
    return tracer.counts[f"{span}/{counter}"] / len(tracer.named(span))


def per_point(tracer: Tracer, counter: str) -> float:
    points = sum(s["size"] for s in tracer.named("acquisition.run_sweep"))
    return tracer.counts[f"acquisition.run_sweep/{counter}"] / points


def us_per_point(tracer: Tracer) -> float:
    sweeps = tracer.named("acquisition.run_sweep")
    return sum(s["end"] - s["start"] for s in sweeps) / sum(s["size"] for s in sweeps) * 1e6


def op_shares(tracer: Tracer) -> dict:
    """Self time of each layer as a share of the traced operations."""
    total = sum(tracer.durations("op"))
    return {name: t / total for name, t in sorted(tracer.self_times(root="op").items())}


def import_probe(root: Path) -> tuple[float, int]:
    times, modules = [], set()
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=root, env=workloads.child_env(root),
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, count = json.loads(proc.stdout)
        times.append(seconds)
        modules.add(count)
    if len(modules) != 1:
        raise RuntimeError(f"scipy module count changed between imports: {sorted(modules)}")
    return statistics.median(times), modules.pop()


def cli_session(cli: workloads.CliStages, spans_dir: Path | None):
    """One CLI session; with spans_dir, every call runs under cli_traced.py."""
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    calls = cli.op(spans_dir)
    seconds = time.perf_counter() - t0
    output_bytes = sum(
        entry["bytes"] for _, _, _, _, manifest in calls for entry in json.loads(manifest).get("outputs", [])
    )
    cli.check(calls)
    docs = {}
    if spans_dir is not None:
        docs = {sub: json.loads((spans_dir / f"{sub}.json").read_text()) for sub in workloads.CLI_SESSION}
    return seconds, calls, docs, output_bytes


def calibration_samples(ref: workloads.Reference) -> list:
    """Samples generated from the B = 2I/r field of the configured wire."""
    positions, _, oracle_shifts = workloads.calibration_shifts(ref)
    return [
        field_model.CalibrationSample(position_um=p, delta_f_mhz=shift, sigma_mhz=0.02)
        for p, shift in zip(positions, oracle_shifts)
    ]


def measure_overhead(workload, name: str, work: Path) -> tuple[float, int, list]:
    """Median traced over median untraced time of the named workload's operation, minus one."""
    plain, traced, docs = [], [], []
    if name == "cli_stages":
        for i in range(CLI_OVERHEAD_PAIRS):
            plain.append(cli_session(workload, None)[0])
            seconds, _, session_docs, _ = cli_session(workload, work / f"overhead-{i}")
            traced.append(seconds)
            docs.extend(session_docs.values())
        return statistics.median(traced) / statistics.median(plain) - 1.0, 2 * len(plain), docs
    deadline = time.perf_counter() + OVERHEAD_SECONDS
    while len(plain) < OVERHEAD_MIN_PAIRS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = workload.op()
        plain.append(time.perf_counter() - t0)
        workload.check(result)
        tracer = Tracer()
        install_outer(tracer)
        install_inner(tracer)
        try:
            t0 = time.perf_counter()
            result = workload.op()
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.restore()
        workload.check(result)
    return statistics.median(traced) / statistics.median(plain) - 1.0, 2 * len(plain), docs


def traced_run(name: str, root: Path, seed: int, work: Path):
    metrics: dict[str, tuple[float, str]] = {}
    attempted = 0
    ref = workloads.load_reference(root)

    import_s, scipy_modules = import_probe(root)
    metrics["import.nvfourier_s"] = (import_s, "s")
    metrics["import.scipy_modules"] = (scipy_modules, "count")

    tracer = Tracer()
    for _ in range(CONFIG_LOADS):
        tracer.call("config.load_config", config.load_config, (ref.config_path,), {})
    metrics["config.load_config_s"] = (tracer.median("config.load_config"), "s")

    # the named workload first: for cli_stages its traced sessions also feed the cli metrics
    named = workloads.build(name, root, seed, work / "named")
    named.check(named.op())
    overhead, pairs_ops, cli_docs = measure_overhead(named, name, work / "cli-spans")
    attempted += 1 + pairs_ops

    cli = workloads.CliStages(ref, PROBE_SEED, work / "cli-probe")
    _, calls, docs, output_bytes = cli_session(cli, work / "cli-spans" / "probe")
    attempted += 1
    cli_docs.extend(docs.values())
    cli_spans = [span for doc in cli_docs for span in doc["spans"]]
    for sub, _, _, wall, _ in calls:
        metrics[f"cli.{sub}.wall_s"] = (wall, "s")
    for stage in ("calibrate", "simulate", "reconstruct", "sensitivity"):
        metrics[f"cli.stage_{stage}_s"] = (median_duration(cli_spans, f"cli.stage_{stage}"), "s")
    metrics["cli.manifest_write_s"] = (median_duration(cli_spans, "cli.manifest_write"), "s")
    metrics["cli.output_bytes"] = (output_bytes, "bytes")

    samples = calibration_samples(ref)
    for _ in range(CALIBRATIONS):
        _, report = tracer.call(
            "field_model.calibrate_wire", field_model.calibrate_wire, (samples, ref.cfg.wire, ref.cfg.nv_axis), {}
        )
        if not report.converged:
            raise RuntimeError("calibration on oracle samples did not converge")
    metrics["field_model.calibrate_wire_s"] = (tracer.median("field_model.calibrate_wire"), "s")
    metrics["field_model.calibrate_wire.iterations"] = (report.iterations, "count")

    nv = ref.cfg.nv
    for _ in range(SENSITIVITY_REPORTS):
        tracer.call(
            "metrology.full_sensitivity_report", metrology.full_sensitivity_report,
            (nv.contrast_alpha, nv.yield_beta, ref.cfg.sigma_s, ref.total_time_us, ref.cfg.plan.shots_per_point), {},
        )
    metrics["metrology.full_sensitivity_report_s"] = (tracer.median("metrology.full_sensitivity_report"), "s")

    outer = {}
    for wl_name, ops in PROBE_OPS.items():
        outer[wl_name] = Tracer()
        run_ops(outer[wl_name], workloads.build(wl_name, root, PROBE_SEED, work / f"probe-{wl_name}"), ops)
        attempted += ops
    dense, recon = outer["sweep_dense"], outer["analyze_records"]
    metrics["acquisition.run_sweep.us_per_point"] = (us_per_point(dense), "us")
    metrics["acquisition.save_record_s"] = (dense.median("acquisition.save_record"), "s")
    metrics["acquisition.save_record.bytes"] = (dense.named("acquisition.save_record")[0]["size"], "bytes")
    metrics["acquisition.load_record_s"] = (recon.median("acquisition.load_record"), "s")
    transforms = recon.named("reconstruction.fourier_reconstruct")
    metrics["reconstruction.fourier_reconstruct_s"] = (recon.median("reconstruction.fourier_reconstruct"), "s")
    metrics["reconstruction.fourier_reconstruct.points"] = (
        sum(s["size"] for s in transforms) / len(transforms), "count",
    )
    for fit in ("fit_lorentzian", "fit_cosine"):
        metrics[f"reconstruction.{fit}_s"] = (recon.median(f"reconstruction.{fit}"), "s")
        metrics[f"reconstruction.{fit}.nfev"] = (per_call(recon, "model_evals", f"reconstruction.{fit}"), "count")
    for step in ("sideband_analysis", "disambiguate_alias"):
        metrics[f"reconstruction.{step}_s"] = (recon.median(f"reconstruction.{step}"), "s")

    # inner pass: a noiseless reference sweep, then noisy drifting trials
    sweeps, trials = Tracer(), Tracer()
    run_ops(sweeps, workloads.ScalingSweep(ref, ref.cfg.plan.n_points), INNER_SWEEPS, inner=True)
    run_ops(trials, workloads.build("localize_noisy", root, PROBE_SEED, work / "inner"), INNER_TRIALS, inner=True)
    attempted += INNER_SWEEPS + INNER_TRIALS
    metrics["spin_dynamics.signed_half_integrals.calls_per_point"] = (per_point(sweeps, "signed_half_integrals"), "1/point")
    metrics["spin_dynamics.echo_signal.us_per_call"] = (sweeps.median("spin_dynamics.echo_signal") * 1e6, "us")
    metrics["acquisition.sweep_currents.calls_per_sweep"] = (
        sweeps.counts["acquisition.run_sweep/sweep_currents"] / INNER_SWEEPS, "count",
    )
    metrics["acquisition.rng_streams_per_point.noiseless"] = (per_point(sweeps, "rng_streams"), "1/point")
    metrics["acquisition.rng_streams_per_point"] = (per_point(trials, "rng_streams"), "1/point")
    metrics["field_model.gradient_at.calls_per_point"] = (
        len(trials.named("field_model.gradient_at")) / sum(s["size"] for s in trials.named("acquisition.run_sweep")),
        "1/point",
    )
    metrics["field_model.gradient_at.us_per_call"] = (trials.median("field_model.gradient_at") * 1e6, "us")
    metrics["spin_dynamics.sample_counts.us_per_call"] = (trials.median("spin_dynamics.sample_counts") * 1e6, "us")

    for points, repeats in SCALING:
        sweep = workloads.ScalingSweep(ref, points)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = sweep.op()
            times.append(time.perf_counter() - t0)
            sweep.check(result)
        attempted += repeats
        metrics[f"acquisition.run_sweep.us_per_point.n{points}"] = (statistics.median(times) / points * 1e6, "us")

    metrics["trace.overhead_frac"] = (overhead, "ratio")

    probes = {**outer, "sweep_inner": sweeps, "localize_inner": trials}
    doc = {
        "workload": name,
        "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "op_self_time_shares": {k: op_shares(t) for k, t in probes.items()},
        "probes": {**{k: t.to_dict() for k, t in probes.items()}, "misc": tracer.to_dict()},
        "cli": cli_docs,
    }
    path = root / "bench" / "out" / f"spans-{name}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return True, attempted, 0, metrics
