#!/usr/bin/env python3
"""Benchmark of the nvfourier pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it imports nvfourier from ./src).  With
--trace 0 the workload's operations run for S seconds in this one process
(cli_stages runs its CLI calls as child processes, one at a time) and the
last line of output is a JSON object with the end-to-end metrics.  With
--trace 1 the per-layer probes of layers.py run instead.  See README.md.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy is imported, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 170


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, run the warm-up operation, print "ready" and exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import nvfourier from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "nvfourier" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'nvfourier'} not found; run from a source tree")
    sys.path.insert(0, str(src))
    import nvfourier

    if Path(nvfourier.__file__).resolve().parent != (src / "nvfourier").resolve():
        raise SystemExit(f"error: imported nvfourier from {nvfourier.__file__}, not {src}")


def setup_seconds(args) -> float:
    """Wall time of one fresh process from start until it is ready to time its first operation."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=SETUP_PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return elapsed


def measure(args, work: Path):
    import checks
    import workloads

    workload = workloads.build(args.workload, ROOT, args.seed, work)
    workload.check(workload.op())  # untimed warm-up
    if args.setup_probe:
        print("ready", flush=True)
        return None

    durations, attempted, failed, correct = [], 0, 0, True
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except Exception:  # an operation the program failed; keep measuring the rest
            failed += 1
            traceback.print_exc()
            continue
        durations.append(time.perf_counter() - t0)
        try:
            workload.check(result)
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)

    who = resource.RUSAGE_CHILDREN if getattr(workload, "rss_of_children", False) else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_seconds(args) for _ in range(SETUP_PROBES))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(durations) / sum(durations) if durations else 0.0, "1/s"),
        "op_p50_s": (statistics.median(durations) if durations else 0.0, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    import_program()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    work = BENCH_DIR / "out" / f"work-{os.getpid()}"
    try:
        if args.trace:
            import layers

            outcome = layers.traced_run(args.workload, ROOT, args.seed, work)
        else:
            outcome = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        return 0
    correct, attempted, failed, metrics = outcome
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
