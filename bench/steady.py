#!/usr/bin/env python3
"""Steadiness check: run each workload several times and compare the spread with the bounds.

    python3 bench/steady.py [--first-seed 1] [--against FILE]

Every workload of BENCHMARK.json runs RUNS times, each run the command of
BENCHMARK.json with its own seed (first-seed, first-seed + 1, ...), one at
a time.  For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  The raw values go to bench/out/steady-<time>.json; with
--against an earlier such file it also prints how far each median moved in
the metric's worse direction, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None, help="an earlier steady-*.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["runs"] if args.against else {}

    runs: dict[str, list[dict]] = {}
    for name in names:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs[name].append(run_once(spec, name, seed))
            print(f"{name} seed {seed}: {json.dumps(runs[name][-1]['metrics'])}", file=sys.stderr, flush=True)

    worst = 0.0
    print(f"{'workload':16} {'metric':13} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6} "
          f"{'moved':>7}  verdict")
    for name in names:
        shares = {r["failed"] / r["attempted"] for r in runs[name]}
        for metric, m in metrics.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs[name]])
            moved = ""
            verdict = "ok" if stats["spread"] <= m["bound"] else "SPREAD"
            worst = max(worst, stats["spread"] / m["bound"])
            if name in earlier:
                before = statistics.median(r["metrics"][metric]["value"] for r in earlier[name])
                sign = 1.0 if m["better"] == "lower" else -1.0
                change = sign * (stats["median"] - before) / before
                moved = f"{change:+7.3f}"
                if change > m["bound"]:
                    verdict = "MOVED"
            print(f"{name:16} {metric:13} {stats['median']:11.5g} {stats['q1']:11.5g} {stats['q3']:11.5g} "
                  f"{stats['spread']:7.3f} {m['bound']:6.2f} {moved:>7}  {verdict}")
        print(f"{name:16} failed share {sorted(shares)}  correct {all(r['correct'] for r in runs[name])}")
    print(f"largest spread over bound: {worst:.2f}")

    out = ROOT / "bench" / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"first_seed": args.first_seed, "runs": runs}, indent=1) + "\n")
    print(f"raw values: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
