#!/usr/bin/env python3
"""Run one nvfourier CLI command with the benchmark's span wrappers installed.

    python3 bench/cli_traced.py SPANS_JSON SUBCOMMAND [CLI ARGS...]

The wrappers replace names in nvfourier.cli, where the command functions
look them up, so each stage, the manifest write and the layer calls inside
them become spans.  The spans are written to SPANS_JSON when the command
ends; the exit code is the command's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from spans import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from nvfourier import cli, reconstruction

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(cli, "load_config", "config.load_config")
    for stage in ("calibrate", "simulate", "reconstruct", "sensitivity"):
        tracer.wrap(cli, f"stage_{stage}", f"cli.stage_{stage}")
    tracer.wrap(cli.Manifest, "write", "cli.manifest_write")
    tracer.wrap(cli, "calibrate_wire", "field_model.calibrate_wire")
    tracer.wrap(cli, "run_sweep", "acquisition.run_sweep")
    tracer.wrap(cli, "save_record", "acquisition.save_record")
    tracer.wrap(cli, "load_record", "acquisition.load_record")
    tracer.wrap(cli, "fourier_reconstruct", "reconstruction.fourier_reconstruct")
    tracer.wrap(cli, "fit_lorentzian", "reconstruction.fit_lorentzian")
    tracer.wrap(cli, "full_sensitivity_report", "metrology.full_sensitivity_report")
    tracer.wrap_model_evals(reconstruction, "curve_fit", "model_evals")
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(Path(spans_path), {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
