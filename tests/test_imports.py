"""The import boundary: scipy loads only in the stages that transform or fit.

Each check runs in a fresh interpreter, since a module imported anywhere in
the test session stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvfourier as nf
from nvfourier import reconstruction

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"

COUNT_SCIPY = "sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def run_fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        cwd=REPO, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_code(out: Path, *subcommands: str) -> str:
    calls = "".join(
        f"rcs.append(main([{sub!r}, '--config', {str(DEFAULT_CONFIG)!r}, "
        f"'--out', {str(out)!r}, '--quiet']))\n"
        for sub in subcommands
    )
    return f"from nvfourier.cli import main\nrcs = []\n{calls}print(json.dumps([rcs, {COUNT_SCIPY}]))"


def test_package_import_loads_no_scipy():
    assert run_fresh(f"import nvfourier\nprint(json.dumps({COUNT_SCIPY}))") == 0


@pytest.mark.parametrize("subcommand", ["calibrate", "simulate", "sensitivity"])
def test_stage_without_fits_loads_no_scipy(tmp_path, subcommand):
    rcs, scipy_modules = run_fresh(cli_code(tmp_path, subcommand))
    assert rcs == [0]
    assert scipy_modules == 0


def test_reconstruct_loads_scipy(tmp_path):
    rcs, scipy_modules = run_fresh(cli_code(tmp_path, "simulate", "reconstruct"))
    assert rcs == [0, 0]
    assert scipy_modules > 0


def test_fits_look_up_curve_fit_at_call_time(monkeypatch):
    # a wrapper installed on the module attribute sees the fit's model
    # evaluations, as the benchmark's per-layer tracer needs
    evaluations = []
    fit_with = reconstruction.curve_fit

    def counting(model, *args, **kwargs):
        def counted(*a, **k):
            evaluations.append(1)
            return model(*a, **k)

        return fit_with(counted, *args, **kwargs)

    monkeypatch.setattr(reconstruction, "curve_fit", counting)
    x = np.linspace(0.0, 10.0, 101)
    profile = nf.RealSpaceProfile(
        x_grid_nm=x, amplitude=reconstruction.lorentzian(x, 1.0, 5.0, 0.4, 0.0), pixel_size_nm=0.4,
        k_max_per_nm=1.25,
    )
    nf.fit_lorentzian(profile)
    assert len(evaluations) > 0
