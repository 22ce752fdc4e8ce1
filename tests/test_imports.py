"""The import boundary: no command loads scipy, and no session that
reconstructs loads numpy.ma.

Each check runs in a fresh interpreter, since a module imported anywhere in
the test session stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"

COUNT_SCIPY = "sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
HAS_NUMPY_MA = "'numpy.ma' in sys.modules"


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


def cli_code(out: Path, *subcommands: str, probe: str = COUNT_SCIPY) -> str:
    calls = "".join(
        f"rcs.append(main([{sub!r}, '--config', {str(DEFAULT_CONFIG)!r}, "
        f"'--out', {str(out)!r}, '--quiet']))\n"
        for sub in subcommands
    )
    return f"from nvfourier.cli import main\nrcs = []\n{calls}print(json.dumps([rcs, {probe}]))"


def test_package_import_loads_no_scipy():
    assert run_fresh(f"import nvfourier\nprint(json.dumps({COUNT_SCIPY}))") == 0


@pytest.mark.parametrize(
    "subcommand", ["calibrate", "simulate", "reconstruct", "fit-cosine", "sensitivity", "run-all"]
)
def test_subcommand_loads_no_scipy(tmp_path, subcommand):
    # reconstruct and fit-cosine read the record that simulate writes
    session = (subcommand,)
    if subcommand in ("reconstruct", "fit-cosine"):
        session = ("simulate", subcommand)
    rcs, scipy_modules = run_fresh(cli_code(tmp_path, *session))
    assert rcs == [0] * len(session)
    assert scipy_modules == 0


@pytest.mark.parametrize("session", [("run-all",), ("simulate", "reconstruct")])
def test_session_loads_no_numpy_ma(tmp_path, session):
    # np.median's NaN check imports numpy.ma: about 15 ms and 1.3 MiB
    rcs, has_numpy_ma = run_fresh(cli_code(tmp_path, *session, probe=HAS_NUMPY_MA))
    assert rcs == [0] * len(session)
    assert has_numpy_ma is False

