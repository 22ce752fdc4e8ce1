"""Every benchmark check passes on a right answer and fails on a wrong one."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference(ROOT)


def test_close_and_arrays():
    checks.close("x", 1.0 + 1e-10, 1.0, 1e-9)
    with pytest.raises(CheckFailed):
        checks.close("x", 1.0 + 1e-8, 1.0, 1e-9)
    with pytest.raises(CheckFailed):
        checks.close("x", float("nan"), 1.0, 1e-9)
    checks.arrays_close("a", [1.0, 2.0], [1.0, 2.0 + 1e-10], 1e-9)
    with pytest.raises(CheckFailed):
        checks.arrays_close("a", [1.0, 2.0], [1.0, 2.0 + 1e-8], 1e-9)
    with pytest.raises(CheckFailed):
        checks.arrays_close("a", [1.0], [1.0, 2.0], 1e-9)
    with pytest.raises(CheckFailed):
        checks.profile_matches("p", [0.0, 2.0 + 1e-8], [0.0, 2.0])


def test_bit_identical():
    a = np.array([0.1, 0.2])
    checks.bit_identical("a", a.copy(), a)
    with pytest.raises(CheckFailed):
        checks.bit_identical("a", a + np.array([0.0, 2.8e-17]), a)
    with pytest.raises(CheckFailed):
        checks.bit_identical("a", a.astype(np.float32), a)


def test_pixel_checks():
    checks.within_half_pixel("c", 30.1, 30.0, 0.22)
    with pytest.raises(CheckFailed):
        checks.within_half_pixel("c", 30.12, 30.0, 0.22)
    checks.width_in_pixels("w", 0.25, 0.22)
    with pytest.raises(CheckFailed):
        checks.width_in_pixels("w", 0.2, 0.22)
    with pytest.raises(CheckFailed):
        checks.width_in_pixels("w", 0.45, 0.22)


def test_sideband_checks():
    checks.sideband_pair_at("s", [(1.3, 0.2)], 1.31, 0.05)
    with pytest.raises(CheckFailed):
        checks.sideband_pair_at("s", [(1.5, 0.2)], 1.31, 0.05)
    with pytest.raises(CheckFailed):
        checks.sideband_pair_at("s", [], 1.31, 0.05)
    checks.no_sidebands("s", [])
    with pytest.raises(CheckFailed):
        checks.no_sidebands("s", [(1.3, 0.2)])


def test_call_ok():
    checks.call_ok("c", 0, "")
    with pytest.raises(CheckFailed):
        checks.call_ok("c", 1, "")
    with pytest.raises(CheckFailed):
        checks.call_ok("c", 0, "Traceback ...")


def test_manifest_and_digests(tmp_path):
    data = tmp_path / "record.csv"
    data.write_text("k\n1.0\n")
    manifest = {"outputs": [{"path": str(data), "sha256": checks.sha256_file(data)}]}
    checks.manifest_hashes_match("m", json.dumps(manifest))
    digests = checks.data_file_digests(tmp_path)
    (tmp_path / "manifest.json").write_text("{}")
    assert checks.data_file_digests(tmp_path) == digests
    data.write_text("k\n1.5\n")
    with pytest.raises(CheckFailed):
        checks.manifest_hashes_match("m", json.dumps(manifest))
    with pytest.raises(CheckFailed):
        checks.same_digests("d", checks.data_file_digests(tmp_path), digests)
    data.unlink()
    with pytest.raises(CheckFailed):
        checks.manifest_hashes_match("m", json.dumps(manifest))
    with pytest.raises(CheckFailed):
        checks.manifest_hashes_match("m", json.dumps({"outputs": []}))


def test_sweep_checks(ref, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_POINTS", 458)
    sweep = workloads.SweepDense(ref, 1, tmp_path)
    i, record = sweep.op()
    sweep.check((i, record))
    signals = record.signals
    record.signals = signals + 1e-8
    with pytest.raises(CheckFailed, match="closed-form echo"):
        sweep.check((i, record))
    record.signals = signals
    with pytest.raises(CheckFailed, match="closed-form echo"):
        sweep.check(((i + 1) % len(sweep.nvs), record))
    record.k_values = record.k_values * (1 + 1e-9)
    with pytest.raises(CheckFailed, match="K grid"):
        sweep.check((i, record))
    record.k_values = sweep.k.copy()
    lines = sweep.path.read_text().splitlines()
    lines[5] = lines[5][:-1] + ("1" if lines[5][-1] != "1" else "2")
    sweep.path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="save/load"):
        sweep.check((i, record))


def test_localize_checks(ref, tmp_path):
    trials = workloads.LocalizeNoisy(ref, 1, tmp_path)
    i, record, profile, fit = trials.op()
    trials.check((i, record, profile, fit))
    pixel = trials.trials[i][3]
    expected = trials.trials[i][0] + trials.drift_end_nm
    with pytest.raises(CheckFailed, match="centre"):
        trials.check((i, record, profile, dataclasses.replace(fit, center_nm=expected + 0.6 * pixel)))
    errors = record.errors
    record.errors = errors * (1 + 1e-6)
    with pytest.raises(CheckFailed, match="Poisson"):
        trials.check((i, record, profile, fit))
    record.errors = errors
    with pytest.raises(CheckFailed, match="FWHM"):
        trials.check((i, record, profile, dataclasses.replace(fit, fwhm_nm=0.8 * pixel)))
    with pytest.raises(CheckFailed, match="FWHM"):
        trials.check((i, record, profile, dataclasses.replace(fit, fwhm_nm=2.2 * pixel)))


def test_analyze_checks(ref, tmp_path):
    analyze = workloads.AnalyzeRecords(ref, 1, tmp_path)
    profiles, fits, sidebands, cosine, unfolded = analyze.op()
    analyze.check((profiles, fits, sidebands, cosine, unfolded))
    pixel = 1.0 / (2.0 * analyze.k_max)

    def wrong(**changes):
        parts = {"profiles": profiles, "fits": fits, "sidebands": sidebands, "cosine": cosine,
                 "unfolded": unfolded}
        parts.update(changes)
        with pytest.raises(CheckFailed):
            analyze.check(tuple(parts.values()))

    bent = dataclasses.replace(profiles["blocks"])
    bent.amplitude = bent.amplitude * (1 + 1e-8)
    wrong(profiles={**profiles, "blocks": bent})
    shifted = dataclasses.replace(fits["full"], center_nm=fits["full"].center_nm + 0.6 * pixel)
    wrong(fits={**fits, "full": shifted})
    wrong(unfolded=unfolded + 0.6 * pixel)
    wrong(unfolded=2 * float(profiles["stride"].x_grid_nm[-1]) - unfolded)  # mirror replica
    wrong(cosine=dataclasses.replace(cosine, implied_position_nm=cosine.implied_position_nm + 0.6 * pixel))
    wrong(sidebands={**sidebands, "modulated": []})
    wrong(sidebands={**sidebands, "modulated": [(p[0] + pixel, p[1]) for p in sidebands["modulated"]]})
    wrong(sidebands={**sidebands, "full": sidebands["modulated"]})


def test_cli_checks(ref, tmp_path):
    cli = workloads.CliStages(ref, 1, tmp_path)

    def session(**derived_changes):
        cli.out.mkdir(parents=True, exist_ok=True)
        data = cli.out / "record.csv"
        data.write_text(derived_changes.pop("data", "k\n1.0\n"))
        derived = {
            "k_max_per_nm": ref.k_max,
            "reconstruction": {"center_nm": 30.0},
            "sensitivity": {"eta_ut_per_sqrt_hz": cli.eta, "deviation_nt": cli.deviation},
            "calibration": {"gradient_per_ma_g_per_um": ref.gradient_per_ma},
        }
        derived.update(derived_changes)
        manifest = json.dumps(
            {"outputs": [{"path": str(data), "sha256": checks.sha256_file(data)}], "derived": derived}
        )
        return [("run-all", 0, "", 1.0, manifest)]

    cli.check(session())
    for wrong in (
        {"k_max_per_nm": ref.k_max * 1.01},
        {"reconstruction": {"center_nm": 30.0 + 0.6 * ref.pixel_nm}},
        {"sensitivity": {"eta_ut_per_sqrt_hz": cli.eta * 2, "deviation_nt": cli.deviation}},
        {"sensitivity": {"eta_ut_per_sqrt_hz": cli.eta, "deviation_nt": cli.deviation * 1.001}},
        {"calibration": {"gradient_per_ma_g_per_um": ref.gradient_per_ma * 1.001}},
        {"data": "k\n2.0\n"},
    ):
        with pytest.raises(CheckFailed):
            cli.check(session(**wrong))
    calls = session()
    with pytest.raises(CheckFailed):
        cli.check([(calls[0][0], 1, "", 1.0, calls[0][4])])
    calls = session()
    with pytest.raises(CheckFailed):
        cli.check([(calls[0][0], 0, "config-validation: bad", 1.0, calls[0][4])])
