"""Pinned SHA-256 digests of saved records, config hashes and run-all outputs.

Each record case builds a plan from the shipped reference config, runs the sweep,
writes the record with ``save_record`` and hashes the CSV and the sidecar
bytes.  Together the cases cover noiseless and shot-noise sweeps, full,
stride and blocks masks, every drift term under the wire geometry with
modulated and white current noise, and a dense sweep.  A change that moves
any record byte must re-pin these digests and say so in CHANGES.md.

The config hashes pin the canonical config of the minimal test config and of
the shipped reference config, and the run-all digests pin every data file
the reference run writes (the manifest holds timings and is left out).
"""

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import nvfourier as nf
from nvfourier.cli import main
from nvfourier.config import build_config, load_config

from helpers import minimal_config_dict

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"


def _reference_gradient(cfg):
    unit_wire = replace(cfg.wire, current_ma=1.0)
    return nf.gradient_at(unit_wire, cfg.nv.position_um, cfg.nv_axis, cfg.plan.imaging_axis)


def _reference(cfg):
    return cfg.plan, {"gradient_per_ma": _reference_gradient(cfg)}


def _shot_noise(cfg):
    plan = replace(cfg.plan, shot_noise=True, shots_per_point=1000, seed=11)
    return plan, {"gradient_per_ma": _reference_gradient(cfg)}


def _stride(cfg):
    mask = nf.make_undersampling_mask(cfg.plan.n_points, "stride", stride=4)
    plan = replace(cfg.plan, mask=mask, shot_noise=True, shots_per_point=5000, seed=12)
    return plan, {"gradient_per_ma": _reference_gradient(cfg)}


def _blocks(cfg):
    mask = nf.make_undersampling_mask(cfg.plan.n_points, "blocks", blocks=5, block_width=20)
    noise = nf.CurrentNoiseModel(white_sigma=0.002)
    plan = replace(cfg.plan, mask=mask, current_noise=noise, seed=13)
    return plan, {"gradient_per_ma": _reference_gradient(cfg)}


def _drift_wire(cfg):
    drift = nf.DriftModel(
        linear_rate_nm_per_hour=0.004,
        random_walk_sigma_nm_per_sqrt_hour=0.01,
        temperature_coupling_nm_per_k=0.2,
    )
    noise = nf.CurrentNoiseModel(
        relative_amplitude=0.01, modulation_frequency_cycles=3.0, white_sigma=0.001
    )
    plan = replace(
        cfg.plan, drift=drift, current_noise=noise, shot_noise=True, shots_per_point=100_000,
        seed=14,
    )
    return plan, {"wire": cfg.wire, "axis": cfg.nv_axis}


def _dense(cfg):
    plan = replace(cfg.plan, n_points=15_000, mask=())
    return plan, {"gradient_per_ma": _reference_gradient(cfg)}


CASES = {
    "reference": (
        _reference,
        "be42612e0d1b969095eb9598bb4ff29db7fa136437611aed29ead934a5b08b44",
        "800aa1f9cb97b91326d40eb1eafd9ff7df4a2fcc68eafb1bd45ba67561081a50",
    ),
    "shot_noise": (
        _shot_noise,
        "0a0b49868b6e879d06607b6aeda4f47a414006dfa13a89b8f7ca2d207378f817",
        "168ce4ef43adac4af733b63f9c4e1a683a13400240229e70b8b5476a96972c4a",
    ),
    "stride": (
        _stride,
        "f1533d48bff50bd0d19eb7c0d26e5ba40bb01f230ebedcdd06cf10c2f4d78cd3",
        "69fcc8fe228e33147281c1312b9beda972e63b7fa83ac63a7872448ccd4d7409",
    ),
    "blocks": (
        _blocks,
        "638b11ad4c9323184eafd0bd11187ce077eb5ce34db22ba1e1f1cd26c6636653",
        "26fad912cd3208ffbc3e00831112c97f009125c02764904af6446e069b4a546f",
    ),
    "drift_wire": (
        _drift_wire,
        "035fcc66c364b6ed5d80f3153a351a2caaf335fbb9d137b3b0f980966c98fc90",
        "25715ff45fea44af4898650321670d11d294ffcee5dc748649cdf94bdc14feee",
    ),
    "dense_15000": (
        _dense,
        "5cac624d797827d8f5276eaeb789fdad74c5d430f449c60c97e536b16b3fe492",
        "2bddb1a2bff45fbce47d338576bca86b889a6cd35db3d2de57726f43504f07f5",
    ),
}


def record_digests(name, tmp_path):
    build = CASES[name][0]
    cfg = load_config(DEFAULT_CONFIG)
    plan, gradient = build(cfg)
    record = nf.run_sweep(plan, cfg.nv, **gradient)
    csv_path = tmp_path / f"{name}.csv"
    sidecar = nf.save_record(record, csv_path)
    return (
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        hashlib.sha256(sidecar.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_digest(name, tmp_path):
    _, csv_digest, sidecar_digest = CASES[name]
    assert record_digests(name, tmp_path) == (csv_digest, sidecar_digest)


CONFIG_HASHES = {
    "minimal": "20a8998fc6c64292da19d04f4288b5516ff606f0509b7e10f36758ce63c4a5af",
    "default_run": "8e5feee3d75c1de3d1a147f7ab8b8ba4e4234bf6981493e746e8866b6d94fc54",
}

RUN_ALL_DIGESTS = {
    "calibration_report.json": "4d7b57e0d41dad23845c47eddc4e21f477e769c7100922888a856cceb616b96d",
    "peak_fit.json": "4c57bec1395d56d5f81de071cef5bc83e550d5a628cad74c0e84596a5fd75d51",
    "sensitivity.json": "93497aca41e94fa1a62aa839de00282d39c22aabaeb0949c902a38d3db66778d",
    "profile.csv": "cda11afe8afc451184395f629d69af6ba69e4b9cd3cd90f1317797eb6eb9c99f",
    "gradient_curve.csv": "93fad828a1cf08d546102e62d3e121cd4b4869a1fad26a652c6df5ec13a24c98",
    "plots/plot_spec.json": "6fe7be8483d59f3ed34dfa83c86895b79a04a6e676fe47aec7e5c6dedc30889b",
    "plots/kspace_signal.csv": "ed7a3cce2ea0a7e18a5d207355bbc51a897af43b078a05cb2d352de83b264508",
    "record.csv": CASES["reference"][1],
    "record.meta.json": CASES["reference"][2],
}


def test_config_hash_of_minimal_config():
    assert build_config(minimal_config_dict()).config_hash == CONFIG_HASHES["minimal"]


def test_config_hash_of_default_config():
    data = yaml.safe_load(DEFAULT_CONFIG.read_text())
    assert build_config(data).config_hash == CONFIG_HASHES["default_run"]


def test_config_hash_independent_of_checkout_path(tmp_path):
    hashes = []
    for checkout in ("a", "b/c"):
        configs = tmp_path / checkout / "configs"
        shutil.copytree(DEFAULT_CONFIG.parent, configs)
        cfg = load_config(configs / DEFAULT_CONFIG.name)
        assert cfg.calibration_csv == str((configs / "calibration_samples.csv").resolve())
        hashes.append(cfg.config_hash)
    assert hashes == [CONFIG_HASHES["default_run"]] * 2


def test_run_all_output_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in RUN_ALL_DIGESTS
    }
    assert digests == RUN_ALL_DIGESTS
