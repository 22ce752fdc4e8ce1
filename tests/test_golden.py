"""Pinned SHA-256 digests of saved records.

Each case builds a plan from the shipped reference config, runs the sweep,
writes the record with ``save_record`` and hashes the CSV and the sidecar
bytes.  Together the cases cover noiseless and shot-noise sweeps, full,
stride and blocks masks, every drift term under the wire geometry with
modulated and white current noise, and a dense sweep.  A change that moves
any record byte must re-pin these digests and say so in CHANGES.md.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

import nvfourier as nf
from nvfourier.config import load_config

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
