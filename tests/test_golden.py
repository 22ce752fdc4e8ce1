"""Pinned SHA-256 digests of saved records, config hashes and run-all outputs.

Each record case builds a plan from the shipped reference config, runs the sweep,
writes the record with ``save_record`` and hashes the CSV and the sidecar
bytes.  Together the cases cover noiseless and shot-noise sweeps, every
drift term under the wire geometry with modulated and white current noise,
the same under a tilted geometry, and a dense sweep.  A change that moves
any record byte must re-pin these digests and say so in CHANGES.md.  One
more digest pins ``sample_field`` on a seeded stack of points around the NV
under the tilted geometry.

The config hashes pin the canonical config of the minimal test config and of
the shipped reference config, and the run-all digests pin every data file
the reference run writes (the manifest holds timings and is left out).
"""

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import nvfourier as nf
from nvfourier.cli import main
from nvfourier.config import build_config, load_config
from nvfourier.spin_dynamics import imaging_coordinate_nm

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


# the shipped wire (0, 1, 0), NV axis (0, 0, -1) and imaging axis (-1, 0, 0)
# make most cross-product terms of the field model exact zeros; these do not
TILTED_WIRE_DIRECTION = (0.3, 1.0, 0.2)
TILTED_NV_AXIS = (0.1, -0.2, -1.0)
TILTED_IMAGING_AXIS = (-1.0, 0.1, 0.05)


def _tilted(cfg):
    """The reference wire, NV axis and imaging axis turned off the coordinate axes."""
    wire = replace(cfg.wire, direction=TILTED_WIRE_DIRECTION)
    return wire, nf.NvAxis(TILTED_NV_AXIS), TILTED_IMAGING_AXIS


def _drift_wire_tilted(cfg):
    plan, _ = _drift_wire(cfg)
    wire, axis, imaging_axis = _tilted(cfg)
    return replace(plan, imaging_axis=imaging_axis), {"wire": wire, "axis": axis}


def _dense(cfg):
    plan = replace(cfg.plan, n_points=15_000)
    return plan, {"gradient_per_ma": _reference_gradient(cfg)}


CASES = {
    "reference": (
        _reference,
        "be42612e0d1b969095eb9598bb4ff29db7fa136437611aed29ead934a5b08b44",
        "c79d62c6fa0e893a221815b6ac61776c98ea241b170fc9c3aded5c3bb0657e05",
    ),
    "shot_noise": (
        _shot_noise,
        "1ca94f8a477e0ebb5e294f44809d7d48aad2db4b7dd0961e730d8e8f2eebe01c",
        "03a43cea183c1b1d0ebc55809dca11d8872e6676235d3f53eeb61115b55d3831",
    ),
    "drift_wire": (
        _drift_wire,
        "bd7cbd20ce44a1b0fadc89362659d40e9dd907f2533fa5b5b1986a8e19d4939d",
        "f19df21f1b722ac321aded59724405483d74c5dca474a27f6a1aa0e98619b707",
    ),
    "drift_wire_tilted": (
        _drift_wire_tilted,
        "1ec0c0457382fbd13f5634ee037b30842f1652b9f63e4d4e882713fda76e737b",
        "fb02fe02177ba78924b86203f392159270095f405b207ba669df695e58e50c76",
    ),
    "dense_15000": (
        _dense,
        "5cac624d797827d8f5276eaeb789fdad74c5d430f449c60c97e536b16b3fe492",
        "dfd176873277a851ab7997efa5eba71356e3bb8bc77b94861698b58a1065bd5d",
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


def test_tilted_case_keeps_the_nv_imaged():
    # the wire keeps its polarity because the gradient at the NV stays
    # positive, and the NV stays inside the record's field of view
    cfg = load_config(DEFAULT_CONFIG)
    plan, geometry = _drift_wire_tilted(cfg)
    record = nf.run_sweep(plan, cfg.nv, **geometry)
    x0_nm = imaging_coordinate_nm(cfg.nv, plan.origin_um, plan.imaging_axis)
    assert record.metadata["gradient_per_ma_g_per_um"] > 0
    assert 0 < x0_nm < 1.0 / (2.0 * record.metadata["delta_k_per_nm"])


SAMPLE_FIELD_TILTED_DIGEST = "30b67e6a939a1418c56d96181188e89a0eba4a172e3d5006c0c6bb2cfedb3e03"


def test_sample_field_digest_on_tilted_stack():
    cfg = load_config(DEFAULT_CONFIG)
    wire, axis, imaging_axis = _tilted(cfg)
    points = cfg.nv.position_um + np.random.default_rng(11).uniform(-1.0, 1.0, (1_000, 3))
    sample = nf.sample_field(wire, points, axis, imaging_axis)
    values = (sample.b_projected_g, sample.gradient_projected_g_per_um, sample.delta_f_mhz)
    digest = hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest()
    assert digest == SAMPLE_FIELD_TILTED_DIGEST


CONFIG_HASHES = {
    "minimal": "ea78cfe84ce873ea4aff35c5c5003a7482d7c22e31b653b72ee09e2ae191e25b",
    "default_run": "efc579ca70894c61771559d95e96e733d935267ff8501fdd485c01f65a6bbc16",
}

RUN_ALL_DIGESTS = {
    "calibration_report.json": "49ea0f01f3d55336e5d2fe246fa03759a4823e36995b6e861b4ab5dabcce1cd6",
    "peak_fit.json": "ca4276f4a6deb20c4024763ea19caae07e058ed96d5d9544f1796bc1acb9f45a",
    "sensitivity.json": "ae6aa99d5faa9092292937a4bb4df86aa376f5d13545f42465622efa6c54fced",
    "profile.csv": "40cfe2f78fe0f57ede88a2929a30c317c5d0300a793b821c897dc28af105fed4",
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
