import copy
import functools
import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from nvfourier import cli, errors
from nvfourier.acquisition import load_record, run_sweep, save_record
from nvfourier.cli import Manifest, main
from nvfourier.config import _LOADER, key_tree, load_config
from nvfourier.errors import ConfigError, ConfigParseError
from nvfourier.field_model import load_calibration_csv

from helpers import block_indices, gapped, minimal_config_dict, save_calibration_csv

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"
CALIBRATION_CSV = REPO / "configs" / "calibration_samples.csv"


def _refuse_constant(name):
    raise ValueError(f"JSON holds the non-finite constant {name}")


def read_strict_json(path):
    """A JSON file's content; NaN and Infinity in it fail the test."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


KNOWN_CODES = {
    cls.code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.NvFourierError)
} | {"file-not-found", "io-error"}

# the keys the config accepted before the schema was derived from the dataclasses
ACCEPTED_KEYS = {
    "nv": dict.fromkeys(["position_um", "t2_us", "stretch_p", "contrast_alpha", "yield_beta"]),
    "nv_axis": None,
    "wire": dict.fromkeys(["anchor_um", "direction", "current_ma", "polarity"]),
    "gradient_per_ma_g_per_um": None,
    "calibration_csv": None,
    "sequence": dict.fromkeys(["total_time_us", "pi_pulse_time_us", "sync_offset_us", "pi_fidelity"]),
    "waveform": dict.fromkeys(["shape", "period_us", "active_fraction", "antisymmetric"]),
    "plan": dict.fromkeys(["i_max_ma", "n_points", "shots_per_point", "shot_noise", "seed"]),
    "drift": dict.fromkeys([
        "linear_rate_nm_per_hour", "random_walk_sigma_nm_per_sqrt_hour",
        "temperature_coupling_nm_per_k", "temperature_amplitude_k", "temperature_period_hours",
    ]),
    "current_noise": dict.fromkeys(["relative_amplitude", "modulation_frequency_cycles", "white_sigma"]),
    "imaging": dict.fromkeys(["origin_um", "axis"]),
    "reconstruction": dict.fromkeys(["window", "zero_pad_factor"]),
    "sensitivity": dict.fromkeys(["sigma_s"]),
    "output_dir": None,
}


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


DEFAULT_DATA = yaml.safe_load(DEFAULT_CONFIG.read_text())
DEFAULT_LEAVES = dict(_leaves(DEFAULT_DATA))
# YAML text of each bad value
BAD_VALUES = ["abc", "true", "1.5", "[1, 2]", ".nan", ".inf", "-.inf", "null"]


def _well_typed(reference, value) -> bool:
    """Whether ``value`` has the type of a numeric or bool leaf whose value in
    default_run.yaml is ``reference`` (null there stands for an optional float)."""
    if isinstance(reference, list):
        return isinstance(value, list) and len(value) == 3
    if reference is None:
        return value is None or type(value) is float and math.isfinite(value)
    return type(value) is type(reference) and (type(value) is not float or math.isfinite(value))


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def calibration_config(tmp_path, samples):
    """A copy of default_run.yaml whose calibration_csv is ``samples``."""
    data = copy.deepcopy(DEFAULT_DATA)
    data["calibration_csv"] = str(samples)
    return write_config(tmp_path, data, "calibrate.yaml")


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, minimal_config_dict()))
        assert cfg.plan.shots_per_point == 1_000_000
        assert cfg.plan.shot_noise is False
        assert cfg.recon_window == "none"
        assert cfg.zero_pad_factor == 4
        assert cfg.resolved["waveform"]["shape"] == "sine"
        # defaults echoed back in the resolved dict
        assert cfg.resolved["sequence"]["pi_pulse_time_us"] == 250.0

    def test_invalid_active_fraction_names_field(self, tmp_path):
        data = minimal_config_dict(waveform={"active_fraction": 1.5})
        with pytest.raises(ConfigError, match="active_fraction"):
            load_config(write_config(tmp_path, data))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        data = minimal_config_dict()
        data["drift"] = {"linear_rate_nm_per_hour": 0.0, "bogus_knob": 1}
        with pytest.raises(ConfigError, match="drift.bogus_knob"):
            load_config(write_config(tmp_path, data))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.yaml")

    def test_yaml_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("nv:\n  t2_us: 12\n bad_indent: {\n")
        with pytest.raises(ConfigParseError, match=r"line \d+"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("nv:\n  t2_us: 12\n bad_indent: {\n", "line 3"),
            ("nv: {t2_us: [1, 2}\n", "line 1"),
            ("nv:\n  t2_us: \x01\n", "position 13"),
        ],
    )
    def test_yaml_parse_error_is_one_line(self, tmp_path, capsys, text, where):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config-parse:") and where in err[0]

    def test_loader_reads_shipped_config_as_pure_python_yaml(self):
        assert yaml.load(DEFAULT_CONFIG.read_text(), Loader=_LOADER) == DEFAULT_DATA

    def test_config_hash_stable(self, tmp_path):
        a = load_config(write_config(tmp_path, minimal_config_dict(), "a.yaml"))
        b = load_config(write_config(tmp_path, minimal_config_dict(), "b.yaml"))
        assert a.config_hash == b.config_hash
        c_dict = minimal_config_dict()
        c_dict["plan"]["seed"] = 777
        c = load_config(write_config(tmp_path, c_dict, "c.yaml"))
        assert c.config_hash != a.config_hash

    def test_default_shipped_config_loads(self):
        cfg = load_config(DEFAULT_CONFIG)
        assert cfg.wire is not None
        assert cfg.calibration_csv.endswith("calibration_samples.csv")

    def test_accepted_keys_unchanged(self):
        assert key_tree() == ACCEPTED_KEYS

    def test_removed_time_convention_key_is_one_config_line(self, tmp_path, capsys):
        data = minimal_config_dict(sensitivity={"sigma_s": 0.06, "time_convention": "total"})
        config = write_config(tmp_path, data)
        assert main(["sensitivity", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config-validation: unknown key 'time_convention' at sensitivity.time_convention"]

    def test_calibration_csv_opens_absolute_and_hashes_as_written(self):
        cfg = load_config(DEFAULT_CONFIG)
        assert cfg.calibration_csv == str(REPO / "configs" / "calibration_samples.csv")
        assert cfg.resolved["calibration_csv"] == "calibration_samples.csv"

    def test_period_defaults_to_single_lobe(self, tmp_path):
        cfg = load_config(write_config(tmp_path, minimal_config_dict()))
        wf = cfg.plan.waveform_template
        assert wf.period_us == pytest.approx(wf.active_fraction * 500.0, rel=1e-12)


# sensitivity.json of default_run.yaml at contrast_alpha 0.5, as written when
# the value could still be given as a command-line flag (--alpha 0.5)
SENSITIVITY_ALPHA_HALF_SHA256 = "4eab2d5cad37b1276d09b13373767f4ae51ec207e40db9ff2ceb16dc3cabb0d5"


class TestCliCommands:
    def test_simulate_then_reconstruct(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "record.csv").exists()
        assert (out / "record.meta.json").exists()
        assert main(["reconstruct", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "FWHM" in captured and "pixel" in captured
        assert (out / "profile.csv").exists()
        fit = json.loads((out / "peak_fit.json").read_text())
        assert fit["center_nm"] == pytest.approx(12.0, abs=0.5)
        plots = out / "plots"
        spec = json.loads((plots / "plot_spec.json").read_text())
        assert not (plots / "profile.csv").exists()
        assert [entry["file"] for entry in spec["plots"]] == ["kspace_signal.csv", "../profile.csv"]
        for entry in spec["plots"]:
            assert (plots / entry["file"]).is_file()

    def test_simulate_determinism_bit_identical(self, tmp_path):
        config = write_config(tmp_path, minimal_config_dict())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(config), "--out", str(out1), "--quiet"]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "record.csv").read_bytes() == (out2 / "record.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        data = minimal_config_dict()
        data["plan"]["shot_noise"] = True
        data["plan"]["shots_per_point"] = 1000
        config = write_config(tmp_path, data)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", str(config), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "99", "--quiet"])
        assert (out1 / "record.csv").read_bytes() != (out2 / "record.csv").read_bytes()

    def test_seed_flag_equals_seed_in_file(self, tmp_path):
        flagged = write_config(tmp_path, minimal_config_dict(), "flagged.yaml")
        data = minimal_config_dict()
        data["plan"]["seed"] = 99
        in_file = write_config(tmp_path, data, "in_file.yaml")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sensitivity", "--config", str(flagged), "--out", str(out1),
                     "--seed", "99", "--quiet"]) == 0
        assert main(["sensitivity", "--config", str(in_file), "--out", str(out2), "--quiet"]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["seed"] == m2["seed"] == 99
        assert m1["config"] == m2["config"]
        assert m1["config_hash"] == m2["config_hash"]

    def test_negative_seed_override_is_one_line(self, tmp_path, capsys):
        data = minimal_config_dict()
        data["plan"]["shot_noise"] = True
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["validation: seed must be >= 0"]
        assert not (out / "record.csv").exists()

    @pytest.mark.parametrize(
        ("section", "key", "value"), [("nv", "yield_beta", 1.0e14), ("plan", "shots_per_point", 1.0e21)]
    )
    def test_poisson_mean_beyond_numpy_limit_is_one_line(self, tmp_path, capsys, section, key, value):
        data = copy.deepcopy(DEFAULT_DATA)
        data["plan"]["shot_noise"] = True
        data[section][key] = value
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation: shot noise needs expected counts x shots per point")
        assert not (out / "record.csv").exists()

    def test_window_option_plumbing(self, tmp_path):
        out = tmp_path / "out"
        data = minimal_config_dict()
        main(["simulate", "--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"])
        hashes, profiles = set(), set()
        for window in ("hann", "none"):
            data["reconstruction"] = {"window": window}
            config = write_config(tmp_path, data, f"{window}.yaml")
            assert main(["reconstruct", "--config", str(config), "--out", str(out), "--quiet"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["reconstruction"]["window"] == window
            hashes.add(manifest["config_hash"])
            profiles.add((out / "profile.csv").read_bytes())
        assert len(hashes) == len(profiles) == 2

    def test_huge_zero_pad_is_one_line(self, tmp_path, capsys):
        data = minimal_config_dict()
        out = tmp_path / "out"
        main(["simulate", "--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"])
        data["reconstruction"] = {"zero_pad_factor": 1000000000000}
        config = write_config(tmp_path, data, "huge.yaml")
        rc = main(["reconstruct", "--config", str(config), "--out", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config-validation: reconstruction: zero_pad_factor 1000000000000 ")
        assert not (out / "profile.csv").exists()

    def test_reconstruct_missing_sidecar(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        (out / "record.meta.json").unlink()
        rc = main(["reconstruct", "--config", str(config), "--out", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("metadata:")

    def test_sensitivity_json_roundtrip(self, tmp_path):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        doc = read_strict_json(out / "sensitivity.json")
        assert doc["eta_ut_per_sqrt_hz"] == pytest.approx(0.213, abs=0.001)
        assert doc["deviation_nt"] == pytest.approx(9.53, abs=0.05)

    def test_sensitivity_validation_error(self, tmp_path, capsys):
        # an input the config refuses is one config-validation line; a result
        # that under- or overflows is one validation line; neither writes
        # sensitivity.json
        for i, (nv, message) in enumerate([
            ({"contrast_alpha": 0.0}, "config-validation: nv: contrast_alpha must be in (0, 1]"),
            ({"contrast_alpha": float("inf")},
             "config-validation: nv: contrast_alpha must be a finite number, got inf"),
            ({"contrast_alpha": 1e-300, "yield_beta": 1e-300},
             "validation: slope_inverse_g must be finite and > 0, got inf"),
            ({"contrast_alpha": 1e-320}, "validation: slope_inverse_g must be finite and > 0, got inf"),
        ]):
            data = minimal_config_dict()
            data["nv"].update(nv)
            config = write_config(tmp_path, data, f"run{i}.yaml")
            out = tmp_path / f"o{i}"
            rc = main(["sensitivity", "--config", str(config), "--out", str(out), "--quiet"])
            assert rc == 1
            assert capsys.readouterr().err.splitlines() == [message]
            assert not (out / "sensitivity.json").exists()

    def test_sensitivity_reads_contrast_from_the_config(self, tmp_path, capsys):
        # the value a flag once set is a config value: refused as one, and
        # hashed with the rest of the config when it is accepted
        data = copy.deepcopy(DEFAULT_DATA)
        data["nv"]["contrast_alpha"] = 5.0
        rc = main(["sensitivity", "--config", str(write_config(tmp_path, data, "bad.yaml")),
                   "--out", str(tmp_path / "bad"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "config-validation: nv: contrast_alpha must be in (0, 1]"
        ]
        data["nv"]["contrast_alpha"] = 0.5
        runs = {}
        for name, config in (("shipped", DEFAULT_CONFIG), ("half", write_config(tmp_path, data))):
            out = tmp_path / name
            assert main(["sensitivity", "--config", str(config), "--out", str(out), "--quiet"]) == 0
            runs[name] = out
        digest = hashlib.sha256((runs["half"] / "sensitivity.json").read_bytes()).hexdigest()
        assert digest == SENSITIVITY_ALPHA_HALF_SHA256
        hashes = {read_strict_json(out / "manifest.json")["config_hash"] for out in runs.values()}
        assert len(hashes) == 2

    def test_fit_cosine_command(self, tmp_path, capsys):
        config, out = _simulated_record(tmp_path, _cosine_config())
        assert main(["fit-cosine", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        doc = read_strict_json(out / "cosine_fit.json")
        assert set(doc) == {
            "model", "amplitude", "offset", "implied_position_nm", "uncertainties", "residual_norm",
        }
        assert set(doc["uncertainties"]) == {"implied_position_nm", "amplitude", "offset"}
        assert doc["implied_position_nm"] == pytest.approx(100.0, rel=1e-6)

    @pytest.mark.parametrize(
        ("section", "key", "value"),
        [
            ("plan", "i_max_ma", float("inf")),
            ("nv", "t2_us", "abc"),
            ("plan", "n_points", "abc"),
            ("waveform", "active_fraction", "abc"),
            ("sensitivity", "sigma_s", "abc"),
            ("reconstruction", "zero_pad_factor", "abc"),
            (None, "gradient_per_ma_g_per_um", "abc"),
            ("sensitivity", "sigma_s", float("inf")),
            ("sensitivity", "sigma_s", float("nan")),
            (None, "gradient_per_ma_g_per_um", float("inf")),
            (None, "gradient_per_ma_g_per_um", float("nan")),
            ("plan", "seed", -1),
            pytest.param("plan", "n_points", float("inf"), id="overflow-n_points"),
            pytest.param("plan", "shots_per_point", float("inf"), id="overflow-shots_per_point"),
            pytest.param("plan", "seed", float("inf"), id="overflow-seed"),
            pytest.param("reconstruction", "zero_pad_factor", float("inf"), id="overflow-zero_pad"),
            pytest.param("wire", "polarity", float("inf"), id="overflow-polarity"),
            pytest.param(None, "calibration_csv", 5, id="type-calibration_csv-int"),
            pytest.param("drift", "linear_rate_nm_per_hour", "abc", id="ufunc-drift-abc"),
            pytest.param("plan", "shot_noise", "false", id="silent-shot_noise-string"),
            pytest.param("waveform", "antisymmetric", "no", id="silent-antisymmetric-string"),
            pytest.param("plan", "n_points", 100.9, id="silent-n_points-fraction"),
            pytest.param("plan", "seed", 1.5, id="silent-seed-fraction"),
            pytest.param("plan", "i_max_ma", True, id="silent-i_max_ma-bool"),
            pytest.param("drift", "linear_rate_nm_per_hour", float("nan"), id="silent-drift-nan"),
            pytest.param("drift", "random_walk_sigma_nm_per_sqrt_hour", float("nan"),
                         id="silent-random_walk-nan"),
            pytest.param("current_noise", "relative_amplitude", float("nan"),
                         id="silent-current_noise-nan"),
            pytest.param("sequence", "sync_offset_us", float("nan"), id="silent-sync_offset-nan"),
            pytest.param("waveform", "period_us", float("inf"), id="silent-period-inf"),
            pytest.param("current_noise", "white_sigma", float("inf"), id="silent-white_sigma-inf"),
            pytest.param("plan", "n_points", 1.0e12, id="huge-n_points"),
            pytest.param("reconstruction", "zero_pad_factor", 1.0e12, id="huge-zero_pad"),
        ],
    )
    def test_non_numeric_or_infinite_value_is_one_config_line(
        self, tmp_path, capsys, section, key, value
    ):
        data = minimal_config_dict()
        (data if section is None else data.setdefault(section, {}))[key] = value
        config = write_config(tmp_path, data)
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config-validation: {section or key}:")
        assert key in err[0]
        assert not (tmp_path / "o" / "record.csv").exists()

    def test_more_blocks_than_points_is_one_config_line(self, tmp_path, capsys):
        # a sweep acquires every point of its ramp: plan.mask is no key
        data = minimal_config_dict()
        n_points = data["plan"]["n_points"]
        data["plan"]["mask"] = {"strategy": "blocks", "blocks": n_points + 1, "block_width": 1}
        config = write_config(tmp_path, data)
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["config-validation: unknown key 'mask' at plan.mask"]

    @pytest.mark.parametrize(
        "mask",
        [
            {"strategy": "stride", "stride": 1000},
            {"strategy": "blocks", "blocks": 1, "block_width": 1},
            {"strategy": "full", "stride": 4},
            {"strategy": "stride", "stride": 4, "blocks": 3},
        ],
        ids=["stride-1000", "one-block-of-one", "full-with-stride", "stride-with-blocks"],
    )
    def test_mask_of_one_point_or_an_unread_key_is_one_config_line(self, tmp_path, capsys, mask):
        # whatever it holds, plan.mask is refused at load, before calibrate
        # or simulate write anything
        data = copy.deepcopy(DEFAULT_DATA)
        data["plan"]["mask"] = mask
        config = write_config(tmp_path, data)
        rc = main(["run-all", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["config-validation: unknown key 'mask' at plan.mask"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("leaf", list(DEFAULT_LEAVES), ids=".".join)
    def test_every_leaf_value_exits_cleanly(self, tmp_path, capsys, leaf):
        """Each bad value on this leaf of default_run.yaml: exit 0, or exit 1
        with one known ``code: message`` line; a wrong-typed or non-finite
        value on a numeric or bool leaf is a config-validation of its section."""
        *sections, key = leaf
        section = ".".join(sections) or key
        reference = DEFAULT_LEAVES[leaf]
        data = copy.deepcopy(DEFAULT_DATA)
        parent = data
        for part in sections:
            parent = parent[part]
        parent[key] = "@value"
        # JSON is YAML: the bad value goes in as YAML text in place of the marker
        template = json.dumps(data)
        config = tmp_path / "run.yaml"
        outcomes = {}
        for text in BAD_VALUES:
            config.write_text(template.replace('"@value"', text))
            rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
            outcomes[text] = (rc, capsys.readouterr().err.splitlines())
        for text, (rc, err) in outcomes.items():
            assert rc == 0 and err == [] or rc == 1 and len(err) == 1, (text, err)
            if rc == 1:
                assert err[0].split(":")[0] in KNOWN_CODES, (text, err)
            value = yaml.safe_load(text)
            if not isinstance(reference, str) and not _well_typed(reference, value):
                assert rc == 1 and err[0].startswith(f"config-validation: {section}:"), (text, err)

    def test_missing_config_flag(self, capsys):
        rc = main(["simulate"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["usage: --config PATH is required"]


class TestCalibrateCommand:
    def test_calibrate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"])
        assert rc == 0
        report = json.loads((out / "calibration_report.json").read_text())
        assert report["converged"] is True
        assert report["gradient_per_ma_g_per_um_at_nv"] == pytest.approx(0.326, rel=1e-4)
        curve = (out / "gradient_curve.csv").read_text().splitlines()
        assert curve[0].startswith("x_um,")
        assert len(curve) == 102

    def test_manifest_residual_rms_is_in_mhz(self, tmp_path):
        # the shipped samples with 0.02 MHz of Gaussian noise on each shift
        rng = np.random.default_rng(3)
        noisy = tmp_path / "noisy.csv"
        save_calibration_csv(noisy, [
            replace(s, delta_f_mhz=s.delta_f_mhz + s.sigma_mhz * rng.standard_normal())
            for s in load_calibration_csv(CALIBRATION_CSV)
        ])
        out = tmp_path / "out"
        rc = main(["calibrate", "--config", str(calibration_config(tmp_path, noisy)), "--out", str(out), "--quiet"])
        assert rc == 0
        residuals = json.loads((out / "calibration_report.json").read_text())["residuals_mhz"]
        rms = json.loads((out / "manifest.json").read_text())["derived"]["calibration"]["residual_rms_mhz"]
        assert 0.0 < rms < 0.1
        assert rms == pytest.approx(math.sqrt(sum(r * r for r in residuals) / len(residuals)), rel=1e-12)

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_um,y_um,z_um,delta_f_MHz,sigma_MHz\n1.0,0.0,0.0,oops,0.02\n")
        config = calibration_config(tmp_path, bad)
        rc = main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("data-format:") and "row 2" in err

    def test_underdetermined_csv(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text(
            "x_um,y_um,z_um,delta_f_MHz,sigma_MHz\n"
            "1.5,0.0,0.0,3.49,0.02\n2.0,0.0,0.0,2.69,0.02\n"
        )
        config = calibration_config(tmp_path, short)
        rc = main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("under-determined:")


# (subcommand, file, file line to change or None to keep only the header,
# column, new cell)
MALFORMED_INPUTS = {
    "record-header-only": ("reconstruct", "record", None, None, None),
    "record-nan-k": ("reconstruct", "record", 5, "k_per_nm", "nan"),
    "record-nan-signal": ("fit-cosine", "record", 5, "signal", "nan"),
    "calibration-nan-shift": ("calibrate", "samples", 3, "delta_f_MHz", "nan"),
    "calibration-inf-sigma": ("calibrate", "samples", 4, "sigma_MHz", "inf"),
    "calibration-negative-sigma": ("calibrate", "samples", 3, "sigma_MHz", "-0.02"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_one_data_format_line(tmp_path, capsys, case):
    command, kind, line, column, cell = MALFORMED_INPUTS[case]
    out = tmp_path / "out"
    config = DEFAULT_CONFIG
    if kind == "record":
        assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        path = out / "record.csv"
    else:
        path = tmp_path / "samples.csv"
        path.write_text(CALIBRATION_CSV.read_text())
        config = calibration_config(tmp_path, path)
    lines = path.read_text().splitlines()
    if line is None:
        lines = lines[:1]
    else:
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([command, "--config", str(config), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"data-format: {path}: row {line or 2}: "), err


# (subcommand, input file that gets a byte no UTF-8 text holds, error code)
NOT_UTF8_INPUTS = {
    "record": ("reconstruct", "out/record.csv", "data-format"),
    "sidecar": ("reconstruct", "out/record.meta.json", "metadata"),
    "config": ("simulate", "calibrate.yaml", "config-parse"),
    "calibration": ("calibrate", "samples.csv", "data-format"),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8_INPUTS))
def test_input_not_utf8_is_one_line(tmp_path, capsys, case):
    command, name, code = NOT_UTF8_INPUTS[case]
    samples = tmp_path / "samples.csv"
    samples.write_text(CALIBRATION_CSV.read_text())
    config = calibration_config(tmp_path, samples)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    rc = main([command, "--config", str(config), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"{code}: {path}: not UTF-8"), err


@pytest.mark.parametrize("case", ["out-is-a-file", "samples-is-a-directory", "config-is-a-directory"])
def test_os_error_is_one_io_error_line(tmp_path, capsys, case):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "out-is-a-file": ["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(a_file)],
        "samples-is-a-directory": ["calibrate", "--config", str(calibration_config(tmp_path, tmp_path)),
                                   *out],
        "config-is-a-directory": ["simulate", "--config", str(tmp_path), *out],
    }[case]
    assert main([*argv, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io-error: "), err


@pytest.mark.parametrize("blocked", ["record.meta.json", "plots/plot_spec.json", "manifest.json"])
def test_output_path_that_is_a_directory_leaves_no_file(tmp_path, capsys, blocked):
    # each output is listed before it is written, so the files written
    # before the blocked one (and, for the manifest, every output) go too
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io-error: "), err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_failed_command_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["reconstruct", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("file-not-found: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", str(DEFAULT_CONFIG), "--seed", "abc"],
        ["simulate", "--config", str(DEFAULT_CONFIG), "--bogus"],
        ["bogus", "--config", str(DEFAULT_CONFIG)],
        ["--config", str(DEFAULT_CONFIG)],
    ],
    ids=["seed-not-int", "unknown-flag", "bad-choice", "no-subcommand"],
)
def test_bad_command_line_is_one_usage_line(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage: "), err
    assert not (tmp_path / "o").exists()


# flags that once set a config value for one command; the config is now
# the only place for these values
DELETED_FLAGS = [
    ["calibrate", "--samples", str(CALIBRATION_CSV)],
    ["reconstruct", "--window", "hann"],
    ["reconstruct", "--zero-pad", "2"],
    ["sensitivity", "--alpha", "5"],
    ["sensitivity", "--beta", "0.1"],
    ["sensitivity", "--sigma-s", "0.1"],
    ["sensitivity", "--evolution-time-us", "100"],
    ["sensitivity", "--n-averages", "10"],
]


@pytest.mark.parametrize("argv", DELETED_FLAGS, ids=lambda argv: argv[1])
def test_deleted_stage_flag_is_one_usage_line(tmp_path, capsys, argv):
    command, *flag = argv
    out = tmp_path / "o"
    assert main([command, "--config", str(DEFAULT_CONFIG), "--out", str(out), *flag]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "simulate", "reconstruct", "fit-cosine", "sensitivity", "run-all"])
def test_help_lists_only_the_session_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    expected = {"--help", "--config", "--seed", "--out", "--quiet"}
    if command in ("reconstruct", "fit-cosine"):
        expected.add("--record")
    assert flags == expected


def test_help_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nvfourier simulate")


def test_simulate_resolves_drifted_gradient_as_run_sweep_does(tmp_path):
    """A drifting config with only a wire: the CLI record is the library's."""
    data = copy.deepcopy(DEFAULT_DATA)
    data["calibration_csv"] = None
    data["drift"].update(linear_rate_nm_per_hour=0.2, random_walk_sigma_nm_per_sqrt_hour=0.5)
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    cfg = load_config(config)
    library = tmp_path / "library.csv"
    side = save_record(run_sweep(cfg.plan, cfg.nv, cfg.wire, cfg.nv_axis, cfg.gradient_per_ma), library)
    assert (out / "record.csv").read_bytes() == library.read_bytes()
    assert (out / "record.meta.json").read_bytes() == side.read_bytes()


def _simulated_record(tmp_path, data):
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return config, out


def _blocks_record(tmp_path):
    """The minimal config's record cut to 4 blocks of 10 sweep points, saved
    over the simulated one."""
    config, out = _simulated_record(tmp_path, minimal_config_dict())
    record = load_record(out / "record.csv")
    save_record(gapped(record, block_indices(len(record), blocks=4, block_width=10)), out / "record.csv")
    return config, out


def _cosine_config():
    data = minimal_config_dict()
    data["sequence"]["total_time_us"] = 80.0
    data["nv"]["position_um"] = [0.100, 0.0, 0.0]
    return data


def test_fit_cosine_reads_only_the_record(tmp_path, capsys):
    # the fit runs on the record's K column: a sidecar with only the grid
    # keys is enough
    config, out = _simulated_record(tmp_path, _cosine_config())
    side = out / "record.meta.json"
    meta = json.loads(side.read_text())
    side.write_text(json.dumps({key: meta[key] for key in ("n_points", "delta_k_per_nm")}))
    assert main(["fit-cosine", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    doc = read_strict_json(out / "cosine_fit.json")
    assert doc["implied_position_nm"] == pytest.approx(100.0, rel=1e-6)


@pytest.mark.parametrize(
    ("key", "value", "message"),
    [
        ("n_points", "abc", "n_points must be a finite number > 0"),
        ("n_points", 119.5, "n_points must be an integer"),
        ("delta_k_per_nm", "x", "delta_k_per_nm must be a finite number > 0"),
        ("delta_k_per_nm", 0.0, "delta_k_per_nm must be a finite number > 0"),
        # a callable value scales the sidecar's own spacing: by 1.5 some K
        # values fall between grid points; by 1e9 every K rounds to index 0
        pytest.param("delta_k_per_nm", lambda dk: 1.5 * dk, "off the sidecar grid", id="k-off-grid"),
        (None, [1, 2], "sidecar must be a JSON object"),
        pytest.param("n_points", 10**400, "n_points must be <= 1000000", id="huge-n_points"),
        pytest.param("delta_k_per_nm", lambda dk: 1e9 * dk, "fall on one sidecar grid index", id="k-one-index"),
    ],
)
def test_bad_k_grid_sidecar_value_is_one_metadata_line(tmp_path, capsys, key, value, message):
    config, out = _blocks_record(tmp_path)
    side = out / "record.meta.json"
    if key is not None:
        meta = json.loads(side.read_text())
        value = {**meta, key: value(meta[key]) if callable(value) else value}
    side.write_text(json.dumps(value))
    rc = main(["reconstruct", "--config", str(config), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("metadata: ") and message in err[0], err
    assert len(err[0].replace(str(out), "")) < 100, err  # a huge sidecar value is not echoed
    assert not (out / "profile.csv").exists()


# profile.csv of the blocks record below, as written when the sidecar still
# held the acquired sweep indices
BLOCKS_PROFILE_SHA256 = "67baa0e15dbfee18895bde8e38a85b466b4e9f5eee19dd21c0dafe072af41395"


def test_blocks_record_reconstructs_without_the_sidecar_mask(tmp_path):
    # the sidecar holds no index list: the K column and the sidecar's grid
    # keys place a gapped record at round(K/delta_k_per_nm)
    config, out = _blocks_record(tmp_path)
    assert "mask" not in read_strict_json(out / "record.meta.json")
    assert main(["reconstruct", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256((out / "profile.csv").read_bytes()).hexdigest() == BLOCKS_PROFILE_SHA256


def _numbers_zeroed(text):
    """JSON text with every SHA-256 digest, number and run of digits in a
    string written as 0, so that only the document's structure is left."""
    return re.sub(r"-?\d[\d.eE+-]*", "0", re.sub(r"[0-9a-f]{64}", "0", text))


def test_sidecar_and_manifest_do_not_grow_with_n_points(tmp_path):
    # the sidecar holds no index list: the two sweeps differ only in the
    # digits of numbers
    sidecars, manifests = [], []
    for n_points in (458, 20_000):
        data = copy.deepcopy(DEFAULT_DATA)
        data["plan"]["n_points"] = n_points
        config = write_config(tmp_path, data, name=f"run{n_points}.yaml")
        out = tmp_path / f"out{n_points}"
        for sub in ("simulate", "sensitivity"):
            assert main([sub, "--config", str(config), "--out", str(out), "--quiet"]) == 0
        sidecars.append((out / "record.meta.json").read_text())
        manifests.append((out / "manifest.json").read_text())
    assert _numbers_zeroed(sidecars[0]) == _numbers_zeroed(sidecars[1])
    assert _numbers_zeroed(manifests[0]) == _numbers_zeroed(manifests[1])
    assert len(sidecars[1]) < 2048


# names on nvfourier.cli that a wrapper can replace: the commands look each
# one up when they call it (the benchmark's traced run wraps exactly these)
LOOKED_UP = (
    "load_config", "stage_calibrate", "stage_simulate", "stage_reconstruct",
    "stage_sensitivity", "Manifest.write", "calibrate_wire", "run_sweep", "save_record",
    "load_record", "fourier_reconstruct", "fit_lorentzian", "full_sensitivity_report",
)


def test_run_all_calls_every_name_through_the_module(tmp_path, monkeypatch):
    called = set()
    for dotted in LOOKED_UP:
        *path, attr = dotted.split(".")
        owner = functools.reduce(getattr, path, cli)
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn, _name=dotted, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    out = tmp_path / "out"
    assert main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"]) == 0
    assert called == set(LOOKED_UP)


class TestRunAll:
    def test_full_pipeline(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["k_max_per_nm"] == pytest.approx(2.2834, rel=5e-3)
        assert derived["field_of_view_nm"] == pytest.approx(457 / (2.0 * derived["k_max_per_nm"]), rel=1e-12)
        assert derived["reconstruction"]["center_nm"] == pytest.approx(30.0, abs=0.11)
        assert 0.22 <= derived["reconstruction"]["fwhm_nm"] <= 0.44
        resolution = derived["reconstruction"]
        assert resolution["fwhm_over_pixel"] == resolution["fwhm_nm"] / resolution["pixel_nm"]
        assert 1.0 <= resolution["fwhm_over_pixel"] <= 2.0
        assert derived["sensitivity"]["deviation_nt"] == pytest.approx(9.53, abs=0.05)
        stage_names = [s["name"] for s in manifest["stages"]]
        assert stage_names == ["calibrate", "simulate", "reconstruct", "sensitivity"]
        inventory = {o["path"] for o in manifest["outputs"]}
        assert any(p.endswith("record.csv") for p in inventory)
        # the config block echoes the calibration path as written in the file
        assert manifest["config"]["calibration_csv"] == "calibration_samples.csv"

    def test_data_files_bit_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out1), "--quiet"]) == 0
        assert main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out2), "--quiet"]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "manifest.json":
                continue  # carries timings and a timestamp
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_manifests_identical_except_timings(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out1), "--quiet"])
        main(["run-all", "--config", str(DEFAULT_CONFIG), "--out", str(out2), "--quiet"])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for m in (m1, m2):
            m.pop("created_utc")
            for stage in m["stages"]:
                stage.pop("seconds")
                stage.pop("cpu_seconds")
            for entry in m["outputs"]:
                entry["path"] = Path(entry["path"]).name
        assert m1 == m2


class TestManifestStage:
    def test_records_only_stages_that_finish(self):
        manifest = Manifest(load_config(DEFAULT_CONFIG))
        with manifest.stage("simulate"):
            pass
        with pytest.raises(ConfigError):
            with manifest.stage("reconstruct"):
                raise ConfigError("stage failed")
        assert [list(s) for s in manifest.stages] == [["name", "seconds", "cpu_seconds"]]
        assert manifest.stages[0]["name"] == "simulate"
        assert manifest.stages[0]["seconds"] >= 0.0
        assert manifest.stages[0]["cpu_seconds"] >= 0.0


class TestManifestMerge:
    def test_simulate_then_reconstruct_lists_both(self, tmp_path):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        for sub in ("simulate", "reconstruct"):
            assert main([sub, "--config", str(config), "--out", str(out), "--quiet"]) == 0
        manifest = read_strict_json(out / "manifest.json")
        assert [stage["name"] for stage in manifest["stages"]] == ["simulate", "reconstruct"]
        listed = {Path(entry["path"]).name: entry for entry in manifest["outputs"]}
        assert {"record.csv", "record.meta.json", "profile.csv", "peak_fit.json"} <= set(listed)
        for entry in manifest["outputs"]:
            assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
        assert {"k_max_per_nm", "field_of_view_nm", "reconstruction"} <= set(manifest["derived"])

    def test_a_rerun_stage_replaces_its_entry(self, tmp_path):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        for sub in ("simulate", "sensitivity", "simulate"):
            assert main([sub, "--config", str(config), "--out", str(out), "--quiet"]) == 0
        manifest = read_strict_json(out / "manifest.json")
        assert [stage["name"] for stage in manifest["stages"]] == ["sensitivity", "simulate"]
        paths = [entry["path"] for entry in manifest["outputs"]]
        assert len(paths) == len(set(paths)) == 3

    def test_another_config_starts_a_fresh_manifest(self, tmp_path):
        out = tmp_path / "out"
        first = write_config(tmp_path, minimal_config_dict(), name="first.yaml")
        assert main(["simulate", "--config", str(first), "--out", str(out), "--quiet"]) == 0
        data = minimal_config_dict()
        data["sensitivity"] = {"sigma_s": 0.05}
        second = write_config(tmp_path, data, name="second.yaml")
        assert main(["sensitivity", "--config", str(second), "--out", str(out), "--quiet"]) == 0
        manifest = read_strict_json(out / "manifest.json")
        assert [stage["name"] for stage in manifest["stages"]] == ["sensitivity"]
        assert [Path(entry["path"]).name for entry in manifest["outputs"]] == ["sensitivity.json"]
        assert set(manifest["derived"]) == {"sensitivity"}

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1, 2]", '{"config_hash": "@hash", "stages": [["simulate"]], "outputs": [], "derived": {}}',
         '{"config_hash": "@hash", "stages": [], "outputs": [{"path": 5}], "derived": {}}'],
        ids=["not-json", "not-an-object", "bad-stage", "bad-output"],
    )
    def test_a_corrupt_manifest_is_replaced(self, tmp_path, capsys, text):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text.replace("@hash", load_config(config).config_hash))
        assert main(["sensitivity", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        manifest = read_strict_json(out / "manifest.json")
        assert [stage["name"] for stage in manifest["stages"]] == ["sensitivity"]


@pytest.mark.parametrize(
    "changes",
    [
        # 13.5 G/um on the shipped 458 points: a 24.2 nm field of view
        {"plan": {"i_max_ma": 41.41}},
        # 16.5 h of 1 nm/h drift moves the NV from 12 nm past the 26 nm field of view
        {"drift": {"linear_rate_nm_per_hour": 1.0}},
    ],
    ids=["paper-gradient-on-458-points", "drift-out-of-view"],
)
def test_sweep_outside_its_field_of_view_is_one_alias_line(tmp_path, capsys, changes):
    data = minimal_config_dict()
    if "plan" in changes:
        data = copy.deepcopy(DEFAULT_DATA) | {"calibration_csv": str(CALIBRATION_CSV)}
    for section, values in changes.items():
        data.setdefault(section, {}).update(values)
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    rc = main(["run-all", "--config", str(config), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("alias-ambiguity: ") and "field of view" in err[0], err
    # the calibrate stage finished before simulate refused; its files go too
    for name in ("record.csv", "manifest.json", "calibration_report.json", "gradient_curve.csv"):
        assert not (out / name).exists(), name


class TestEnvOutputDir(object):
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, minimal_config_dict())
        target = tmp_path / "env_out"
        monkeypatch.setenv("NVFOURIER_OUT", str(target))
        assert main(["simulate", "--config", str(config), "--quiet"]) == 0
        assert (target / "record.csv").exists()
