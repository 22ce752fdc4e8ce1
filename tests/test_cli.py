import copy
import functools
import json
import math
from pathlib import Path

import pytest
import yaml

from nvfourier import cli, errors
from nvfourier.cli import Manifest, main
from nvfourier.config import _LOADER, key_tree, load_config
from nvfourier.errors import ConfigError, ConfigParseError

from helpers import minimal_config_dict

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"
CALIBRATION_CSV = REPO / "configs" / "calibration_samples.csv"

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
    "plan": {
        **dict.fromkeys(["i_max_ma", "n_points", "shots_per_point", "shot_noise", "seed"]),
        "mask": dict.fromkeys(["strategy", "stride", "blocks", "block_width"]),
    },
    "drift": dict.fromkeys([
        "linear_rate_nm_per_hour", "random_walk_sigma_nm_per_sqrt_hour",
        "temperature_coupling_nm_per_k", "temperature_amplitude_k", "temperature_period_hours",
    ]),
    "current_noise": dict.fromkeys(["relative_amplitude", "modulation_frequency_cycles", "white_sigma"]),
    "imaging": dict.fromkeys(["origin_um", "axis"]),
    "reconstruction": dict.fromkeys(["window", "zero_pad_factor"]),
    "sensitivity": dict.fromkeys(["sigma_s", "time_convention"]),
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

    def test_calibration_csv_opens_absolute_and_hashes_as_written(self):
        cfg = load_config(DEFAULT_CONFIG)
        assert cfg.calibration_csv == str(REPO / "configs" / "calibration_samples.csv")
        assert cfg.resolved["calibration_csv"] == "calibration_samples.csv"

    def test_period_defaults_to_single_lobe(self, tmp_path):
        cfg = load_config(write_config(tmp_path, minimal_config_dict()))
        wf = cfg.plan.waveform_template
        assert wf.period_us == pytest.approx(wf.active_fraction * 500.0, rel=1e-12)


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
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert main(["reconstruct", "--config", str(config), "--out", str(out),
                     "--window", "hann", "--quiet"]) == 0
        hann_manifest = json.loads((out / "manifest.json").read_text())
        assert main(["reconstruct", "--config", str(config), "--out", str(out),
                     "--window", "none", "--quiet"]) == 0
        none_manifest = json.loads((out / "manifest.json").read_text())
        assert hann_manifest["derived"]["reconstruction"]["window"] == "hann"
        assert none_manifest["derived"]["reconstruction"]["window"] == "none"

    def test_huge_zero_pad_flag_is_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_config_dict())
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        rc = main(["reconstruct", "--config", str(config), "--out", str(out),
                   "--zero-pad", "1000000000000", "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation: zero_pad_factor 1000000000000 ")
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
        doc = json.loads((out / "sensitivity.json").read_text())
        assert doc["eta_ut_per_sqrt_hz"] == pytest.approx(0.213, abs=0.001)
        assert doc["deviation_nt"] == pytest.approx(9.53, abs=0.05)

    def test_sensitivity_validation_error(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_config_dict())
        rc = main(["sensitivity", "--config", str(config), "--out", str(tmp_path / "o"),
                   "--alpha", "0.0", "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation:")

    def test_fit_cosine_command(self, tmp_path, capsys):
        data = minimal_config_dict()
        data["sequence"]["total_time_us"] = 80.0
        data["nv"]["position_um"] = [0.100, 0.0, 0.0]
        config = write_config(tmp_path, data)
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert main(["fit-cosine", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "cosine_fit.json").read_text())
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
        data = minimal_config_dict()
        n_points = data["plan"]["n_points"]
        data["plan"]["mask"] = {"strategy": "blocks", "blocks": n_points + 1, "block_width": 1}
        config = write_config(tmp_path, data)
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "config-validation: plan.mask: blocks strategy needs blocks <= n_points"
            f" ({n_points + 1} > {n_points})"
        ]

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
        assert "config" in capsys.readouterr().err.lower()


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

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_um,y_um,z_um,delta_f_MHz,sigma_MHz\n1.0,0.0,0.0,oops,0.02\n")
        rc = main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path / "o"),
                   "--samples", str(bad), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("data-format:") and "row 2" in err

    def test_underdetermined_csv(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text(
            "x_um,y_um,z_um,delta_f_MHz,sigma_MHz\n"
            "1.5,0.0,0.0,3.49,0.02\n2.0,0.0,0.0,2.69,0.02\n"
        )
        rc = main(["calibrate", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path / "o"),
                   "--samples", str(short), "--quiet"])
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
    extra = []
    if kind == "record":
        assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(out), "--quiet"]) == 0
        path = out / "record.csv"
    else:
        path = tmp_path / "samples.csv"
        path.write_text(CALIBRATION_CSV.read_text())
        extra = ["--samples", str(path)]
    lines = path.read_text().splitlines()
    if line is None:
        lines = lines[:1]
    else:
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([command, "--config", str(DEFAULT_CONFIG), "--out", str(out), *extra, "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"data-format: {path}: row {line or 2}: "), err


@pytest.mark.parametrize("case", ["out-is-a-file", "samples-is-a-directory", "config-is-a-directory"])
def test_os_error_is_one_io_error_line(tmp_path, capsys, case):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "out-is-a-file": ["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(a_file)],
        "samples-is-a-directory": ["calibrate", "--config", str(DEFAULT_CONFIG), *out,
                                   "--samples", str(tmp_path)],
        "config-is-a-directory": ["simulate", "--config", str(tmp_path), *out],
    }[case]
    assert main([*argv, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io-error: "), err


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
        assert derived["reconstruction"]["center_nm"] == pytest.approx(30.0, abs=0.11)
        assert 0.22 <= derived["reconstruction"]["fwhm_nm"] <= 0.44
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
        assert [list(s) for s in manifest.stages] == [["name", "seconds"]]
        assert manifest.stages[0]["name"] == "simulate"
        assert manifest.stages[0]["seconds"] >= 0.0


class TestEnvOutputDir(object):
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, minimal_config_dict())
        target = tmp_path / "env_out"
        monkeypatch.setenv("NVFOURIER_OUT", str(target))
        assert main(["simulate", "--config", str(config), "--quiet"]) == 0
        assert (target / "record.csv").exists()
