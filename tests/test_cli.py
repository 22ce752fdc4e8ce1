import json
from pathlib import Path

import pytest
import yaml

from nvfourier.cli import Manifest, main
from nvfourier.config import load_config
from nvfourier.errors import ConfigError, ConfigParseError

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default_run.yaml"


def minimal_config_dict(**overrides):
    data = {
        "nv": {
            # n_points=120 gives a ~26 nm field of view; keep the NV inside it
            "position_um": [0.012, 0.0, 0.0],
            "t2_us": 1200.0,
            "contrast_alpha": 0.08,
            "yield_beta": 0.02,
        },
        "nv_axis": [0.0, 0.0, -1.0],
        "gradient_per_ma_g_per_um": 0.326,
        "sequence": {"total_time_us": 500.0},
        "plan": {"i_max_ma": 10.0, "n_points": 120},
        "imaging": {"origin_um": [0.0, 0.0, 0.0], "axis": [1.0, 0.0, 0.0]},
    }
    data.update(overrides)
    return data


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
        assert (out / "plots" / "plot_spec.json").exists()

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

    def test_negative_seed_override_is_one_line(self, tmp_path, capsys):
        data = minimal_config_dict()
        data["plan"]["shot_noise"] = True
        config = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["validation: seed must be >= 0"]
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
        assert not (tmp_path / "o" / "record.csv").exists()

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
