"""Run configuration: YAML loading, validation and canonical form.

The config file is a nested YAML mapping (see configs/default_run.yaml for
the annotated example).  Loading validates every value through the domain
types, fills documented defaults, rejects unknown keys with their full path,
and produces a canonical dict whose SHA-256 is the run's config hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .acquisition import (
    AcquisitionPlan,
    CurrentNoiseModel,
    DriftModel,
    make_undersampling_mask,
)
from .errors import ConfigError, ConfigParseError, NvFourierError, ValidationError
from .field_model import MicrowireModel, NvAxis
from .spin_dynamics import EchoSequence, GradientWaveform, NvCenter

# the reference demonstration: 2tau = 500 us sweep to K_max = 2.2834 1/nm
# with a calibrated single-lobe sine drive (efficiency w = 2a/pi = 0.50031)
DEFAULT_SINE_ACTIVE_FRACTION = 0.78587993

_SCHEMA = {
    "nv": {
        "position_um": list,
        "t2_us": float,
        "stretch_p": float,
        "contrast_alpha": float,
        "yield_beta": float,
    },
    "nv_axis": list,
    "wire": {
        "anchor_um": list,
        "direction": list,
        "current_ma": float,
        "polarity": int,
    },
    "gradient_per_ma_g_per_um": float,
    "calibration_csv": str,
    "sequence": {
        "total_time_us": float,
        "pi_pulse_time_us": float,
        "sync_offset_us": float,
        "pi_fidelity": float,
    },
    "waveform": {
        "shape": str,
        "period_us": float,
        "active_fraction": float,
        "antisymmetric": bool,
    },
    "plan": {
        "i_max_ma": float,
        "n_points": int,
        "shots_per_point": int,
        "shot_noise": bool,
        "seed": int,
        "mask": {
            "strategy": str,
            "stride": int,
            "blocks": int,
            "block_width": int,
        },
    },
    "drift": {
        "linear_rate_nm_per_hour": float,
        "random_walk_sigma_nm_per_sqrt_hour": float,
        "temperature_coupling_nm_per_k": float,
        "temperature_amplitude_k": float,
        "temperature_period_hours": float,
    },
    "current_noise": {
        "relative_amplitude": float,
        "modulation_frequency_cycles": float,
        "white_sigma": float,
    },
    "imaging": {
        "origin_um": list,
        "axis": list,
    },
    "reconstruction": {
        "window": str,
        "zero_pad_factor": int,
    },
    "sensitivity": {
        "sigma_s": float,
        "time_convention": str,
    },
    "output_dir": str,
}

_DEFAULTS = {
    "nv": {"stretch_p": 1.0},
    "sequence": {"pi_pulse_time_us": None, "sync_offset_us": 0.0, "pi_fidelity": 1.0},
    "waveform": {
        "shape": "sine",
        "period_us": None,
        "active_fraction": DEFAULT_SINE_ACTIVE_FRACTION,
        "antisymmetric": True,
    },
    "plan": {
        "shots_per_point": 1_000_000,
        "shot_noise": False,
        "seed": 20240901,
        "mask": {"strategy": "full"},
    },
    "drift": {},
    "current_noise": {},
    "imaging": {"axis": [1.0, 0.0, 0.0]},
    "reconstruction": {"window": "none", "zero_pad_factor": 4},
    "sensitivity": {"sigma_s": 0.06, "time_convention": "total"},
    "output_dir": "out",
}


def _check_unknown_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' at {here}")
        sub = schema[key]
        if isinstance(sub, dict):
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"expected a mapping at {here}")
            _check_unknown_keys(value, sub, here)


def _merged(section: str, data: dict) -> dict:
    out = dict(_DEFAULTS.get(section, {}))
    out.update(data.get(section) or {})
    return out


@dataclass(eq=False)
class RunConfig:
    """Fully validated, default-filled run configuration."""

    nv: NvCenter
    nv_axis: NvAxis
    wire: MicrowireModel | None
    gradient_per_ma: float | None
    calibration_csv: str | None
    plan: AcquisitionPlan
    recon_window: str
    zero_pad_factor: int
    sigma_s: float
    time_convention: str
    output_dir: str
    resolved: dict

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved, sort_keys=True).encode()
        ).hexdigest()


def _require(section: dict, key: str, where: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"missing required key {where}.{key}")
    return section[key]


def build_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a raw config mapping and construct the typed RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_unknown_keys(data, _SCHEMA)

    def wrap(section: str, fn):
        try:
            return fn()
        except ValidationError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
        except NvFourierError:
            raise
        except (ValueError, TypeError) as exc:  # e.g. float('abc') on a leaf value
            raise ConfigError(f"{section}: {exc}") from exc

    nv_raw = _merged("nv", data)
    nv = wrap(
        "nv",
        lambda: NvCenter(
            position_um=_require(nv_raw, "position_um", "nv"),
            t2_us=float(_require(nv_raw, "t2_us", "nv")),
            contrast_alpha=float(_require(nv_raw, "contrast_alpha", "nv")),
            yield_beta=float(_require(nv_raw, "yield_beta", "nv")),
            stretch_p=float(nv_raw.get("stretch_p", 1.0)),
        ),
    )
    if "nv_axis" not in data or data["nv_axis"] is None:
        raise ConfigError("missing required key nv_axis")
    nv_axis = wrap("nv_axis", lambda: NvAxis(orientation=data["nv_axis"]))

    wire = None
    if data.get("wire") is not None:
        w = data["wire"]
        wire = wrap(
            "wire",
            lambda: MicrowireModel(
                anchor_point_um=_require(w, "anchor_um", "wire"),
                direction=_require(w, "direction", "wire"),
                current_ma=float(_require(w, "current_ma", "wire")),
                polarity=int(w.get("polarity", 1)),
            ),
        )

    gradient_per_ma = data.get("gradient_per_ma_g_per_um")
    if gradient_per_ma is not None:
        gradient_per_ma = wrap("gradient_per_ma_g_per_um", lambda: float(gradient_per_ma))
        if not (math.isfinite(gradient_per_ma) and gradient_per_ma > 0):
            raise ConfigError("gradient_per_ma_g_per_um: must be finite and > 0")

    calibration_csv = data.get("calibration_csv")
    if calibration_csv is not None and base_dir is not None:
        p = Path(calibration_csv)
        if not p.is_absolute():
            calibration_csv = str((base_dir / p).resolve())

    seq_raw = _merged("sequence", data)
    pi_t = seq_raw.get("pi_pulse_time_us")
    sequence = wrap(
        "sequence",
        lambda: EchoSequence(
            total_time_us=float(_require(seq_raw, "total_time_us", "sequence")),
            pi_pulse_time_us=None if pi_t is None else float(pi_t),
            sync_offset_us=float(seq_raw.get("sync_offset_us", 0.0)),
            pi_fidelity=float(seq_raw.get("pi_fidelity", 1.0)),
        ),
    )

    wf_raw = _merged("waveform", data)
    active_fraction = wrap(
        "waveform", lambda: float(wf_raw.get("active_fraction", DEFAULT_SINE_ACTIVE_FRACTION))
    )
    period = wf_raw.get("period_us")
    if period is None:
        # one half-sine lobe filling the active window of each echo half
        period = active_fraction * sequence.total_time_us
    waveform = wrap(
        "waveform",
        lambda: GradientWaveform(
            shape=str(wf_raw.get("shape", "sine")),
            period_us=float(period),
            active_fraction=active_fraction,
            antisymmetric=bool(wf_raw.get("antisymmetric", True)),
        ),
    )

    plan_raw = _merged("plan", data)
    mask_raw = dict(_DEFAULTS["plan"]["mask"])
    mask_raw.update(plan_raw.get("mask") or {})
    n_points = wrap("plan", lambda: int(_require(plan_raw, "n_points", "plan")))
    mask = wrap(
        "plan.mask",
        lambda: make_undersampling_mask(
            n_points,
            strategy=str(mask_raw.get("strategy", "full")),
            stride=mask_raw.get("stride"),
            blocks=mask_raw.get("blocks"),
            block_width=mask_raw.get("block_width"),
        ),
    )

    drift = wrap("drift", lambda: DriftModel(**_merged("drift", data)))
    current_noise = wrap("current_noise", lambda: CurrentNoiseModel(**_merged("current_noise", data)))

    imaging_raw = _merged("imaging", data)
    plan = wrap(
        "plan",
        lambda: AcquisitionPlan(
            i_max_ma=float(_require(plan_raw, "i_max_ma", "plan")),
            n_points=n_points,
            sequence=sequence,
            waveform_template=waveform,
            mask=mask,
            shots_per_point=int(plan_raw.get("shots_per_point", 1_000_000)),
            shot_noise=bool(plan_raw.get("shot_noise", False)),
            seed=int(plan_raw.get("seed", 0)),
            drift=drift,
            current_noise=current_noise,
            origin_um=_require(imaging_raw, "origin_um", "imaging"),
            imaging_axis=imaging_raw.get("axis", [1.0, 0.0, 0.0]),
        ),
    )

    recon_raw = _merged("reconstruction", data)
    recon_window = str(recon_raw.get("window", "none"))
    if recon_window not in ("none", "hann"):
        raise ConfigError("reconstruction.window must be 'none' or 'hann'")
    zero_pad = wrap("reconstruction", lambda: int(recon_raw.get("zero_pad_factor", 4)))
    if zero_pad < 1:
        raise ConfigError("reconstruction.zero_pad_factor must be >= 1")

    sens_raw = _merged("sensitivity", data)
    sigma_s = wrap("sensitivity", lambda: float(sens_raw.get("sigma_s", 0.06)))
    if not (math.isfinite(sigma_s) and sigma_s > 0):
        raise ConfigError("sensitivity: sigma_s must be finite and > 0")
    time_convention = str(sens_raw.get("time_convention", "total"))
    if time_convention not in ("total", "half"):
        raise ConfigError("sensitivity.time_convention must be 'total' or 'half'")

    output_dir = str(data.get("output_dir", _DEFAULTS["output_dir"]))

    resolved = {
        "nv": {
            "position_um": [float(v) for v in nv.position_um],
            "t2_us": nv.t2_us,
            "stretch_p": nv.stretch_p,
            "contrast_alpha": nv.contrast_alpha,
            "yield_beta": nv.yield_beta,
        },
        "nv_axis": [float(v) for v in nv_axis.orientation],
        "wire": None
        if wire is None
        else {
            "anchor_um": [float(v) for v in wire.anchor_point_um],
            "direction": [float(v) for v in wire.direction],
            "current_ma": wire.current_ma,
            "polarity": wire.polarity,
        },
        "gradient_per_ma_g_per_um": gradient_per_ma,
        "calibration_csv": calibration_csv,
        "sequence": {
            "total_time_us": sequence.total_time_us,
            "pi_pulse_time_us": sequence.pi_pulse_time_us,
            "sync_offset_us": sequence.sync_offset_us,
            "pi_fidelity": sequence.pi_fidelity,
        },
        "waveform": {
            "shape": waveform.shape,
            "period_us": waveform.period_us,
            "active_fraction": waveform.active_fraction,
            "antisymmetric": waveform.antisymmetric,
        },
        "plan": {
            "i_max_ma": plan.i_max_ma,
            "n_points": plan.n_points,
            "shots_per_point": plan.shots_per_point,
            "shot_noise": plan.shot_noise,
            "seed": plan.seed,
            "mask": list(plan.mask),
        },
        "drift": {
            "linear_rate_nm_per_hour": drift.linear_rate_nm_per_hour,
            "random_walk_sigma_nm_per_sqrt_hour": drift.random_walk_sigma_nm_per_sqrt_hour,
            "temperature_coupling_nm_per_k": drift.temperature_coupling_nm_per_k,
            "temperature_amplitude_k": drift.temperature_amplitude_k,
            "temperature_period_hours": drift.temperature_period_hours,
        },
        "current_noise": {
            "relative_amplitude": current_noise.relative_amplitude,
            "modulation_frequency_cycles": current_noise.modulation_frequency_cycles,
            "white_sigma": current_noise.white_sigma,
        },
        "imaging": {
            "origin_um": [float(v) for v in plan.origin_um],
            "axis": [float(v) for v in plan.imaging_axis],
        },
        "reconstruction": {"window": recon_window, "zero_pad_factor": zero_pad},
        "sensitivity": {"sigma_s": sigma_s, "time_convention": time_convention},
        "output_dir": output_dir,
    }

    return RunConfig(
        nv=nv,
        nv_axis=nv_axis,
        wire=wire,
        gradient_per_ma=gradient_per_ma,
        calibration_csv=calibration_csv,
        plan=plan,
        recon_window=recon_window,
        zero_pad_factor=zero_pad,
        sigma_s=sigma_s,
        time_convention=time_convention,
        output_dir=output_dir,
        resolved=resolved,
    )


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration file."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        data = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigParseError(f"{p}: invalid YAML{loc}: {exc}") from exc
    if data is None:
        raise ConfigError(f"{p}: empty config")
    return build_config(data, base_dir=p.parent)
