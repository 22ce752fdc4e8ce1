"""Run configuration: YAML loading, validation and canonical form.

The config file is a nested YAML mapping (see configs/default_run.yaml for
the annotated example).  Each section fills the fields of one dataclass,
named in ``_SECTIONS`` with any key renames; the accepted keys, which of
them are required, their defaults and their types are read from that
dataclass's declaration.  Loading rejects unknown keys with their full path,
holds every leaf to its declared type (``_convert``), and lets the domain
types check their own invariants.  The canonical form of a loaded config
(``RunConfig.resolved``) is serialized from the typed objects, and its
SHA-256 is the run's config hash.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .acquisition import (
    AcquisitionPlan,
    CurrentNoiseModel,
    DriftModel,
    check_n_points,
    make_undersampling_mask,
)
from .errors import ConfigError, ConfigParseError, ValidationError
from .field_model import MicrowireModel, NvAxis
from .metrology import TIME_CONVENTIONS
from .reconstruction import WINDOWS, profile_length
from .serialize import to_plain
from .spin_dynamics import EchoSequence, GradientWaveform, NvCenter


@dataclass(eq=False)
class RunConfig:
    """Fully validated, default-filled run configuration.

    ``calibration_csv`` is the path to open: relative paths in a config file
    are resolved against the file's directory.  The canonical form keeps
    ``calibration_csv_as_written``, so the hash does not depend on where the
    config file sits.
    """

    nv: NvCenter
    nv_axis: NvAxis
    plan: AcquisitionPlan
    wire: MicrowireModel | None = None
    gradient_per_ma: float | None = None
    calibration_csv_as_written: str | None = None
    calibration_csv: str | None = None
    recon_window: str = "none"
    zero_pad_factor: int = 4
    sigma_s: float = 0.06
    time_convention: str = "total"
    output_dir: str = "out"

    def __post_init__(self):
        if self.gradient_per_ma is not None and not self.gradient_per_ma > 0:
            raise ConfigError("gradient_per_ma_g_per_um: must be > 0")
        if self.recon_window not in WINDOWS:
            raise ConfigError(f"reconstruction: window must be one of {WINDOWS}")
        try:
            profile_length(self.plan.n_points, self.zero_pad_factor)
        except ValidationError as exc:
            raise ConfigError(f"reconstruction: {exc}") from exc
        if not self.sigma_s > 0:
            raise ConfigError("sensitivity: sigma_s must be > 0")
        if self.time_convention not in TIME_CONVENTIONS:
            raise ConfigError(f"sensitivity: time_convention must be one of {TIME_CONVENTIONS}")

    @property
    def resolved(self) -> dict:
        """Canonical form: each top-level YAML key with its resolved value."""
        doc = {}
        for section, (_, path, _) in _SECTIONS.items():
            if "." in section:
                continue  # the mask settings are input only: plan's "mask" echoes the indices
            obj = functools.reduce(getattr, path.split("."), self) if path else self
            doc[section] = section_doc(section, obj)
        return doc

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved, sort_keys=True).encode()
        ).hexdigest()


# YAML section -> (the dataclass or function it fills, the attribute path of
# the built object on RunConfig, {YAML key: field}).  None takes every field
# under its own name; a single field name means the top-level YAML value is
# that field.  "plan.mask" is the mapping under plan's "mask" key.
_SECTIONS = {
    "nv": (NvCenter, "nv", None),
    "nv_axis": (NvAxis, "nv_axis", "orientation"),
    "wire": (
        MicrowireModel,
        "wire",
        {"anchor_um": "anchor_point_um", "direction": "direction",
         "current_ma": "current_ma", "polarity": "polarity"},
    ),
    "gradient_per_ma_g_per_um": (RunConfig, "", "gradient_per_ma"),
    "calibration_csv": (RunConfig, "", "calibration_csv_as_written"),
    "sequence": (EchoSequence, "plan.sequence", None),
    "waveform": (GradientWaveform, "plan.waveform_template", None),
    "plan": (
        AcquisitionPlan,
        "plan",
        {key: key for key in ("i_max_ma", "n_points", "shots_per_point", "shot_noise", "seed", "mask")},
    ),
    "plan.mask": (
        make_undersampling_mask,
        None,
        {key: key for key in ("strategy", "stride", "blocks", "block_width")},
    ),
    "drift": (DriftModel, "plan.drift", None),
    "current_noise": (CurrentNoiseModel, "plan.current_noise", None),
    "imaging": (AcquisitionPlan, "plan", {"origin_um": "origin_um", "axis": "imaging_axis"}),
    "reconstruction": (
        RunConfig, "", {"window": "recon_window", "zero_pad_factor": "zero_pad_factor"}
    ),
    "sensitivity": (RunConfig, "", {"sigma_s": "sigma_s", "time_convention": "time_convention"}),
    "output_dir": (RunConfig, "", "output_dir"),
}

_REQUIRED = inspect.Parameter.empty
_MAX_FLOAT = sys.float_info.max


@functools.cache
def _declared(builder) -> dict:
    """Field name -> (type, default) of a dataclass or function; a required
    field's default is ``_REQUIRED``."""
    hints = typing.get_type_hints(builder)
    return {
        name: (hints[name], param.default)
        for name, param in inspect.signature(builder).parameters.items()
    }


def _keys(section: str) -> dict:
    """YAML key -> field name of a mapping section."""
    builder, _, keys = _SECTIONS[section]
    return {name: name for name in _declared(builder)} if keys is None else keys


def key_tree(section: str | None = None) -> dict:
    """The accepted YAML keys: each maps to its own key tree, or None for a leaf."""
    if section is None:
        names = [name for name in _SECTIONS if "." not in name]
        return {name: None if isinstance(_SECTIONS[name][2], str) else key_tree(name) for name in names}
    return {
        key: key_tree(f"{section}.{key}") if f"{section}.{key}" in _SECTIONS else None
        for key in _keys(section)
    }


def _check_keys(data: dict, tree: dict, path: str = "") -> None:
    for key, value in data.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in tree:
            raise ConfigError(f"unknown key '{key}' at {here}")
        if tree[key] is not None and value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected a mapping")
            _check_keys(value, tree[key], here)


def section_doc(section: str, obj):
    """The YAML form of ``obj``, the object a section builds (None stays None)."""
    keys = _SECTIONS[section][2]
    if obj is None:
        return None
    if isinstance(keys, str):
        return to_plain(getattr(obj, keys))
    return {key: to_plain(getattr(obj, name)) for key, name in _keys(section).items()}


def _finite_real(value) -> bool:
    # the bound compares exactly, so a huge int cannot overflow and NaN fails
    return type(value) in (int, float) and -_MAX_FLOAT <= value <= _MAX_FLOAT


def _convert(label: str, value, hint):
    """``value`` held to a field's declared type.

    float: a finite real number, not a bool; int: an integral finite number,
    not a bool; bool: a YAML bool; str: a string; a 3-vector (np.ndarray): a
    list of three finite real numbers, which the dataclass turns into its
    array; ``X | None`` also takes null.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    if hint is float and _finite_real(value):
        return float(value)
    if hint is int and _finite_real(value) and (type(value) is int or value.is_integer()):
        return int(value)
    if hint is bool and type(value) is bool or hint is str and isinstance(value, str):
        return value
    if hint is np.ndarray and isinstance(value, list) and len(value) == 3:
        if all(_finite_real(v) for v in value):
            return [float(v) for v in value]
    kind = {
        float: "a finite number",
        int: "an integer",
        bool: "true or false",
        str: "a string",
        np.ndarray: "a list of 3 finite numbers",
    }[hint]
    raise ConfigError(f"{label} must be {kind}, got {value!r}")


def _values(data: dict, section: str, derived=()) -> dict:
    """Field values of one section, typed, with defaults for absent keys.

    Fields named in ``derived`` may be absent or null (None) whatever their
    declared type: the caller works them out from the other values.  A key
    that is a section of its own is left to that section.
    """
    builder, _, keys = _SECTIONS[section]
    if isinstance(keys, str):  # a top-level leaf
        raw, keys = ({section: data[section]} if section in data else {}), {section: keys}
    else:
        raw = data
        for part in section.split("."):
            raw = raw.get(part) or {}
        keys = {key: name for key, name in _keys(section).items() if f"{section}.{key}" not in _SECTIONS}
    declared = _declared(builder)
    values = {}
    for key, name in keys.items():  # every given value is checked before a missing key
        if key in raw:
            hint = declared[name][0] | None if name in derived else declared[name][0]
            label = f"{section}:" if key == section else f"{section}: {key}"
            values[name] = _convert(label, raw[key], hint)
    for key, name in keys.items():
        if name not in values:
            default = None if name in derived else declared[name][1]
            if default is _REQUIRED:
                raise ConfigError(f"{section}: missing required key {key}")
            values[name] = default
    return values


def _build(section: str, values: dict, builder=None):
    """Construct a section's object (or call ``builder`` on the section's
    values), naming the section in a domain error."""
    try:
        return (builder or _SECTIONS[section][0])(**values)
    except ValidationError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def build_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a raw config mapping and construct the typed RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(data, key_tree())

    nv = _build("nv", _values(data, "nv"))
    nv_axis = _build("nv_axis", _values(data, "nv_axis"))
    wire = None if data.get("wire") is None else _build("wire", _values(data, "wire"))
    sequence = _build("sequence", _values(data, "sequence"))
    waveform = _values(data, "waveform", derived=("period_us",))
    if waveform["period_us"] is None:
        # one half-sine lobe filling the active window of each echo half
        waveform["period_us"] = waveform["active_fraction"] * sequence.total_time_us
    plan = _values(data, "plan")
    _build("plan", {"n_points": plan["n_points"]}, check_n_points)  # before the mask's arrays
    mask = _build("plan.mask", {"n_points": plan["n_points"], **_values(data, "plan.mask")})
    plan = _build(
        "plan",
        {
            **plan,
            **_values(data, "imaging"),
            "sequence": sequence,
            "waveform_template": _build("waveform", waveform),
            "mask": mask,
            "drift": _build("drift", _values(data, "drift")),
            "current_noise": _build("current_noise", _values(data, "current_noise")),
        },
    )

    settings = {}
    for section, (builder, _, _) in _SECTIONS.items():
        if builder is RunConfig:
            settings.update(_values(data, section))
    calibration_csv = settings["calibration_csv_as_written"]
    if calibration_csv is not None and base_dir is not None:
        p = Path(calibration_csv)
        if not p.is_absolute():
            calibration_csv = str((base_dir / p).resolve())
    return RunConfig(
        nv=nv, nv_axis=nv_axis, plan=plan, wire=wire, calibration_csv=calibration_csv, **settings
    )


# libyaml's parser where PyYAML was built with it: the same documents, about
# ten times faster than the pure-Python one
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _yaml_fault(exc: yaml.YAMLError) -> str:
    """`` (line L, column C): problem, context`` of a YAML error on one line,
    in the words of whichever parser raised it."""
    mark = getattr(exc, "problem_mark", None)
    loc = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
    if isinstance(exc, yaml.MarkedYAMLError):
        words = [exc.problem, exc.context]
    else:  # a reader error names a character no YAML may hold, then its offset
        offset = f"at position {exc.position}" if isinstance(exc, yaml.reader.ReaderError) else None
        words = [str(exc).splitlines()[0], offset]
    return f"{loc}: " + ", ".join(word for word in words if word)


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration file."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        data = yaml.load(p.read_text(), Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"{p}: invalid YAML{_yaml_fault(exc)}") from exc
    if data is None:
        raise ConfigError(f"{p}: empty config")
    return build_config(data, base_dir=p.parent)
