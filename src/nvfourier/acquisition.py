"""K-space sweep planning, execution and disturbance injection.

A sweep holds the evolution time fixed and ramps the gradient-drive current
linearly from 0 to i_max over n_points steps, and acquires every point of
the ramp.  Each sampled current maps to a K value

    K = w * 2 * gamma_cyc * tau * G(I)      (nm^-1)

where w is the waveform's phase-efficiency factor and G(I) the calibrated
projected gradient, linear in I.  Each point is stamped with the wall-clock
time at which it starts (points * shots * sequence time), which is the
schedule on which platform drift acts.

The sweep is evaluated as arrays: the ramp, the current modulation, the
drifted positions, the gradient, the echo phase and the expected signal are
computed once for all points.

Determinism contract: a fixed plan reproduces a record bit-exactly.  Each
noise source draws one stream per sweep, ``np.random.default_rng([seed,
stream id])``.  Shot noise draws one Poisson total per point, in sweep
order, with a single ``poisson`` call on stream ``_STREAM_SHOTS``.  White
current noise draws ``n_points`` normals on stream ``_STREAM_CURRENT``, one
per point.  The drift random walk draws one step per point in sweep order
on stream ``_STREAM_DRIFT``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .constants import GAMMA_CYC_MHZ_PER_G, NM_TO_UM
from .errors import MetadataError, MissingCalibrationError, ValidationError
from .field_model import MicrowireModel, NvAxis, _check_finite, _unit3, _vec3, gradient_at
from .serialize import read_csv, to_plain, write_csv, write_json
from .spin_dynamics import (
    EchoSequence,
    GradientWaveform,
    NvCenter,
    echo_signal,
    imaging_coordinate_nm,
    phase_efficiency,
    phase_from_coordinate,
    sample_counts,
    signal_from_counts,
)

# random stream ids (second entry of the seed sequence)
_STREAM_DRIFT = 1
_STREAM_SHOTS = 2
_STREAM_CURRENT = 3

RECORD_CSV_COLUMNS = ["k_per_nm", "current_mA", "signal", "sigma", "t_hours"]

# 10**6 points at the shipped 10**6 shots of 500 us each is about 16 years of
# acquisition, so a larger sweep is a typo, not an experiment
MAX_N_POINTS = 1_000_000


@dataclass(frozen=True)
class DriftModel:
    """Slow displacement of the NV along the imaging axis (nm).

    offset(t) = linear_rate*t + random-walk(t) + temperature_coupling*dT(t)
    with dT a sinusoidal ambient model of amplitude temperature_amplitude_k.
    """

    linear_rate_nm_per_hour: float = 0.0
    random_walk_sigma_nm_per_sqrt_hour: float = 0.0
    temperature_coupling_nm_per_k: float = 0.0
    temperature_amplitude_k: float = 0.25
    temperature_period_hours: float = 24.0

    def __post_init__(self):
        _check_finite(self, *(f.name for f in fields(self)))
        for name in (
            "random_walk_sigma_nm_per_sqrt_hour",
            "temperature_coupling_nm_per_k",
            "temperature_amplitude_k",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.temperature_period_hours <= 0:
            raise ValidationError("temperature_period_hours must be > 0")


def drift_trajectory(drift: DriftModel, times_hours, seed: int = 0) -> np.ndarray:
    """Offsets (nm) at increasing times, with a consistent random walk."""
    t = np.asarray(times_hours, dtype=float)
    if t.size and (np.any(np.diff(t) < 0) or t[0] < 0):
        raise ValidationError("times must be nonnegative and nondecreasing")
    offsets = drift.linear_rate_nm_per_hour * t
    if drift.random_walk_sigma_nm_per_sqrt_hour > 0.0 and t.size:
        rng = np.random.default_rng([int(seed), _STREAM_DRIFT])
        dt = np.diff(np.concatenate([[0.0], t]))
        steps = rng.standard_normal(t.size) * np.sqrt(dt)
        offsets = offsets + drift.random_walk_sigma_nm_per_sqrt_hour * np.cumsum(steps)
    if drift.temperature_coupling_nm_per_k > 0.0:
        ambient_k = drift.temperature_amplitude_k * np.sin(
            2.0 * np.pi * t / drift.temperature_period_hours
        )
        offsets = offsets + drift.temperature_coupling_nm_per_k * ambient_k
    return np.asarray(offsets, dtype=float)


@dataclass(frozen=True)
class CurrentNoiseModel:
    """Disturbances of the drive current, as fractions of the setpoint."""

    relative_amplitude: float = 0.0
    modulation_frequency_cycles: float = 0.0  # cycles per K sweep
    white_sigma: float = 0.0

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        _check_finite(self, *names)
        for name in names:
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass(frozen=True, eq=False)
class AcquisitionPlan:
    """Everything needed to run (and re-run, bit-exactly) one K sweep."""

    i_max_ma: float
    n_points: int
    sequence: EchoSequence
    waveform_template: GradientWaveform
    shots_per_point: int = 1_000_000
    shot_noise: bool = False
    seed: int = 20240901
    drift: DriftModel = field(default_factory=DriftModel)
    current_noise: CurrentNoiseModel = field(default_factory=CurrentNoiseModel)
    origin_um: np.ndarray = (0.0, 0.0, 0.0)
    imaging_axis: np.ndarray = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.i_max_ma) and self.i_max_ma > 0):
            raise ValidationError("i_max_ma must be finite and > 0")
        if self.n_points < 2:
            raise ValidationError("n_points must be >= 2")
        if self.n_points > MAX_N_POINTS:
            raise ValidationError(f"n_points must be <= {MAX_N_POINTS}")
        if self.shots_per_point < 1:
            raise ValidationError("shots_per_point must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        object.__setattr__(self, "origin_um", _vec3(self.origin_um, "origin_um"))
        object.__setattr__(self, "imaging_axis", _unit3(self.imaging_axis, "imaging_axis"))


def sweep_currents(plan: AcquisitionPlan) -> np.ndarray:
    """Nominal current ramp: i_max * j/(n-1), j = 0..n-1."""
    return np.arange(plan.n_points) * (plan.i_max_ma / (plan.n_points - 1))


def k_per_ma(efficiency: float, tau_us: float, gradient_per_ma: float) -> float:
    """K (nm^-1) per mA of drive current: w * 2 * gamma_cyc * tau * G / 1e3,
    with w the waveform's phase-efficiency factor and G the gradient per mA
    (G/um); the /1e3 turns per-um into per-nm."""
    return efficiency * 2.0 * GAMMA_CYC_MHZ_PER_G * tau_us * gradient_per_ma / 1e3


def point_times_hours(plan: AcquisitionPlan) -> np.ndarray:
    """Wall-clock start time (hours) of each sweep point, in sweep order."""
    dwell_h = plan.shots_per_point * plan.sequence.total_time_us * 1e-6 / 3600.0
    return np.arange(plan.n_points) * dwell_h


@dataclass(eq=False)
class KSpaceRecord:
    """One acquired K sweep: sampled arrays plus acquisition metadata."""

    k_values: np.ndarray
    currents: np.ndarray
    signals: np.ndarray
    errors: np.ndarray
    t_hours: np.ndarray
    metadata: dict

    def __post_init__(self):
        arrays = [
            np.asarray(a, dtype=float)
            for a in (self.k_values, self.currents, self.signals, self.errors, self.t_hours)
        ]
        n = len(arrays[0])
        if any(len(a) != n for a in arrays):
            raise ValidationError("record arrays must have equal length")
        if not np.all(np.isfinite(arrays[0])):
            raise ValidationError("k_values must be finite")
        if n and (arrays[0][0] < 0 or np.any(np.diff(arrays[0]) <= 0)):
            raise ValidationError("k_values must be nonnegative and increasing")
        self.k_values, self.currents, self.signals, self.errors, self.t_hours = arrays

    def __len__(self) -> int:
        return len(self.k_values)

    @property
    def k_max(self) -> float:
        return float(self.k_values[-1]) if len(self) else 0.0


def run_sweep(
    plan: AcquisitionPlan,
    nv: NvCenter,
    wire: MicrowireModel | None = None,
    axis: NvAxis | None = None,
    gradient_per_ma: float | None = None,
) -> KSpaceRecord:
    """Execute the K sweep and return a KSpaceRecord.

    The one place a gradient per mA is resolved: a given ``gradient_per_ma``
    (a calibration) holds at every point; otherwise the wire geometry gives
    it, projected on ``axis`` and differentiated along the plan's imaging
    axis, at each drifted NV position.  K uses the gradient at the undrifted
    NV.  With plan.shot_noise the photon totals of all points are
    drawn in one pass from the sweep's seeded shot stream; without it the
    exact expected signal is recorded with zero error.
    """
    times = point_times_hours(plan)
    offsets = drift_trajectory(plan.drift, times, seed=plan.seed)
    if gradient_per_ma is not None:
        g0 = g_per_ma = float(gradient_per_ma)
    elif wire is None:
        raise MissingCalibrationError(
            "no gradient calibration: give a gradient per mA "
            "(gradient_per_ma_g_per_um, or the calibrate stage) or a wire model"
        )
    elif axis is None:
        raise ValidationError("an NvAxis is required when computing gradients from a wire")
    else:
        unit_wire = replace(wire, current_ma=1.0)  # polarity kept: it signs the drive
        # the undrifted NV, then the drifted positions: pos + 0.0 * e is pos
        shifts_um = np.concatenate(([0.0], offsets * NM_TO_UM))
        positions = nv.position_um + np.multiply.outer(shifts_um, plan.imaging_axis)
        g = gradient_at(unit_wire, positions, axis, plan.imaging_axis)
        g0, g_per_ma = float(g[0]), g[1:]
    if g0 <= 0:
        raise ValidationError(
            f"projected gradient per mA along the imaging axis must be positive, got {g0:.4g}; "
            "flip the imaging axis or wire polarity"
        )
    w = phase_efficiency(plan.waveform_template, plan.sequence)
    if w <= 0:
        raise ValidationError(
            "waveform accumulates no net echo phase (efficiency w <= 0); "
            "use an antisymmetric drive"
        )

    x0_nm = imaging_coordinate_nm(nv, plan.origin_um, plan.imaging_axis)
    currents = sweep_currents(plan)
    noise = plan.current_noise
    factor = 1.0
    if noise.relative_amplitude > 0.0:
        sweep_fraction = np.arange(plan.n_points) / (plan.n_points - 1)
        factor += noise.relative_amplitude * np.sin(
            2.0 * math.pi * noise.modulation_frequency_cycles * sweep_fraction
        )
    if noise.white_sigma > 0.0:
        white = np.random.default_rng([plan.seed, _STREAM_CURRENT]).standard_normal(plan.n_points)
        factor += noise.white_sigma * white
    phase = phase_from_coordinate(
        x0_nm + offsets, g_per_ma * (currents * factor), plan.sequence, plan.waveform_template
    )
    expected = echo_signal(nv, phase, plan.sequence)
    if plan.shot_noise:
        mean, err = sample_counts(
            expected.expected_counts, plan.shots_per_point, [plan.seed, _STREAM_SHOTS]
        )
        signals, errors = signal_from_counts(mean, err, nv)
    else:
        signals, errors = expected.expected_signal, np.zeros(plan.n_points)

    coeff = k_per_ma(w, plan.sequence.tau_us, g0)
    k_values = currents * coeff
    metadata = to_plain(plan)
    nv_doc = to_plain(nv)
    del nv_doc["position_um"]  # the sidecar keeps the NV's readout constants, not its position
    metadata.update(
        waveform=metadata.pop("waveform_template"),
        nv=nv_doc,
        tau_us=plan.sequence.tau_us,
        gradient_per_ma_g_per_um=g0,
        waveform_efficiency=w,
        delta_k_per_nm=float(currents[1] * coeff),
        k_max_per_nm=float(k_values[-1]),
    )
    return KSpaceRecord(
        k_values=k_values,
        currents=currents,
        signals=signals,
        errors=errors,
        t_hours=times,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# persistence: CSV + JSON sidecar, formatted for bit-exact round trips
# ---------------------------------------------------------------------------


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".meta.json")


def save_record(record: KSpaceRecord, csv_path) -> Path:
    """Write record CSV plus metadata sidecar; returns the sidecar path.

    The CSV reads back bit-exactly (see ``serialize.write_csv``).
    """
    p = Path(csv_path)
    write_csv(
        p, RECORD_CSV_COLUMNS,
        record.k_values, record.currents, record.signals, record.errors, record.t_hours,
    )
    side = sidecar_path(p)
    write_json(side, record.metadata)
    return side


def load_record(csv_path) -> KSpaceRecord:
    p = Path(csv_path)
    if not p.exists():
        raise FileNotFoundError(f"record file not found: {p}")
    side = sidecar_path(p)
    if not side.exists():
        raise MetadataError(f"missing metadata sidecar: {side}")
    try:
        metadata = json.loads(side.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise MetadataError(f"{side}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MetadataError(f"{side}: {exc}") from exc
    if not isinstance(metadata, dict):
        raise MetadataError(f"{side}: sidecar must be a JSON object")
    return KSpaceRecord(*read_csv(p, RECORD_CSV_COLUMNS).T, metadata=metadata)
