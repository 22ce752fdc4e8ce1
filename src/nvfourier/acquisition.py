"""K-space sweep planning, execution and disturbance injection.

A sweep holds the evolution time fixed and ramps the gradient-drive current
linearly from 0 to i_max over n_points steps.  Each sampled current maps to
a K value

    K = w * 2 * gamma_cyc * tau * G(I)      (nm^-1)

where w is the waveform's phase-efficiency factor and G(I) the calibrated
projected gradient, linear in I.  An undersampling mask, an increasing int64
array of sweep indices that indexes the sweep's arrays directly, selects
which points are actually acquired; each acquired point is stamped with the
wall-clock time at which it starts (points * shots * sequence time), which
is the schedule on which platform drift acts.

The sweep is evaluated as arrays: the ramp, the current modulation, the
drifted positions, the gradient, the echo phase and the expected signal are
computed once for all masked points.

Determinism contract: a fixed plan reproduces a record bit-exactly, and a
point's shot and current noise depend only on the seed, ``n_points`` and its
sweep index, not on the mask or the evaluation order.  Shot noise is keyed
per point: the photon total of sweep index i equals
``np.random.default_rng([seed, _STREAM_SHOTS, i]).poisson(lam_i)``, and
``keyed_poisson`` draws the totals of a whole sweep in array passes.  White
current noise and the drift random walk each draw one stream per sweep,
``np.random.default_rng([seed, stream id])``: the current stream draws
``n_points`` normals and each point takes the one at its sweep index, and the
drift stream draws one step per acquired point in acquisition order, so the
drift a point sees follows the acquisition schedule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
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

# numpy's SeedSequence hash constants (pool of four 32-bit words) and PCG64's
# 128-bit LCG multiplier, as in numpy/random/bit_generator.pyx and pcg64.h
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = (1 << 32) - 1

# Poisson means above this make numpy raise (POISSON_LAM_MAX in
# numpy/random/_common.pyx): the draw would overflow int64
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# relative margin around PTRS's acceptance test and floor: a draw this close to
# a tie could go the other way in a numpy built with other rounding (FMA
# contraction) and is drawn through numpy itself instead; above a mean of
# about 1e11 the margin spans a whole count, so every draw goes through numpy
_TIE_RTOL = 1e-12


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    if n < 0:
        raise ValidationError("seed and stream ids must be non-negative integers")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_seeds(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row at once.

    ``entropy`` holds one uint32 column per entropy word.  The hash constants
    evolve independently of the data, so each step of SeedSequence's pool
    mixing is one wrapping uint32 array operation over all rows.
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> 16)

    with np.errstate(over="ignore"):
        zero = np.zeros_like(entropy[0])
        pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const = INIT_B
        state = []
        for k in range(8):
            value = pool[k % 4] ^ np.uint32(hash_const)
            hash_const = hash_const * MULT_B & _MASK32
            value = value * np.uint32(hash_const)
            state.append((value ^ (value >> 16)).astype(np.uint64))
    return [state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)]


def _add128(x, y):
    """Sum mod 2**128 of (hi, lo) uint64 array pairs."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _lcg_step(state, inc):
    """PCG64's LCG step ``state * MULT + inc`` mod 2**128 on (hi, lo) uint64 arrays.

    The low words' full 128-bit product is assembled from 32-bit halves;
    every uint64 product wraps, which is the mod 2**64 the high word needs.
    """
    hi, lo = state
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG64_MULT_LO & _MASK32, _PCG64_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + hi * _PCG64_MULT_LO + lo * _PCG64_MULT_HI
    return _add128((hi, lo * _PCG64_MULT_LO), inc)


def _next_double(state):
    """PCG64's XSL-RR output of each (hi, lo) state as numpy's ``next_double``."""
    hi, lo = state
    value, rot = hi ^ lo, hi >> 58
    bits = (value >> rot) | (value << ((64 - rot) & 63))
    return (bits >> 11) * 2.0**-53


def _pcg64_states(seed: int, stream: int, indices) -> np.ndarray:
    """Seeded PCG64 ``(state_hi, state_lo, inc_hi, inc_lo)`` of
    ``default_rng([seed, stream, i])`` for every index, as a (4, n) uint64 array.

    The SeedSequence hashing and PCG64's seeding (two LCG steps) run as array
    passes over all indices.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValidationError("stream indices must be non-negative")
    prefix = _uint32_words(int(seed)) + _uint32_words(int(stream))
    seeds = np.empty((4, idx.size), dtype=np.uint64)
    for wide in (False, True):  # indices >= 2**32 take a second entropy word
        rows = (idx > _MASK32) == wide
        if rows.any():
            words = [idx[rows] & _MASK32] + ([idx[rows] >> 32] if wide else [])
            columns = [np.full(rows.sum(), w, dtype=np.uint32) for w in prefix]
            seeds[:, rows] = _pcg64_seeds(columns + [w.astype(np.uint32) for w in words])
    s_hi, s_lo, i_hi, i_lo = seeds
    inc = ((i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1)
    return np.array([*_lcg_step(_add128((s_hi, s_lo), inc), inc), *inc])


def _generators(states: np.ndarray):
    """Yield one reused Generator set to each column of ``_pcg64_states`` in turn."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in zip(*states.tolist()):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def keyed_generators(seed: int, stream: int, indices):
    """Yield one reused Generator set to ``default_rng([seed, stream, i])``'s
    state for each index ``i`` in turn.

    The states of all indices are derived in one batched pass
    (``_pcg64_states``); the draws are bit-identical to building each
    ``default_rng`` separately.  Consume each generator before advancing:
    the next index resets its state.
    """
    return _generators(_pcg64_states(seed, stream, indices))


def keyed_poisson(seed: int, stream: int, indices, lam) -> np.ndarray:
    """``np.random.default_rng([seed, stream, i]).poisson(lam_i)`` for every
    index, as an int64 array; ``lam`` broadcasts against ``indices``.

    For lam >= 10 numpy draws by PTRS (Hörmann, Insurance: Math. & Econ. 12,
    39 (1993)), whose first iteration accepts most draws with +, -, *, /,
    sqrt and floor alone.  That iteration is replayed bit for bit on the
    first two doubles of every point's PCG64 stream.  Points it rejects,
    points with 0 < lam < 10 and points within ``_TIE_RTOL`` of a tie are
    drawn from their keyed Generator instead.
    """
    idx = np.asarray(indices, dtype=np.int64)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), idx.shape)
    refused = ~((lam >= 0) & (lam <= POISSON_LAM_MAX))
    if refused.any():
        raise ValidationError(
            "shot noise needs expected counts x shots per point >= 0, finite and "
            f"<= {POISSON_LAM_MAX:.4g}, got {lam[refused][0]:.4g}"
        )
    states = _pcg64_states(seed, stream, idx)
    inc = (states[2], states[3])
    first = _lcg_step((states[0], states[1]), inc)
    u, v = _next_double(first) - 0.5, _next_double(_lcg_step(first, inc))
    with np.errstate(divide="ignore", invalid="ignore"):  # lam < 10 and us == 0 never accept
        b = 0.931 + 2.53 * np.sqrt(lam)
        a = -0.059 + 0.02483 * b
        vr = 0.9277 - 3.6224 / (b - 2)
        us = 0.5 - np.abs(u)
        x = (2 * a / us + b) * u + lam + 0.43
        k, margin = np.floor(x), _TIE_RTOL * np.abs(x)
        fast = (
            (lam >= 10) & (us >= 0.07) & (v <= vr - _TIE_RTOL * vr)
            & (np.floor(x - margin) == k) & (np.floor(x + margin) == k)
        )
    totals = np.where(fast, k, 0.0).astype(np.int64)
    slow = ~fast & (lam > 0)
    for rank, rng in zip(np.flatnonzero(slow), _generators(states[:, slow])):
        totals[rank] = rng.poisson(lam[rank])
    return totals


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

    @property
    def is_static(self) -> bool:
        return (
            self.linear_rate_nm_per_hour == 0.0
            and self.random_walk_sigma_nm_per_sqrt_hour == 0.0
            and self.temperature_coupling_nm_per_k == 0.0
        )


def ambient_temperature_delta(drift: DriftModel, t_hours: float):
    return drift.temperature_amplitude_k * np.sin(
        2.0 * np.pi * np.asarray(t_hours, dtype=float) / drift.temperature_period_hours
    )


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
        offsets = offsets + drift.temperature_coupling_nm_per_k * ambient_temperature_delta(
            drift, t
        )
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


def check_n_points(n_points: int, minimum: int = 2) -> None:
    """Raise ValidationError unless minimum <= n_points <= MAX_N_POINTS."""
    if n_points < minimum:
        raise ValidationError(f"n_points must be >= {minimum}")
    if n_points > MAX_N_POINTS:
        raise ValidationError(f"n_points must be <= {MAX_N_POINTS}")


@dataclass(frozen=True, eq=False)
class AcquisitionPlan:
    """Everything needed to run (and re-run, bit-exactly) one K sweep."""

    i_max_ma: float
    n_points: int
    sequence: EchoSequence
    waveform_template: GradientWaveform
    mask: np.ndarray = ()  # acquired sweep indices, kept as a read-only int64 copy; empty: all
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
        check_n_points(self.n_points)
        if self.shots_per_point < 1:
            raise ValidationError("shots_per_point must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        # an empty mask means the whole sweep, and n_points >= 2 keeps it non-empty
        mask = np.array(self.mask, dtype=np.int64) if len(self.mask) else np.arange(self.n_points)
        if np.any(mask[1:] <= mask[:-1]):
            raise ValidationError("mask indices must be strictly increasing")
        if mask[0] < 0 or mask[-1] >= self.n_points:
            raise ValidationError("mask indices must lie in [0, n_points)")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "origin_um", _vec3(self.origin_um, "origin_um"))
        object.__setattr__(self, "imaging_axis", _unit3(self.imaging_axis, "imaging_axis"))


def make_undersampling_mask(
    n_points: int,
    strategy: str = "full",
    stride: int | None = None,
    blocks: int | None = None,
    block_width: int | None = None,
) -> np.ndarray:
    """Increasing int64 sweep indices: 'full', 'stride' (every stride-th
    point) or 'blocks' (``blocks`` evenly spaced contiguous runs of
    ``block_width``).  Every strategy keeps index 0."""
    check_n_points(n_points, minimum=1)
    if strategy == "full":
        return np.arange(n_points)
    if strategy == "stride":
        if stride is None or stride < 1:
            raise ValidationError("stride strategy needs stride >= 1")
        return np.arange(0, n_points, stride)
    if strategy == "blocks":
        if not blocks or not block_width or blocks < 1 or block_width < 1:
            raise ValidationError("blocks strategy needs blocks >= 1 and block_width >= 1")
        if blocks > n_points:  # before the per-block array is allocated
            raise ValidationError(f"blocks strategy needs blocks <= n_points ({blocks} > {n_points})")
        # block b starts at round(b * n / blocks); an index is kept when the
        # last block start at or before it lies within block_width of it
        starts = np.round(np.arange(blocks) * n_points / blocks).astype(np.int64)
        idx = np.arange(n_points)
        return idx[idx - starts[np.searchsorted(starts, idx, side="right") - 1] < block_width]
    raise ValidationError(f"unknown mask strategy {strategy!r}")


def sweep_currents(plan: AcquisitionPlan) -> np.ndarray:
    """Nominal current ramp: i_max * j/(n-1), j = 0..n-1."""
    return np.arange(plan.n_points) * (plan.i_max_ma / (plan.n_points - 1))


def k_of_current(plan: AcquisitionPlan, current_ma, gradient_per_ma: float | None):
    """Map a drive current to its K value (nm^-1).

    K = w * 2 * gamma_cyc * tau * gradient_per_ma * I, with w the waveform's
    phase-efficiency factor.  Accepts scalars or arrays.
    """
    if gradient_per_ma is None:
        raise MissingCalibrationError("gradient calibration (G/um per mA) required")
    w = phase_efficiency(plan.waveform_template, plan.sequence)
    # per-um -> per-nm is the /1e3
    coeff = w * 2.0 * GAMMA_CYC_MHZ_PER_G * plan.sequence.tau_us * gradient_per_ma / 1e3
    k = np.asarray(current_ma, dtype=float) * coeff
    return k if np.ndim(current_ma) else float(k)


def point_times_hours(plan: AcquisitionPlan) -> np.ndarray:
    """Wall-clock start time (hours) of each masked point, in mask order."""
    dwell_h = plan.shots_per_point * plan.sequence.total_time_us * 1e-6 / 3600.0
    return np.arange(len(plan.mask)) * dwell_h


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


def _resolve_gradient_per_ma(
    nv: NvCenter,
    plan: AcquisitionPlan,
    wire: MicrowireModel | None,
    axis: NvAxis | None,
    gradient_per_ma: float | None,
    offsets_nm=0.0,
):
    """Per-mA gradient at the NV, and at the NV displaced by each drift offset.

    A given ``gradient_per_ma`` (a calibration) wins; otherwise the gradient
    comes from the wire geometry projected on ``axis``.
    """
    if gradient_per_ma is not None:
        return float(gradient_per_ma), float(gradient_per_ma)
    if wire is None:
        raise MissingCalibrationError(
            "no gradient calibration: give a gradient per mA "
            "(gradient_per_ma_g_per_um, or the calibrate stage) or a wire model"
        )
    if axis is None:
        raise ValidationError("an NvAxis is required when computing gradients from a wire")
    unit_wire = replace(wire, current_ma=1.0)  # polarity kept: it signs the drive
    drifted = nv.position_um + np.multiply.outer(offsets_nm * NM_TO_UM, plan.imaging_axis)
    g = gradient_at(unit_wire, np.vstack([nv.position_um, drifted]), axis, plan.imaging_axis)
    return float(g[0]), g[1:]


def acquire_points(
    plan: AcquisitionPlan,
    nv: NvCenter,
    indices,
    currents_ma,
    x_nm,
    gradient_per_ma,
) -> tuple[np.ndarray, np.ndarray]:
    """Signals and errors at the given sweep indices, evaluated as arrays.

    ``currents_ma`` (nominal setpoints), ``x_nm`` (drifted imaging
    coordinates) and ``gradient_per_ma`` (G/um per mA at the drifted
    positions) line up with ``indices`` or broadcast against them.  A
    point's noise depends only on the seed, ``n_points`` and its own sweep
    index, so any subset of indices, evaluated in any order, gives values
    bitwise equal to the sweep.
    """
    idx = np.asarray(indices, dtype=int)
    noise = plan.current_noise
    factor = 1.0
    if noise.relative_amplitude > 0.0:
        factor += noise.relative_amplitude * np.sin(
            2.0 * math.pi * noise.modulation_frequency_cycles * (idx / (plan.n_points - 1))
        )
    if noise.white_sigma > 0.0:
        white = np.random.default_rng([plan.seed, _STREAM_CURRENT]).standard_normal(plan.n_points)
        factor += noise.white_sigma * white[idx]
    phase = phase_from_coordinate(
        x_nm, gradient_per_ma * (currents_ma * factor), plan.sequence, plan.waveform_template
    )
    expected = echo_signal(nv, phase, plan.sequence)
    if not plan.shot_noise:
        return expected.expected_signal, np.zeros(idx.shape)
    draw = partial(keyed_poisson, plan.seed, _STREAM_SHOTS, idx)
    mean, err = sample_counts(expected.expected_counts, plan.shots_per_point, draw)
    return signal_from_counts(mean, err, nv)


def run_sweep(
    plan: AcquisitionPlan,
    nv: NvCenter,
    wire: MicrowireModel | None = None,
    axis: NvAxis | None = None,
    gradient_per_ma: float | None = None,
) -> KSpaceRecord:
    """Execute the masked K sweep and return a KSpaceRecord.

    The gradient calibration comes either from ``gradient_per_ma`` directly
    or from the wire geometry (projected on ``axis``, differentiated along
    the plan's imaging axis, at each drifted NV position).  Signals are
    sampled with per-point seeded shot noise unless plan.shot_noise is
    False, in which case the exact expected signal is recorded with zero
    error.
    """
    times = point_times_hours(plan)
    offsets = 0.0 if plan.drift.is_static else drift_trajectory(plan.drift, times, seed=plan.seed)
    g0, g_per_ma = _resolve_gradient_per_ma(nv, plan, wire, axis, gradient_per_ma, offsets)
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
    sampled = currents[plan.mask]
    signals, errors = acquire_points(plan, nv, plan.mask, sampled, x0_nm + offsets, g_per_ma)

    k_sampled = k_of_current(plan, sampled, g0)
    delta_k = float(k_of_current(plan, currents[1], g0))
    metadata = to_plain(plan)
    sequence = metadata.pop("sequence")
    nv_doc = to_plain(nv)
    del nv_doc["position_um"]  # the sidecar keeps the NV's readout constants, not its position
    metadata.update(
        waveform=metadata.pop("waveform_template"),
        nv=nv_doc,
        total_time_us=sequence["total_time_us"],
        sync_offset_us=sequence["sync_offset_us"],
        tau_us=plan.sequence.tau_us,
        gradient_per_ma_g_per_um=g0,
        waveform_efficiency=w,
        delta_k_per_nm=delta_k,
        k_max_per_nm=float(k_sampled[-1]),
    )
    return KSpaceRecord(
        k_values=k_sampled,
        currents=sampled,
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
    p.parent.mkdir(parents=True, exist_ok=True)
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
        metadata = json.loads(side.read_text())
    except json.JSONDecodeError as exc:
        raise MetadataError(f"{side}: {exc}") from exc
    return KSpaceRecord(*read_csv(p, RECORD_CSV_COLUMNS).T, metadata=metadata)
