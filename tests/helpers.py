"""Shared test fixtures: independent oracles and scenario builders.

The DCT oracle here is the reference definition of the reconstruction
transform (half-weighted endpoints, 1/(N-1) scale); fourier_reconstruct
must reproduce it.  It is evaluated row by row from the cosine kernel, a
deliberately different code path from the FFT-based implementation.  The
waveform, echo-phase and gradient oracles likewise integrate or
difference numerically what the package computes in closed form.
"""

import math
from dataclasses import replace

import numpy as np

import nvfourier as nf
from nvfourier.constants import GAMMA_CYC_MHZ_PER_G, NM_TO_UM
from nvfourier.field_model import CALIBRATION_CSV_COLUMNS, _unit3, _vec3
from nvfourier.serialize import write_csv
from nvfourier.spin_dynamics import (
    DEFAULT_SINE_ACTIVE_FRACTION,
    imaging_coordinate_nm,
    phase_from_coordinate,
)

REF_TOTAL_TIME_US = 500.0
REF_I_MAX_MA = 10.0
REF_GRADIENT_PER_MA = 0.326
REF_N_POINTS = 458


def dct_oracle(signal, zero_pad_factor=1):
    """Brute-force one-sided cosine transform magnitude, O(N*M).

    A_i = |s_0 + (-1)^i s_{M-1} + 2 sum_{0<j<M-1} s_j cos(pi j i/(M-1))| / (N-1)
    with the signal zero-padded from N to M = (N-1)*Z + 1 samples.  Each
    angle is reduced mod 2 pi in integers first, so the oracle's round-off
    does not grow with M.
    """
    s = np.asarray(signal, dtype=float)
    n = len(s)
    padded = np.concatenate([s, np.zeros((n - 1) * (zero_pad_factor - 1))])
    m = len(padded)
    weights = np.ones(m)
    weights[0] = 0.5
    weights[-1] = 0.5
    out = np.empty(m)
    j = np.arange(m)
    for i in range(m):
        out[i] = 2.0 * np.sum(weights * padded * np.cos(np.pi * (j * i % (2 * (m - 1))) / (m - 1)))
    return np.abs(out) / (n - 1)


def reference_sequence(total_time_us=REF_TOTAL_TIME_US, **kwargs):
    return nf.EchoSequence(total_time_us=total_time_us, **kwargs)


def reference_waveform(total_time_us=REF_TOTAL_TIME_US, active_fraction=DEFAULT_SINE_ACTIVE_FRACTION):
    return nf.GradientWaveform(
        shape="sine",
        period_us=active_fraction * total_time_us,
        active_fraction=active_fraction,
        antisymmetric=True,
    )


def rect_waveform(active_fraction=1.0, antisymmetric=True):
    return nf.GradientWaveform(
        shape="rectangular",
        period_us=1.0,
        active_fraction=active_fraction,
        antisymmetric=antisymmetric,
    )


def reference_nv(x_nm=30.0, t2_us=1200.0):
    """NV sitting at x_nm along the +x imaging axis (origin at 0)."""
    return nf.NvCenter(
        position_um=[x_nm * 1e-3, 0.0, 0.0],
        t2_us=t2_us,
        contrast_alpha=0.08,
        yield_beta=0.02,
    )


def reference_plan(
    n_points=REF_N_POINTS,
    shot_noise=False,
    seed=20240901,
    drift=None,
    current_noise=None,
    shots_per_point=1_000_000,
    total_time_us=REF_TOTAL_TIME_US,
    sequence=None,
):
    seq = sequence or reference_sequence(total_time_us)
    return nf.AcquisitionPlan(
        i_max_ma=REF_I_MAX_MA,
        n_points=n_points,
        sequence=seq,
        waveform_template=reference_waveform(seq.total_time_us),
        shots_per_point=shots_per_point,
        shot_noise=shot_noise,
        seed=seed,
        drift=drift or nf.DriftModel(),
        current_noise=current_noise or nf.CurrentNoiseModel(),
        origin_um=[0.0, 0.0, 0.0],
        imaging_axis=[1.0, 0.0, 0.0],
    )


def simulate(x_nm=30.0, gradient_per_ma=REF_GRADIENT_PER_MA, t2_us=1200.0, **plan_kwargs):
    """Forward-simulate a record for an NV at x_nm (origin at zero)."""
    plan = reference_plan(**plan_kwargs)
    nv = reference_nv(x_nm, t2_us)
    return nf.run_sweep(plan, nv, gradient_per_ma=gradient_per_ma)


def gapped(record, index):
    """A noiseless full record cut to the sweep indices ``index``, as a
    gapped measurement arrives: the sidecar keeps the full sweep's
    ``n_points`` and ``delta_k_per_nm``, which place each sample back at
    round(K/delta_k_per_nm)."""
    return nf.KSpaceRecord(
        k_values=record.k_values[index], currents=record.currents[index],
        signals=record.signals[index], errors=record.errors[index],
        t_hours=record.t_hours[index], metadata=dict(record.metadata),
    )


def block_indices(n_points, blocks, block_width):
    """The sweep indices of ``blocks`` evenly spaced runs of ``block_width``
    points; block b starts at round(b * n_points / blocks)."""
    starts = np.round(np.arange(blocks) * n_points / blocks).astype(int)
    return np.unique(np.minimum(starts[:, None] + np.arange(block_width), n_points - 1))


def waveform_value(wf, seq, t_us):
    """Normalized signed drive g(t); zero outside [0, total_time)."""
    total = seq.total_time_us
    half = total / 2.0
    if t_us < 0.0 or t_us >= total:
        return 0.0
    h = 0 if t_us < half else 1
    u = t_us - h * half
    window = wf.active_fraction * half
    if u >= window:
        return 0.0
    pol = -1.0 if (h == 1 and wf.antisymmetric) else 1.0
    if wf.shape == "rectangular":
        return pol
    return pol * math.sin(2.0 * math.pi * u / wf.period_us)


def numeric_echo_phase(nv, gradient_fn, seq, num_steps):
    """Echo phase (rad) of a vectorized callable t_us -> G/um, by the
    trapezoidal rule with mirror-paired nodes.

    Nodes for both halves are generated from the same offsets u measured from
    the pi pulse, so a waveform that is even about t_pi yields bitwise equal
    sums and the echo difference cancels exactly.
    """
    t_pi = seq.pi_pulse_time_us
    total = seq.total_time_us
    dt = seq.sync_offset_us
    h = min(t_pi, total - t_pi)
    m = max(int(num_steps), 8)
    u = np.linspace(0.0, h, m + 1)
    first = float(np.trapezoid(np.asarray(gradient_fn(t_pi - u - dt), dtype=float), u))
    second = float(np.trapezoid(np.asarray(gradient_fn(t_pi + u - dt), dtype=float), u))
    # remainder when the pi pulse is off-center
    if t_pi > h:
        t_extra = np.linspace(0.0, t_pi - h, m + 1)
        first += float(np.trapezoid(np.asarray(gradient_fn(t_extra - dt), dtype=float), t_extra))
    elif total - t_pi > h:
        t_extra = np.linspace(t_pi + h, total, m + 1)
        second += float(np.trapezoid(np.asarray(gradient_fn(t_extra - dt), dtype=float), t_extra))
    x_um = imaging_coordinate_nm(nv) * NM_TO_UM
    return 2.0 * math.pi * GAMMA_CYC_MHZ_PER_G * x_um * (first - second)


def sync_phase_error(seq, wf, x_nm=100.0, gradient=3.26):
    """Phase error phi(sync_offset) - phi(0) of a point at x_nm (nm) under
    a peak gradient (G/um)."""
    aligned = replace(seq, sync_offset_us=0.0)
    return phase_from_coordinate(x_nm, gradient, seq, wf) - phase_from_coordinate(
        x_nm, gradient, aligned, wf
    )


def numeric_gradient_at(wire, point_um, axis, imaging_axis, step_um=1e-4):
    """Central-difference cross-check for gradient_at (step 1e-4 um)."""
    e = _unit3(imaging_axis, "imaging_axis")
    p = _vec3(point_um, "point_um")
    bp, bm = nf.project_on_axis(nf.field_at(wire, [p + step_um * e, p - step_um * e]), axis)
    return (bp - bm) / (2.0 * step_um)


def save_calibration_csv(path, samples):
    positions = np.array([s.position_um for s in samples]).reshape(-1, 3)
    write_csv(
        path, CALIBRATION_CSV_COLUMNS, *positions.T,
        [s.delta_f_mhz for s in samples], [s.sigma_mhz for s in samples],
    )


def midpoint_phase_oracle(x_nm, peak_gradient, seq, wf, n_steps=400_000):
    """Numeric reference for the analytic echo phase (no sync offset).

    Midpoint rule: the waveform is half-open piecewise with jumps at the
    half boundaries, so endpoint-sampling rules pick up spurious boundary
    contributions there.
    """
    edges = np.linspace(0.0, seq.total_time_us, n_steps + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    h = edges[1] - edges[0]
    g = np.array([waveform_value(wf, seq, tv) for tv in mids])
    sign = np.where(mids < seq.pi_pulse_time_us, 1.0, -1.0)
    integral = float(np.sum(sign * g) * h)
    return 2.0 * np.pi * 2.8 * (x_nm * 1e-3) * peak_gradient * integral


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
