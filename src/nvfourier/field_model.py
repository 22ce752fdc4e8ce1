"""Microwire field model, NV-axis projection and gradient calibration.

The gradient wire is modeled as an infinitely long, infinitely thin straight
conductor carrying a DC (or pulse-amplitude) current.  At perpendicular
distance r from the axis the field magnitude is

    |B| = 2 * I / r        (B in G, I in mA, r in um)

with azimuthal direction given by the right-hand rule times the wire
polarity.  Everything downstream (ODMR shift, gradients, calibration) is a
projection of this field onto the NV quantum axis.  Each field function takes
one point, giving floats, or an (n, 3) stack of points, giving arrays whose
entries are bitwise equal to the per-point calls.  The 3-vector geometry
(wire anchor and direction, NV axis, imaging axis and the vectors built from
them) runs in Python floats, and a stack runs as its three coordinate
columns, so one formula serves a point and a stack, in the same order of
floating-point operations, at numpy's per-call cost only for the columns.

Calibration follows the multi-NV workflow: measure the ODMR frequency shift
of several NV centers around the wire, then least-squares fit the wire's
standoff (along one transverse axis) and a current-scale factor so the
predicted shifts match.  The shifts are linear in the scale, so the fit is
variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)): the scale in closed form, Gauss-Newton steps on the standoff with
the 1/r model's analytic gradient, and errors from the samples' sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import GAMMA_CYC_MHZ_PER_G, MU0_OVER_2PI_G_UM_PER_MA
from .errors import (DataFormatError, DegenerateFitError, FitConvergenceError, GeometryError,
                     UnderDeterminedError, ValidationError)
from .serialize import read_csv

# below this perpendicular distance (um) the 1/r law is considered degenerate
MIN_WIRE_DISTANCE_UM = 1e-6

CALIBRATION_CSV_COLUMNS = ["x_um", "y_um", "z_um", "delta_f_MHz", "sigma_MHz"]

# calibrate_wire stops once a step moves the shift by at most this fraction of
# max(|shift|, 1 um); <= 12 steps seen on random draws, so the budget is 25
_CALIBRATION_XTOL = 1e-12
_CALIBRATION_MAX_STEPS = 25


def _vec3(v, name: str, stack: bool = False) -> np.ndarray:
    """A finite 3-vector, or with ``stack`` also an (n, 3) stack of them."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,) and not (stack and arr.ndim == 2 and arr.shape[1] == 3):
        kind = "a 3-vector or an (n, 3) stack" if stack else "a 3-vector"
        raise ValidationError(f"{name} must be {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def _check_finite(obj, *names: str) -> None:
    """Raise ValidationError for the first named field of ``obj`` that is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValidationError(f"{name} must be finite")


def _components(v: np.ndarray):
    """A 3-vector's coordinates as three Python floats, an (n, 3) stack's as its three columns."""
    return v.tolist() if v.ndim == 1 else v.T


def _dot(u, v):
    """u . v of two 3-vectors, each given by its three components (Python
    floats, or coordinate columns of a stack), summed in index order.

    Elementwise products and sums, not np.dot, np.vecdot or np.linalg.norm,
    which run through the BLAS ddot whose kernel decides the last bits.
    """
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    """u x v by components, with np.cross's own products and differences."""
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _reject(v, d):
    """v minus its part along the unit vector d, by components."""
    t = _dot(v, d)
    return v[0] - t * d[0], v[1] - t * d[1], v[2] - t * d[2]


def _unit_floats(v, name: str) -> list[float]:
    """The unit vector along the finite, nonzero 3-vector v, as three Python floats."""
    x, y, z = _vec3(v, name).tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValidationError(f"{name} must be nonzero")
    return [x / norm, y / norm, z / norm]


def _unit3(v, name: str) -> np.ndarray:
    return np.array(_unit_floats(v, name))


@dataclass(frozen=True, eq=False)
class MicrowireModel:
    """Straight-wire geometry plus drive current.

    ``direction`` is normalized on construction; ``current`` is a magnitude
    (mA, >= 0) with ``polarity`` (+1/-1) carrying the sign.
    """

    anchor_point_um: np.ndarray
    direction: np.ndarray
    current_ma: float
    polarity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "anchor_point_um", _vec3(self.anchor_point_um, "anchor_point_um"))
        object.__setattr__(self, "direction", _unit3(self.direction, "direction"))
        if not math.isfinite(self.current_ma) or self.current_ma < 0.0:
            raise ValidationError("current_ma must be >= 0 (polarity carries the sign)")
        if self.polarity not in (1, -1):
            raise ValidationError("polarity must be +1 or -1")

    @property
    def signed_current_ma(self) -> float:
        return self.polarity * self.current_ma


@dataclass(frozen=True, eq=False)
class NvAxis:
    """NV quantum axis (the [111]-type direction); normalized on construction."""

    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "orientation", _unit3(self.orientation, "orientation"))


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Field quantities at one point, projected on the NV axis; arrays of
    them, one entry per row, for an (n, 3) stack of points."""

    position_um: np.ndarray
    b_projected_g: float
    gradient_projected_g_per_um: float
    delta_f_mhz: float


def _perp(wire: MicrowireModel, points_um: np.ndarray):
    """rho, the part of points_um - anchor perpendicular to the wire, by components."""
    anchor, d = wire.anchor_point_um.tolist(), wire.direction.tolist()
    x, y, z = _components(points_um)
    return _reject((x - anchor[0], y - anchor[1], z - anchor[2]), d)


def field_at(wire: MicrowireModel, point_um) -> np.ndarray:
    """Magnetic field vector (G) of the wire at a point (um), or an (n, 3)
    stack of them at an (n, 3) stack of points.

    Raises GeometryError when any point lies within MIN_WIRE_DISTANCE_UM of
    the wire axis, where the 1/r law diverges.
    """
    rho = _perp(wire, _vec3(point_um, "point_um", stack=True))
    r2 = _dot(rho, rho)
    if np.any(r2 <= MIN_WIRE_DISTANCE_UM**2):
        raise GeometryError(
            f"point is {math.sqrt(np.min(r2)):.3e} um from the wire axis "
            f"(minimum {MIN_WIRE_DISTANCE_UM:g} um)"
        )
    pref = MU0_OVER_2PI_G_UM_PER_MA * wire.signed_current_ma / r2
    return np.stack([pref * c for c in _cross(wire.direction.tolist(), rho)], axis=-1)


def project_on_axis(b_g, axis: NvAxis):
    """Signed projection of a field vector (G), or of each row of a stack, on the NV axis."""
    return _dot(_components(_vec3(b_g, "b_g", stack=True)), axis.orientation.tolist())


def odmr_shift(b_projected_g):
    """ODMR frequency shift (MHz) of the m_S=0 -> +1 line for projected fields (G)."""
    shift = GAMMA_CYC_MHZ_PER_G * np.asarray(b_projected_g, dtype=float)
    return shift if shift.ndim else float(shift)


def gradient_at(wire: MicrowireModel, point_um, axis: NvAxis, imaging_axis):
    """Directional derivative (G/um) of the projected field along imaging_axis.

    Analytic derivative of the 1/r model.  The component of imaging_axis
    parallel to the wire contributes nothing (the field is invariant along
    the wire), so only its transverse part enters.  ``point_um`` is one
    point, giving a float, or an (n, 3) stack, giving n gradients that are
    bitwise equal to the per-point calls.
    """
    e = _unit_floats(imaging_axis, "imaging_axis")
    rho = _perp(wire, _vec3(point_um, "point_um", stack=True))
    r2 = _dot(rho, rho)
    if np.any(r2 <= MIN_WIRE_DISTANCE_UM**2):
        raise GeometryError("gradient requested on the wire axis")
    d, a = wire.direction.tolist(), axis.orientation.tolist()
    e_perp = _reject(e, d)
    pref = MU0_OVER_2PI_G_UM_PER_MA * wire.signed_current_ma
    # d/ds [ a . (d x (rho + s*e_perp)) / |rho + s*e_perp|^2 ] at s = 0;
    # float_power keeps r2**2 equal to the scalar float power, not r2 * r2
    term1 = _dot(a, _cross(d, e_perp)) / r2
    term2 = (
        -2.0 * _dot(a, _cross(d, rho)) * _dot(rho, e_perp) / np.float_power(r2, 2.0)
    )
    g = pref * (term1 + term2)
    return g if g.ndim else float(g)


def sample_field(wire: MicrowireModel, point_um, axis: NvAxis, imaging_axis) -> FieldSample:
    """Evaluate projected field, gradient and ODMR shift at one point, or as
    arrays over an (n, 3) stack of points."""
    b = project_on_axis(field_at(wire, point_um), axis)
    g = gradient_at(wire, point_um, axis, imaging_axis)
    return FieldSample(
        position_um=_vec3(point_um, "point_um", stack=True),
        b_projected_g=b,
        gradient_projected_g_per_um=g,
        delta_f_mhz=odmr_shift(b),
    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CalibrationSample:
    position_um: np.ndarray
    delta_f_mhz: float
    sigma_mhz: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "position_um", _vec3(self.position_um, "position_um"))
        _check_finite(self, "delta_f_mhz", "sigma_mhz")
        if self.sigma_mhz <= 0.0:
            raise ValidationError("sigma_mhz must be > 0")


@dataclass
class WireFitReport:
    """Result of calibrate_wire: parameters, uncertainties and residuals."""

    standoff_shift_um: float
    current_scale: float
    standoff_axis: np.ndarray
    uncertainties: dict = field(default_factory=dict)
    residuals_mhz: list = field(default_factory=list)
    rss: float = float("nan")
    iterations: int = 0  # Gauss-Newton steps of the fit
    converged: bool = False


def _standoff_axis(guess: MicrowireModel, positions) -> np.ndarray:
    """Transverse unit vector from the wire toward the sample centroid.

    This is the direction along which the wire standoff is adjusted; with
    samples all on one side of the wire it captures the dominant geometric
    uncertainty.
    """
    perp = _perp(guess, np.mean(positions, axis=0))
    norm = math.sqrt(_dot(perp, perp))
    if norm <= MIN_WIRE_DISTANCE_UM:
        raise GeometryError("sample centroid lies on the wire axis; standoff direction undefined")
    return np.array(perp) / norm


def calibrate_wire(
    samples: list[CalibrationSample],
    initial_guess: MicrowireModel,
    axis: NvAxis,
) -> tuple[MicrowireModel, WireFitReport]:
    """Fit wire standoff and current scale to measured ODMR shifts.

    Parameters are theta = (standoff_shift, current_scale): the anchor moves
    by ``shift`` along the transverse axis toward the sample centroid and all
    predicted shifts scale by ``current_scale``, weights 1/sigma.  At each
    shift the scale is its closed-form least squares, and Kaufman's projected
    Gauss-Newton step (BIT 15, 49 (1975)) moves the shift alone, from 0, with
    one stacked ``field_at`` and ``gradient_at`` call per shift, sums by
    ``np.sum`` and the 2x2 algebra in Python floats.  The uncertainties are
    the diagonal of inv(JᵀWJ), from the samples' sigma and not scaled by the
    residual, so ``rss`` is a chi-square with m - 2 degrees of freedom.
    Unidentifiable parameters raise DegenerateFitError, and running out of
    steps FitConvergenceError.  Returns the fitted wire and a report.
    """
    if len(samples) < 3:
        raise UnderDeterminedError(
            f"calibration needs >= 3 samples at distinct positions, got {len(samples)}"
        )
    positions = np.array([s.position_um for s in samples])
    close = np.isclose(positions[:, np.newaxis], positions, atol=1e-12).all(axis=2)
    if np.triu(close, k=1).any():
        raise UnderDeterminedError("calibration sample positions must be distinct")

    nhat = _standoff_axis(initial_guess, positions)
    df_obs = np.array([s.delta_f_mhz for s in samples])
    weights = 1.0 / np.array([s.sigma_mhz for s in samples])
    wd = weights * df_obs

    def wire_for(shift: float) -> MicrowireModel:
        return replace(initial_guess, anchor_point_um=initial_guess.anchor_point_um + shift * nhat)

    # the pass after the last step takes none: its scale and cofactors are the fit's
    shift, step = 0.0, math.inf
    for steps in range(_CALIBRATION_MAX_STEPS + 1):
        wire = wire_for(shift)
        # predictions at scale 1 (MHz) and their shift derivative: moving the
        # anchor by +ds along nhat shifts rho by -ds*nhat
        pred = GAMMA_CYC_MHZ_PER_G * project_on_axis(field_at(wire, positions), axis)
        wp = weights * pred
        wq = weights * (-GAMMA_CYC_MHZ_PER_G * gradient_at(wire, positions, axis, nhat))
        spp = float(np.sum(wp * wp))
        if spp == 0.0:
            raise DegenerateFitError("every predicted calibration shift is zero")
        spd, spq, sqq, sqd = (float(np.sum(v)) for v in (wp * wd, wp * wq, wq * wq, wq * wd))
        scale = spd / spp
        # JᵀWJ of (shift, scale): columns scale*wq and wp
        m00, m01, m11 = scale * scale * sqq, scale * spq, spp
        det = m00 * m11 - m01 * m01
        if not 0.0 < det < math.inf:
            raise DegenerateFitError("calibration normal equations are singular")
        if abs(step) <= _CALIBRATION_XTOL * max(abs(shift), 1.0):
            break
        if steps == _CALIBRATION_MAX_STEPS:
            raise FitConvergenceError(f"wire calibration did not converge in {steps} steps")
        # at the closed-form scale the residual is orthogonal to wp: no scale row
        step = m11 * scale * (sqd - scale * spq) / det
        shift += step

    resid = scale * pred - df_obs
    # a negative scale means the assumed polarity was backwards
    polarity = initial_guess.polarity if scale >= 0 else -initial_guess.polarity
    fitted = replace(wire, current_ma=initial_guess.current_ma * abs(scale), polarity=polarity)
    report = WireFitReport(
        standoff_shift_um=shift,
        current_scale=scale,
        standoff_axis=nhat,
        uncertainties={"standoff_shift_um": math.sqrt(m11 / det), "current_scale": math.sqrt(m00 / det)},
        residuals_mhz=list(resid),
        rss=float(np.sum((weights * resid) ** 2)),
        iterations=steps,
        converged=True,
    )
    return fitted, report


# ---------------------------------------------------------------------------
# calibration CSV I/O
# ---------------------------------------------------------------------------


def load_calibration_csv(path) -> list[CalibrationSample]:
    """Read calibration samples; columns x_um,y_um,z_um,delta_f_MHz,sigma_MHz."""
    samples = []
    rows = read_csv(path, CALIBRATION_CSV_COLUMNS).tolist()
    for number, (x, y, z, df, sigma) in enumerate(rows, start=2):
        try:
            samples.append(CalibrationSample(position_um=[x, y, z], delta_f_mhz=df, sigma_mhz=sigma))
        except ValidationError as exc:
            raise DataFormatError(f"{path}: row {number}: {exc}") from exc
    return samples
