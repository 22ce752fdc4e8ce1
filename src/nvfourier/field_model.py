"""Microwire field model, NV-axis projection and gradient calibration.

The gradient wire is modeled as an infinitely long, infinitely thin straight
conductor carrying a DC (or pulse-amplitude) current.  At perpendicular
distance r from the axis the field magnitude is

    |B| = 2 * I / r        (B in G, I in mA, r in um)

with azimuthal direction given by the right-hand rule times the wire
polarity.  Everything downstream (ODMR shift, gradients, calibration) is a
projection of this field onto the NV quantum axis.  Each field function takes
one point, giving floats, or an (n, 3) stack of points, giving arrays whose
entries are bitwise equal to the per-point calls.

Calibration follows the multi-NV workflow: measure the ODMR frequency shift
of several NV centers around the wire, then least-squares fit the wire's
standoff (along one transverse axis) and a current-scale factor so the
predicted shifts match.  The fit is the package's one Levenberg-Marquardt
solver, ``lsq.curve_fit``, with an analytic Jacobian of the 1/r model; each
model evaluation computes the field once on the stack of sample positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import GAMMA_CYC_MHZ_PER_G, MU0_OVER_2PI_G_UM_PER_MA
from .errors import DataFormatError, GeometryError, UnderDeterminedError, ValidationError
from .lsq import curve_fit
from .serialize import read_csv

# below this perpendicular distance (um) the 1/r law is considered degenerate
MIN_WIRE_DISTANCE_UM = 1e-6

CALIBRATION_CSV_COLUMNS = ["x_um", "y_um", "z_um", "delta_f_MHz", "sigma_MHz"]


def _vec3(v, name: str, stack: bool = False) -> np.ndarray:
    """A finite 3-vector, or with ``stack`` also an (n, 3) stack of them."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,) and not (stack and arr.ndim == 2 and arr.shape[1] == 3):
        kind = "a 3-vector or an (n, 3) stack" if stack else "a 3-vector"
        raise ValidationError(f"{name} must be {kind}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


def _check_finite(obj, *names: str) -> None:
    """Raise ValidationError for the first named field of ``obj`` that is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValidationError(f"{name} must be finite")


def _unit3(v, name: str) -> np.ndarray:
    arr = _vec3(v, name)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValidationError(f"{name} must be nonzero")
    return arr / norm


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


def _perp_displacement(wire: MicrowireModel, points_um: np.ndarray) -> np.ndarray:
    rel = points_um - wire.anchor_point_um
    return rel - np.vecdot(rel, wire.direction)[..., np.newaxis] * wire.direction


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v of a 3-vector u with a 3-vector or an (n, 3) stack v.

    The products and differences are np.cross's own, so the result is
    bitwise equal to it, without np.cross's per-call set-up.
    """
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u[1] * v2 - u[2] * v1, u[2] * v0 - u[0] * v2, u[0] * v1 - u[1] * v0], axis=-1)


def field_at(wire: MicrowireModel, point_um) -> np.ndarray:
    """Magnetic field vector (G) of the wire at a point (um), or an (n, 3)
    stack of them at an (n, 3) stack of points.

    Raises GeometryError when any point lies within MIN_WIRE_DISTANCE_UM of
    the wire axis, where the 1/r law diverges.
    """
    rho = _perp_displacement(wire, _vec3(point_um, "point_um", stack=True))
    r2 = np.vecdot(rho, rho)
    if np.any(r2 <= MIN_WIRE_DISTANCE_UM**2):
        raise GeometryError(
            f"point is {math.sqrt(np.min(r2)):.3e} um from the wire axis "
            f"(minimum {MIN_WIRE_DISTANCE_UM:g} um)"
        )
    pref = MU0_OVER_2PI_G_UM_PER_MA * wire.signed_current_ma / r2
    return pref[..., np.newaxis] * _cross(wire.direction, rho)


def project_on_axis(b_g, axis: NvAxis):
    """Signed projection of a field vector (G), or of each row of a stack, on the NV axis."""
    b = np.vecdot(_vec3(b_g, "b_g", stack=True), axis.orientation)
    return b if b.ndim else float(b)


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
    e = _unit3(imaging_axis, "imaging_axis")
    rho = _perp_displacement(wire, _vec3(point_um, "point_um", stack=True))
    r2 = np.vecdot(rho, rho)
    if np.any(r2 <= MIN_WIRE_DISTANCE_UM**2):
        raise GeometryError("gradient requested on the wire axis")
    e_perp = e - np.dot(e, wire.direction) * wire.direction
    a = axis.orientation
    d = wire.direction
    pref = MU0_OVER_2PI_G_UM_PER_MA * wire.signed_current_ma
    # d/ds [ a . (d x (rho + s*e_perp)) / |rho + s*e_perp|^2 ] at s = 0;
    # float_power keeps r2**2 equal to the scalar float power
    term1 = float(np.dot(a, _cross(d, e_perp))) / r2
    term2 = (
        -2.0 * np.vecdot(a, _cross(d, rho)) * np.vecdot(rho, e_perp) / np.float_power(r2, 2.0)
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
    iterations: int = 0  # model evaluations of the solver
    converged: bool = False


def _standoff_axis(guess: MicrowireModel, positions) -> np.ndarray:
    """Transverse unit vector from the wire toward the sample centroid.

    This is the direction along which the wire standoff is adjusted; with
    samples all on one side of the wire it captures the dominant geometric
    uncertainty.
    """
    centroid = np.mean(positions, axis=0)
    rel = centroid - guess.anchor_point_um
    perp = rel - np.dot(rel, guess.direction) * guess.direction
    norm = float(np.linalg.norm(perp))
    if norm <= MIN_WIRE_DISTANCE_UM:
        raise GeometryError("sample centroid lies on the wire axis; standoff direction undefined")
    return perp / norm


def calibrate_wire(
    samples: list[CalibrationSample],
    initial_guess: MicrowireModel,
    axis: NvAxis,
) -> tuple[MicrowireModel, WireFitReport]:
    """Fit wire standoff and current scale to measured ODMR shifts.

    Parameters are theta = (standoff_shift, current_scale): the anchor moves
    by ``shift`` along the transverse axis toward the sample centroid and all
    predicted shifts scale by ``current_scale``.  Weighted least squares
    (weights 1/sigma) through ``lsq.curve_fit`` with the analytic Jacobian,
    from theta = (0, 1); non-convergence raises FitConvergenceError.

    Returns the fitted wire and a report.
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

    def wire_for(shift: float) -> MicrowireModel:
        return replace(initial_guess, anchor_point_um=initial_guess.anchor_point_um + shift * nhat)

    def predict(shift: float, scale: float) -> np.ndarray:
        b = project_on_axis(field_at(wire_for(shift), positions), axis)
        return GAMMA_CYC_MHZ_PER_G * scale * b

    evaluations = 0

    def weighted_model(_, shift, scale):
        nonlocal evaluations
        evaluations += 1
        return weights * predict(shift, scale)

    def weighted_jacobian(_, shift, scale):
        # moving the anchor by +ds along nhat shifts rho by -ds*nhat; the
        # prediction is linear in scale, so its scale derivative is predict(shift, 1)
        dbds = -gradient_at(wire_for(shift), positions, axis, nhat)
        jac = np.column_stack([GAMMA_CYC_MHZ_PER_G * scale * dbds, predict(shift, 1.0)])
        return weights[:, None] * jac

    theta, cov = curve_fit(
        weighted_model, np.arange(len(samples)), weights * df_obs, [0.0, 1.0], weighted_jacobian
    )
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    pred = predict(*theta)
    resid = (pred - df_obs) * weights

    shift, scale = float(theta[0]), float(theta[1])
    fitted = wire_for(shift)
    if scale < 0:
        # negative scale means the assumed polarity was backwards
        fitted = replace(fitted, current_ma=fitted.current_ma * (-scale), polarity=-fitted.polarity)
    else:
        fitted = replace(fitted, current_ma=fitted.current_ma * scale)

    report = WireFitReport(
        standoff_shift_um=shift,
        current_scale=scale,
        standoff_axis=nhat,
        uncertainties={"standoff_shift_um": float(sig[0]), "current_scale": float(sig[1])},
        residuals_mhz=list(pred - df_obs),
        rss=float(np.dot(resid, resid)),
        iterations=evaluations,
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
