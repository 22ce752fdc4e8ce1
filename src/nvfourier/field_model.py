"""Microwire field model, NV-axis projection and gradient calibration.

The gradient wire is modeled as an infinitely long, infinitely thin straight
conductor carrying a DC (or pulse-amplitude) current.  At perpendicular
distance r from the axis the field magnitude is

    |B| = 2 * I / r        (B in G, I in mA, r in um)

with azimuthal direction given by the right-hand rule times the wire
polarity.  Everything downstream (ODMR shift, gradients, calibration) is a
projection of this field onto the NV quantum axis.

Calibration follows the multi-NV workflow: measure the ODMR frequency shift
of several NV centers around the wire, then least-squares fit the wire's
standoff (along one transverse axis) and a current-scale factor so the
predicted shifts match.  The fit is a damped Gauss-Newton (Levenberg-
Marquardt style) iteration with an analytic Jacobian of the 1/r model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import GAMMA_CYC_MHZ_PER_G, MU0_OVER_2PI_G_UM_PER_MA
from .errors import (
    DataFormatError,
    GeometryError,
    UnderDeterminedError,
    ValidationError,
)

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
    """Field quantities evaluated at one point, projected on the NV axis."""

    position_um: np.ndarray
    b_projected_g: float
    gradient_projected_g_per_um: float
    delta_f_mhz: float


def _perp_displacement(wire: MicrowireModel, points_um: np.ndarray) -> np.ndarray:
    rel = points_um - wire.anchor_point_um
    return rel - np.vecdot(rel, wire.direction)[..., np.newaxis] * wire.direction


def field_at(wire: MicrowireModel, point_um) -> np.ndarray:
    """Magnetic field vector (G) of the wire at a point (um).

    Raises GeometryError when the point lies within MIN_WIRE_DISTANCE_UM of
    the wire axis, where the 1/r law diverges.
    """
    rho = _perp_displacement(wire, _vec3(point_um, "point_um"))
    r2 = float(np.dot(rho, rho))
    if r2 <= MIN_WIRE_DISTANCE_UM**2:
        raise GeometryError(
            f"point is {math.sqrt(r2):.3e} um from the wire axis "
            f"(minimum {MIN_WIRE_DISTANCE_UM:g} um)"
        )
    pref = MU0_OVER_2PI_G_UM_PER_MA * wire.signed_current_ma / r2
    return pref * np.cross(wire.direction, rho)


def project_on_axis(b_g, axis: NvAxis) -> float:
    """Signed projection of a field vector (G) on the NV axis."""
    return float(np.dot(_vec3(b_g, "b_g"), axis.orientation))


def odmr_shift(b_projected_g: float) -> float:
    """ODMR frequency shift (MHz) of the m_S=0 -> +1 line for a projected field (G)."""
    return GAMMA_CYC_MHZ_PER_G * float(b_projected_g)


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
    term1 = float(np.dot(a, np.cross(d, e_perp))) / r2
    term2 = (
        -2.0 * np.vecdot(a, np.cross(d, rho)) * np.vecdot(rho, e_perp) / np.float_power(r2, 2.0)
    )
    g = pref * (term1 + term2)
    return g if g.ndim else float(g)


def numeric_gradient_at(
    wire: MicrowireModel, point_um, axis: NvAxis, imaging_axis, step_um: float = 1e-4
) -> float:
    """Central-difference cross-check for gradient_at (step 1e-4 um)."""
    e = _unit3(imaging_axis, "imaging_axis")
    p = _vec3(point_um, "point_um")
    bp = project_on_axis(field_at(wire, p + step_um * e), axis)
    bm = project_on_axis(field_at(wire, p - step_um * e), axis)
    return (bp - bm) / (2.0 * step_um)


def sample_field(wire: MicrowireModel, point_um, axis: NvAxis, imaging_axis) -> FieldSample:
    """Evaluate projected field, gradient and ODMR shift at one point."""
    b = project_on_axis(field_at(wire, point_um), axis)
    g = gradient_at(wire, point_um, axis, imaging_axis)
    return FieldSample(
        position_um=_vec3(point_um, "point_um"),
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
    iterations: int = 0
    converged: bool = False
    message: str = ""


def _standoff_axis(guess: MicrowireModel, positions: list[np.ndarray]) -> np.ndarray:
    """Transverse unit vector from the wire toward the sample centroid.

    This is the direction along which the wire standoff is adjusted; with
    samples all on one side of the wire it captures the dominant geometric
    uncertainty.
    """
    centroid = np.mean(np.asarray(positions, dtype=float), axis=0)
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
    max_iterations: int = 50,
    step_tolerance: float = 1e-10,
) -> tuple[MicrowireModel, WireFitReport]:
    """Fit wire standoff and current scale to measured ODMR shifts.

    Parameters are theta = (standoff_shift, current_scale): the anchor moves
    by ``shift`` along the transverse axis toward the sample centroid and all
    predicted shifts scale by ``current_scale``.  Weighted least squares with
    analytic Jacobian; damped Gauss-Newton steps; convergence when the
    relative step drops below ``step_tolerance``.

    Returns the fitted wire and a report.  Non-convergence within
    ``max_iterations`` is flagged in the report (best parameters are still
    returned), not raised.
    """
    if len(samples) < 3:
        raise UnderDeterminedError(
            f"calibration needs >= 3 samples at distinct positions, got {len(samples)}"
        )
    positions = [s.position_um for s in samples]
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if np.allclose(positions[i], positions[j], atol=1e-12):
                raise UnderDeterminedError("calibration sample positions must be distinct")

    nhat = _standoff_axis(initial_guess, positions)
    df_obs = np.array([s.delta_f_mhz for s in samples])
    weights = 1.0 / np.array([s.sigma_mhz for s in samples])

    def wire_for(shift: float) -> MicrowireModel:
        return replace(initial_guess, anchor_point_um=initial_guess.anchor_point_um + shift * nhat)

    def model_and_jacobian(theta):
        shift, scale = theta
        w = wire_for(shift)
        b = np.empty(len(samples))
        dbds = np.empty(len(samples))
        for i, p in enumerate(positions):
            b[i] = project_on_axis(field_at(w, p), axis)
            # moving the anchor by +ds along nhat shifts rho by -ds*nhat
            dbds[i] = -gradient_at(w, p, axis, nhat)
        pred = GAMMA_CYC_MHZ_PER_G * scale * b
        jac = np.column_stack(
            [GAMMA_CYC_MHZ_PER_G * scale * dbds, GAMMA_CYC_MHZ_PER_G * b]
        )
        return pred, jac

    theta = np.array([0.0, 1.0])
    pred, jac = model_and_jacobian(theta)
    resid = (pred - df_obs) * weights
    rss = float(np.dot(resid, resid))
    lam = 1e-3
    converged = False
    iterations = 0
    message = ""

    for iterations in range(1, max_iterations + 1):
        jw = jac * weights[:, None]
        jtj = jw.T @ jw
        jtr = jw.T @ resid
        stepped = False
        for _ in range(25):
            damped = jtj + lam * np.diag(np.diag(jtj))
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + delta
            pred_t, jac_t = model_and_jacobian(trial)
            resid_t = (pred_t - df_obs) * weights
            rss_t = float(np.dot(resid_t, resid_t))
            if rss_t <= rss:
                rel_step = float(np.max(np.abs(delta) / np.maximum(np.abs(trial), 1.0)))
                theta, pred, jac, resid, rss = trial, pred_t, jac_t, resid_t, rss_t
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                if rel_step < step_tolerance:
                    converged = True
                break
            lam *= 10.0
        if converged:
            message = f"converged in {iterations} iterations"
            break
        if not stepped:
            message = "no descent step found; returning best parameters"
            break
    if not converged and not message:
        message = (
            f"residual decrease below tolerance not reached within {max_iterations} "
            "iterations; best-so-far parameters returned"
        )

    # covariance from the weighted normal equations at the solution
    uncertainties: dict[str, float] = {}
    try:
        jw = jac * weights[:, None]
        cov = np.linalg.inv(jw.T @ jw)
        dof = len(samples) - 2
        s2 = rss / dof if dof > 0 else float("nan")
        sig = np.sqrt(np.maximum(np.diag(cov) * s2, 0.0))
        uncertainties = {
            "standoff_shift_um": float(sig[0]),
            "current_scale": float(sig[1]),
        }
    except np.linalg.LinAlgError:
        uncertainties = {"standoff_shift_um": float("nan"), "current_scale": float("nan")}

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
        uncertainties=uncertainties,
        residuals_mhz=list(pred - df_obs),
        rss=rss,
        iterations=iterations,
        converged=converged,
        message=message,
    )
    return fitted, report


# ---------------------------------------------------------------------------
# calibration CSV I/O
# ---------------------------------------------------------------------------


def load_calibration_csv(path) -> list[CalibrationSample]:
    """Read calibration samples; columns x_um,y_um,z_um,delta_f_MHz,sigma_MHz."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        names = [n.strip() for n in reader.fieldnames]
        missing = [c for c in CALIBRATION_CSV_COLUMNS if c not in names]
        if missing:
            raise DataFormatError(f"{path}: missing columns {missing}")
        for rownum, row in enumerate(reader, start=2):
            clean = {k.strip(): (v or "").strip() for k, v in row.items() if k is not None}
            try:
                pos = [float(clean["x_um"]), float(clean["y_um"]), float(clean["z_um"])]
                df = float(clean["delta_f_MHz"])
                sigma = float(clean["sigma_MHz"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: row {rownum}: {exc}") from exc
            samples.append(CalibrationSample(position_um=pos, delta_f_mhz=df, sigma_mhz=sigma))
    return samples


def save_calibration_csv(path, samples: list[CalibrationSample]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CALIBRATION_CSV_COLUMNS)
        for s in samples:
            writer.writerow(
                [repr(float(v)) for v in s.position_um]
                + [repr(float(s.delta_f_mhz)), repr(float(s.sigma_mhz))]
            )
