"""Levenberg-Marquardt least squares with an analytic Jacobian.

The one solver of the package: the Lorentzian and cosine fits of
``reconstruction`` and the wire calibration of ``field_model`` all call
``curve_fit``.  It needs numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FitConvergenceError, ValidationError

# Levenberg-Marquardt constants of curve_fit: initial damping, MINPACK's
# default stopping tolerances, and the budget of trial steps.  A resolved
# peak takes about ten steps; a peak narrower than the grid step (zero-pad 1,
# or a hann profile split by its nulls at +-1 pixel) has no minimum, and the
# fit then crawls towards a spike for hundreds of steps or more
_LM_LAMBDA0 = 1e-3
_LM_FTOL = 1.5e-8
_LM_XTOL = 1.5e-8
_LM_MAX_STEPS = 20000


def curve_fit(model, xdata, ydata, p0, jac):
    """Levenberg-Marquardt least squares of ``model(xdata, *p)`` to ``ydata``.

    ``jac(xdata, *p)`` is the model's (m, n) Jacobian.  Each step solves the
    normal equations with the diagonal of JᵀJ scaled by (1 + λ); λ starts at
    1e-3 and is divided by 10 when a step lowers the residual sum of squares
    and multiplied by 10 when it does not.  The fit stops on MINPACK's tests:
    an accepted step lowers the sum of squares by at most ``_LM_FTOL`` of it,
    or a step is at most ``_LM_XTOL`` of the parameters, with step and
    parameters both scaled by the column norms of J.  Returns ``(popt, pcov)`` with
    pcov = inv(JᵀJ)·RSS/(m - n), infinite when m <= n or JᵀJ is singular;
    raises ValidationError when the residual sum of squares at ``p0`` is not
    finite (NaN or infinite data), and FitConvergenceError when
    ``_LM_MAX_STEPS`` trial steps do not reach a stop.

    The model is called once for every evaluation, so a wrapper around it
    can count evaluations.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.asarray(p0, dtype=float)
    resid = y - model(x, *p.tolist())
    rss = float(resid @ resid)
    if not math.isfinite(rss):
        raise ValidationError("fit data or starting point give a non-finite residual")
    lam = _LM_LAMBDA0
    jtj = None
    for _ in range(_LM_MAX_STEPS):
        if jtj is None:
            j = jac(x, *p.tolist())
            jtj, grad = j.T @ j, j.T @ resid
            scale = np.sqrt(jtj.diagonal())
            scaled_p = scale * p
            xtol_bound = _LM_XTOL**2 * (scaled_p @ scaled_p)
        damped = jtj.copy()
        damped.flat[:: len(p) + 1] += lam * jtj.diagonal()
        try:
            step = np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(f"fit normal equations are singular: {exc}") from exc
        scaled_step = scale * step
        small_step = scaled_step @ scaled_step <= xtol_bound
        trial = p + step
        trial_resid = y - model(x, *trial.tolist())
        trial_rss = float(trial_resid @ trial_resid)
        if trial_rss < rss:
            small_decrease = rss - trial_rss <= _LM_FTOL * rss
            p, resid, rss = trial, trial_resid, trial_rss
            if small_decrease or small_step:
                return p, _covariance(jac(x, *p.tolist()), rss)
            lam /= 10.0
            jtj = None
        elif small_step:
            return p, _covariance(j, rss)
        else:
            lam *= 10.0
    raise FitConvergenceError(f"least-squares fit did not converge in {_LM_MAX_STEPS} steps")


def _covariance(j: np.ndarray, rss: float) -> np.ndarray:
    """inv(JᵀJ)·RSS/(m - n); infinite when m <= n or JᵀJ is singular."""
    m, n = j.shape
    if m > n:
        try:
            return np.linalg.inv(j.T @ j) * (rss / (m - n))
        except np.linalg.LinAlgError:
            pass
    return np.full((n, n), np.inf)
