"""Four-parameter logistic growth model and least-squares fitting.

The curve is

    f(t) = a / (1 + exp(-c * (t - d))) + b

with lower asymptote ``b`` (t -> -inf) and upper asymptote ``a + b``
(t -> +inf) when ``a, c > 0``. The parametrisation is ambiguous under the
mirror map (a, b, c, d) -> (-a, a + b, -c, d), which produces the exact
same curve with the rate sign flipped; everything here canonicalises to
c > 0 so downstream consumers can rely on a single, increasing form.

Fitting is damped Gauss-Newton (Levenberg-Marquardt) with the analytic
Jacobian, minimising the sum of squared residuals (predicted - observed).

Relative times are century multiples, so a fit of N points has only U
distinct times (about 95 for a whole panel). The fitter works on the
per-time table: for each distinct time t_u the weight W_u (number of
points) and the mean observed value y_u, plus the within-time sum of
squares S_w = sum_i (y_i - y_u)^2 over all points. The objective is taken
in the centred form

    SSE = sum_u W_u (f(t_u) - y_u)^2 + S_w,

which equals the per-point sum of squared residuals, so every stopping
test reads the same as over the points: the gradient is J^T W r, the
normal matrix J^T W J, and the convergence cosine uses
|J_k|^2 = sum_u W_u J_uk^2 and |r|^2 = SSE. (Expanding the square into
sum W f^2 - 2 f sum y + sum y^2 instead cancels catastrophically.) A
bootstrap replicate or a training split is then just another weight
vector over the same times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError

# Largest exponent fed to exp(); beyond this the curve has saturated anyway.
EXP_CLAMP = 700.0

# Data scaled to [0, 1] and anchored near the growth phase: unit plateau gap,
# zero lower asymptote, a transition of order two millennia, midpoint at 0.
DEFAULT_INIT_PARAMS = (1.0, 0.0, 0.002, 0.0)


@dataclass(frozen=True)
class LogisticParams:
    """Parameters (a, b, c, d): plateau gap, lower asymptote, rate, midpoint."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # Plain floats throughout, so reprs and reports never leak numpy
        # scalar types.
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def lower(self) -> float:
        # b for the canonical orientation; min() keeps the mirrored form honest
        return min(self.b, self.a + self.b)

    @property
    def upper(self) -> float:
        return max(self.b, self.a + self.b)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=float)

    def mirrored(self) -> "LogisticParams":
        """The equivalent parametrisation with the rate sign flipped."""
        return LogisticParams(-self.a, self.a + self.b, -self.c, self.d)

    def canonical(self) -> "LogisticParams":
        """This curve with c > 0 (identity when already canonical)."""
        return self if self.c > 0 else self.mirrored()


@dataclass(frozen=True)
class FitConfig:
    max_iter: int = 500
    # Relative decrease of the objective below which iteration stops.
    tol: float = 1e-10
    # Orthogonality |J_k . r| / (|J_k| |r|) below which the fit counts as
    # converged at a stationary point (scale-free gradient criterion).
    gtol: float = 1e-6


@dataclass(frozen=True)
class FitResult:
    params: LogisticParams
    residuals: np.ndarray  # predicted - observed, per point (per row for a table)
    rmse: float
    n_points: int
    converged: bool
    iterations: int
    # Objective (sum of squared residuals) after each accepted step,
    # starting with the initial value. Non-increasing by construction.
    objective_history: tuple[float, ...] = field(default_factory=tuple)

    @property
    def objective(self) -> float:
        return self.objective_history[-1]


def logistic_eval(params: LogisticParams, t) -> np.ndarray | float:
    """Evaluate the curve at time(s) ``t``; saturates instead of overflowing."""
    t_arr = np.asarray(t, dtype=float)
    z = np.clip(-params.c * (t_arr - params.d), -EXP_CLAMP, EXP_CLAMP)
    out = params.a / (1.0 + np.exp(z)) + params.b
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def logistic_inverse(params: LogisticParams, y: float) -> float:
    """Time at which the curve attains ``y``.

    ``y`` must lie strictly between the asymptotes; the crossing is then
    t = d - ln(a / (y - b) - 1) / c.
    """
    if params.c == 0:
        raise ParameterError("rate c must be nonzero to invert the curve")
    lo, hi = sorted((params.lower, params.upper))
    if not lo < y < hi:
        raise NumericalError(
            f"level {y} outside the open asymptote interval ({lo}, {hi})"
        )
    ratio = params.a / (y - params.b) - 1.0
    return params.d - math.log(ratio) / params.c


def logistic_jacobian(params: LogisticParams, t: np.ndarray) -> np.ndarray:
    """Partial derivatives of f w.r.t. (a, b, c, d), shape (n, 4)."""
    t = np.asarray(t, dtype=float)
    z = np.clip(-params.c * (t - params.d), -EXP_CLAMP, EXP_CLAMP)
    s = 1.0 / (1.0 + np.exp(z))  # sigmoid
    sw = s * (1.0 - s)
    jac = np.empty((t.size, 4))
    jac[:, 0] = s
    jac[:, 1] = 1.0
    jac[:, 2] = params.a * sw * (t - params.d)
    jac[:, 3] = -params.a * params.c * sw
    return jac


def time_table(inverse: np.ndarray, y: np.ndarray, n_times: int):
    """Collapse points onto distinct times: ``(counts, means, within_ss)``.

    ``inverse[i]`` is the row (distinct time) of point ``i``. A row no point
    maps to gets count 0 and mean 0. ``within_ss`` is the sum over points of
    (y_i - mean of its row)^2, taken from the deviations themselves.
    """
    counts = np.bincount(inverse, minlength=n_times)
    sums = np.bincount(inverse, weights=y, minlength=n_times)
    means = sums / np.maximum(counts, 1)
    dev = y - means[inverse]
    return counts, means, float(dev @ dev)


def _objective(res: np.ndarray, weights: np.ndarray, within_ss: float) -> float:
    """Per-point sum of squares in centred form: sum W_u res_u^2 + within_ss."""
    return float(weights @ (res * res)) + within_ss


def _scaled_gradient_norm(
    jac: np.ndarray, res: np.ndarray, weights: np.ndarray, rnorm: float
) -> float:
    """max_k |J_k . r| / (|J_k| |r|): cosine of the steepest column angle.

    Over the points, J_k . r = sum W_u J_uk res_u and |J_k|^2 = sum W_u J_uk^2;
    ``rnorm`` is the square root of the objective.
    """
    if rnorm == 0.0:
        return 0.0
    g = (jac * weights[:, None]).T @ res
    col = np.sqrt(weights @ (jac * jac))
    col[col == 0.0] = np.inf
    return float(np.max(np.abs(g) / (col * rnorm)))


def fit_logistic(
    t,
    y,
    init: LogisticParams | None = None,
    config: FitConfig | None = None,
    weights=None,
    within_ss: float = 0.0,
) -> FitResult:
    """Least-squares logistic fit via Levenberg-Marquardt.

    Parameters
    ----------
    t, y : array-like
        Without ``weights``: times and observed values, at least 5 points.
        They are collapsed onto their distinct times before fitting.
        With ``weights``: a per-time table, ``t`` the times and ``y`` the
        mean observed value at each.
    init : LogisticParams, optional
        Starting point. A negative-rate start is canonicalised to its
        c > 0 mirror before optimisation, so the returned rate is always
        positive. Defaults to ``DEFAULT_INIT_PARAMS``.
    config : FitConfig, optional
    weights : array-like, optional
        Number of points at each time of the table (0 allowed); at least
        5 in total.
    within_ss : float
        With ``weights``: sum over the points of (y_i - y_u)^2, where y_u
        is the mean of the point's time. It makes the objective the
        per-point sum of squares.

    Returns
    -------
    FitResult
        ``converged`` is True when the residual is orthogonal to the
        Jacobian columns within ``config.gtol``; otherwise the best
        iterate is returned with ``converged=False`` and the caller
        decides whether to accept it. ``residuals`` are per point, or
        per table row when ``weights`` is given.

    Raises
    ------
    ParameterError
        Fewer than 5 points, mismatched lengths, negative weights or
        ``within_ss``, or zero initial rate.
    NumericalError
        Non-finite inputs, or normal equations singular at full damping.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ParameterError("t and y must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise NumericalError("non-finite values in fit input")
    per_point = weights is None
    if per_point:
        times, inverse = np.unique(t, return_inverse=True)
        counts, means, within_ss = time_table(inverse, y, times.size)
        weights = counts.astype(float)
        n_points = t.size
    else:
        times, means = t, y
        weights = np.asarray(weights, dtype=float)
        if weights.shape != t.shape or not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ParameterError("weights must be finite, >= 0 and one per time")
        if not (math.isfinite(within_ss) and within_ss >= 0):
            raise ParameterError(f"within_ss must be finite and >= 0, got {within_ss}")
        n_points = int(round(float(weights.sum())))
    if n_points < 5:
        raise ParameterError(f"need at least 5 points, got {n_points}")

    if init is None:
        init = LogisticParams(*DEFAULT_INIT_PARAMS)
    if init.c == 0:
        raise ParameterError("initial rate c must be nonzero")
    cfg = config or FitConfig()

    params = init.canonical()
    theta = params.as_array()
    res = _residuals(theta, times, means)
    objective = _objective(res, weights, within_ss)
    if not math.isfinite(objective):
        raise NumericalError("objective not finite at initial parameters")

    history = [objective]
    lam = 1e-3
    iterations = 0

    for _ in range(cfg.max_iter):
        jac = logistic_jacobian(LogisticParams(*theta), times)
        wjac = jac * weights[:, None]
        jtj = wjac.T @ jac
        g = wjac.T @ res
        if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(g))):
            raise NumericalError("Jacobian degenerate (non-finite entries)")
        scale = np.diag(np.maximum(np.diag(jtj), 1e-12))

        # Try increasingly damped steps until one decreases the objective.
        step_taken = False
        for _ in range(60):
            damp = jtj + lam * scale
            try:
                delta = np.linalg.solve(damp, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            trial = theta + delta
            trial_res = _residuals(trial, times, means)
            trial_obj = _objective(trial_res, weights, within_ss)
            if math.isfinite(trial_obj) and trial_obj <= objective:
                theta, res = trial, trial_res
                rel_decrease = (objective - trial_obj) / max(objective, 1e-300)
                objective = trial_obj
                history.append(objective)
                lam = max(lam / 10.0, 1e-12)
                iterations += 1
                step_taken = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not step_taken:
            break  # stalled: no damping level improves the objective
        if rel_decrease < cfg.tol:
            break

    final = LogisticParams(*theta).canonical()
    theta = final.as_array()
    res = _residuals(theta, times, means)
    rnorm = math.sqrt(_objective(res, weights, within_ss))
    # At a near-exact fit the residual direction is rounding noise, so the
    # cosine test below is meaningless; call that converged outright.
    ynorm = math.sqrt(_objective(means, weights, within_ss))
    exact = rnorm <= 1e-12 * max(1.0, ynorm)
    converged = exact or (
        _scaled_gradient_norm(logistic_jacobian(final, times), res, weights, rnorm) <= cfg.gtol
    )
    if per_point:
        res = _residuals(theta, t, y)
        rmse = float(np.sqrt(np.mean(res**2)))
    else:
        rmse = rnorm / math.sqrt(weights.sum())
    return FitResult(
        params=final,
        residuals=res,
        rmse=rmse,
        n_points=n_points,
        converged=converged,
        iterations=iterations,
        objective_history=tuple(history),
    )


def _residuals(theta: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    return logistic_eval(LogisticParams(*theta), t) - y


def coefficient_of_prediction(predicted, actual) -> float:
    """1 - SSE / SST: 1 for exact prediction, 0 for mean-level accuracy.

    Negative when the prediction is worse than always using the mean.
    """
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ParameterError("predicted and actual must have equal nonzero length")
    sst = float(np.sum((actual.mean() - actual) ** 2))
    if sst == 0.0:
        raise NumericalError("actual values have zero variance")
    sse = float(np.sum((predicted - actual) ** 2))
    return 1.0 - sse / sst
