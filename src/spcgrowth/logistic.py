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
vector over the same times, and a validation test half is scored from
its own table with the same objective.

There is one LM loop, ``fit_tables``, and it fits R such tables over the
same times at once. It keeps theta as (R, 4), the residuals as (R, U) and
one damping level lambda, step count and active flag per row; the
Jacobians are stacked as (R, U, 4), and J^T W J and J^T W r are formed by
batched ``matmul`` and solved by batched ``np.linalg.solve``. The inner
damping loop runs in rounds: each round, every active row tries its own
lambda, and each row stops on its own tests. Every operation acts on one
row at a time with the same BLAS and LAPACK calls as a lone fit, so a
row's result (parameters, step count, convergence) does not depend on the
other rows in its call. ``fit_logistic`` fits the table of its points as
the R = 1 case. Every fit stops on the module constants: after
``MAX_ITER`` accepted steps, or on a step that lowers the objective by
less than ``TOL`` relative; it counts as converged when its residual is
orthogonal to the Jacobian columns within ``GTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

# Largest exponent fed to exp(); beyond this the curve has saturated anyway.
EXP_CLAMP = 700.0

# Data scaled to [0, 1] and anchored near the growth phase: unit plateau gap,
# zero lower asymptote, a transition of order two millennia, midpoint at 0.
DEFAULT_INIT_PARAMS = (1.0, 0.0, 0.002, 0.0)

# Most accepted LM steps per fit.
MAX_ITER = 500
# Relative decrease of the objective below which iteration stops.
TOL = 1e-10
# Orthogonality |J_k . r| / (|J_k| |r|) below which the fit counts as
# converged at a stationary point (scale-free gradient criterion).
GTOL = 1e-6


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
class FitResult:
    """A per-point fit; its residuals are ``logistic_eval(params, t) - y``."""

    params: LogisticParams
    rmse: float  # root mean square of the per-point residuals
    n_points: int
    converged: bool
    iterations: int  # accepted LM steps


def logistic_eval(params: LogisticParams, t) -> np.ndarray | float:
    """Evaluate the curve at time(s) ``t``; saturates instead of overflowing."""
    t_arr = np.asarray(t, dtype=float)
    out = _curves(params.as_array()[None, :], t_arr.ravel())[0].reshape(t_arr.shape)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def logistic_inverse(params: LogisticParams, y: float) -> float:
    """Time at which the curve attains ``y``.

    ``y`` must lie strictly between the asymptotes and the ratio in the
    crossing t = d - ln(a / (y - b) - 1) / c must not round to <= 0.
    """
    if params.c == 0:
        raise ParameterError("rate c must be nonzero to invert the curve")
    lo, hi = sorted((params.lower, params.upper))
    if not lo < y < hi:
        raise NumericalError(
            f"level {y} outside the open asymptote interval ({lo}, {hi})"
        )
    ratio = params.a / (y - params.b) - 1.0
    if not ratio > 0:
        raise NumericalError(f"level {y} rounds onto an asymptote (a / (y - b) - 1 = {ratio})")
    return params.d - math.log(ratio) / params.c


def _curves(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f at the times ``t`` (U,) for each row of ``theta`` (R, 4): (R, U)."""
    a, b, c, d = (theta[:, k, None] for k in range(4))
    z = np.clip(-c * (t - d), -EXP_CLAMP, EXP_CLAMP)
    return a / (1.0 + np.exp(z)) + b


def _jacobians(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """df/d(a, b, c, d) at the times ``t`` for each row of ``theta``: (R, U, 4)."""
    a, _, c, d = (theta[:, k, None] for k in range(4))
    z = np.clip(-c * (t - d), -EXP_CLAMP, EXP_CLAMP)
    s = 1.0 / (1.0 + np.exp(z))  # sigmoid
    sw = s * (1.0 - s)
    jac = np.empty(s.shape + (4,))
    jac[..., 0] = s
    jac[..., 1] = 1.0
    jac[..., 2] = a * sw * (t - d)
    jac[..., 3] = -a * c * sw
    return jac


def _objectives(res: np.ndarray, weights: np.ndarray, within_ss: np.ndarray) -> np.ndarray:
    """Per-point sum of squares in centred form, per row: sum W_u res_u^2 + S_w."""
    return (weights[:, None, :] @ (res * res)[:, :, None])[:, 0, 0] + within_ss


def _solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each system; a singular one gives a row of NaN."""
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for k, (matrix, vector) in enumerate(zip(matrices, rhs)):
            try:
                out[k] = np.linalg.solve(matrix, vector)
            except np.linalg.LinAlgError:
                pass
        return out


def time_table(inverse: np.ndarray, y: np.ndarray, n_times: int):
    """Collapse points onto distinct times: ``(counts, means, within_ss)``.

    ``inverse[i]`` is the row (distinct time) of point ``i``. A row no point
    maps to gets count 0 and mean 0. ``within_ss`` is the sum over points of
    (y_i - mean of its row)^2, taken from the deviations themselves and
    summed by numpy's own loop, not BLAS: on more than 10,000 points a BLAS
    ``ddot`` wakes OpenBLAS's worker threads, which then spin for about
    0.1 s of CPU each while the rest of the run is single-threaded.
    """
    counts = np.bincount(inverse, minlength=n_times)
    sums = np.bincount(inverse, weights=y, minlength=n_times)
    means = sums / np.maximum(counts, 1)
    dev = y - means[inverse]
    return counts, means, float(np.einsum("i,i", dev, dev))


@dataclass(frozen=True, eq=False)
class TableFits:
    """R fits over one set of distinct times, row r from table r: what the
    callers read, and nothing per time or per step.

    A row that failed has its message in ``errors`` (None for a row that
    fitted) and NaN parameters; ``converged`` is False for it.
    """

    params: np.ndarray  # (R, 4) canonical (a, b, c, d)
    n_points: np.ndarray  # (R,)
    converged: np.ndarray  # (R,) bool
    iterations: np.ndarray  # (R,) accepted steps
    errors: tuple[str | None, ...]


def fit_tables(
    times: np.ndarray,
    means: np.ndarray,
    weights: np.ndarray,
    within_ss: np.ndarray,
    init: LogisticParams,
) -> TableFits:
    """Levenberg-Marquardt fits of R per-time tables over the same times.

    ``means`` and ``weights`` are (R, U) over ``times`` (U,), ``within_ss``
    is (R,). Each row starts from ``init`` (canonicalised) with its own
    damping and stops on its own tests, so a row gets the same bits
    whichever rows share its call. Nothing raises for the batch: a row with
    fewer than 5 points, a non-finite starting objective or a non-finite
    Jacobian is marked failed with its message.
    """
    n_rows = means.shape[0]
    theta = np.tile(init.canonical().as_array(), (n_rows, 1))
    res = _curves(theta, times) - means
    objective = _objectives(res, weights, within_ss)
    n_points = np.rint(weights.sum(axis=1)).astype(np.int64)
    errors: list[str | None] = [None] * n_rows
    for r in np.flatnonzero((n_points < 5) | ~np.isfinite(objective)):
        if n_points[r] < 5:
            errors[r] = f"need at least 5 points, got {n_points[r]}"
        else:
            errors[r] = "objective not finite at initial parameters"
    lam = np.full(n_rows, 1e-3)
    iterations = np.zeros(n_rows, dtype=np.int64)
    tries = np.zeros(n_rows, dtype=np.int64)  # damping levels tried this step
    active = np.array([e is None for e in errors]) & (MAX_ITER > 0)
    stale = active.copy()  # rows whose normal equations are to be formed
    jtj = np.zeros((n_rows, 4, 4))
    grad = np.zeros((n_rows, 4))
    scale = np.zeros((n_rows, 4, 4))
    diag = np.arange(4)

    # One round: rows that took a step form J^T W J and J^T W r at their
    # new point, then every active row tries its current damping level.
    while active.any():
        rows = np.flatnonzero(stale)
        if rows.size:
            jac = _jacobians(theta[rows], times)
            wjac_t = (jac * weights[rows, :, None]).transpose(0, 2, 1)
            jtj[rows] = wjac_t @ jac
            grad[rows] = (wjac_t @ res[rows, :, None])[..., 0]
            degenerate = ~(
                np.isfinite(jtj[rows]).all(axis=(1, 2)) & np.isfinite(grad[rows]).all(axis=1)
            )
            for r in rows[degenerate]:
                errors[r] = "Jacobian degenerate (non-finite entries)"
            active[rows[degenerate]] = False
            scale[rows[:, None], diag, diag] = np.maximum(jtj[rows][:, diag, diag], 1e-12)
            stale[rows] = False
            tries[rows] = 0
        rows = np.flatnonzero(active)
        if not rows.size:
            break

        step = _solve(jtj[rows] + lam[rows, None, None] * scale[rows], -grad[rows])
        solved = np.flatnonzero(np.isfinite(step).all(axis=1))
        trial = theta[rows[solved]] + step[solved]
        trial_res = _curves(trial, times) - means[rows[solved]]
        trial_obj = _objectives(trial_res, weights[rows[solved]], within_ss[rows[solved]])
        better = np.isfinite(trial_obj) & (trial_obj <= objective[rows[solved]])

        taken = rows[solved[better]]
        rel_decrease = (objective[taken] - trial_obj[better]) / np.maximum(objective[taken], 1e-300)
        theta[taken] = trial[better]
        res[taken] = trial_res[better]
        objective[taken] = trial_obj[better]
        lam[taken] = np.maximum(lam[taken] / 10.0, 1e-12)
        iterations[taken] += 1
        done = (rel_decrease < TOL) | (iterations[taken] >= MAX_ITER)
        active[taken[done]] = False
        stale[taken[~done]] = True

        # A failed solve or a non-finite step only raises the damping; a
        # step that does not decrease the objective stalls the row once
        # the damping passes 1e15, and so do 60 levels without a step.
        missed = np.ones(rows.size, dtype=bool)
        missed[solved[better]] = False
        rejected = np.zeros(rows.size, dtype=bool)
        rejected[solved[~better]] = True
        lam[rows[missed]] *= 10.0
        tries[rows[missed]] += 1
        stalled = (rejected & (lam[rows] > 1e15)) | (missed & (tries[rows] >= 60))
        active[rows[stalled]] = False

    fitted = np.array([e is None for e in errors])
    theta[~fitted] = np.nan
    # canonical orientation: the mirror (-a, a + b, -c, d) of every c <= 0
    flip = fitted & ~(theta[:, 2] > 0)
    a, b, c, d = theta[flip].T
    theta[flip] = np.stack([-a, a + b, -c, d], axis=1)
    res = _curves(theta, times) - means
    rnorm = np.sqrt(_objectives(res, weights, within_ss))
    # At a near-exact fit the residual direction is rounding noise, so the
    # cosine test below is meaningless; call that converged outright.
    ynorm = np.sqrt(_objectives(means, weights, within_ss))
    exact = rnorm <= 1e-12 * np.maximum(1.0, ynorm)
    # max_k |J_k . r| / (|J_k| |r|), the cosine of the steepest column
    # angle, where over the points J_k . r = sum W_u J_uk res_u and
    # |J_k|^2 = sum W_u J_uk^2.
    jac = _jacobians(theta, times)
    g = ((jac * weights[:, :, None]).transpose(0, 2, 1) @ res[:, :, None])[..., 0]
    jac *= jac
    col = np.sqrt(weights[:, None, :] @ jac)[:, 0]
    col[col == 0.0] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.max(np.abs(g) / (col * rnorm[:, None]), axis=1)
    cosine[rnorm == 0.0] = 0.0
    return TableFits(
        params=theta,
        n_points=n_points,
        converged=fitted & (exact | (cosine <= GTOL)),
        iterations=iterations,
        errors=tuple(errors),
    )


def fit_logistic(t, y, init: LogisticParams | None = None) -> FitResult:
    """Least-squares logistic fit of the points (t, y), at least 5: their
    per-time table fitted as the one row of ``fit_tables``.

    ``init`` defaults to ``DEFAULT_INIT_PARAMS``; a negative-rate start is
    canonicalised to its c > 0 mirror, so the returned rate is positive.
    ``converged`` is True when the residual is orthogonal to the Jacobian
    columns within ``GTOL``; otherwise the best iterate comes back with
    ``converged=False`` and the caller decides whether to accept it.
    ``rmse`` is taken over the points. Raises ParameterError for mismatched
    lengths or a zero initial rate, and NumericalError for non-finite
    inputs or a failed row: fewer than 5 points, a non-finite objective at
    the start, or a non-finite Jacobian.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ParameterError("t and y must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise NumericalError("non-finite values in fit input")
    if init is None:
        init = LogisticParams(*DEFAULT_INIT_PARAMS)
    if init.c == 0:
        raise ParameterError("initial rate c must be nonzero")

    times, inverse = np.unique(t, return_inverse=True)
    counts, means, within_ss = time_table(inverse, y, times.size)
    fits = fit_tables(
        times, means[None, :], counts[None, :].astype(float), np.array([within_ss]), init
    )
    if fits.errors[0] is not None:
        raise NumericalError(fits.errors[0])
    params = LogisticParams(*fits.params[0])
    res = logistic_eval(params, t) - y
    return FitResult(
        params=params,
        rmse=float(np.sqrt(np.mean(res**2))),
        n_points=int(fits.n_points[0]),
        converged=bool(fits.converged[0]),
        iterations=int(fits.iterations[0]),
    )
