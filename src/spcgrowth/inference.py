"""Out-of-sample validation, bootstrap, and timescale estimation.

Every stochastic operation here is a pure function of its inputs and an
integer seed: iteration k draws from the k-th child of a seed sequence,
so results are independent of execution order and repeatable bit for bit.
Replicate counts, seeds and k come from the caller; ``PipelineConfig``
holds their defaults.

The bootstrap resamples whole regions (with replacement); a region drawn
twice contributes its points twice. Plateau thresholds are conservative
moment bounds over the resulting parameter ensemble,

    th1 = mean(b) + k * sd(b),      th2 = mean(a + b) - k * sd(a + b),

with the population standard deviation (divide by N). The characteristic
growth duration is the mean gap between each curve's crossings of th1
and th2, over the curves whose asymptote interval contains both.

Validation and bootstrap share one refit driver, ``_refit``. It fits a
stage's replicates with ``fit_tables``, which stops each on the
``logistic`` constants ``MAX_ITER``, ``TOL`` and ``GTOL``, and logs the
stage's counts. Validation scores each fit on its test half's own per-time
table, with the fitter's objective (``_rho2``), so no repeat keeps the
points of its split.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .align import AlignedDataset, CentralSegment, ContinuityMode, central_segments
from .errors import NumericalError, ParameterError
from .logistic import (
    FitResult,
    LogisticParams,
    _curves,
    _objectives,
    fit_logistic,
    fit_tables,
    time_table,
)

logger = logging.getLogger(__name__)

# Refits per call of ``fit_tables``: enough rows to share numpy's per-call
# cost, few enough that a block's tables and (R, U, 4) Jacobian stay well
# under a megabyte however many replicates run.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ValidationReport:
    rho2_values: tuple[float, ...]
    mean_rho2: float
    stderr_rho2: float  # standard error of the mean
    std_rho2: float  # sample standard deviation of the repeats
    seed: int
    n_failed: int = 0


@dataclass(frozen=True, eq=False)
class BootstrapEnsemble:
    n_iter: int
    params: np.ndarray  # (K, 4) canonical (a, b, c, d) of the K fits kept
    failed_fits: int
    seed: int


@dataclass(frozen=True)
class TimescaleEstimate:
    th1: float
    th2: float
    k_sigma: int
    t1_mean: float
    t2_mean: float
    duration_mean: float
    n_crossing_curves: int
    n_excluded_curves: int


@dataclass(frozen=True)
class RegionDuration:
    nga: str
    tau1: float  # first relative year strictly above th1
    tau2: float  # first relative year strictly above th2
    duration: float


@dataclass(frozen=True)
class EmpiricalDurations:
    per_nga: tuple[RegionDuration, ...]
    excluded: tuple[str, ...]  # regions never exceeding th2
    mean_duration: float
    median_duration: float


def _split_indices(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    half = n // 2
    return perm[:half], perm[half:]  # train, test (test gets the odd point)


def _refit(stage: str, n_fits: int, seed: int, times, init: LogisticParams, draw, score):
    """Fit and score a stage's ``n_fits`` refits over ``times``.

    Refit k draws from the k-th child of ``SeedSequence(seed)``: ``draw(rng)``
    returns its ``(counts, means, within_ss)`` table plus what ``score``
    needs. Tables are built, fitted and scored ``_BLOCK_ROWS`` at a time, so
    memory does not grow with ``n_fits``. ``score(params, drawn)`` makes a
    fitted (a, b, c, d) row the stage's value; a row that failed to fit, or
    whose score raises NumericalError, is dropped and counted. Logs one INFO
    line of the counts (fits, LM iterations, unconverged, failed) and, when
    a fit failed, one WARNING with the first reason. Returns
    ``(values, n_failed)``.
    """
    seeds = np.random.SeedSequence(seed)
    values, failures = [], []
    lm_iterations = n_unconverged = 0
    for start in range(0, n_fits, _BLOCK_ROWS):
        block = seeds.spawn(min(_BLOCK_ROWS, n_fits - start))
        counts, means = np.empty((2, len(block), times.size))
        within_ss = np.empty(len(block))
        drawn = []
        for r, child in enumerate(block):
            counts[r], means[r], within_ss[r], extra = draw(np.random.default_rng(child))
            drawn.append(extra)
        fits = fit_tables(times, means, counts, within_ss, init)
        fitted = np.array([e is None for e in fits.errors])
        lm_iterations += int(fits.iterations.sum())
        n_unconverged += int(np.count_nonzero(fitted & ~fits.converged))
        for params, error, extra in zip(fits.params, fits.errors, drawn):
            if error is None:
                try:
                    values.append(score(params, extra))
                    continue
                except NumericalError as exc:
                    error = str(exc)
            failures.append(error)
    tally = (n_fits, lm_iterations, n_unconverged, len(failures))
    logger.info("%s: %d fits, %d LM iterations, %d unconverged, %d failed", stage, *tally)
    if failures:
        logger.warning(
            "%s: %d of %d fits failed (first: %s)", stage, len(failures), n_fits, failures[0]
        )
    return values, len(failures)


def _rho2(times, params, counts, means, within_ss) -> float:
    """rho^2 = 1 - SSE / SST of the curve ``params`` (a, b, c, d) on the
    points whose per-time table over ``times`` is ``(counts, means,
    within_ss)``: 1 for an exact prediction, 0 for one at the points' mean,
    negative for worse. Both sums are the fitter's centred objective,

        SSE = sum_u W_u (f(t_u) - y_u)^2 + S_w,
        SST = sum_u W_u (y_u - ybar)^2 + S_w,

    with ybar the points' mean, so each equals its sum over the points.
    Raises NumericalError when the points are constant: when SST is zero to
    rounding against their sum of squares, by ``fit_tables``' exactness test.
    """
    weights = np.array([counts] * 3, dtype=float)
    ybar = float(weights[0] @ means) / float(weights[0].sum())
    centred = [_curves(params[None, :], times)[0], np.full(times.size, ybar), np.zeros(times.size)]
    sse, sst, total = _objectives(np.array(centred) - means, weights, np.full(3, within_ss))
    if sst <= 1e-24 * max(1.0, total):
        raise NumericalError("test half has zero variance")
    return 1.0 - float(sse) / float(sst)


def out_of_sample_validation(
    aligned: AlignedDataset,
    full_fit: FitResult,
    n_repeats: int,
    seed: int,
) -> ValidationReport:
    """Repeated random 50/50 train/test splits of the pooled points.

    Each repeat fits the training half (warm-started from the full fit)
    and scores the prediction on the test half. Repeats whose training
    fit degenerates, or whose test half has zero variance, are excluded
    and counted. Each half is collapsed onto its own table over the pooled
    distinct times: the training half's is fitted, the test half's scored.
    """
    t, y = aligned.pooled()
    if t.size < 10:
        raise NumericalError(f"need at least 10 pooled points, got {t.size}")
    if n_repeats < 1:
        raise ParameterError("n_repeats must be >= 1")
    times, inverse = np.unique(t, return_inverse=True)

    def draw(rng):
        train, test = _split_indices(rng, t.size)
        table = time_table(inverse[train], y[train], times.size)
        return *table, time_table(inverse[test], y[test], times.size)

    def score(params, test):
        return _rho2(times, params, *test)

    rho2, n_failed = _refit("validation", n_repeats, seed, times, full_fit.params, draw, score)
    if not rho2:
        raise NumericalError("every validation repeat failed")
    values = np.array(rho2)
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return ValidationReport(
        rho2_values=tuple(float(v) for v in values),
        mean_rho2=float(values.mean()),
        stderr_rho2=std / float(np.sqrt(values.size)),
        std_rho2=std,
        seed=seed,
        n_failed=n_failed,
    )


def bootstrap_fits(
    aligned: AlignedDataset,
    full_fit: FitResult,
    n_iter: int,
    seed: int,
) -> BootstrapEnsemble:
    """Region-level bootstrap of the pooled logistic fit.

    Each iteration draws len(regions) region names with replacement,
    pools their points (duplicates contribute duplicate points), and fits
    warm-started from the full fit. Failed fits are dropped, not retried,
    so the drop rate stays visible.

    A replicate is fitted as a table over the pooled distinct times: with
    m_r the number of times region r was drawn, its per-time counts, sums
    and sums of squares are m @ the per-region tables, built once. Sums
    are taken of deviations from the pooled per-time means, so the
    replicate's within-time sum of squares has no large terms to cancel.
    """
    n_regions = len(aligned.regions)
    if n_regions < 1:
        raise ParameterError("need at least 1 retained region")
    if n_iter < 1:
        raise ParameterError("n_iter must be >= 1")

    t, y = aligned.pooled()
    times, inverse = np.unique(t, return_inverse=True)
    _, center, _ = time_table(inverse, y, times.size)
    dev = y - center[inverse]
    region = np.repeat(np.arange(n_regions), [r.rel_time.size for r in aligned.regions])
    cell = region * times.size + inverse
    # row r: region r's point count, deviation sum and squared-deviation
    # sum at each distinct time, side by side
    table = np.hstack(
        [
            np.bincount(cell, weights=w, minlength=n_regions * times.size).reshape(
                n_regions, times.size
            )
            for w in (None, dev, dev * dev)
        ]
    )

    def draw(rng):
        drawn = rng.integers(0, n_regions, size=n_regions)
        counts, sums, squares = (np.bincount(drawn, minlength=n_regions) @ table).reshape(3, -1)
        shift = sums / np.maximum(counts, 1.0)
        return counts, center + shift, max(float(np.sum(squares - sums * shift)), 0.0), None

    params, n_failed = _refit(
        "bootstrap", n_iter, seed, times, full_fit.params, draw, lambda row, _: row
    )
    if not params:
        raise NumericalError("every bootstrap iteration failed")
    return BootstrapEnsemble(
        n_iter=n_iter,
        params=np.array(params),
        failed_fits=n_failed,
        seed=seed,
    )


def plateau_thresholds(ensemble: BootstrapEnsemble, k_sigma: int) -> tuple[float, float]:
    """Conservative plateau bounds from ensemble moments (population sd)."""
    if k_sigma not in (1, 3):
        raise ParameterError(f"k_sigma must be 1 or 3, got {k_sigma}")
    if not len(ensemble.params):
        raise ParameterError("ensemble is empty")
    lower = ensemble.params[:, 1]
    upper = ensemble.params[:, 0] + lower
    th1 = float(lower.mean() + k_sigma * lower.std())
    th2 = float(upper.mean() - k_sigma * upper.std())
    if th1 >= th2:
        raise NumericalError(
            f"thresholds inverted (th1={th1:.6g} >= th2={th2:.6g}); "
            "ensemble spread too large to separate the plateaus"
        )
    return th1, th2


def characteristic_timescale(
    ensemble: BootstrapEnsemble, th1: float, th2: float, k_sigma: int
) -> TimescaleEstimate:
    """Mean relative-time gap between threshold crossings over the ensemble.

    A curve that does not cross both thresholds in floating point (where
    ``logistic_inverse`` raises NumericalError) is excluded and counted
    rather than clamped, which would bias the duration toward zero.
    """
    if not th1 < th2:
        raise ParameterError(f"need th1 < th2, got ({th1}, {th2})")
    t1 = _crossings(ensemble.params, th1)
    t2 = _crossings(ensemble.params, th2)
    crossing = ~(np.isnan(t1) | np.isnan(t2))
    if not crossing.any():
        raise NumericalError("no bootstrap curve crosses both thresholds")
    t1, t2 = t1[crossing], t2[crossing]
    durations = t2 - t1
    return TimescaleEstimate(
        th1=float(th1),
        th2=float(th2),
        k_sigma=k_sigma,
        t1_mean=float(t1.mean()),
        t2_mean=float(t2.mean()),
        duration_mean=float(durations.mean()),
        n_crossing_curves=int(durations.size),
        n_excluded_curves=len(ensemble.params) - int(durations.size),
    )


def _crossings(params: np.ndarray, level: float) -> np.ndarray:
    """``logistic_inverse`` of each finite (a, b, c, d) row at ``level``,
    bit for bit, with NaN where it raises NumericalError.

    The rows' checks and arithmetic are numpy's, which rounds each step as
    Python's floats do; each log is ``math.log``'s, one value at a time.
    """
    a, b, c, d = params.T
    if not c.all():
        raise ParameterError("rate c must be nonzero to invert the curve")
    inside = (np.minimum(b, a + b) < level) & (level < np.maximum(b, a + b))
    rows = np.flatnonzero(inside)
    times = np.full(len(a), np.nan)
    with np.errstate(over="ignore"):
        ratio = a[rows] / (level - b[rows]) - 1.0
        positive = ratio > 0
        rows, ratio = rows[positive], ratio[positive]
        logs = np.array([math.log(r) for r in ratio.tolist()], dtype=float)
        times[rows] = d[rows] - logs / c[rows]
    return times


def empirical_durations(
    aligned: AlignedDataset, th1: float, th2: float
) -> EmpiricalDurations:
    """Observed per-region durations between first crossings of th1/th2.

    tau1/tau2 are the first relative years whose scaled score strictly
    exceeds the respective threshold; regions that never exceed th2 are
    listed as excluded.
    """
    if not th1 < th2:
        raise ParameterError(f"need th1 < th2, got ({th1}, {th2})")
    entries = []
    excluded = []
    for region in aligned.regions:
        scaled = region.scaled
        above2 = np.nonzero(scaled > th2)[0]
        if above2.size == 0:
            excluded.append(region.nga)
            continue
        above1 = np.nonzero(scaled > th1)[0]
        tau1 = float(region.rel_time[int(above1[0])])
        tau2 = float(region.rel_time[int(above2[0])])
        entries.append(RegionDuration(region.nga, tau1, tau2, tau2 - tau1))
    durations = np.array([e.duration for e in entries])
    return EmpiricalDurations(
        per_nga=tuple(entries),
        excluded=tuple(excluded),
        mean_duration=float(durations.mean()) if durations.size else float("nan"),
        median_duration=_median(durations) if durations.size else float("nan"),
    )


def _median(values: np.ndarray) -> float:
    """The median of a non-empty array without NaNs, bit for bit as
    ``np.median`` gives it: the mean of the middle value, or of the two
    middle values, of one sort. ``np.median`` itself loads ``numpy.ma``."""
    n = values.size
    return float(np.mean(np.sort(values)[(n - 1) // 2 : n // 2 + 1]))


@dataclass(frozen=True)
class ContinuityComparison:
    mode: ContinuityMode
    fit: FitResult
    segments: tuple[CentralSegment, ...]
    skipped: tuple[str, ...]

    @property
    def mean_length(self) -> float:
        return float(np.mean([s.length for s in self.segments]))

    def length_ranking(self) -> list[tuple[str, int]]:
        return sorted(
            ((s.nga, s.length) for s in self.segments), key=lambda x: (-x[1], x[0])
        )


def continuity_comparison(
    aligned: AlignedDataset,
    full_fit: FitResult,
    mode: ContinuityMode,
) -> ContinuityComparison:
    """Refit the curve on pooled central segments for one continuity mode."""
    segments, skipped = central_segments(aligned, mode)
    if len(segments) < 2:
        raise NumericalError(
            f"continuity mode {mode.value}: only {len(segments)} region(s) "
            "have a central segment"
        )
    t = np.concatenate([s.rel_time for s in segments])
    y = np.concatenate([s.scaled for s in segments])
    if t.size < 5:
        raise NumericalError(
            f"continuity mode {mode.value}: only {t.size} pooled point(s)"
        )
    fit = fit_logistic(t, y, init=full_fit.params)
    return ContinuityComparison(
        mode=mode, fit=fit, segments=tuple(segments), skipped=tuple(skipped)
    )
