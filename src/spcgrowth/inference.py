"""Out-of-sample validation, bootstrap, and timescale estimation.

Every stochastic operation here is a pure function of its inputs and an
integer seed: iteration k draws from the k-th child of a seed sequence,
so results are independent of execution order and repeatable bit for bit.
Replicate counts, seeds and k come from the caller: a run takes the
counts and seeds from ``PipelineConfig`` and k from ``pipeline.K_SIGMAS``.

The bootstrap resamples whole regions (with replacement); a region drawn
twice contributes its points twice. Plateau thresholds are conservative
moment bounds over the resulting parameter ensemble,

    th1 = mean(b) + k * sd(b),      th2 = mean(a + b) - k * sd(a + b),

with the population standard deviation (divide by N). The characteristic
growth duration is the mean gap between each curve's crossings of th1
and th2, over the curves whose asymptote interval contains both.

Validation and bootstrap share one refit driver, ``_refit``. It works a
block of replicates at a time: the stage's ``draw`` turns the block's
random generators into its per-time tables, ``fit_tables`` fits them,
stopping each on the ``logistic`` constants ``MAX_ITER``, ``TOL`` and
``GTOL``, and the stage's ``score`` turns the block's parameters into its
values. Only the random calls, and validation's tabling of each split,
run once per replicate. ``_refit`` logs the stage's counts.

Validation scores each block of fits on its test halves' own per-time
tables, with the fitter's objective (``_rho2``), so no repeat keeps the
points of its split. Both stages table over the aligned panel's distinct
times, ``AlignedDataset.time_rows``, which is computed once per panel.

A continuity comparison pools each region's central segment, a slice of
the region's rows (``align.central_segments``), and keeps each segment's
length beside its fit, not the segment's points.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .align import AlignedDataset, ContinuityMode, central_segments, first_above
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

    Refit k draws from the k-th child of ``SeedSequence(seed)``. Refits run
    ``_BLOCK_ROWS`` at a time, so memory does not grow with ``n_fits``.
    ``draw(rngs)`` takes a block's generators, one per refit, and returns
    the block's tables ``(counts, means, within_ss)`` as (R, U), (R, U) and
    (R,) arrays, plus what ``score`` needs. ``score(params, drawn)`` makes
    the block's fitted (R, 4) parameters the stage's values, one per row,
    and returns them with the reason each row could not be scored (None
    for a row that could). Neither computes a row from another row, so a
    refit gets the same bits in any block. A row that failed to fit or to
    score is dropped and counted. Logs one INFO line of the counts (fits,
    LM iterations, unconverged, failed) and, when a fit failed, one
    WARNING with the first reason. Returns ``(values, n_failed)``.
    """
    seeds = np.random.SeedSequence(seed)
    values, failures = [], []
    lm_iterations = n_unconverged = 0
    for start in range(0, n_fits, _BLOCK_ROWS):
        block = seeds.spawn(min(_BLOCK_ROWS, n_fits - start))
        counts, means, within_ss, drawn = draw([np.random.default_rng(c) for c in block])
        params, converged, iterations, errors = fit_tables(times, means, counts, within_ss, init)
        fitted = np.array([e is None for e in errors])
        lm_iterations += int(iterations.sum())
        n_unconverged += int(np.count_nonzero(fitted & ~converged))
        scores, score_errors = score(params, drawn)
        for value, fit_error, score_error in zip(scores, errors, score_errors):
            error = fit_error or score_error
            if error:
                failures.append(error)
            else:
                values.append(value)
    tally = (n_fits, lm_iterations, n_unconverged, len(failures))
    logger.info("%s: %d fits, %d LM iterations, %d unconverged, %d failed", stage, *tally)
    if failures:
        logger.warning(
            "%s: %d of %d fits failed (first: %s)", stage, len(failures), n_fits, failures[0]
        )
    return values, len(failures)


def _rho2(times, params, counts, means, within_ss) -> tuple[np.ndarray, list[str | None]]:
    """rho^2 = 1 - SSE / SST of each curve ``params[r]`` (a, b, c, d) on the
    points whose per-time table over ``times`` is ``(counts[r], means[r],
    within_ss[r])``: 1 for an exact prediction, 0 for one at the points'
    mean, negative for worse. Both sums are the fitter's centred objective,

        SSE = sum_u W_u (f(t_u) - y_u)^2 + S_w,
        SST = sum_u W_u (y_u - ybar)^2 + S_w,

    with ybar the points' mean, so each equals its sum over the points.
    Rows are scored together, each from its own table alone. Returns the
    (R,) values and, per row, the reason it has none (None if it has one):
    a row whose points are constant, so that SST is zero to rounding
    against their sum of squares by ``fit_tables``' exactness test, gets
    NaN and "test half has zero variance".
    """
    weights = np.tile(counts, (3, 1))
    ybar = (counts[:, None, :] @ means[:, :, None])[:, 0, 0] / counts.sum(axis=1)
    centred = np.concatenate([_curves(params, times) - means, ybar[:, None] - means, -means])
    sse, sst, total = _objectives(centred, weights, np.tile(within_ss, 3)).reshape(3, -1)
    constant = sst <= 1e-24 * np.maximum(1.0, total)
    rho2 = 1.0 - sse / np.where(constant, 1.0, sst)
    rho2[constant] = np.nan
    return rho2, ["test half has zero variance" if c else None for c in constant]


def _stack(tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``time_table`` results as one block: (R, U) counts and means, (R,) within_ss."""
    counts, means, within_ss = zip(*tables)
    return np.array(counts, dtype=float), np.array(means), np.array(within_ss)


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
    A repeat's split is made and tabled alone, so a block holds R tables
    and never R splits of the points.
    """
    t, y = aligned.pooled()
    if t.size < 10:
        raise NumericalError(f"need at least 10 pooled points, got {t.size}")
    if n_repeats < 1:
        raise ParameterError("n_repeats must be >= 1")
    times, inverse = aligned.time_rows

    def table(half):
        return time_table(inverse[half], y[half], times.size)

    def draw(rngs):
        train, test = zip(*([table(h) for h in _split_indices(rng, t.size)] for rng in rngs))
        return *_stack(train), _stack(test)

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

    _, y = aligned.pooled()
    times, inverse = aligned.time_rows
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

    def draw(rngs):
        rows = len(rngs)
        drawn = np.array([rng.integers(0, n_regions, size=n_regions) for rng in rngs])
        drawn += n_regions * np.arange(rows)[:, None]
        m = np.bincount(drawn.ravel(), minlength=rows * n_regions).reshape(rows, n_regions)
        # one matrix-vector product per row, as numpy computes a lone
        # replicate's m @ table; a 2-D m @ table is a matrix product whose
        # BLAS kernel sums in another order, and so moves the bits
        stacked = (m[:, None, :] @ table)[:, 0].reshape(rows, 3, -1)
        counts, sums, squares = stacked.transpose(1, 0, 2)
        shift = sums / np.maximum(counts, 1.0)
        within_ss = np.maximum(np.sum(squares - sums * shift, axis=1), 0.0)
        return counts, center + shift, within_ss, None

    def score(params, _):
        return params, [None] * len(params)

    params, n_failed = _refit("bootstrap", n_iter, seed, times, full_fit.params, draw, score)
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
        row2 = first_above(region.scaled, th2)
        if row2 is None:
            excluded.append(region.nga)
            continue
        tau1 = float(region.rel_time[first_above(region.scaled, th1)])
        tau2 = float(region.rel_time[row2])
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
    lengths: tuple[tuple[str, int], ...]  # (nga, central segment length), region order
    skipped: tuple[str, ...]

    @property
    def mean_length(self) -> float:
        return float(np.mean([length for _, length in self.lengths]))

    def length_ranking(self) -> list[tuple[str, int]]:
        return sorted(self.lengths, key=lambda x: (-x[1], x[0]))


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
    t = np.concatenate([region.rel_time[seg] for region, seg in segments])
    y = np.concatenate([region.scaled[seg] for region, seg in segments])
    if t.size < 5:
        raise NumericalError(
            f"continuity mode {mode.value}: only {t.size} pooled point(s)"
        )
    fit = fit_logistic(t, y, init=full_fit.params)
    lengths = tuple((region.nga, seg.stop - seg.start) for region, seg in segments)
    return ContinuityComparison(mode=mode, fit=fit, lengths=lengths, skipped=tuple(skipped))
