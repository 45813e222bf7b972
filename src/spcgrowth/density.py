"""Gaussian kernel density estimation and bimodal threshold detection.

The estimate is the plain Gaussian-kernel sum

    rho(x) = 1 / (n h) * sum_i phi((x - x_i) / h)

evaluated on a uniform grid, with phi the standard normal density. The
grid x sample terms are evaluated in blocks of grid rows holding at most
_BLOCK_CELLS cells (one row when n exceeds it), so memory is O(grid + n)
rather than O(grid * n). The blocks are split into two contiguous halves:
the caller fills the first and one worker thread the second, each in a
block buffer of its own, so the sum runs on two cores while numpy's
ufuncs release the interpreter lock. numpy's floating-point error state
is per thread, so each half sets its own. Each row's sum is the same
reduction as over the full matrix, whichever thread computes it, so the
blocking and the split leave the result unchanged. The automatic
bandwidth is Scott's rule h = std(x) * n**(-1/5) (sample standard
deviation). The threshold separating the low and high modes of a
bimodal distribution is the grid location of the minimum density strictly
between the two highest local maxima; it is refused for a bandwidth
narrower than the grid step, where the density is a row of spikes.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

logger = logging.getLogger(__name__)

AUTO_BANDWIDTH = "auto"
GRID_SIZE = 1024

# Most grid x sample cells one thread evaluates at once (1 MiB of float64).
_BLOCK_CELLS = 1 << 17

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray  # ascending, uniform
    density: np.ndarray  # same length, >= 0
    bandwidth: float
    n_samples: int


@dataclass(frozen=True)
class BimodalThreshold:
    spc1_0: float
    left_peak: float
    right_peak: float
    threshold_density: float


def scott_bandwidth(samples: np.ndarray) -> float:
    sd = float(np.std(samples, ddof=1))
    # identical samples land at sd ~ 1e-17 rather than exactly 0
    if sd <= 1e-12 * max(1.0, float(np.max(np.abs(samples)))):
        raise NumericalError("zero sample variance; supply an explicit bandwidth")
    return sd * samples.size ** (-1.0 / 5.0)


def gaussian_kde(samples, bandwidth: float | str = AUTO_BANDWIDTH) -> DensityEstimate:
    """Estimate the density of ``samples`` on a uniform grid of GRID_SIZE
    points spanning [min - 4h, max + 4h]."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise NumericalError(f"need at least 2 samples, got {samples.size}")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("samples must be finite")

    if bandwidth == AUTO_BANDWIDTH:
        h = scott_bandwidth(samples)
    else:
        h = float(bandwidth)
        if not (math.isfinite(h) and h > 0):
            raise ParameterError(f"bandwidth must be finite and positive, got {h}")

    grid = np.linspace(samples.min() - 4.0 * h, samples.max() + 4.0 * h, GRID_SIZE)
    n = samples.size
    density = _kernel_sums(grid, samples, h)
    density /= n * h * _SQRT_2PI
    return DensityEstimate(grid=grid, density=density, bandwidth=h, n_samples=n)


def _fill(grid, samples, h: float, rows: int, out) -> None:
    """``out[i] = sum_j exp(-0.5 ((grid[i] - samples[j]) / h)**2)``, ``rows``
    grid points a block, in one block buffer."""
    block = np.empty((min(rows, grid.size), samples.size))
    # Far-off samples overflow z*z to inf for tiny bandwidths; exp(-inf) is 0.
    with np.errstate(over="ignore"):
        for start in range(0, grid.size, rows):
            z = block[: min(rows, grid.size - start)]
            np.subtract.outer(grid[start : start + rows], samples, out=z)
            z /= h
            z *= z
            z *= -0.5  # exact, so exp sees the bits of -0.5 * z * z
            np.exp(z, out=z)
            z.sum(axis=1, out=out[start : start + rows])


def _kernel_sums(grid, samples, h: float) -> np.ndarray:
    """The kernel sum at every grid point: the first half of the blocks
    filled by the caller, the rest by one worker thread, joined before
    this returns. An exception in either half reaches the caller."""
    rows = max(1, _BLOCK_CELLS // samples.size)
    sums = np.empty(grid.size)
    blocks = -(-grid.size // rows)
    split = min(grid.size, rows * -(-blocks // 2))  # the caller's half holds the odd block
    first, rest = slice(0, split), slice(split, grid.size)
    failed = []

    def fill_rest():
        try:
            _fill(grid[rest], samples, h, rows, sums[rest])
        except BaseException as exc:  # raised again in the caller
            failed.append(exc)

    worker = None
    if split < grid.size:
        worker = threading.Thread(target=fill_rest, name="spcgrowth-kde")
        try:
            worker.start()
        except RuntimeError:  # no thread can start; the caller fills both halves
            worker = None
    try:
        _fill(grid[first], samples, h, rows, sums[first])
        if worker is None:
            _fill(grid[rest], samples, h, rows, sums[rest])
    finally:
        if worker is not None:
            worker.join()
    if failed:
        raise failed[0]
    return sums


def _local_maxima(density: np.ndarray) -> list[int]:
    """Indices of strict local maxima; equal-value plateau runs collapse to
    their midpoint. Grid endpoints never qualify."""
    n = density.size
    maxima = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and density[j + 1] == density[i]:
            j += 1
        # run [i, j] of equal values; compare against both flanks
        if density[i - 1] < density[i] and j + 1 < n and density[j + 1] < density[i]:
            maxima.append((i + j) // 2)
        i = j + 1
    return maxima


def find_bimodal_threshold(estimate: DensityEstimate) -> BimodalThreshold:
    """Locate the minimum between the two highest local maxima.

    Raises NumericalError when the bandwidth is narrower than the grid
    step, where the density is a row of single-sample spikes (or zero
    between the grid ends) and its valleys mean nothing, and when fewer
    than two local maxima exist (an oversmoothed density), in which case
    no low/high threshold is defined and the pipeline must abort with a
    diagnostic.
    """
    density = estimate.density
    grid = estimate.grid
    if grid.size < 3:
        raise ParameterError("need at least 3 grid points")
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    if estimate.bandwidth < step:
        raise NumericalError(
            f"bandwidth {estimate.bandwidth:g} is too small for the grid (try a larger "
            f"bandwidth): it is below the grid step {step:g}"
        )

    maxima = _local_maxima(density)
    if len(maxima) < 2:
        raise NumericalError(
            f"density has {len(maxima)} local maxima; threshold between two "
            "modes is undefined (try a smaller bandwidth)"
        )
    if len(maxima) > 2:
        logger.info("density has %d local maxima; using the two highest", len(maxima))
    # Two highest; ties broken toward the smaller grid location.
    ranked = sorted(maxima, key=lambda i: (-density[i], grid[i]))
    left, right = sorted(ranked[:2])

    interior = slice(left + 1, right)
    rel = int(np.argmin(density[interior]))  # first occurrence = smallest location
    idx = left + 1 + rel
    return BimodalThreshold(
        spc1_0=float(grid[idx]),
        left_peak=float(grid[left]),
        right_peak=float(grid[right]),
        threshold_density=float(density[idx]),
    )
