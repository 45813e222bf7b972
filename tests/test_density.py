"""Pooled-score density estimation and the bimodal valley threshold."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import dense_kde_reference, kde_mass, normal_pdf

from spcgrowth import NumericalError, ParameterError, find_bimodal_threshold, gaussian_kde
from spcgrowth.density import _BLOCK_CELLS, GRID_SIZE, DensityEstimate, scott_bandwidth

# Height of N(mu, 0.05^2) at its mode: 1 / (0.05 * sqrt(2 pi)).
NORMAL_PEAK_HEIGHT = 7.978845608028654

# Valley locations of the exact two-Gaussian mixtures used below, found by
# brute-force minimisation on a 10,000-point reference grid between the modes.
EQUAL_MIX_VALLEY = 0.4999499949995
SKEWED_MIX_VALLEY = 0.5036503650365036


def mixture_density(grid, w_left):
    return w_left * normal_pdf(grid, 0.2, 0.05) + (1.0 - w_left) * normal_pdf(
        grid, 0.8, 0.05
    )


def exact_mixture_estimate(w_left, grid_size=1024):
    """Mixture density evaluated directly on a grid, bypassing sampling."""
    grid = np.linspace(0.0, 1.0, grid_size)
    return DensityEstimate(
        grid=grid,
        density=mixture_density(grid, w_left),
        bandwidth=0.05,
        n_samples=2,
    )


def brute_force_valley(w_left):
    ref = np.linspace(0.0, 1.0, 10_000)
    inner = (ref > 0.2) & (ref < 0.8)
    vals = mixture_density(ref[inner], w_left)
    return float(ref[inner][np.argmin(vals)])


class TestKde:
    def test_repeated_single_value_peaks_there_symmetrically(self):
        est = gaussian_kde(np.full(50, 0.5), bandwidth=0.1)
        assert est.grid[np.argmax(est.density)] == pytest.approx(
            0.5, abs=est.grid[1] - est.grid[0]
        )
        # grid is centred on the sample, so the profile must mirror
        assert np.allclose(est.density, est.density[::-1], atol=1e-12)

    def test_normal_sample_mode_height(self):
        rng = np.random.default_rng(2)
        draws = rng.normal(0.3, 0.05, size=10_000)
        est = gaussian_kde(draws)
        at_mode = est.density[np.argmin(np.abs(est.grid - 0.3))]
        assert at_mode == pytest.approx(NORMAL_PEAK_HEIGHT, rel=0.05)
        assert 0.99 <= kde_mass(est) <= 1.01

    def test_mixture_sample_shows_both_modes(self):
        rng = np.random.default_rng(4)
        draws = np.concatenate(
            [rng.normal(0.2, 0.05, 5000), rng.normal(0.8, 0.05, 5000)]
        )
        est = gaussian_kde(draws)
        th = find_bimodal_threshold(est)
        assert th.left_peak == pytest.approx(0.2, abs=0.05)
        assert th.right_peak == pytest.approx(0.8, abs=0.05)
        assert 0.99 <= kde_mass(est) <= 1.01

    def test_pooled_density_is_the_weighted_average(self):
        rng = np.random.default_rng(6)
        s1 = rng.normal(0.3, 0.1, 400)
        s2 = rng.normal(0.7, 0.1, 600)
        pooled = gaussian_kde(np.concatenate([s1, s2]), bandwidth=0.08)
        e1, e2 = (dense_kde_reference(s, 0.08, pooled.grid) for s in (s1, s2))
        mix = (s1.size * e1 + s2.size * e2) / (s1.size + s2.size)
        assert np.max(np.abs(pooled.density - mix)) <= 1e-12

    def test_auto_bandwidth_follows_scott(self):
        rng = np.random.default_rng(8)
        draws = rng.normal(0.0, 1.0, 300)
        est = gaussian_kde(draws)
        want = float(np.std(draws, ddof=1)) * 300 ** (-1.0 / 5.0)
        assert est.bandwidth == pytest.approx(want, rel=1e-12)
        assert scott_bandwidth(draws) == pytest.approx(want, rel=1e-12)

    def test_grid_spans_four_bandwidths(self):
        draws = np.array([0.2, 0.4, 0.6])
        est = gaussian_kde(draws, bandwidth=0.1)
        assert est.grid.size == GRID_SIZE == 1024
        assert est.grid[0] == pytest.approx(0.2 - 0.4)
        assert est.grid[-1] == pytest.approx(0.6 + 0.4)

    def test_density_never_negative(self):
        rng = np.random.default_rng(10)
        est = gaussian_kde(rng.normal(size=100))
        assert np.all(est.density >= 0.0)

    def test_single_sample_rejected(self):
        with pytest.raises(NumericalError, match="need at least 2 samples, got 1"):
            gaussian_kde(np.array([0.5]))

    def test_zero_spread_auto_bandwidth_rejected(self):
        with pytest.raises(NumericalError, match="zero sample variance"):
            gaussian_kde(np.full(10, 0.3))

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("inf"), float("nan")])
    def test_nonpositive_bandwidth_rejected(self, bad):
        with pytest.raises(ParameterError):
            gaussian_kde(np.array([0.1, 0.9]), bandwidth=bad)

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_kde(np.array([0.1, np.nan, 0.9]))


def bimodal_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0.2, 0.05, n // 2), rng.normal(0.8, 0.05, n - n // 2)])


def reference_rows(grid_size, n):
    """Grid rows to compare against the dense reference: all of them while the
    dense matrix is small, else every 31st row and the last, to keep its
    memory small. Blocks then hold at most 32 rows, so the sampled rows fall
    at every position within a block."""
    if grid_size * n <= 1 << 22:
        return np.arange(grid_size)
    return np.r_[0:grid_size:31, grid_size - 1]


BLOCK_ROWS_N = _BLOCK_CELLS // GRID_SIZE  # N where a block is exactly the grid


def block_count(n):
    return -(-GRID_SIZE // max(1, _BLOCK_CELLS // n))


class TestBlockedKde:
    @pytest.mark.parametrize(
        "n",
        [2, 3, BLOCK_ROWS_N - 1, BLOCK_ROWS_N, BLOCK_ROWS_N + 1, 27_301, _BLOCK_CELLS + 1],
    )
    @pytest.mark.parametrize("bandwidth", ["auto", 0.03])
    def test_equals_the_dense_sum_bit_for_bit(self, n, bandwidth):
        samples = bimodal_sample(n)
        est = gaussian_kde(samples, bandwidth=bandwidth)
        rows = reference_rows(est.grid.size, n)
        want = dense_kde_reference(samples, est.bandwidth, est.grid[rows])
        assert np.array_equal(est.density[rows], want)

    @pytest.mark.parametrize("n", [3, 700, 20_000])
    def test_partial_last_block_equals_the_dense_sum_bit_for_bit(self, n):
        # the last block of the 1,024 rows is partial for 700 samples (93
        # rows a block) and for 20,000 (3 rows a block)
        samples = bimodal_sample(n, seed=1)
        est = gaussian_kde(samples, bandwidth=0.04)
        rows = reference_rows(GRID_SIZE, n)
        want = dense_kde_reference(samples, 0.04, est.grid[rows])
        assert np.array_equal(est.density[rows], want)

    def test_memory_does_not_grow_as_grid_times_samples(self):
        # the dense grid x N matrix would be 1024 * 50,000 * 8 B = 390 MB
        samples = np.random.default_rng(3).uniform(size=50_000)
        tracemalloc.start()
        try:
            gaussian_kde(samples, bandwidth=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", [2, 1000], ids=["one block", "both halves"])
    def test_overflowing_terms_raise_no_warning(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = gaussian_kde(bimodal_sample(n), bandwidth=1e-300)
        assert np.all(est.density[1:-1] == 0.0)


def exp_failing_in(thread, error):
    """``np.exp`` that raises ``error`` when called in the caller's thread
    ("caller") or in any other ("worker")."""
    exp = np.exp

    def patched(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == (thread == "caller"):
            raise error
        return exp(*args, **kwargs)

    return patched


class KdeFailure(Exception):
    pass


class TestThreadedKde:
    """The caller fills the first half of the grid's blocks and one worker
    thread the rest."""

    @pytest.mark.parametrize(
        "n, blocks",
        [(BLOCK_ROWS_N, 1), (20_000, 171), (3_000, 24)],
        ids=["one block", "odd blocks", "partial last block"],
    )
    def test_the_halves_equal_the_dense_sum_bit_for_bit(self, n, blocks):
        # 171 blocks of 6 rows split 86 / 85; 24 blocks of 43 rows end in 35
        assert block_count(n) == blocks
        samples = bimodal_sample(n, seed=2)
        est = gaussian_kde(samples, bandwidth=0.04)
        rows = reference_rows(GRID_SIZE, n)
        want = dense_kde_reference(samples, 0.04, est.grid[rows])
        assert np.array_equal(est.density[rows], want)

    @pytest.mark.parametrize("thread", ["caller", "worker"])
    def test_a_failure_in_either_half_reaches_the_caller(self, thread, monkeypatch):
        threads = threading.active_count()
        monkeypatch.setattr(np, "exp", exp_failing_in(thread, KdeFailure(f"exp failed: {thread}")))
        with pytest.raises(KdeFailure, match=f"^exp failed: {thread}$"):
            gaussian_kde(bimodal_sample(1000), bandwidth=0.04)
        assert threading.active_count() == threads

    def test_the_worker_ignores_overflow_on_its_own(self, monkeypatch):
        # numpy's error state is per thread: the caller's does not reach
        # the worker, so only the worker's half overflows here
        exp = np.exp

        def overflowing_in_the_worker(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                np.float64(1e308) * 10.0
            return exp(*args, **kwargs)

        samples = bimodal_sample(1000)
        want = gaussian_kde(samples, bandwidth=0.04).density
        monkeypatch.setattr(np, "exp", overflowing_in_the_worker)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = gaussian_kde(samples, bandwidth=0.04)
        assert np.array_equal(est.density, want)

    def test_a_thread_that_cannot_start_leaves_the_caller_filling_both_halves(
        self, monkeypatch
    ):
        samples = bimodal_sample(1000)
        want = gaussian_kde(samples, bandwidth=0.04).density

        def unavailable(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", unavailable)
        assert np.array_equal(gaussian_kde(samples, bandwidth=0.04).density, want)


class TestBimodalThreshold:
    def test_equal_mixture_valley(self):
        est = exact_mixture_estimate(0.5)
        th = find_bimodal_threshold(est)
        step = est.grid[1] - est.grid[0]
        assert abs(th.spc1_0 - EQUAL_MIX_VALLEY) <= step
        assert abs(th.spc1_0 - brute_force_valley(0.5)) <= step
        assert th.left_peak == pytest.approx(0.2, abs=2 * step)
        assert th.right_peak == pytest.approx(0.8, abs=2 * step)

    def test_heavier_left_mode_pushes_the_valley_right(self):
        est = exact_mixture_estimate(0.7)
        th = find_bimodal_threshold(est)
        step = est.grid[1] - est.grid[0]
        assert abs(th.spc1_0 - SKEWED_MIX_VALLEY) <= step
        assert abs(th.spc1_0 - brute_force_valley(0.7)) <= step
        assert th.spc1_0 > 0.5

    def test_threshold_sits_between_the_peaks_below_them(self):
        for w in (0.5, 0.7, 0.3):
            est = exact_mixture_estimate(w)
            th = find_bimodal_threshold(est)
            assert th.left_peak < th.spc1_0 < th.right_peak
            peaks = est.density[np.isin(est.grid, (th.left_peak, th.right_peak))]
            assert peaks.size == 2
            assert th.threshold_density <= peaks.min()

    def test_grid_refinement_barely_moves_the_valley(self):
        coarse = find_bimodal_threshold(exact_mixture_estimate(0.5, 1024))
        fine = find_bimodal_threshold(exact_mixture_estimate(0.5, 2048))
        step = 1.0 / 1023
        assert abs(coarse.spc1_0 - fine.spc1_0) <= step

    def test_single_mode_rejected(self):
        grid = np.linspace(0.0, 1.0, 1024)
        est = DensityEstimate(grid, normal_pdf(grid, 0.5, 0.1), 0.1, 2)
        with pytest.raises(NumericalError, match="1 local maxima"):
            find_bimodal_threshold(est)

    def test_oversmoothed_mixture_rejected(self):
        rng = np.random.default_rng(12)
        draws = np.concatenate(
            [rng.normal(0.2, 0.05, 2000), rng.normal(0.8, 0.05, 2000)]
        )
        est = gaussian_kde(draws, bandwidth=0.5)
        with pytest.raises(NumericalError, match="threshold between two modes is undefined"):
            find_bimodal_threshold(est)

    def test_too_small_bandwidth_is_named(self):
        # every interior grid point lies thousands of bandwidths from a sample
        est = gaussian_kde(np.array([0.1, 0.2, 0.8, 0.9]), bandwidth=1e-9)
        with pytest.raises(NumericalError, match="too small for the grid"):
            find_bimodal_threshold(est)

    @pytest.mark.parametrize("bandwidth", [1e-4, 1e-6])
    def test_a_bandwidth_below_the_grid_step_is_refused(self, bandwidth):
        # the density is then a row of single-sample spikes, whose lowest
        # point between the two highest means nothing
        est = gaussian_kde(bimodal_sample(2000), bandwidth=bandwidth)
        step = est.grid[1] - est.grid[0]
        assert bandwidth < step < 1e-3
        message = (
            f"bandwidth {bandwidth:g} is too small for the grid (try a larger bandwidth): "
            f"it is below the grid step {step:g}"
        )
        with pytest.raises(NumericalError) as err:
            find_bimodal_threshold(est)
        assert str(err.value) == message

    def test_a_bandwidth_of_one_grid_step_is_kept(self):
        grid = np.linspace(0.0, 1.0, 1024)
        density = mixture_density(grid, 0.5)
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        th = find_bimodal_threshold(DensityEstimate(grid, density, step, 2))
        assert abs(th.spc1_0 - EQUAL_MIX_VALLEY) <= step

    def test_plateau_peak_collapses_to_its_midpoint(self):
        grid = np.arange(7, dtype=float)
        density = np.array([0.0, 2.0, 2.0, 2.0, 0.0, 5.0, 0.0])
        th = find_bimodal_threshold(DensityEstimate(grid, density, 1.0, 7))
        assert th.left_peak == 2.0  # run 1..3 collapsed
        assert th.right_peak == 5.0
        assert th.spc1_0 == 4.0

    def test_equal_valley_ties_break_to_the_smallest_location(self):
        grid = np.arange(7, dtype=float)
        density = np.array([0.0, 3.0, 1.0, 1.0, 1.0, 3.0, 0.0])
        th = find_bimodal_threshold(DensityEstimate(grid, density, 1.0, 7))
        assert th.spc1_0 == 2.0

    def test_equal_peak_ties_break_to_the_smallest_location(self):
        # the second-highest maximum is tied at 3 and 5; 3 is ranked first
        grid = np.arange(7, dtype=float)
        density = np.array([0.0, 5.0, 0.0, 3.0, 0.0, 3.0, 0.0])
        th = find_bimodal_threshold(DensityEstimate(grid, density, 1.0, 7))
        assert (th.left_peak, th.right_peak, th.spc1_0) == (1.0, 3.0, 2.0)
