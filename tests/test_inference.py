"""Validation splits, region bootstrap, and timescale estimates."""

import logging
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from helpers import (
    CULT,
    INST,
    OUT,
    aligned_from_synthetic,
    aligned_region,
    assert_same_fit,
    coefficient_of_prediction,
    recorded_rel_times,
    reference_fit,
    scaled_region,
    table_row,
)
from hypothesis import example, given
from hypothesis import strategies as st

import spcgrowth.inference as inference
import spcgrowth.pipeline as pipeline
from spcgrowth import (
    ContinuityMode,
    NumericalError,
    ParameterError,
    SyntheticSpec,
    bootstrap_fits,
    characteristic_timescale,
    continuity_comparison,
    empirical_durations,
    fit_logistic,
    generate_synthetic,
    out_of_sample_validation,
    plateau_thresholds,
)
from spcgrowth.align import AlignedDataset, extract_central_sequence
from spcgrowth.inference import BootstrapEnsemble
from spcgrowth.logistic import (
    LogisticParams,
    logistic_eval,
    logistic_inverse,
    time_table,
)
from spcgrowth.report import render_report_json

# closed form for a unit logistic with c = 0.001: time between the 0.2 and
# 0.8 crossings is (2 / c) * ln(0.8 / 0.2) = 2000 * ln(4)
UNIT_CURVE_DURATION = 2772.588722239781


def ensemble_of(*param_tuples, n_iter=None, failed=0, seed=0):
    params = np.array(param_tuples, dtype=float).reshape(-1, 4)
    return BootstrapEnsemble(
        n_iter=n_iter if n_iter is not None else len(params) + failed,
        params=params,
        failed_fits=failed,
        seed=seed,
    )


@pytest.fixture(scope="module")
def noisy_ensemble(aligned_noisy):
    aligned, full_fit = aligned_noisy
    return bootstrap_fits(aligned, full_fit, n_iter=200, seed=13)


class TestValidation:
    def test_same_seed_is_bit_identical(self, aligned_noisy):
        aligned, fit = aligned_noisy
        a = out_of_sample_validation(aligned, fit, n_repeats=10, seed=5)
        b = out_of_sample_validation(aligned, fit, n_repeats=10, seed=5)
        assert a.rho2_values == b.rho2_values
        assert a.mean_rho2 == b.mean_rho2

    def test_noiseless_data_predicts_almost_perfectly(self):
        ds = generate_synthetic(SyntheticSpec(8, noise_sigma=0.0), seed=2)
        aligned = aligned_from_synthetic(ds)
        fit = fit_logistic(*aligned.pooled())
        report = out_of_sample_validation(aligned, fit, n_repeats=10, seed=1)
        assert all(v > 0.999 for v in report.rho2_values)

    def test_summary_statistics_match_the_values(self, aligned_noisy):
        aligned, fit = aligned_noisy
        report = out_of_sample_validation(aligned, fit, n_repeats=20, seed=9)
        values = np.array(report.rho2_values)
        assert report.mean_rho2 == pytest.approx(values.mean(), abs=1e-12)
        assert report.std_rho2 == pytest.approx(values.std(ddof=1), abs=1e-12)
        assert report.stderr_rho2 == pytest.approx(
            values.std(ddof=1) / np.sqrt(values.size), abs=1e-12
        )

    def test_failed_repeats_are_counted_not_hidden(self, aligned_noisy, monkeypatch):
        aligned, fit = aligned_noisy
        fail_every_third_fit(monkeypatch)
        report = out_of_sample_validation(aligned, fit, n_repeats=12, seed=3)
        assert report.n_failed == 4
        assert len(report.rho2_values) + report.n_failed == 12

    def test_all_repeats_failing_is_an_error(self, aligned_noisy, monkeypatch):
        aligned, fit = aligned_noisy
        real_fit = inference.fit_tables

        def always_fails(*args, **kwargs):
            *fits, errors = real_fit(*args, **kwargs)
            return *fits, ("synthetic failure",) * len(errors)

        monkeypatch.setattr(inference, "fit_tables", always_fails)
        with pytest.raises(NumericalError, match="every validation repeat failed"):
            out_of_sample_validation(aligned, fit, n_repeats=5, seed=0)

    def test_too_few_pooled_points(self):
        region = aligned_region(scaled_region("A", [0.1, 0.2, 0.6, 0.8, 0.9]), -600)
        aligned = AlignedDataset((region,))
        fit_params = LogisticParams(1.0, 0.0, 0.002, 0.0)
        with pytest.raises(NumericalError, match="need at least 10 pooled points, got 5"):
            out_of_sample_validation(
                aligned,
                fit_logistic(region.rel_time.astype(float), region.scaled, init=fit_params),
                n_repeats=2,
                seed=0,
            )

    def test_zero_repeats_rejected(self, aligned_noisy):
        aligned, fit = aligned_noisy
        with pytest.raises(ParameterError):
            out_of_sample_validation(aligned, fit, n_repeats=0, seed=0)

    def test_stderr_shrinks_roughly_as_root_n(self):
        # quadrupling the repeats should cut the standard error about in half
        ds = generate_synthetic(SyntheticSpec(10, noise_sigma=0.08), seed=11)
        aligned = aligned_from_synthetic(ds)
        fit = fit_logistic(*aligned.pooled())
        small = out_of_sample_validation(aligned, fit, n_repeats=25, seed=4)
        large = out_of_sample_validation(aligned, fit, n_repeats=100, seed=4)
        ratio = small.stderr_rho2 / large.stderr_rho2
        assert 1.5 < ratio < 2.5

    def test_memory_does_not_grow_with_the_repeats(self):
        # about 109k points: a block of 64 repeats keeps 64 test-half tables
        # over the distinct times, not 64 test halves of point indices
        aligned = aligned_from_synthetic(
            generate_synthetic(SyntheticSpec(1200, noise_sigma=0.05), seed=1)
        )
        full = fit_logistic(*aligned.pooled())
        out_of_sample_validation(aligned, full, n_repeats=1, seed=1)  # first-call allocations
        peaks = []
        for n_repeats in (1, 64):
            tracemalloc.start()
            try:
                out_of_sample_validation(aligned, full, n_repeats=n_repeats, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestSplit:
    @pytest.mark.parametrize("n", [10, 11, 101])
    def test_the_halves_partition_the_points_and_the_test_half_gets_the_odd_one(self, n):
        train, test = inference._split_indices(np.random.default_rng(n), n)
        assert (train.size, test.size) == (n // 2, n - n // 2)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))


class TestTableScore:
    """``_rho2`` scores a block of curves, each on a test half given as its
    own per-time table."""

    TIMES = np.array([-300.0, -100.0, 0.0, 200.0, 500.0])
    CURVE = np.array([1.0, 0.0, 0.004, 0.0])

    def test_an_exact_prediction_scores_one(self):
        counts = np.array([1, 3, 2, 0, 4])
        # a time no point maps to has mean 0, as time_table gives it
        means = np.where(counts > 0, logistic_eval(LogisticParams(*self.CURVE), self.TIMES), 0.0)
        block = inference._stack([(counts, means, 0.0)])
        rho2, errors = inference._rho2(self.TIMES, self.CURVE[None, :], *block)
        assert rho2.tolist() == [1.0] and errors == [None]

    def test_a_prediction_at_the_test_halfs_mean_scores_zero(self):
        rng = np.random.default_rng(4)
        inverse = rng.integers(0, self.TIMES.size, 40)
        y = rng.random(40)
        flat = np.array([0.0, y.mean(), 0.004, 0.0])
        block = inference._stack([time_table(inverse, y, self.TIMES.size)])
        rho2, errors = inference._rho2(self.TIMES, flat[None, :], *block)
        assert rho2[0] == pytest.approx(0.0, abs=1e-14) and errors == [None]

    def test_a_test_half_with_zero_variance_is_a_failed_repeat(self, aligned_noisy, caplog):
        aligned, full = aligned_noisy
        t, y = aligned.pooled()
        times, inverse = np.unique(t, return_inverse=True)
        # 0.4 summed and divided per time does not give 0.4 back exactly
        constant = time_table(inverse, np.full(y.size, 0.4), times.size)
        assert not np.all(constant[1][constant[0] > 0] == 0.4)
        train = time_table(inverse, y, times.size)
        rho2, errors = inference._rho2(
            times, np.tile(full.params.as_array(), (2, 1)), *inference._stack([constant, train])
        )
        assert np.isnan(rho2[0]) and np.isfinite(rho2[1])
        assert errors == ["test half has zero variance", None]

        def draw(rngs):
            return *inference._stack([train] * len(rngs)), inference._stack([constant] * len(rngs))

        with caplog.at_level(logging.WARNING, logger=inference.__name__):
            values, n_failed = inference._refit(
                "validation",
                3,
                0,
                times,
                full.params,
                draw,
                lambda params, test: inference._rho2(times, params, *test),
            )
        assert (values, n_failed) == ([], 3)
        assert "(first: test half has zero variance)" in caplog.text

    def test_rows_without_a_score_raise_no_warning(self):
        # a row whose fit failed comes with NaN parameters, and a table of
        # zeros has SST exactly 0: scoring neither may warn of an invalid
        # value or a division by zero
        counts = np.array([[1, 3, 2, 0, 4]] * 3, dtype=float)
        means = np.tile(logistic_eval(LogisticParams(*self.CURVE), self.TIMES), (3, 1))
        means[2] = 0.0
        params = np.array([self.CURVE, [np.nan] * 4, self.CURVE])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho2, errors = inference._rho2(self.TIMES, params, counts, means, np.zeros(3))
        assert rho2[0] == 1.0 and np.isnan(rho2[1:]).all()
        assert errors == [None, None, "test half has zero variance"]


def fail_every_third_fit(monkeypatch):
    """Mark every third row the batched fitter returns as failed."""
    real_fit = inference.fit_tables
    rows = {"n": 0}

    def flaky(*args, **kwargs):
        *fits, fit_errors = real_fit(*args, **kwargs)
        errors = []
        for error in fit_errors:
            rows["n"] += 1
            errors.append("synthetic failure" if rows["n"] % 3 == 0 else error)
        return *fits, tuple(errors)

    monkeypatch.setattr(inference, "fit_tables", flaky)


class TestFailureLog:
    @pytest.mark.parametrize("stage", ["validation", "bootstrap"])
    def test_one_warning_per_stage_with_the_count(self, stage, aligned_noisy, monkeypatch, caplog):
        aligned, fit = aligned_noisy
        fail_every_third_fit(monkeypatch)
        with caplog.at_level(logging.WARNING, logger=inference.__name__):
            if stage == "validation":
                failed = out_of_sample_validation(aligned, fit, n_repeats=12, seed=3).n_failed
            else:
                failed = bootstrap_fits(aligned, fit, n_iter=12, seed=3).failed_fits
        assert failed == 4
        records = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in records] == [
            f"{stage}: 4 of 12 fits failed (first: synthetic failure)"
        ]

    def test_no_warning_when_every_fit_succeeds(self, aligned_noisy, caplog):
        aligned, fit = aligned_noisy
        with caplog.at_level(logging.WARNING, logger=inference.__name__):
            out_of_sample_validation(aligned, fit, n_repeats=5, seed=3)
            bootstrap_fits(aligned, fit, n_iter=5, seed=3)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestFitCountLog:
    """add_validation and add_bootstrap each state their refits' counts in
    one INFO line from the refit driver, read from the rows the batched
    fitter returned."""

    @pytest.mark.parametrize("stage", ["validation", "bootstrap"])
    def test_one_info_line_per_stage_with_the_counts(self, stage, fit_bundle, monkeypatch, caplog):
        config = replace(fit_bundle.config, n_validation=12, n_bootstrap=12)
        fail_every_third_fit(monkeypatch)
        flaky = inference.fit_tables
        iterations = []

        def every_fourth_unconverged(*args, **kwargs):
            params, converged, block_iterations, errors = flaky(*args, **kwargs)
            numbers = len(iterations) + 1 + np.arange(converged.size)
            iterations.extend(block_iterations.tolist())
            return params, converged & (numbers % 4 != 0), block_iterations, errors

        monkeypatch.setattr(inference, "fit_tables", every_fourth_unconverged)
        add_stage = pipeline.add_validation if stage == "validation" else pipeline.add_bootstrap
        with caplog.at_level(logging.INFO, logger=inference.__name__):
            bundle = add_stage(replace(fit_bundle, config=config))
        lines = [
            r.getMessage()
            for r in caplog.records
            if r.name == inference.__name__ and "LM iterations" in r.getMessage()
        ]
        assert len(iterations) == 12 and sum(iterations) >= 12
        # rows 3, 6, 9 and 12 failed; rows 4 and 8 fitted without converging
        assert lines == [
            f"{stage}: 12 fits, {sum(iterations)} LM iterations, 2 unconverged, 4 failed"
        ]
        assert "LM iterations" not in render_report_json(bundle)
        assert "lm_iterations" not in render_report_json(bundle)


class TestBatchedFits:
    def test_a_row_fits_the_same_alone_as_in_a_batch_of_1000(self, aligned_noisy, monkeypatch):
        aligned, full = aligned_noisy
        real_fit = inference.fit_tables
        blocks = []

        def keep(times, means, weights, within_ss, init):
            block = real_fit(times, means, weights, within_ss, init)
            blocks.append((times, means, weights, within_ss, block))
            return block

        monkeypatch.setattr(inference, "fit_tables", keep)
        bootstrap_fits(aligned, full, n_iter=1000, seed=13)
        times = blocks[0][0]
        means, weights, within_ss = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3))
        batch = real_fit(times, means, weights, within_ss, full.params)
        params, _, iterations, errors = batch
        block_params, _, block_iterations, _ = zip(*(fits for *_, fits in blocks))
        assert len(errors) == 1000 and len(blocks) > 1
        assert np.array_equal(params, np.concatenate(block_params))
        assert np.array_equal(iterations, np.concatenate(block_iterations))
        # a distant start makes rows reject steps, so their damping paths part
        far = LogisticParams(0.3, 0.5, 0.02, 1500.0)
        far_batch = real_fit(times, means, weights, within_ss, far)
        for init, (params, converged, iterations, _) in ((full.params, batch), (far, far_batch)):
            for r in range(0, 1000, 10):
                one = slice(r, r + 1)
                (alone,), (done,), (steps,), _ = real_fit(
                    times, means[one], weights[one], within_ss[one], init
                )
                assert np.array_equal(alone, params[r])
                assert steps == iterations[r]
                assert done == converged[r]

    def test_the_stages_give_the_same_bits_in_blocks_of_1_7_and_64(
        self, aligned_noisy, monkeypatch, caplog
    ):
        # draws and scores are computed a block at a time as well as fits
        aligned, full = aligned_noisy
        runs = []
        for rows in (1, 7, 64):
            monkeypatch.setattr(inference, "_BLOCK_ROWS", rows)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger=inference.__name__):
                ensemble = bootstrap_fits(aligned, full, n_iter=50, seed=13)
                report = out_of_sample_validation(aligned, full, n_repeats=50, seed=9)
            lines = [r.getMessage() for r in caplog.records if "LM iterations" in r.getMessage()]
            assert len(lines) == 2
            runs.append(
                (ensemble.params, ensemble.failed_fits, report.rho2_values, report.n_failed, lines)
            )
        for params, *rest in runs[1:]:
            assert np.array_equal(params, runs[0][0])
            assert rest == list(runs[0][1:])

    def test_a_block_draws_each_replicates_own_table(self, aligned_noisy, monkeypatch):
        aligned, full = aligned_noisy
        real_fit = inference.fit_tables
        blocks = []

        def keep(times, means, weights, within_ss, init):
            blocks.append((means, weights, within_ss))
            return real_fit(times, means, weights, within_ss, init)

        monkeypatch.setattr(inference, "fit_tables", keep)
        bootstrap_fits(aligned, full, n_iter=50, seed=13)
        [(means, weights, within_ss)] = blocks
        # each replicate's table as one vector @ the per-region table, as a
        # lone replicate computes it
        n = len(aligned.regions)
        t, y = aligned.pooled()
        times, inverse = np.unique(t, return_inverse=True)
        _, center, _ = time_table(inverse, y, times.size)
        dev = y - center[inverse]
        cell = np.repeat(np.arange(n), [r.rel_time.size for r in aligned.regions]) * times.size
        table = np.hstack(
            [
                np.bincount(cell + inverse, weights=w, minlength=n * times.size).reshape(n, -1)
                for w in (None, dev, dev * dev)
            ]
        )
        m = np.array(
            [
                np.bincount(np.random.default_rng(child).integers(0, n, size=n), minlength=n)
                for child in np.random.SeedSequence(13).spawn(50)
            ]
        )
        per_replicate = np.stack([row @ table for row in m])
        # The stacked product runs the same matrix-vector product per row.
        # A 2-D m @ table is one matrix product, whose BLAS kernel sums in
        # another order: it moves the last bits of some entries, and so of
        # the fits and the report.
        assert np.array_equal((m[:, None, :] @ table)[:, 0], per_replicate)
        for r, row in enumerate(per_replicate):
            counts, sums, squares = row.reshape(3, -1)
            shift = sums / np.maximum(counts, 1.0)
            assert np.array_equal(weights[r], counts)
            assert np.array_equal(means[r], center + shift)
            assert within_ss[r] == max(float(np.sum(squares - sums * shift)), 0.0)

    def test_bootstrap_memory_does_not_grow_with_the_replicates(self, aligned_noisy):
        aligned, full = aligned_noisy
        bootstrap_fits(aligned, full, n_iter=10, seed=1)  # first-call allocations
        peaks = []
        for n_iter in (200, 2000):
            tracemalloc.start()
            try:
                bootstrap_fits(aligned, full, n_iter=n_iter, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20, peaks


class TestBootstrap:
    def test_same_seed_is_bit_identical(self, aligned_noisy):
        aligned, fit = aligned_noisy
        a = bootstrap_fits(aligned, fit, n_iter=20, seed=8)
        b = bootstrap_fits(aligned, fit, n_iter=20, seed=8)
        assert np.array_equal(a.params, b.params)

    def test_successes_plus_failures_cover_every_iteration(self, noisy_ensemble):
        assert noisy_ensemble.params.shape == (200 - noisy_ensemble.failed_fits, 4)

    def test_every_fit_is_canonical(self, noisy_ensemble):
        assert (noisy_ensemble.params[:, 2] > 0).all()

    def test_single_region_resamples_are_degenerate(self):
        # with one region every draw pools the same points
        ds = generate_synthetic(SyntheticSpec(1, noise_sigma=0.05), seed=6)
        aligned = aligned_from_synthetic(ds)
        fit = fit_logistic(*aligned.pooled())
        ens = bootstrap_fits(aligned, fit, n_iter=10, seed=2)
        ups = ens.params[:, 0] + ens.params[:, 1]
        assert ups.max() - ups.min() < 1e-12

    def test_upper_plateau_consistent_with_generator(self, noisy_ensemble):
        ups = noisy_ensemble.params[:, 0] + noisy_ensemble.params[:, 1]
        assert abs(ups.mean() - 1.0) <= 2.0 * ups.std()

    def test_zero_iterations_rejected(self, aligned_noisy):
        aligned, fit = aligned_noisy
        with pytest.raises(ParameterError):
            bootstrap_fits(aligned, fit, n_iter=0, seed=0)

    def test_every_replicate_failing_is_a_numerical_error(self, aligned_noisy, caplog):
        # one region of 4 points: every replicate pools those 4 points
        _, fit = aligned_noisy
        solo = aligned_region(scaled_region("Solo", [0.1, 0.3, 0.7, 0.9]), -800)
        with caplog.at_level(logging.WARNING, logger=inference.__name__):
            with pytest.raises(NumericalError, match="^every bootstrap iteration failed$"):
                bootstrap_fits(AlignedDataset((solo,)), fit, n_iter=5, seed=0)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "bootstrap: 5 of 5 fits failed (first: need at least 5 points, got 4)"
        ]

    def test_no_retained_region_is_refused(self, aligned_noisy):
        _, fit = aligned_noisy
        with pytest.raises(ParameterError, match="^need at least 1 retained region$"):
            bootstrap_fits(AlignedDataset(()), fit, n_iter=5, seed=0)


class TestPlateauThresholds:
    def test_degenerate_ensemble_returns_the_plateaus(self):
        ens = ensemble_of(*[(1.0, 0.0, 0.001, 0.0)] * 4)
        assert plateau_thresholds(ens, 3) == (0.0, 1.0)

    def test_one_sigma_on_a_two_point_spread(self):
        ens = ensemble_of((0.95, 0.0, 0.001, 0.0), (0.95, 0.02, 0.001, 0.0))
        th1, _ = plateau_thresholds(ens, 1)
        # mean 0.01, population sd 0.01
        assert th1 == pytest.approx(0.02, abs=1e-15)

    def test_matches_direct_moment_computation(self):
        triples = [
            (1.0, 0.0, 0.001, 0.0),
            (0.9, 0.05, 0.0012, 10.0),
            (1.1, -0.02, 0.0009, -5.0),
        ]
        ens = ensemble_of(*triples)
        lower = np.array([b for _, b, _, _ in triples])
        upper = np.array([a + b for a, b, _, _ in triples])
        th1, th2 = plateau_thresholds(ens, 3)
        assert th1 == pytest.approx(lower.mean() + 3 * lower.std(), abs=1e-15)
        assert th2 == pytest.approx(upper.mean() - 3 * upper.std(), abs=1e-15)

    def test_only_one_and_three_sigma_supported(self):
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0))
        with pytest.raises(ParameterError):
            plateau_thresholds(ens, 2)

    def test_empty_ensemble_rejected(self):
        ens = BootstrapEnsemble(n_iter=1, params=np.empty((0, 4)), failed_fits=1, seed=0)
        with pytest.raises(ParameterError):
            plateau_thresholds(ens, 3)

    def test_wide_spread_inverts_the_thresholds(self):
        # lower plateaus {0, 0.6}, upper plateaus {1.0, 0.65}
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0), (0.05, 0.6, 0.001, 0.0))
        with pytest.raises(NumericalError, match="thresholds inverted"):
            plateau_thresholds(ens, 3)


def assert_crossings_match(rows, level):
    """``_crossings`` is per-row ``logistic_inverse`` bit for bit, with NaN
    where that raises NumericalError."""
    expected = []
    for row in rows:
        try:
            expected.append(logistic_inverse(LogisticParams(*row), level))
        except NumericalError:
            expected.append(float("nan"))
    got = inference._crossings(np.array(rows, dtype=float), level)
    assert got.tobytes() == np.array(expected, dtype=float).tobytes()


class TestCharacteristicTimescale:
    def test_single_curve_matches_the_closed_form(self):
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0))
        est = characteristic_timescale(ens, 0.2, 0.8, k_sigma=3)
        assert est.duration_mean == pytest.approx(UNIT_CURVE_DURATION, abs=1e-9)
        assert est.n_crossing_curves == 1
        assert est.t1_mean == pytest.approx(-UNIT_CURVE_DURATION / 2, abs=1e-9)

    def test_per_curve_durations_match_the_inverse(self, noisy_ensemble):
        th1, th2 = plateau_thresholds(noisy_ensemble, 3)
        est = characteristic_timescale(noisy_ensemble, th1, th2, k_sigma=3)
        curves = [LogisticParams(*row) for row in noisy_ensemble.params]
        crossing = [p for p in curves if p.lower < th1 and th2 < p.upper]
        t1 = np.array([logistic_inverse(p, th1) for p in crossing])
        t2 = np.array([logistic_inverse(p, th2) for p in crossing])
        assert len(crossing) == est.n_crossing_curves
        assert est.t1_mean == pytest.approx(t1.mean(), abs=1e-9)
        assert est.t2_mean == pytest.approx(t2.mean(), abs=1e-9)
        assert est.duration_mean == pytest.approx((t2 - t1).mean(), abs=1e-9)

    def test_curves_missing_a_threshold_are_excluded(self):
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0), (0.6, 0.3, 0.001, 0.0))
        est = characteristic_timescale(ens, 0.2, 0.8, k_sigma=3)
        assert est.n_crossing_curves == 1
        assert est.n_excluded_curves == 1
        assert est.duration_mean == pytest.approx(UNIT_CURVE_DURATION, abs=1e-9)

    def test_a_curve_whose_threshold_rounds_onto_its_asymptote_is_excluded(self):
        # th2 is one ulp below the second curve's upper asymptote, where its
        # crossing odds round to <= 0: it does not cross in floating point
        a, b = 0.9951097183449411, -0.08741973392085273
        th2 = float(np.nextafter(a + b, -np.inf))
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0), (a, b, 0.002, 0.0))
        est = characteristic_timescale(ens, 0.2, th2, k_sigma=3)
        assert est.n_crossing_curves == 1
        assert est.n_excluded_curves == 1
        assert est.t2_mean == logistic_inverse(LogisticParams(1.0, 0.0, 0.001, 0.0), th2)

    def test_no_curve_crossing_is_an_error(self):
        ens = ensemble_of((0.4, 0.3, 0.001, 0.0))
        with pytest.raises(NumericalError, match="no bootstrap curve crosses both thresholds"):
            characteristic_timescale(ens, 0.2, 0.8, k_sigma=3)

    def test_ordered_thresholds_required(self):
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0))
        with pytest.raises(ParameterError):
            characteristic_timescale(ens, 0.8, 0.2, k_sigma=3)

    # a curve, its mirror, and a curve whose asymptotes are 0.2 and 0.7
    CURVES = [(1.0, 0.0, 0.001, 0.0), (-1.0, 1.0, -0.001, 0.0), (0.5, 0.2, 0.01, 50.0)]

    @pytest.mark.parametrize("level", [0.0, 1.0, 0.2, 0.7, 1.0 - 2.0**-53, 0.5, 5e-324])
    def test_crossings_at_the_asymptotes_are_the_inverse(self, level):
        assert_crossings_match(self.CURVES, level)

    @given(data=st.data())
    def test_crossings_are_the_inverse_row_by_row(self, data):
        value = st.floats(-1e3, 1e3)
        rate = st.floats(1e-6, 10.0) | st.floats(-10.0, -1e-6)
        rows = data.draw(st.lists(st.tuples(value, value, rate, value), min_size=1, max_size=6))
        a, b, _, _ = data.draw(st.sampled_from(rows))
        edge = data.draw(st.sampled_from([b, a + b]))
        ulp_off = [float(np.nextafter(edge, side)) for side in (-np.inf, np.inf)]
        level = data.draw(st.sampled_from([edge, *ulp_off]) | value)
        assert_crossings_match(rows, level)

    @pytest.mark.parametrize("level", [0.13, 0.88])
    def test_each_log_is_math_logs(self, level):
        # numpy's log differs from math.log in the last bit on some inputs;
        # among these 4,000 bootstrap-like curves a few such inputs occur
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.8, 1.2, 2000), rng.uniform(-0.1, 0.1, 2000)
        c, d = rng.uniform(1e-3, 1e-2, 2000), rng.uniform(-1e3, 1e3, 2000)
        mirrored = np.column_stack([-a, a + b, -c, d])  # the same curves, rate flipped
        rows = np.vstack([np.column_stack([a, b, c, d]), mirrored])
        assert_crossings_match(rows.tolist(), level)

    def test_a_zero_rate_is_rejected(self):
        ens = ensemble_of((1.0, 0.0, 0.001, 0.0), (1.0, 0.0, -0.0, 0.0))
        with pytest.raises(ParameterError, match="rate c must be nonzero"):
            characteristic_timescale(ens, 0.2, 0.8, k_sigma=3)

    def test_wider_band_gives_longer_duration(self, noisy_ensemble):
        th1_3, th2_3 = plateau_thresholds(noisy_ensemble, 3)
        th1_1, th2_1 = plateau_thresholds(noisy_ensemble, 1)
        d3 = characteristic_timescale(noisy_ensemble, th1_3, th2_3, k_sigma=3)
        d1 = characteristic_timescale(noisy_ensemble, th1_1, th2_1, k_sigma=1)
        assert th1_1 < th1_3 < th2_3 < th2_1
        assert d1.duration_mean >= d3.duration_mean


class TestEmpiricalDurations:
    @pytest.fixture()
    def small_panel(self):
        alpha = aligned_region(
            scaled_region("Alpha", [0.05, 0.15, 0.40, 0.70, 0.95, 0.97]), -800
        )
        beta = aligned_region(scaled_region("Beta", [0.5, 0.92]), -1000)
        gamma = aligned_region(scaled_region("Gamma", [0.1, 0.5, 0.85]), -900)
        return AlignedDataset((alpha, beta, gamma))

    def test_first_strict_crossings_define_the_duration(self, small_panel):
        result = empirical_durations(small_panel, 0.3, 0.9)
        by_name = {e.nga: e for e in result.per_nga}
        assert by_name["Alpha"].tau1 == 0.0  # the 0.40 point sits at rel 0
        assert by_name["Alpha"].tau2 == 200.0
        assert by_name["Alpha"].duration == 200.0
        assert by_name["Beta"].duration == 100.0

    def test_regions_never_reaching_th2_are_excluded(self, small_panel):
        result = empirical_durations(small_panel, 0.3, 0.9)
        assert result.excluded == ("Gamma",)
        assert len(result.per_nga) == 2

    def test_mean_and_median(self, small_panel):
        result = empirical_durations(small_panel, 0.3, 0.9)
        assert result.mean_duration == 150.0
        assert result.median_duration == 150.0

    # np.median, whose bits the report keeps, loads numpy.ma
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e300, 1e300),
            min_size=1,
            max_size=41,
        )
    )
    @example([5.0])
    @example([-0.0])
    @example([0.0, -0.0])
    @example([-0.0, -0.0, 0.0])
    @example([-3.0, 7.0, 7.0, 7.0])
    @example([-2.5, -7.25])
    @example([1.0, 2.0, 3.0])
    def test_median_is_np_median_bit_for_bit(self, values):
        values = np.array(values)
        assert (
            np.float64(inference._median(values)).tobytes()
            == np.float64(np.median(values)).tobytes()
        )

    def test_durations_are_never_negative(self, small_panel):
        result = empirical_durations(small_panel, 0.3, 0.9)
        assert all(e.duration >= 0 for e in result.per_nga)

    def test_all_excluded_gives_nan_summaries(self, small_panel):
        result = empirical_durations(small_panel, 0.3, 0.999)
        assert result.per_nga == ()
        assert np.isnan(result.mean_duration)
        assert np.isnan(result.median_duration)

    def test_ordered_thresholds_required(self, small_panel):
        with pytest.raises(ParameterError):
            empirical_durations(small_panel, 0.9, 0.3)

    def test_a_score_equal_to_a_threshold_does_not_exceed_it(self):
        # 0.3 == th1 sits at rel 0 and 0.9 == th2 at rel 200; the next rows
        # are the first strictly above
        delta = aligned_region(scaled_region("Delta", [0.1, 0.3, 0.5, 0.9, 0.95]), -900)
        (entry,) = empirical_durations(AlignedDataset((delta,)), 0.3, 0.9).per_nga
        assert (entry.tau1, entry.tau2, entry.duration) == (100.0, 300.0, 200.0)


class TestContinuityComparison:
    def test_fully_continuous_panel_reproduces_the_full_fit(self, aligned_noisy):
        # synthetic labels are continuous everywhere, so nothing is clipped
        aligned, fit = aligned_noisy
        comparison = continuity_comparison(aligned, fit, ContinuityMode.CULTURAL)
        got = comparison.fit.params.as_array()
        want = fit.params.as_array()
        assert np.allclose(got, want, atol=1e-4)
        assert comparison.skipped == ()

    def test_a_comparison_keeps_no_point_arrays(self, fit_bundle):
        # a central segment is a slice of its region's rows, so a comparison
        # holds each segment's length and no copy of its points
        bundle = pipeline.add_continuity(fit_bundle)
        assert len(bundle.continuity) == 2

        def arrays(value) -> int:
            """The arrays in ``value``, its items and its fields."""
            if isinstance(value, np.ndarray):
                return 1
            if isinstance(value, (tuple, list)):
                return sum(arrays(item) for item in value)
            if is_dataclass(value):
                return sum(arrays(getattr(value, f.name)) for f in fields(value))
            return 0

        for comparison in bundle.continuity:
            held = {f.name: arrays(getattr(comparison, f.name)) for f in fields(comparison)}
            assert held == {"mode": 0, "fit": 0, "lengths": 0, "skipped": 0}
            assert [type(n) for _, n in comparison.lengths] == [int] * len(comparison.lengths)

    def test_segment_lengths_and_ranking(self):
        long = aligned_region(
            scaled_region("Long", [0.1, 0.3, 0.6, 0.8, 0.9], culture=[CULT] * 5), -800
        )
        short = aligned_region(
            scaled_region("Short", [0.1, 0.3, 0.6, 0.8, 0.9], culture=[OUT, CULT, CULT, CULT, OUT]),
            -800,
        )
        twin = aligned_region(
            scaled_region("Alef", [0.1, 0.3, 0.6, 0.8, 0.9], culture=[OUT, CULT, CULT, CULT, OUT]),
            -800,
        )
        aligned = AlignedDataset((long, short, twin))
        fit = fit_logistic(
            np.concatenate([long.rel_time, short.rel_time, twin.rel_time]).astype(float),
            np.concatenate([long.scaled, short.scaled, twin.scaled]),
        )
        comparison = continuity_comparison(aligned, fit, ContinuityMode.CULTURAL)
        assert comparison.mean_length == pytest.approx((5 + 3 + 3) / 3)
        # ties broken alphabetically after the length ordering
        assert comparison.length_ranking() == [("Long", 5), ("Alef", 3), ("Short", 3)]

    def test_regions_without_a_central_segment_are_skipped(self, aligned_noisy):
        aligned, fit = aligned_noisy
        broken_series = scaled_region(
            "Broken", [0.1, 0.3, 0.6, 0.8, 0.9], culture=[CULT, CULT, OUT, CULT, CULT]
        )
        broken = aligned_region(broken_series, -800)  # anchor lands on the break
        patched = AlignedDataset(aligned.regions + (broken,))
        comparison = continuity_comparison(patched, fit, ContinuityMode.CULTURAL)
        assert comparison.skipped == ("Broken",)

    def test_too_few_segments_is_infeasible(self, aligned_noisy):
        _, fit = aligned_noisy
        lone = aligned_region(scaled_region("Lone", [0.1, 0.3, 0.6, 0.8, 0.9]), -800)
        aligned = AlignedDataset((lone,))
        with pytest.raises(NumericalError, match=r"only 1 region\(s\) have a central segment"):
            continuity_comparison(aligned, fit, ContinuityMode.CULTURAL)


def record_fits(monkeypatch) -> list:
    """Every row the inference stages get from ``fit_tables``, as a FitResult."""
    fits = []
    real_fit = inference.fit_tables

    def recording(times, means, weights, within_ss, init):
        block = real_fit(times, means, weights, within_ss, init)
        fits.extend(table_row((block, weights), r) for r in range(len(weights)))
        return block

    monkeypatch.setattr(inference, "fit_tables", recording)
    return fits


def labelled_panel() -> AlignedDataset:
    """The inference panel with a cultural break before each anchor and an
    institutional break after it, at distances that vary by region."""
    ds = generate_synthetic(SyntheticSpec(12, noise_sigma=0.05), seed=21)
    regions = []
    for k, s in enumerate(ds.regions):
        n = len(s)
        anchor = int(np.flatnonzero(recorded_rel_times(s) == 0)[0])
        culture = [CULT] * n
        institution = [INST] * n
        culture[max(anchor - 2 - k, 0)] = OUT
        institution[min(anchor + 3 + k, n - 1)] = OUT
        series = scaled_region(
            s.nga, s.raw, start=int(s.abs_times[0]), culture=culture, institution=institution
        )
        regions.append(aligned_region(series, s.abs_times[anchor]))
    return AlignedDataset(tuple(regions))


class TestAgainstPerPointReference:
    """Each refit over the per-time table equals the per-point reference
    fit of the points it stands for."""

    def test_bootstrap_draws(self, aligned_noisy, monkeypatch):
        aligned, full = aligned_noisy
        fits = record_fits(monkeypatch)
        ensemble = bootstrap_fits(aligned, full, n_iter=50, seed=13)
        assert ensemble.failed_fits == 0 and len(fits) == 50
        n = len(aligned.regions)
        for child, fit, params in zip(
            np.random.SeedSequence(13).spawn(50), fits, ensemble.params
        ):
            draw = np.random.default_rng(child).integers(0, n, size=n)
            t = np.concatenate([aligned.regions[i].rel_time for i in draw]).astype(float)
            y = np.concatenate([aligned.regions[i].scaled for i in draw])
            assert fit.n_points == t.size
            assert_same_fit(fit, reference_fit(t, y, init=full.params))
            assert LogisticParams(*params) == fit.params

    def test_validation_splits(self, aligned_noisy, monkeypatch):
        aligned, full = aligned_noisy
        fits = record_fits(monkeypatch)
        report = out_of_sample_validation(aligned, full, n_repeats=20, seed=9)
        assert report.n_failed == 0 and len(fits) == 20
        t, y = aligned.pooled()
        for child, fit, rho2 in zip(
            np.random.SeedSequence(9).spawn(20), fits, report.rho2_values
        ):
            train, test = inference._split_indices(np.random.default_rng(child), t.size)
            ref = reference_fit(t[train], y[train], init=full.params)
            assert fit.n_points == train.size
            assert_same_fit(fit, ref)
            want = coefficient_of_prediction(logistic_eval(ref.params, t[test]), y[test])
            assert abs(rho2 - want) <= 1e-12

    @pytest.mark.parametrize("mode", list(ContinuityMode))
    def test_continuity_modes(self, mode):
        aligned = labelled_panel()
        full = fit_logistic(*aligned.pooled())
        comparison = continuity_comparison(aligned, full, mode)
        segments = [extract_central_sequence(region, mode) for region in aligned.regions]
        pairs = list(zip(aligned.regions, segments))
        t = np.concatenate([region.rel_time[seg] for region, seg in pairs]).astype(float)
        y = np.concatenate([region.scaled[seg] for region, seg in pairs])
        assert comparison.lengths == tuple((r.nga, r.scaled[seg].size) for r, seg in pairs)
        assert t.size < aligned.pooled()[0].size  # the breaks clipped something
        ref = reference_fit(t, y, init=full.params)
        assert_same_fit(comparison.fit, ref)
        # the RMSE stays per point
        assert comparison.fit.n_points == t.size
        assert comparison.fit.rmse == pytest.approx(ref.rmse, rel=1e-12)
