"""Curve evaluation, inversion, differentiation, and least-squares fitting."""

import os
import time

import numpy as np
import pytest
from helpers import (
    assert_same_fit,
    coefficient_of_prediction,
    recorded_rel_times,
    reference_fit,
    table_row,
)
from hypothesis import assume, given
from hypothesis import strategies as st

from spcgrowth import NumericalError, ParameterError, fit_logistic, logistic
from spcgrowth.logistic import (
    DEFAULT_INIT_PARAMS,
    LogisticParams,
    _jacobians,
    _objectives,
    _solve,
    fit_tables,
    logistic_eval,
    logistic_inverse,
    time_table,
)

UNIT = LogisticParams(1.0, 0.0, 1.0, 0.0)
SLOW = LogisticParams(1.0, 0.0, 0.002, 0.0)
DEFAULT = LogisticParams(*DEFAULT_INIT_PARAMS)


def fit_table(times, means, weights, within_ss=0.0, init=DEFAULT):
    """One per-time table through ``fit_tables``: its only row."""
    weights = np.asarray(weights, dtype=float)
    return fit_tables(times, means[None, :], weights[None, :], np.array([within_ss]), init)


def bisect_inverse(params, y, lo, hi, iters=200):
    """Bracketing oracle for the crossing time, independent of the closed form."""
    flo = logistic_eval(params, lo) - y
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = logistic_eval(params, mid) - y
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEval:
    def test_midpoint(self):
        assert logistic_eval(UNIT, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_asymptotes_reached_far_from_midpoint(self):
        assert abs(logistic_eval(UNIT, 40.0) - 1.0) < 1e-12
        assert abs(logistic_eval(UNIT, -40.0)) < 1e-12

    def test_mirrored_parameters_trace_the_same_curve(self):
        m = UNIT.mirrored()
        for t in (-3.0, 0.0, 3.0):
            assert logistic_eval(m, t) == pytest.approx(logistic_eval(UNIT, t), abs=1e-12)

    def test_huge_exponent_does_not_overflow(self):
        with np.errstate(over="raise"):
            lo = logistic_eval(UNIT, -1e9)
            hi = logistic_eval(UNIT, 1e9)
        assert 0.0 <= lo <= 1e-12
        assert 1.0 - 1e-12 <= hi <= 1.0

    def test_scalar_in_float_out(self):
        out = logistic_eval(UNIT, 1.5)
        assert isinstance(out, float)

    def test_array_shape_preserved(self):
        t = np.linspace(-5, 5, 7)
        assert logistic_eval(UNIT, t).shape == t.shape

    def test_plateau_properties(self):
        p = LogisticParams(0.8, 0.1, 0.002, 50.0)
        assert p.lower == pytest.approx(0.1)
        assert p.upper == pytest.approx(0.9)
        m = p.mirrored()
        assert m.lower == pytest.approx(p.lower, abs=1e-12)
        assert m.upper == pytest.approx(p.upper, abs=1e-12)

    @given(
        a=st.floats(0.1, 5.0),
        b=st.floats(-2.0, 2.0),
        logc=st.floats(-4.0, 0.0),
        d=st.floats(-5000.0, 5000.0),
        t1=st.floats(-5e4, 5e4),
        t2=st.floats(-5e4, 5e4),
    )
    def test_non_decreasing_for_positive_slope(self, a, b, logc, d, t1, t2):
        assume(t1 != t2)
        p = LogisticParams(a, b, 10.0**logc, d)
        lo, hi = sorted((t1, t2))
        assert logistic_eval(p, lo) <= logistic_eval(p, hi)

    def test_strictly_increasing_through_the_transition(self):
        grid = SLOW.d + np.linspace(-3.0, 3.0, 101) / SLOW.c
        values = logistic_eval(SLOW, grid)
        assert np.all(np.diff(values) > 0)


class TestInverse:
    def test_midpoint_maps_back_to_d(self):
        assert logistic_inverse(UNIT, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_unit_offset(self):
        # f(-1) = 1/(1+e) for the unit curve
        assert logistic_inverse(UNIT, 1.0 / (1.0 + np.e)) == pytest.approx(-1.0, abs=1e-12)

    def test_slow_curve_against_bracketing_oracle(self):
        t = logistic_inverse(SLOW, 0.99)
        assert logistic_eval(SLOW, t) == pytest.approx(0.99, abs=1e-9)
        oracle = bisect_inverse(SLOW, 0.99, 0.0, 1e5)
        assert t == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.2, 1.3])
    def test_values_outside_open_plateau_interval_rejected(self, y):
        with pytest.raises(NumericalError, match="outside the open asymptote interval"):
            logistic_inverse(UNIT, y)

    def test_flat_curve_rejected(self):
        with pytest.raises(ParameterError):
            logistic_inverse(LogisticParams(1.0, 0.0, 0.0, 0.0), 0.5)

    def test_a_level_that_rounds_onto_the_asymptote_is_a_numerical_error(self):
        # y is inside the open interval, but a / (y - b) - 1 rounds to <= 0
        p = LogisticParams(0.9951097183449411, -0.08741973392085273, 0.002, 0.0)
        y = float(np.nextafter(p.upper, -np.inf))
        assert y == 0.9076899844240883 and p.lower < y < p.upper
        with pytest.raises(NumericalError, match="rounds onto an asymptote"):
            logistic_inverse(p, y)

    @given(
        a=st.floats(0.2, 3.0),
        b=st.floats(-1.0, 1.0),
        logc=st.floats(-3.5, -0.5),
        d=st.floats(-2000.0, 2000.0),
        frac=st.floats(0.001, 0.999),
    )
    def test_round_trip(self, a, b, logc, d, frac):
        p = LogisticParams(a, b, 10.0**logc, d)
        y = b + frac * a
        assume(p.lower < y < p.upper)
        assert logistic_eval(p, logistic_inverse(p, y)) == pytest.approx(y, abs=1e-9)


class TestJacobian:
    def test_matches_central_differences_on_random_draws(self):
        rng = np.random.default_rng(17)
        t = np.linspace(-4000.0, 4000.0, 9)
        for _ in range(100):
            p = LogisticParams(
                rng.uniform(0.2, 2.0),
                rng.uniform(-0.5, 0.5),
                10.0 ** rng.uniform(-3.5, -1.5),
                rng.uniform(-1500.0, 1500.0),
            )
            theta = p.as_array()
            jac = _jacobians(theta[None, :], t)[0]
            for j in range(4):
                step = 1e-6 * max(1.0, abs(theta[j]))
                plus, minus = theta.copy(), theta.copy()
                plus[j] += step
                minus[j] -= step
                num = (
                    logistic_eval(LogisticParams(*plus), t)
                    - logistic_eval(LogisticParams(*minus), t)
                ) / (2.0 * step)
                scale = max(1.0, float(np.max(np.abs(jac[:, j]))))
                assert np.max(np.abs(num - jac[:, j])) <= 1e-5 * scale

    def test_shape(self):
        t = np.linspace(-5.0, 5.0, 11)
        assert _jacobians(UNIT.as_array()[None, :], t).shape == (1, 11, 4)

    def test_each_row_of_a_batch_equals_its_single_row_call(self):
        rng = np.random.default_rng(23)
        t = np.linspace(-4000.0, 4000.0, 41)
        theta = np.column_stack(
            [
                rng.uniform(-2.0, 2.0, 50),
                rng.uniform(-0.5, 0.5, 50),
                10.0 ** rng.uniform(-3.5, -1.5, 50) * rng.choice([-1.0, 1.0], 50),
                rng.uniform(-1500.0, 1500.0, 50),
            ]
        )
        batch = _jacobians(theta, t)
        assert batch.shape == (50, t.size, 4)
        for r in range(theta.shape[0]):
            assert np.array_equal(batch[r], _jacobians(theta[r : r + 1], t)[0])


def noisy_pooled(seed=3, n_regions=8, sigma=0.05):
    from spcgrowth import SyntheticSpec, generate_synthetic

    ds = generate_synthetic(SyntheticSpec(n_regions, noise_sigma=sigma), seed=seed)
    t = np.concatenate([recorded_rel_times(s) for s in ds.regions]).astype(float)
    y = np.concatenate([s.raw for s in ds.regions])
    return t, y


class TestFit:
    def test_noiseless_recovery_from_offset_init(self):
        true = LogisticParams(1.0, 0.0, 0.002, 0.0)
        t = np.arange(-4000.0, 4100.0, 100.0)
        y = np.asarray(logistic_eval(true, t))
        fit = fit_logistic(t, y, init=LogisticParams(1.0, 0.0, 0.001, 100.0))
        assert fit.converged
        for got, want in zip(fit.params.as_array(), true.as_array()):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_mirrored_init_lands_on_the_same_canonical_curve(self):
        t, y = noisy_pooled()
        init = LogisticParams(1.0, 0.0, 0.002, 0.0)
        f1 = fit_logistic(t, y, init=init)
        f2 = fit_logistic(t, y, init=init.mirrored())
        assert f1.params.c > 0 and f2.params.c > 0
        grid = np.linspace(t.min(), t.max(), 601)
        diff = np.abs(
            np.asarray(logistic_eval(f1.params, grid))
            - np.asarray(logistic_eval(f2.params, grid))
        )
        assert np.max(diff) <= 1e-8

    def test_constant_data_collapses_to_zero_amplitude(self):
        t = np.arange(-1000.0, 1100.0, 100.0)
        fit = fit_logistic(t, np.full(t.size, 0.5))
        assert fit.converged
        assert abs(fit.params.a) < 1e-6
        assert fit.params.b + fit.params.a / 2 == pytest.approx(0.5, abs=1e-9)

    def test_residuals_are_predicted_minus_observed(self):
        # the per-time table's objective, from predicted - mean at each time
        # plus the within-time spread, is the per-point sum of squares of
        # predicted - observed at the fitted curve
        t, y = noisy_pooled(seed=5)
        fit = fit_logistic(t, y)
        times, inverse = np.unique(t, return_inverse=True)
        counts, means, within_ss = time_table(inverse, y, times.size)
        table_res = logistic_eval(fit.params, times) - means
        objective = _objectives(table_res[None, :], counts[None, :], np.array([within_ss]))[0]
        per_point = np.asarray(logistic_eval(fit.params, t)) - y
        assert objective == pytest.approx(float(np.sum(per_point**2)), rel=1e-12)
        assert fit.rmse == pytest.approx(float(np.sqrt(objective / t.size)), rel=1e-12)

    def test_rmse_matches_residuals_exactly(self):
        t, y = noisy_pooled(seed=5)
        fit = fit_logistic(t, y)
        residuals = logistic_eval(fit.params, t) - y
        assert fit.rmse == float(np.sqrt(np.mean(residuals**2)))

    def test_repeat_fits_are_bit_identical(self):
        t, y = noisy_pooled(seed=11)
        f1 = fit_logistic(t, y)
        f2 = fit_logistic(t, y)
        assert f1.params == f2.params
        assert f1.iterations == f2.iterations

    def test_too_few_points_rejected(self):
        t = np.arange(4.0)
        with pytest.raises(NumericalError, match="need at least 5 points, got 4"):
            fit_logistic(t, t)

    def test_non_finite_values_rejected(self):
        t = np.arange(-500.0, 600.0, 100.0)
        y = np.asarray(logistic_eval(UNIT, t))
        y[3] = np.nan
        with pytest.raises(NumericalError, match="non-finite values in fit input"):
            fit_logistic(t, y)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            fit_logistic(np.arange(10.0), np.arange(9.0))

    def test_flat_init_rejected(self):
        t, y = noisy_pooled(seed=5)
        with pytest.raises(ParameterError):
            fit_logistic(t, y, init=LogisticParams(1.0, 0.0, 0.0, 0.0))

    def test_iteration_cap_respected(self, monkeypatch):
        t, y = noisy_pooled(seed=5)
        monkeypatch.setattr(logistic, "MAX_ITER", 3)
        fit = fit_logistic(t, y)
        assert fit.iterations <= 3


class TestTableFit:
    """The per-time table fitter against the per-point reference loop."""

    @pytest.mark.parametrize(
        "seed, n_regions, sigma", [(3, 8, 0.05), (5, 12, 0.05), (9, 8, 0.15), (11, 5, 0.3)]
    )
    def test_full_fit_matches_the_per_point_reference(self, seed, n_regions, sigma):
        t, y = noisy_pooled(seed=seed, n_regions=n_regions, sigma=sigma)
        fit = fit_logistic(t, y)
        ref = reference_fit(t, y)
        assert_same_fit(fit, ref)
        assert fit.n_points == ref.n_points == t.size
        assert fit.rmse == pytest.approx(ref.rmse, rel=1e-12)

    def test_a_row_stalls_once_rejected_steps_push_the_damping_past_1e15(self):
        # From this start on all-zero data the fit takes one step to a far,
        # nearly linear curve. Every later step is rejected: 20 of them take
        # the damping from 1e-4 past 1e15 (well inside the 60-level cap),
        # and the row stops there. One more level, 1e16, would take a step.
        t = np.arange(6) * 100.0
        y = np.zeros(6)
        init = LogisticParams(
            89717.71977191755, -1.2055726429721836, 4.818433904418441e-07, 1638.8993387279502
        )
        fit = fit_logistic(t, y, init=init)
        assert_same_fit(fit, reference_fit(t, y, init=init))
        assert fit.iterations == 1 and not fit.converged

    def test_the_table_is_fitted_over_the_distinct_times(self):
        t, y = noisy_pooled(seed=5)
        times, inverse = np.unique(t, return_inverse=True)
        counts, means, within_ss = time_table(inverse, y, times.size)
        table = table_row(fit_table(times, means, counts, within_ss))
        per_point = fit_logistic(t, y)
        assert table.params == per_point.params
        assert table.iterations == per_point.iterations
        assert table.converged == per_point.converged
        assert table.n_points == per_point.n_points == t.size

    @given(
        counts=st.lists(st.integers(1, 4), min_size=41, max_size=41),
        noise_seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from([0.02, 0.1]),
    )
    def test_integer_weights_fit_like_repeated_rows(self, counts, noise_seed, sigma):
        times = np.arange(-2000.0, 2100.0, 100.0)
        rng = np.random.default_rng(noise_seed)
        means = np.asarray(logistic_eval(SLOW, times)) + rng.normal(0.0, sigma, times.size)
        counts = np.asarray(counts)
        table = table_row(fit_table(times, means, counts))
        repeated = reference_fit(np.repeat(times, counts), np.repeat(means, counts))
        assert_same_fit(table, repeated)
        assert table.n_points == repeated.n_points

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: a rounding-level last LM step parts the two "
        "summation orders by 2.9e-8 in b; a gradient test before each step would stop first",
    )
    def test_integer_weights_counterexample(self):
        # an example the property above can draw: both fits converge in 4
        # steps, the last of which lowers the objective by 1.6e-15 relative
        times = np.arange(-2000.0, 2100.0, 100.0)
        rng = np.random.default_rng(416)
        means = np.asarray(logistic_eval(SLOW, times)) + rng.normal(0.0, 0.02, times.size)
        counts = np.array([1, 3] + [1] * 25 + [3] + [1] * 13)
        table = table_row(fit_table(times, means, counts))
        assert_same_fit(table, reference_fit(np.repeat(times, counts), np.repeat(means, counts)))

    def test_zero_weight_rows_change_nothing(self):
        t, y = noisy_pooled(seed=3)
        times, inverse = np.unique(t, return_inverse=True)
        counts, means, within_ss = time_table(inverse, y, times.size)
        padded = fit_table(
            np.append(times, 9900.0), np.append(means, 7.0), np.append(counts, 0), within_ss
        )
        assert_same_fit(table_row(padded), table_row(fit_table(times, means, counts, within_ss)))

    @pytest.mark.parametrize("weight", [1, 10**12])
    def test_exact_table_converges_at_any_weight_scale(self, weight):
        # the same curve through another formula, so the residuals at the
        # optimum are rounding noise rather than exact zeros
        times = np.arange(-1500.0, 1600.0, 100.0)
        means = 0.1 + 0.8 * 0.5 * (1.0 + np.tanh(0.5 * 0.004 * (times - 150.0)))
        weights = np.full(times.size, weight)
        init = LogisticParams(0.7, 0.15, 0.003, 0.0)
        fit = table_row(fit_table(times, means, weights, init=init))
        residuals = logistic_eval(fit.params, times) - means
        assert np.sqrt(np.mean(residuals**2)) < 1e-15
        # the residual direction is noise, so only the exact-fit test, which
        # weighs the data norm like the residual norm, calls this converged
        assert fit.converged

    def test_table_of_fewer_than_five_points_is_a_numerical_error(self):
        times = np.arange(-250.0, 350.0, 100.0)
        means = np.asarray(logistic_eval(SLOW, times))
        fits = fit_table(times, means, [1, 1, 0, 1, 1, 0])
        assert fits.errors == ("need at least 5 points, got 4",)
        with pytest.raises(NumericalError, match="need at least 5 points, got 4"):
            table_row(fits)


class TestBatchedCore:
    """``fit_tables``: rows of one call fit on their own."""

    def test_a_failed_row_leaves_the_others_untouched(self):
        times = np.arange(-2000.0, 2100.0, 100.0)
        rng = np.random.default_rng(4)
        means = np.asarray(logistic_eval(SLOW, times)) + rng.normal(0.0, 0.05, (3, times.size))
        weights = np.ones_like(means)
        weights[1] = 0.0
        weights[1, :4] = 1.0
        batch = fit_tables(times, means, weights, np.zeros(3), SLOW)
        assert batch.errors == (None, "need at least 5 points, got 4", None)
        assert np.all(np.isnan(batch.params[1])) and not batch.converged[1]
        for r in (0, 2):
            alone = fit_tables(times, means[r : r + 1], weights[r : r + 1], np.zeros(1), SLOW)
            assert np.array_equal(alone.params[0], batch.params[r])
            assert alone.iterations[0] == batch.iterations[r]
            assert alone.converged[0] == batch.converged[r]

    def test_a_singular_system_gives_nan_for_its_row_only(self):
        matrices = np.stack([np.eye(4), np.zeros((4, 4)), 2.0 * np.eye(4)])
        rhs = np.arange(12.0).reshape(3, 4)
        steps = _solve(matrices, rhs)
        assert np.all(np.isnan(steps[1]))
        assert np.array_equal(steps[0], np.linalg.solve(matrices[0], rhs[0]))
        assert np.array_equal(steps[2], np.linalg.solve(matrices[2], rhs[2]))


class TestCoefficientOfPrediction:
    def test_perfect_prediction(self):
        actual = np.array([0.1, 0.4, 0.9, 1.3])
        assert coefficient_of_prediction(actual, actual) == pytest.approx(1.0)

    def test_mean_prediction_scores_zero(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.full(3, actual.mean())
        assert coefficient_of_prediction(predicted, actual) == pytest.approx(0.0, abs=1e-15)

    def test_anti_prediction_goes_negative(self):
        # reversed ramp: SSE = 8 against SST = 2, so the score is -3
        assert coefficient_of_prediction([2.0, 1.0, 0.0], [0.0, 1.0, 2.0]) == pytest.approx(
            -3.0
        )

    def test_zero_variance_actuals_rejected(self):
        with pytest.raises(NumericalError, match="zero variance"):
            coefficient_of_prediction([1.0, 2.0], [5.0, 5.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            coefficient_of_prediction([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            coefficient_of_prediction([], [])


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or os.environ.get("OPENBLAS_NUM_THREADS") == "1",
    reason="BLAS has no second thread to wake",
)
def test_time_table_leaves_other_threads_idle():
    # A BLAS dot product over more than 10,000 points wakes OpenBLAS's
    # worker, which then spins about 0.1 s of CPU after its last call; the
    # busy wait gives such a spin time to show in the process's CPU time.
    rng = np.random.default_rng(0)
    inverse = rng.integers(0, 100, 20_000)
    y = rng.random(20_000)
    time.sleep(0.3)  # so any spin from earlier tests has ended
    others = time.process_time() - time.thread_time()
    for _ in range(20):
        time_table(inverse, y, 100)
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    assert time.process_time() - time.thread_time() - others < 0.03
