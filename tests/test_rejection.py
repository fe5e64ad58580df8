import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg.core import (
    DEFAULT_SIGMA_GRID,
    DataError,
    Dataset,
    EmptyScoresError,
    EmptyValidationError,
    KernelSpec,
    RngHandle,
    STREAM_SAMPLE,
    TableLookupRegressor,
)
from selreg.losses import empirical_rwr_loss, oracle_rwr_risk
from selreg.rejection import (
    classify_with_rejection,
    conformal_threshold,
    induce_rejector,
    kernel_calibrate,
    linear_calibrate,
    oracle_bayes_pair,
    select_bandwidth,
)
from selreg.tasks import (
    BinaryTask,
    DiscreteTask,
    OracleRiskCalibrator,
    binary_rwr_risk,
    default_smooth_task,
)


def constant_regressor_on(points):
    return TableLookupRegressor(points, np.zeros(len(points)))


def heldout(f, data):
    """(points, squared losses) of f on data, as select_bandwidth takes them."""
    return data.features, (f.predict(data.features) - data.targets) ** 2


class TestKernelCalibrate:
    def test_single_point_constant_estimate(self):
        val = Dataset(np.array([[0.0]]), np.array([2.0]))
        f = constant_regressor_on(val.features)
        cal = kernel_calibrate(f, val, KernelSpec(length_scale_sigma=1.0))
        # single held-out loss (0-2)^2 = 4 everywhere, weights cancel
        np.testing.assert_allclose(cal.estimate(np.array([[5.0], [-3.0]])), 4.0)

    def test_tiny_bandwidth_localizes(self):
        val = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 3.0]))
        f = constant_regressor_on(val.features)  # losses 1 and 9
        cal = kernel_calibrate(f, val, KernelSpec(length_scale_sigma=1e-6))
        np.testing.assert_allclose(cal.estimate(val.features), [1.0, 9.0])

    def test_symmetric_midpoint_average(self):
        # losses 1 at x=0 and 9 at x=2; query x=1 weights both equally
        val = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 3.0]))
        f = constant_regressor_on(val.features)
        cal = kernel_calibrate(f, val, KernelSpec(length_scale_sigma=1.0))
        assert cal.estimate(np.array([[1.0]]))[0] == pytest.approx(5.0, abs=1e-12)

    def test_underflow_falls_back_to_nearest(self):
        val = Dataset(np.array([[0.0], [100.0]]), np.array([1.0, 3.0]))
        f = constant_regressor_on(val.features)
        cal = kernel_calibrate(f, val, KernelSpec(length_scale_sigma=1e-6))
        # query at 60: all weights underflow; nearest point is x=100, loss 9
        assert cal.estimate(np.array([[60.0]]))[0] == 9.0

    def test_empty_validation_unrepresentable(self, tiny_dataset):
        # Dataset itself refuses n=0 rows, so an empty validation set can
        # never reach the calibrator
        with pytest.raises(DataError):
            tiny_dataset.subset(np.array([], dtype=int))


class TestLinearCalibrate:
    def test_recovers_linear_loss_surface(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(200, 1))
        # targets chosen so the squared residual is exactly 0.5 + 2*x
        y = np.sqrt(0.5 + 2.0 * x[:, 0])
        val = Dataset(x, y)
        f = constant_regressor_on(x)
        cal = linear_calibrate(f, val)
        est = cal.estimate(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(est, [0.5, 2.5], atol=1e-8)

    def test_clamped_at_zero(self):
        val = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        f = TableLookupRegressor(val.features, val.targets)  # zero losses
        cal = linear_calibrate(f, val)
        assert np.all(cal.estimate(np.array([[-100.0], [100.0]])) >= 0.0)


class TestInducedRejector:
    def test_zero_estimate_accepts_everywhere(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        cal = OracleRiskCalibrator(two_point_task, f)
        rej = induce_rejector(cal, c=100.0)
        np.testing.assert_array_equal(rej.accept(two_point_task.points), [1, 1])

    def test_exact_tie_accepts(self):
        task = DiscreteTask(
            points=np.array([[0.0]]), weights=np.array([1.0]),
            means=np.array([0.0]), variances=np.array([2.0]),
        )
        f = TableLookupRegressor(task.points, task.means)
        rej = induce_rejector(OracleRiskCalibrator(task, f), c=2.0)
        assert rej.accept(task.points)[0] == 1

    def test_zero_estimate_accepts_even_at_zero_cost(self):
        # estimate identically 0 ties the threshold at c=0 and still accepts
        noiseless = DiscreteTask(
            points=np.array([[0.0]]), weights=np.array([1.0]),
            means=np.array([0.0]), variances=np.array([0.0]),
        )
        f = TableLookupRegressor(noiseless.points, noiseless.means)
        rej = induce_rejector(OracleRiskCalibrator(noiseless, f), c=0.0)
        assert rej.accept(noiseless.points)[0] == 1

    def test_matches_variance_threshold_rule(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        rej = induce_rejector(OracleRiskCalibrator(two_point_task, f), c=2.0)
        np.testing.assert_array_equal(rej.accept(two_point_task.points), [1, 0])


class TestSelectBandwidth:
    def test_singleton_grid(self, two_point_task):
        data = two_point_task.sample(60, RngHandle(1, STREAM_SAMPLE))
        inner, outer = data.subset(np.arange(30)), data.subset(np.arange(30, 60))
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        spec = select_bandwidth(heldout(f, inner), heldout(f, outer), (0.5,), c=2.0)
        assert spec.length_scale_sigma == 0.5

    def test_argmin_consistent_with_direct_evaluation(self, two_point_task):
        data = two_point_task.sample(120, RngHandle(2, STREAM_SAMPLE))
        inner, outer = data.subset(np.arange(60)), data.subset(np.arange(60, 120))
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        grid = (1e-3, 1e3)
        direct = {}
        for sigma in grid:
            cal = kernel_calibrate(f, inner, KernelSpec(length_scale_sigma=sigma))
            direct[sigma] = empirical_rwr_loss(f, induce_rejector(cal, 2.0), outer, 2.0).rwr_loss
        spec = select_bandwidth(heldout(f, inner), heldout(f, outer), grid, c=2.0)
        assert spec.length_scale_sigma == min(grid, key=lambda s: (direct[s], s))

    def test_tie_prefers_smaller_sigma(self):
        # constant zero losses: every bandwidth gives identical held-out loss
        x = np.arange(10, dtype=float)[:, None]
        data = Dataset(x, np.zeros(10))
        f = TableLookupRegressor(x, np.zeros(10))
        spec = select_bandwidth(heldout(f, data), heldout(f, data), (10.0, 0.1, 1.0), c=1.0)
        assert spec.length_scale_sigma == 0.1

    def test_empty_half_rejected(self):
        one = (np.zeros((1, 1)), np.ones(1))
        empty = (np.zeros((0, 1)), np.zeros(0))
        for inner, outer in ((empty, one), (one, empty)):
            with pytest.raises(EmptyValidationError):
                select_bandwidth(inner, outer, DEFAULT_SIGMA_GRID, c=1.0)


class TestConformalThreshold:
    def test_hand_rank_example(self):
        th = conformal_threshold(np.arange(1.0, 11.0), gamma=0.3)
        assert th.order_statistic_index == 8  # ceil(0.7 * 11)
        assert th.c_hat == 8.0

    def test_sentinel_when_rank_exceeds_m(self):
        th = conformal_threshold(np.array([1.0, 2.0, 3.0, 4.0]), gamma=0.1)
        assert th.order_statistic_index == 5
        assert math.isinf(th.c_hat) and th.accepts_everything

    def test_extreme_budget_takes_min_score(self):
        scores = np.array([5.0, 1.0, 3.0, 2.0, 9.0, 4.0, 8.0, 7.0, 6.0, 10.0])
        th = conformal_threshold(scores, gamma=0.999)
        assert th.order_statistic_index == 1
        assert th.c_hat == 1.0

    def test_float_exact_rank_boundary(self):
        # (1-0.2)*(99+1) is exactly 80 in real arithmetic; float excess must
        # not bump the rank to 81
        th = conformal_threshold(np.arange(99.0), gamma=0.2)
        assert th.order_statistic_index == 80

    def test_empty_scores_rejected(self):
        with pytest.raises(EmptyScoresError):
            conformal_threshold(np.array([]), gamma=0.5)

    @given(
        m=st.integers(1, 80),
        g1=st.floats(0.02, 0.98),
        g2=st.floats(0.02, 0.98),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_threshold_monotone_in_budget(self, m, g1, g2, seed):
        lo, hi = sorted((g1, g2))
        scores = np.random.default_rng(seed).standard_normal(m)
        c_lo = conformal_threshold(scores, lo).c_hat
        c_hi = conformal_threshold(scores, hi).c_hat
        assert c_lo >= c_hi  # larger allowed budget never raises the threshold

    @given(m=st.integers(2, 120), gamma=st.floats(0.05, 0.95), seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_rejection_rate_ceiling_on_calibration_scores(self, m, gamma, seed):
        scores = np.random.default_rng(seed).standard_normal(m)
        th = conformal_threshold(scores, gamma)
        rej_rate = float(np.mean(scores > th.c_hat))
        assert rej_rate <= gamma + 1.0 / (m + 1)

    def test_coverage_monte_carlo(self):
        # smaller sibling of the acceptance check: m=49, gamma=0.2
        gen = RngHandle(99, STREAM_SAMPLE).generator()
        m, gamma, trials, fresh = 49, 0.2, 500, 100
        hits = total = 0
        for _ in range(trials):
            th = conformal_threshold(gen.standard_normal(m), gamma)
            draws = gen.standard_normal(fresh)
            hits += int((draws <= th.c_hat).sum())
            total += fresh
        rate = hits / total
        assert (1 - gamma) - 0.04 <= rate <= (1 - gamma) + 1.0 / (m + 1) + 0.04


class TestOracleBayesPair:
    def test_zero_variance_accepts_everywhere(self):
        task = DiscreteTask(
            points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]),
            means=np.array([1.0, 2.0]), variances=np.array([0.0, 0.0]),
        )
        _, r = oracle_bayes_pair(task, c=0.5)
        np.testing.assert_array_equal(r.accept(task.points), [1, 1])

    def test_threshold_rule(self, two_point_task):
        f, r = oracle_bayes_pair(two_point_task, c=2.0)
        np.testing.assert_array_equal(r.accept(two_point_task.points), [1, 0])
        np.testing.assert_array_equal(f.predict(two_point_task.points), two_point_task.means)

    def test_all_defer_regime_costs_c(self, two_point_task):
        c = 0.5  # below min variance
        f, r = oracle_bayes_pair(two_point_task, c)
        np.testing.assert_array_equal(r.accept(two_point_task.points), [0, 0])
        assert oracle_rwr_risk(f, r, two_point_task, c) == pytest.approx(c, abs=1e-12)

    def test_continuous_task_pair(self):
        task = default_smooth_task()
        f, r = oracle_bayes_pair(task, c=0.5)
        x = np.array([[-1.5], [1.5]])
        np.testing.assert_allclose(f.predict(x), task.mean_at(x))
        np.testing.assert_array_equal(r.accept(x), task.var_at(x) <= 0.5)


class TestClassification:
    def test_certain_labels_accepted_everywhere(self):
        task = BinaryTask(
            points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]),
            eta=np.array([1.0, 1.0]),
        )
        clf, rej = classify_with_rejection(task, c=0.3)
        np.testing.assert_array_equal(clf.predict(task.points), [1.0, 1.0])
        np.testing.assert_array_equal(rej.accept(task.points), [1, 1])
        assert binary_rwr_risk(clf, rej, task, 0.3) == 0.0

    def test_coin_flip_point_deferred(self):
        task = BinaryTask(points=np.array([[0.0]]), weights=np.array([1.0]), eta=np.array([0.5]))
        clf, rej = classify_with_rejection(task, c=0.3)
        assert rej.accept(task.points)[0] == 0  # risk 0.5 > 0.3

    def test_confident_point_accepted(self):
        task = BinaryTask(points=np.array([[0.0]]), weights=np.array([1.0]), eta=np.array([0.9]))
        clf, rej = classify_with_rejection(task, c=0.2)
        assert rej.accept(task.points)[0] == 1  # risk 0.1 <= 0.2
        assert clf.predict(task.points)[0] == 1.0
        assert binary_rwr_risk(clf, rej, task, 0.2) == pytest.approx(0.1, abs=1e-12)

    def test_risk_agrees_with_direct_expectation(self):
        # independent oracle: expected 0-1 loss from the label distribution
        gen = np.random.default_rng(3)
        for _ in range(20):
            m = int(gen.integers(2, 6))
            w = gen.uniform(0.2, 1.0, m)
            task = BinaryTask(
                points=np.arange(m, dtype=float)[:, None],
                weights=w / w.sum(),
                eta=gen.uniform(0, 1, m),
            )
            c = float(gen.uniform(0.05, 0.6))
            clf, rej = classify_with_rejection(task, c)
            direct = 0.0
            for j in range(m):
                if rej.accept(task.points[j : j + 1])[0]:
                    yhat = clf.predict(task.points[j : j + 1])[0]
                    p_err = task.eta[j] if yhat == 0.0 else 1.0 - task.eta[j]
                    direct += task.weights[j] * p_err
                else:
                    direct += task.weights[j] * c
            assert binary_rwr_risk(clf, rej, task, c) == pytest.approx(direct, abs=1e-12)


class TestCalibratorConsistency:
    def test_calibration_error_shrinks_with_validation_size(self):
        """Held-out mean absolute risk error drops as validation data doubles."""
        task = default_smooth_task()
        reg = _smooth_mean_regressor(task)
        grid_x = np.linspace(task.lo, task.hi, 201)[:, None]
        true_risk = task.var_at(grid_x)  # zero bias for the exact mean

        # bandwidth fixed once, picked on the grid at the smallest size
        base = task.sample(50, RngHandle(1234, STREAM_SAMPLE))
        best_sigma = min(
            DEFAULT_SIGMA_GRID,
            key=lambda s: _grid_mae(reg, base, s, grid_x, true_risk),
        )
        medians = []
        for m in (50, 200, 800):
            errs = []
            for seed in range(7):
                val = task.sample(m, RngHandle(2000 + seed, STREAM_SAMPLE))
                errs.append(_grid_mae(reg, val, best_sigma, grid_x, true_risk))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]


def _smooth_mean_regressor(task):
    from selreg.tasks import CondMeanRegressor

    return CondMeanRegressor(task)


def _grid_mae(reg, val, sigma, grid_x, true_risk):
    cal = kernel_calibrate(reg, val, KernelSpec(length_scale_sigma=sigma))
    return float(np.mean(np.abs(cal.estimate(grid_x) - true_risk)))
