import math

import numpy as np
import pytest

from selreg.core import (
    PremiseViolatedError,
    RngHandle,
    STREAM_VERIFY,
    TableLookupRegressor,
    TableLookupRejector,
)
from selreg.losses import bayes_risk, oracle_rwr_risk, truncated_loss
from selreg.oracle import (
    build_entrywise_trapped_pair,
    build_locally_trapped_pair,
    check_risk_decomposition,
    enumerate_pair_minimum,
    random_discrete_task,
    random_table_calibrator,
    random_table_regressor,
    run_verification_suite,
    verify_entrywise_optimality,
    verify_local_optimality,
)
from selreg.rejection import oracle_bayes_pair
from selreg.tasks import (
    CondMeanRegressor,
    DiscreteTask,
    OracleRiskCalibrator,
    default_discrete_task,
    default_smooth_task,
)

C = 2.0


@pytest.fixture(scope="module")
def task():
    return default_discrete_task()


class TestTrapConstructions:
    def test_local_trap_loss_is_exactly_c(self, task):
        f0, r0 = build_locally_trapped_pair(task, C)
        assert oracle_rwr_risk(f0, r0, task, C) == C

    def test_local_trap_risk_at_least_c_everywhere(self, task):
        f0, _ = build_locally_trapped_pair(task, C)
        risk = (f0.predict(task.points) - task.means) ** 2 + task.variances
        low_var = task.variances <= C
        np.testing.assert_allclose(risk[low_var], 4.0 * C + task.variances[low_var])
        assert np.all(risk >= C)

    def test_global_optimum_strictly_below(self, task):
        assert bayes_risk(task, C) < C  # strict because v < c somewhere

    def test_premise_checked(self):
        flat = DiscreteTask(
            points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]),
            means=np.zeros(2), variances=np.array([5.0, 6.0]),
        )
        with pytest.raises(PremiseViolatedError):
            build_locally_trapped_pair(flat, C)

    def test_entrywise_trap_defers_spoiled_region(self, task):
        f1, r1 = build_entrywise_trapped_pair(task, C)
        u1 = task.variances < C
        np.testing.assert_array_equal(r1.accept(task.points)[u1], 0)

    def test_entrywise_gap_closed_form(self, task):
        f1, r1 = build_entrywise_trapped_pair(task, C)
        u1 = task.variances < C
        gap = oracle_rwr_risk(f1, r1, task, C) - bayes_risk(task, C)
        closed = float(np.dot(task.weights[u1], C - task.variances[u1]))
        assert gap == pytest.approx(closed, abs=1e-12)
        assert gap > 0.0

    def test_perturbing_inside_deferred_region_changes_nothing(self, task):
        f1, r1 = build_entrywise_trapped_pair(task, C)
        base = oracle_rwr_risk(f1, r1, task, C)
        u1 = np.flatnonzero(task.variances < C)
        values = f1.predict(task.points)
        for delta in np.linspace(-3, 3, 7):
            for j in u1:
                bumped = values.copy()
                bumped[j] += delta
                f_mod = TableLookupRegressor(task.points, bumped)
                assert oracle_rwr_risk(f_mod, r1, task, C) == pytest.approx(base, abs=1e-12)


class TestLocalOptimality:
    def test_no_improving_perturbation_found(self, task):
        f0, r0 = build_locally_trapped_pair(task, C)
        report = verify_local_optimality(
            (f0, r0), task, 0.9 * math.sqrt(C), C,
            rng=RngHandle(7, STREAM_VERIFY),
        )
        assert not report.improvement_found
        assert report.best_found_loss >= report.baseline_loss - 1e-10
        assert report.n_candidates > 10_000
        assert report.global_gap == pytest.approx(C - bayes_risk(task, C), abs=1e-12)

    def test_bayes_pair_locally_and_globally_optimal(self, task):
        pair = oracle_bayes_pair(task, C)
        report = verify_local_optimality(
            pair, task, 0.3, C, rng=RngHandle(8, STREAM_VERIFY)
        )
        assert not report.improvement_found
        assert report.global_gap == pytest.approx(0.0, abs=1e-12)

    def test_search_detects_genuinely_improvable_pair(self, task):
        # all-defer paired with the exact conditional mean IS improvable:
        # accepting a low-variance point beats paying c
        f = TableLookupRegressor(task.points, task.means)
        r = TableLookupRejector(task.points, np.zeros(task.size, dtype=int))
        report = verify_local_optimality(
            (f, r), task, 0.9 * math.sqrt(C), C,
            rng=RngHandle(9, STREAM_VERIFY),
        )
        assert report.improvement_found
        assert report.best_found_loss < C - 0.1


class TestEntrywiseOptimality:
    def test_trap_passes_exhaustive_checks(self, task):
        pair = build_entrywise_trapped_pair(task, C)
        report = verify_entrywise_optimality(pair, task, C)
        assert not report.improvement_found
        assert report.rejector_coverage == 1.0
        assert report.global_gap > 0.0

    def test_bayes_pair_entrywise_optimal_with_zero_gap(self, task):
        report = verify_entrywise_optimality(oracle_bayes_pair(task, C), task, C)
        assert not report.improvement_found
        assert report.global_gap == pytest.approx(0.0, abs=1e-12)

    def test_swapping_in_bayes_rejector_does_not_reach_optimum(self, task):
        f1, _ = build_entrywise_trapped_pair(task, C)
        _, r_star = oracle_bayes_pair(task, C)
        loss = oracle_rwr_risk(f1, r_star, task, C)
        assert loss > bayes_risk(task, C) + 1e-9

    def test_improvable_rejector_detected(self, task):
        # conditional mean with an inverted rejector: defers exactly the
        # points it should accept
        f = TableLookupRegressor(task.points, task.means)
        r = TableLookupRejector(task.points, (task.variances > C).astype(int))
        report = verify_entrywise_optimality((f, r), task, C)
        assert report.improvement_found
        assert report.counterexample["side"] == "rejector"

    def test_large_support_switches_to_randomized_mode(self):
        from selreg.tasks import DiscreteTask
        from selreg.rejection import oracle_bayes_pair

        m = 14
        big = DiscreteTask(
            points=np.arange(m, dtype=float)[:, None] * 2.0,
            weights=np.full(m, 1.0 / m),
            means=np.zeros(m),
            variances=np.linspace(0.25, 9.0, m),
        )
        report = verify_entrywise_optimality(oracle_bayes_pair(big, C), big, C)
        assert report.rejector_coverage == pytest.approx(2.0**12 / 2.0**m)
        assert not report.improvement_found


class TestRiskDecomposition:
    def test_all_zero_at_oracle(self, task):
        f_star = TableLookupRegressor(task.points, task.means)
        cal = OracleRiskCalibrator(task, f_star)
        excess, pred, calib = check_risk_decomposition(f_star, cal, task, C)
        assert excess == pytest.approx(0.0, abs=1e-12)
        assert pred == 0.0 and calib == 0.0

    def test_adversarial_calibrator_bounded_by_calibration_error(self, task):
        # estimate = truth + c forces full deferral; the bound still holds
        f_star = TableLookupRegressor(task.points, task.means)
        from selreg.oracle import TableRiskCalibrator

        cal = TableRiskCalibrator(task.points, task.variances + C)
        excess, pred, calib = check_risk_decomposition(f_star, cal, task, C)
        assert pred == 0.0
        assert calib == pytest.approx(C, abs=1e-12)
        assert excess <= calib + 1e-12

    def test_all_zero_at_oracle_on_a_continuous_task(self):
        smooth = default_smooth_task()
        f_star = CondMeanRegressor(smooth)
        assert check_risk_decomposition(f_star, OracleRiskCalibrator(smooth, f_star), smooth, 0.5) == (0.0, 0.0, 0.0)

    def test_randomized_triples_obey_bound(self):
        gen = RngHandle(31, STREAM_VERIFY).generator()
        for _ in range(100):
            t = random_discrete_task(gen)
            f = random_table_regressor(gen, t)
            cal = random_table_calibrator(gen, t, f)
            c = float(gen.uniform(0.2, 4.0))
            excess, pred, calib = check_risk_decomposition(f, cal, t, c)
            assert excess <= pred + calib + 1e-12


class TestPairEnumeration:
    def test_bayes_pair_attains_enumerated_minimum(self, task):
        star = oracle_rwr_risk(*oracle_bayes_pair(task, C), task, C)
        assert star == pytest.approx(bayes_risk(task, C), abs=1e-12)
        assert enumerate_pair_minimum(task, C) >= star - 1e-10

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0])
    def test_bayes_risk_on_a_continuous_task_is_the_truncated_loss_of_the_mean(self, c):
        smooth = default_smooth_task()
        assert abs(bayes_risk(smooth, c) - truncated_loss(CondMeanRegressor(smooth), smooth, c)) <= 1e-15

    def test_minimum_equals_truncated_variance_mean(self, task):
        # uniform marginal: E[min(v, 2)] = mean(0.25, 0.5, 1, 2, 2, 2)
        expected = float(np.mean([0.25, 0.5, 1.0, 2.0, 2.0, 2.0]))
        assert enumerate_pair_minimum(task, C) == pytest.approx(expected, abs=1e-10)

    def test_enumeration_capped_at_eight_points(self):
        from selreg.core import SupportTooLargeError
        from selreg.tasks import DiscreteTask

        m = 9
        big = DiscreteTask(
            points=np.arange(m, dtype=float)[:, None],
            weights=np.full(m, 1.0 / m),
            means=np.zeros(m),
            variances=np.ones(m),
        )
        with pytest.raises(SupportTooLargeError):
            enumerate_pair_minimum(big, C)

    def test_search_needs_finite_support(self):
        from selreg.core import UnsupportedTaskError
        from selreg.rejection import oracle_bayes_pair
        from selreg.tasks import default_smooth_task

        smooth = default_smooth_task()
        pair = oracle_bayes_pair(smooth, 0.5)
        with pytest.raises(UnsupportedTaskError):
            verify_local_optimality(pair, smooth, 0.1, 0.5)


class TestVerificationSuite:
    def test_everything_passes(self):
        results = run_verification_suite(seed=777, trials=40)
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_report_is_serializable(self):
        results = run_verification_suite(seed=778, trials=5)
        import json
        from dataclasses import asdict

        doc = json.dumps([asdict(r) for r in results])
        assert "bayes_pair_grid_minimum" in doc
