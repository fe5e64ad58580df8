import functools
import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

from selreg import oracle
from selreg.core import (
    DEFAULT_SIGMA_GRID,
    DataError,
    RngHandle,
    STREAM_VERIFY,
    SelregError,
    TableLookupRegressor,
    TableLookupRejector,
)
from selreg.harness import cost_calibrator, fit_regressor, materialize
from selreg.losses import bayes_risk, oracle_rwr_risk, truncated_loss
from selreg.models import KnnConfig
from selreg.oracle import (
    PropertyResult,
    TableRiskCalibrator,
    build_entrywise_trapped_pair,
    build_locally_trapped_pair,
    check_risk_decomposition,
    enumerate_pair_minimum,
    random_discrete_task,
    random_table_calibrator,
    random_table_regressor,
    random_table_rejector,
    run_verification_suite,
    verify_entrywise_optimality,
    verify_local_optimality,
)
from selreg.rejection import induce_rejector, oracle_bayes_pair
from selreg.tasks import (
    BinaryTask,
    CondMeanRegressor,
    DiscreteTask,
    OracleRiskCalibrator,
    binary_rwr_risk,
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
        with pytest.raises(SelregError, match="need min variance < c") as exc:
            build_locally_trapped_pair(flat, C)
        assert exc.type is SelregError

    def test_entrywise_premise_checked(self, task):
        # hetero6's smallest variance is 0.25, so no point lies strictly below c = 0.25
        with pytest.raises(SelregError, match="need a region of strictly sub-threshold variance") as exc:
            build_entrywise_trapped_pair(task, 0.25)
        assert exc.type is SelregError

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
        baseline, best = verify_local_optimality((f0, r0), task, 0.9 * math.sqrt(C), C)
        # no improvement: nothing in the ball beats the pair by more than 1e-10
        assert best >= baseline - 1e-10
        assert baseline - bayes_risk(task, C) == pytest.approx(C - bayes_risk(task, C), abs=1e-12)

    def test_bayes_pair_locally_and_globally_optimal(self, task):
        pair = oracle_bayes_pair(task, C)
        baseline, best = verify_local_optimality(pair, task, 0.3, C)
        assert best >= baseline - 1e-10
        assert baseline - bayes_risk(task, C) == pytest.approx(0.0, abs=1e-12)

    def test_search_detects_genuinely_improvable_pair(self, task):
        # all-defer paired with the exact conditional mean IS improvable:
        # accepting a low-variance point beats paying c
        f = TableLookupRegressor(task.points, task.means)
        r = TableLookupRejector(task.points, np.zeros(task.size, dtype=int))
        baseline, best = verify_local_optimality((f, r), task, 0.9 * math.sqrt(C), C)
        assert best < baseline - 1e-10
        assert best < C - 0.1


class TestEntrywiseOptimality:
    def test_trap_passes_exhaustive_checks(self, task):
        pair = build_entrywise_trapped_pair(task, C)
        baseline, best_rej, best_reg = verify_entrywise_optimality(pair, task, C)
        assert best_rej >= baseline - 1e-10 and best_reg >= baseline - 1e-10
        assert baseline - bayes_risk(task, C) > 0.0

    def test_bayes_pair_entrywise_optimal_with_zero_gap(self, task):
        baseline, best_rej, best_reg = verify_entrywise_optimality(oracle_bayes_pair(task, C), task, C)
        assert best_rej >= baseline - 1e-10 and best_reg >= baseline - 1e-10
        assert baseline - bayes_risk(task, C) == pytest.approx(0.0, abs=1e-12)

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
        baseline, best_rej, _ = verify_entrywise_optimality((f, r), task, C)
        assert best_rej < baseline - 1e-10

    def test_improvable_regressor_detected(self, task):
        # a shifted mean with the rejector its own risk induces: no accept
        # pattern beats it at these values, but the conditional mean does
        f = TableLookupRegressor(task.points, task.means + 0.1)
        r = induce_rejector(OracleRiskCalibrator(task, f), C)
        baseline, best_rej, best_reg = verify_entrywise_optimality((f, r), task, C)
        assert best_rej >= baseline - 1e-10
        assert best_reg < baseline - 1e-10
        assert best_reg == 1.2916666666666667

    def test_large_support_is_refused(self):
        from selreg.tasks import DiscreteTask
        from selreg.rejection import oracle_bayes_pair

        m = 14
        big = DiscreteTask(
            points=np.arange(m, dtype=float)[:, None] * 2.0,
            weights=np.full(m, 1.0 / m),
            means=np.zeros(m),
            variances=np.linspace(0.25, 9.0, m),
        )
        with pytest.raises(SelregError, match="exhaustive search is limited to 12 points") as exc:
            verify_entrywise_optimality(oracle_bayes_pair(big, C), big, C)
        assert exc.type is SelregError


class TestSearchesAreExact:
    """Each search returns the exact minimum over its set of lookup pairs."""

    @staticmethod
    def _small_tasks():
        gen = RngHandle(41, STREAM_VERIFY).generator()
        for _ in range(20):
            m = int(gen.integers(1, 4))
            w = gen.uniform(0.2, 1.0, size=m)
            t = DiscreteTask(
                points=np.arange(m, dtype=float)[:, None] * 2.0, weights=w / w.sum(),
                means=gen.uniform(-3.0, 3.0, size=m), variances=gen.uniform(0.05, 9.0, size=m),
            )
            pair = (random_table_regressor(gen, t), random_table_rejector(gen, t))
            yield t, pair, float(gen.uniform(0.2, 4.0)), float(gen.uniform(0.05, 1.5))

    def test_local_search_matches_brute_force(self):
        for t, (f, r), c, radius in self._small_tasks():
            f_vals = f.predict(t.points)
            accepts = r.accept(t.points)
            clipped = np.clip(t.means, f_vals - radius, f_vals + radius)
            axes = [np.append(np.linspace(v - radius, v + radius, 21), mu) for v, mu in zip(f_vals, clipped)]
            F = np.array(list(itertools.product(*axes)))
            risk = (F - t.means) ** 2 + t.variances
            reference = min(
                float((c + (t.weights * (np.array(A) * (risk - c))).sum(axis=1)).min())
                for A in itertools.product((0.0, 1.0), repeat=t.size)
                if np.dot(t.weights, np.array(A) != accepts) <= radius + 1e-15
            )
            _, best = verify_local_optimality((f, r), t, radius, c)
            assert abs(best - reference) <= 1e-12

    def test_entrywise_regressor_side_is_the_conditional_mean(self):
        for t, (f, r), c, _ in self._small_tasks():
            _, _, best_reg = verify_entrywise_optimality((f, r), t, c)
            expected = oracle_rwr_risk(CondMeanRegressor(t), r, t, c)
            assert best_reg == pytest.approx(expected, abs=1e-12)

    _searches = pytest.mark.parametrize(
        "search",
        [
            lambda pair, t, c=C: verify_local_optimality(pair, t, 0.1, c),
            lambda pair, t, c=C: verify_entrywise_optimality(pair, t, c),
            lambda pair, t, c=C: enumerate_pair_minimum(t, c),
        ],
        ids=["local", "entrywise", "enumerate"],
    )

    @_searches
    def test_thirteen_points_refused(self, search):
        m = 13
        big = DiscreteTask(
            points=np.arange(m, dtype=float)[:, None], weights=np.full(m, 1.0 / m),
            means=np.zeros(m), variances=np.linspace(0.25, 9.0, m),
        )
        with pytest.raises(SelregError, match="exhaustive search is limited to 12 points") as exc:
            search(oracle_bayes_pair(big, C), big)
        assert exc.type is SelregError

    @_searches
    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_unusable_cost_refused(self, search, task, c):
        with pytest.raises(ValueError, match=f"cost c must be finite and >= 0, got {c!r}"):
            search(oracle_bayes_pair(task, C), task, c)

    @pytest.mark.parametrize("radius", [math.nan, -1.0])
    def test_unusable_radius_refused(self, task, radius):
        with pytest.raises(ValueError, match=f"radius must be >= 0 or inf, got {radius!r}"):
            verify_local_optimality(oracle_bayes_pair(task, C), task, radius, C)

    def test_an_infinite_radius_is_the_global_search(self, task):
        f0, r0 = build_locally_trapped_pair(task, C)
        baseline, best = verify_local_optimality((f0, r0), task, math.inf, C)
        assert (baseline, best) == (C, enumerate_pair_minimum(task, C))


_PIPELINE_SOURCES = [("smooth1d", 0.5), ("hetero6", 2.0)]


@functools.cache
def _pipeline_terms(source: str, c: float, n: int, seed: int) -> tuple[float, float, float]:
    """(excess, prediction error, calibration error) of the kNN and kernel
    smoother that the pipeline fits on ``n`` rows of ``source`` at ``seed``."""
    train, val, _, t = materialize(source, seed, synthetic_n=n)
    predictions = np.empty(val.n)
    f = fit_regressor(KnnConfig(), train, val, t, seed, out=predictions)
    cal = cost_calibrator("kernel", DEFAULT_SIGMA_GRID, f, val, predictions, t, c)
    return check_risk_decomposition(f, cal, t, c)


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
        cal = TableRiskCalibrator(task.points, task.variances + C)
        excess, pred, calib = check_risk_decomposition(f_star, cal, task, C)
        assert pred == 0.0
        assert calib == pytest.approx(C, abs=1e-12)
        assert excess <= calib + 1e-12

    @pytest.mark.parametrize("c", [math.inf, math.nan, -1.0])
    def test_unusable_cost_refused(self, task, c):
        f_star = CondMeanRegressor(task)
        with pytest.raises(ValueError, match=f"cost c must be finite and >= 0, got {c!r}"):
            check_risk_decomposition(f_star, OracleRiskCalibrator(task, f_star), task, c)

    def test_table_calibrator_refuses_nonfinite_queries(self, task):
        cal = TableRiskCalibrator(task.points, task.variances)
        np.testing.assert_array_equal(cal.estimate(np.array([[1.0], [10.0]])), [0.25, 9.0])
        with pytest.raises(DataError, match="NaN or inf"):
            cal.estimate(np.array([[1.0], [-np.inf]]))

    def test_all_zero_at_oracle_on_a_continuous_task(self):
        smooth = default_smooth_task()
        f_star = CondMeanRegressor(smooth)
        assert check_risk_decomposition(f_star, OracleRiskCalibrator(smooth, f_star), smooth, 0.5) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("source,c", _PIPELINE_SOURCES)
    def test_pipeline_fits_obey_bound(self, source, c, seed):
        for n in (1000, 4000):
            excess, pred, calib = _pipeline_terms(source, c, n, seed)
            assert excess <= pred + calib + 1e-12, n

    @pytest.mark.parametrize("source,c", _PIPELINE_SOURCES)
    def test_pipeline_terms_fall_with_n(self, source, c):
        # consistency on the pipeline's own fits: the excess risk and both of
        # its bounding terms, averaged over seeds 0-4, shrink as n grows
        small, large = (
            np.mean([_pipeline_terms(source, c, n, seed) for seed in range(5)], axis=0) for n in (1000, 4000)
        )
        assert (large < small).all(), (small, large)

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

    def test_enumeration_capped_at_twelve_points(self):
        from selreg.tasks import DiscreteTask

        m = 13
        big = DiscreteTask(
            points=np.arange(m, dtype=float)[:, None],
            weights=np.full(m, 1.0 / m),
            means=np.zeros(m),
            variances=np.ones(m),
        )
        with pytest.raises(SelregError, match="exhaustive search is limited to 12 points") as exc:
            enumerate_pair_minimum(big, C)
        assert exc.type is SelregError

    def test_search_needs_finite_support(self):
        from selreg.rejection import oracle_bayes_pair
        from selreg.tasks import default_smooth_task

        smooth = default_smooth_task()
        pair = oracle_bayes_pair(smooth, 0.5)
        with pytest.raises(SelregError, match="needs a finite-support task") as exc:
            verify_local_optimality(pair, smooth, 0.1, 0.5)
        assert exc.type is SelregError


class TestVerificationSuite:
    def test_everything_passes(self):
        results = run_verification_suite(seed=777, trials=40)
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert len({r.name for r in results}) == len(results) == 14
        assert all(r.margin >= 0.0 for r in results)

    def test_report_is_serializable(self):
        results = run_verification_suite(seed=778, trials=5)
        import json
        from dataclasses import asdict

        doc = json.dumps([asdict(r) for r in results])
        assert "bayes_pair_enumerated_minimum" in doc

    def test_a_shifted_optimum_fails_with_negative_margins(self, monkeypatch):
        # an optimum 1e-3 too high breaks the reference pair, the entrywise
        # trap's closed-form gap and the tight decomposition; each failure
        # shows as a negative margin, not as a margin of 0 beside passed=False
        shifted = oracle.bayes_risk
        monkeypatch.setattr(oracle, "bayes_risk", lambda task, c: shifted(task, c) + 1e-3)
        failed = [r for r in run_verification_suite(seed=777, trials=5) if not r.passed]
        assert len(failed) >= 3
        assert all(r.margin < 0.0 for r in failed), failed


class TestPropertyResult:
    @pytest.mark.parametrize("margin", [-1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, math.inf, -math.inf])
    def test_passed_is_a_nonnegative_margin(self, margin):
        result = PropertyResult("p", margin)
        assert result.passed is (margin >= 0.0) and result.margin == margin and result.detail == ""

    def test_a_nan_margin_fails(self):
        assert not PropertyResult("p", math.nan).passed

    @pytest.mark.parametrize("margin", [True, False, "0.5", None, np.array([1.0])])
    def test_a_margin_that_is_no_real_number_is_refused(self, margin):
        with pytest.raises(ValueError, match="margin must be a real number"):
            PropertyResult("p", margin)

    def test_passed_is_derived_not_given(self):
        with pytest.raises(TypeError):
            PropertyResult("p", 1.0, "", passed=False)
        # the JSON keeps its four keys
        assert asdict(PropertyResult("p", np.float64(-2.0), "why")) == {
            "name": "p", "margin": -2.0, "detail": "why", "passed": False,
        }


class TestTaskValidation:
    # NaN fails every comparison, so range checks alone would let it through
    def test_discrete_task_refuses_nonfinite_entries(self):
        good = dict(
            points=np.array([[0.0], [1.0]]),
            weights=np.array([0.5, 0.5]),
            means=np.array([0.0, 1.0]),
            variances=np.array([1.0, 2.0]),
        )
        for field in good:
            for bad in (np.nan, np.inf):
                broken = good[field].copy()
                broken.flat[0] = bad
                with pytest.raises(DataError, match="must be finite"):
                    DiscreteTask(**{**good, field: broken})

    def test_binary_task_refuses_nonfinite_entries(self):
        good = dict(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]), eta=np.array([0.2, 0.7]))
        for field in good:
            for bad in (np.nan, np.inf):
                broken = good[field].copy()
                broken.flat[0] = bad
                with pytest.raises(DataError, match="must be finite"):
                    BinaryTask(**{**good, field: broken})

    @pytest.mark.parametrize("change, message", [
        (dict(weights=np.array([0.5, 0.6])), r"weights must be a probability vector \(sum 1 within 1e-12\)"),
        (dict(variances=np.array([1.0, -0.5])), "conditional variances must be nonnegative"),
    ], ids=["weights-sum-1.1", "negative-variance"])
    def test_discrete_task_refuses_an_impossible_distribution(self, change, message):
        good = dict(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]),
                    means=np.array([0.0, 1.0]), variances=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=message):
            DiscreteTask(**{**good, **change})

    @pytest.mark.parametrize("change, message", [
        (dict(weights=np.array([0.5, 0.6])), r"weights must be a probability vector \(sum 1 within 1e-12\)"),
        # sums to 1, yet binary_rwr_risk read it as a distribution
        (dict(weights=np.array([1.5, -0.5])), r"weights must be a probability vector \(sum 1 within 1e-12\)"),
        (dict(eta=np.array([0.2, 1.5])), r"eta must lie in \[0,1\]"),
    ], ids=["weights-sum-1.1", "negative-weight", "eta-above-1"])
    def test_binary_task_refuses_an_impossible_distribution(self, change, message):
        good = dict(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]), eta=np.array([0.2, 0.7]))
        with pytest.raises(ValueError, match=message):
            BinaryTask(**{**good, **change})

    def test_discrete_task_refuses_a_repeated_point(self):
        # the lookup would read x = 0 as mean 0 with risk 0.1, where the
        # two copies give a true mean of 1 and a Bayes risk of 0.55
        with pytest.raises(DataError, match=r"support point \[0.0\] appears 2 times"):
            DiscreteTask(points=np.array([[0.0], [0.0], [1.0]]), weights=np.array([0.25, 0.25, 0.5]),
                         means=np.array([0.0, 2.0, 1.0]), variances=np.array([0.1, 0.1, 0.1]))

    def test_discrete_task_refuses_points_a_lookup_cannot_tell_apart(self):
        # distinct points whose squared distance underflows to 0: a lookup at
        # 1e-170 reads row 0, as at a repeat
        with pytest.raises(DataError, match=r"support point \[0.0\] appears 2 times"):
            DiscreteTask(points=np.array([[0.0], [1e-170], [1.0]]), weights=np.array([0.25, 0.25, 0.5]),
                         means=np.array([0.0, 2.0, 1.0]), variances=np.array([0.1, 0.1, 0.1]))

    def test_binary_task_refuses_a_repeated_point(self):
        with pytest.raises(DataError, match=r"support point \[1.0, 2.0\] appears 2 times"):
            BinaryTask(points=np.array([[1.0, 2.0], [0.0, 2.0], [1.0, 2.0]]), weights=np.full(3, 1.0 / 3.0),
                       eta=np.array([0.2, 0.5, 0.7]))

    def test_binary_risk_needs_a_zero_one_classifier(self):
        task = BinaryTask(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]), eta=np.array([0.2, 0.7]))
        half = TableLookupRegressor(task.points, np.array([0.0, 0.5]))
        accept_all = TableLookupRejector(task.points, np.array([1, 1]))
        with pytest.raises(ValueError, match="classifier must output 0/1 labels on the support"):
            binary_rwr_risk(half, accept_all, task, 0.3)

    def test_binary_task_refuses_a_column_short_of_the_points(self):
        with pytest.raises(DataError, match="one entry to each of 2 point rows"):
            BinaryTask(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]), eta=np.array([0.2]))
