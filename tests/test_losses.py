import numpy as np
import pytest

from selreg.core import (
    Dataset,
    RngHandle,
    STREAM_SAMPLE,
    TableLookupRegressor,
    TableLookupRejector,
)
from selreg.losses import (
    empirical_rwr_loss,
    empirical_squared_loss,
    excess_losses,
    oracle_rwr_risk,
    squared_risk,
    truncated_loss,
)
from selreg.oracle import random_discrete_task, random_table_regressor, random_table_rejector


def uniform_rejector(points, accept):
    """Accepts (1) or defers (0) at every point."""
    return TableLookupRejector(points, np.full(len(points), accept))


def brute_force_risk(f_vals, accepts, task, c):
    """Independent per-point enumeration of E[r*R + (1-r)*c]."""
    total = 0.0
    for j in range(task.size):
        risk = (f_vals[j] - task.means[j]) ** 2 + task.variances[j]
        total += task.weights[j] * (risk if accepts[j] else c)
    return total


class TestEmpiricalRwr:
    def test_always_defer_costs_exactly_c(self, tiny_dataset):
        f = TableLookupRegressor(tiny_dataset.features, tiny_dataset.targets)
        rep = empirical_rwr_loss(f, uniform_rejector(tiny_dataset.features, 0), tiny_dataset, c=2.0)
        assert rep.rwr_loss == 2.0
        assert rep.rejection_rate == 1.0
        assert rep.all_deferred and rep.machine_loss == 0.0

    def test_perfect_predictor_zero_loss(self, tiny_dataset):
        f = TableLookupRegressor(tiny_dataset.features, tiny_dataset.targets)
        rep = empirical_rwr_loss(f, uniform_rejector(tiny_dataset.features, 1), tiny_dataset, c=2.0)
        assert rep.rwr_loss == 0.0
        assert rep.rejection_rate == 0.0

    def test_hand_enumeration(self):
        # two samples with squared errors {1, 9}; accept only the first; c=2
        data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
        f = TableLookupRegressor(data.features, np.array([0.0, 0.0]))
        r = TableLookupRejector(data.features, np.array([1, 0]))
        rep = empirical_rwr_loss(f, r, data, c=2.0)
        assert rep.rwr_loss == pytest.approx((1.0 + 2.0) / 2.0, abs=1e-12)
        assert rep.machine_loss == pytest.approx(1.0, abs=1e-12)
        assert rep.rejection_rate == 0.5

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(50, 2)), rng.normal(size=50))
        f = TableLookupRegressor(data.features, rng.normal(size=50))
        r = TableLookupRejector(data.features, rng.integers(0, 2, size=50))
        rep = empirical_rwr_loss(f, r, data, c=1.3)
        recon = (1.0 - rep.rejection_rate) * rep.machine_loss + rep.rejection_rate * 1.3
        assert rep.rwr_loss == pytest.approx(recon, abs=1e-12)

    def test_negative_cost_rejected(self, tiny_dataset):
        f = TableLookupRegressor(tiny_dataset.features, tiny_dataset.targets)
        with pytest.raises(ValueError):
            empirical_rwr_loss(f, uniform_rejector(tiny_dataset.features, 1), tiny_dataset, c=-0.1)


class TestOracleRisk:
    def test_zero_bias_gives_mean_variance(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        risk = oracle_rwr_risk(f, uniform_rejector(two_point_task.points, 1), two_point_task, c=100.0)
        assert risk == pytest.approx(5.0, abs=1e-12)  # E[v] = (1+9)/2

    def test_enumeration_example(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        r = TableLookupRejector(two_point_task.points, np.array([1, 0]))
        assert oracle_rwr_risk(f, r, two_point_task, c=2.0) == pytest.approx(1.5, abs=1e-12)

    def test_variance_threshold_rejector_matches_enumeration(self, two_point_task):
        # threshold rule at c=2 accepts v=1, defers v=9 -> same 1.5
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        accepts = (two_point_task.variances <= 2.0).astype(int)
        r = TableLookupRejector(two_point_task.points, accepts)
        assert oracle_rwr_risk(f, r, two_point_task, c=2.0) == pytest.approx(1.5, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            t = random_discrete_task(gen)
            f = random_table_regressor(gen, t)
            r = random_table_rejector(gen, t)
            c = float(gen.uniform(0.1, 5.0))
            fast = oracle_rwr_risk(f, r, t, c)
            slow = brute_force_risk(f.predict(t.points), r.accept(t.points), t, c)
            assert fast == pytest.approx(slow, abs=1e-12)


class TestTruncatedLoss:
    def test_enumeration(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        assert truncated_loss(f, two_point_task, c=2.0) == pytest.approx(1.5, abs=1e-12)

    def test_inactive_truncation_equals_squared_risk(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        big = truncated_loss(f, two_point_task, c=1e9)
        assert big == pytest.approx(squared_risk(f, two_point_task), abs=1e-12)

    def test_zero_cost_truncates_to_zero(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        assert truncated_loss(f, two_point_task, c=0.0) == 0.0


class TestSquaredRisk:
    def test_zero_bias(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        assert squared_risk(f, two_point_task) == pytest.approx(5.0, abs=1e-12)

    def test_unit_shift_adds_one(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means + 1.0)
        assert squared_risk(f, two_point_task) == pytest.approx(6.0, abs=1e-12)

    def test_empirical_hand_case(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        f = TableLookupRegressor(data.features, np.array([0.0, 0.0]))
        assert empirical_squared_loss(f, data) == pytest.approx(1.0, abs=1e-12)


class TestExcessLosses:
    def test_zero_at_conditional_mean(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means)
        assert excess_losses(f, two_point_task, c=2.0) == (0.0, 0.0)

    def test_equality_case(self, two_point_task):
        # +1 shift on the low-variance point only
        f = TableLookupRegressor(
            two_point_task.points, two_point_task.means + np.array([1.0, 0.0])
        )
        exc_t, exc_s = excess_losses(f, two_point_task, c=2.0)
        assert exc_s == pytest.approx(0.5, abs=1e-12)
        assert exc_t == pytest.approx(0.5, abs=1e-12)

    def test_strict_case(self, two_point_task):
        f = TableLookupRegressor(
            two_point_task.points, two_point_task.means + np.array([10.0, 0.0])
        )
        exc_t, exc_s = excess_losses(f, two_point_task, c=2.0)
        assert exc_t == pytest.approx(0.5, abs=1e-12)  # (min(101,2) - min(1,2)) / 2
        assert exc_s == pytest.approx(50.0, abs=1e-12)
        assert exc_t <= exc_s

    def test_surrogate_bound_randomized(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            t = random_discrete_task(gen)
            f = random_table_regressor(gen, t)
            exc_t, exc_s = excess_losses(f, t, float(gen.uniform(0.1, 5.0)))
            assert exc_t <= exc_s + 1e-12
            assert exc_t >= -1e-12 and exc_s >= -1e-12


class TestSandwich:
    def test_truncated_lower_bounds_any_rejector(self):
        gen = np.random.default_rng(6)
        for _ in range(50):
            t = random_discrete_task(gen)
            f = random_table_regressor(gen, t)
            r = random_table_rejector(gen, t)
            c = float(gen.uniform(0.1, 5.0))
            assert truncated_loss(f, t, c) <= oracle_rwr_risk(f, r, t, c) + 1e-12

    def test_equality_at_induced_rejector(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            t = random_discrete_task(gen)
            f = random_table_regressor(gen, t)
            c = float(gen.uniform(0.1, 5.0))
            risk = (f.predict(t.points) - t.means) ** 2 + t.variances
            r_f = TableLookupRejector(t.points, (risk <= c).astype(int))
            assert oracle_rwr_risk(f, r_f, t, c) == pytest.approx(
                truncated_loss(f, t, c), abs=1e-12
            )


class TestMonteCarloConsistency:
    def test_empirical_converges_to_oracle(self, two_point_task):
        f = TableLookupRegressor(two_point_task.points, two_point_task.means + 0.3)
        r = TableLookupRejector(two_point_task.points, np.array([1, 0]))
        c = 2.0
        data = two_point_task.sample(100_000, RngHandle(123, STREAM_SAMPLE))
        rep = empirical_rwr_loss(f, r, data, c)
        oracle = oracle_rwr_risk(f, r, two_point_task, c)
        per_sample = (
            r.accept(data.features) * (f.predict(data.features) - data.targets) ** 2
            + (1 - r.accept(data.features)) * c
        )
        se = per_sample.std(ddof=1) / np.sqrt(data.n)
        assert abs(rep.rwr_loss - oracle) <= 3.0 * se
