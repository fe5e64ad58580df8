import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg.core import (
    CostConfig,
    CostMode,
    DEFAULT_SIGMA_GRID,
    DataError,
    Dataset,
    EmptySplitError,
    KernelSpec,
    RngHandle,
    SelregError,
    SplitSpec,
    TableLookupRegressor,
    TableLookupRejector,
    model_from_json,
    model_to_json,
    sigma_grid,
    split_dataset,
    standardize,
)


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(DataError):
            Dataset(np.array([[1.0]]), np.array([np.inf]))

    def test_immutable(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.features[0, 0] = 99.0

    def test_subset_keeps_names(self):
        d = Dataset(np.zeros((3, 1)), np.zeros(3), feature_names=("a",))
        assert d.subset(np.array([0, 2])).feature_names == ("a",)


class TestSplit:
    def test_exact_fractions(self):
        data = Dataset(np.arange(10, dtype=float)[:, None], np.zeros(10))
        tr, va, te = split_dataset(data, SplitSpec(), 0)
        assert (tr.n, va.n, te.n) == (7, 2, 1)

    def test_remainder_goes_to_train(self):
        # floor(0.7*1003)=702, floor(0.2*1003)=200, floor(0.1*1003)=100; +1 to train
        data = Dataset(np.arange(1003, dtype=float)[:, None], np.zeros(1003))
        tr, va, te = split_dataset(data, SplitSpec(), 3)
        assert (tr.n, va.n, te.n) == (703, 200, 100)

    def test_deterministic(self):
        data = Dataset(np.arange(10, dtype=float)[:, None], np.arange(10, dtype=float))
        a = split_dataset(data, SplitSpec(), 42)
        b = split_dataset(data, SplitSpec(), 42)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.features, db.features)

    def test_too_small_raises(self):
        data = Dataset(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(EmptySplitError):
            split_dataset(data, SplitSpec(), 0)

    def test_empty_split_raises(self):
        data = Dataset(np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(EmptySplitError):
            split_dataset(data, SplitSpec(), 0)  # floor(0.1*5) = 0 test rows

    @given(n=st.integers(10, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, seed):
        data = Dataset(np.arange(n, dtype=float)[:, None], np.zeros(n))
        tr, va, te = split_dataset(data, SplitSpec(), seed)
        rows = np.concatenate([tr.features[:, 0], va.features[:, 0], te.features[:, 0]])
        assert sorted(rows.astype(int).tolist()) == list(range(n))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)


class TestStandardize:
    def test_unit_scale(self):
        train = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
        out, _, params = standardize(train)
        assert abs(out.features.mean()) < 1e-12
        assert abs(out.features.std(ddof=1) - 1.0) < 1e-10
        assert not params.degenerate[0]

    def test_constant_column_passthrough(self):
        train = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3))
        out, _, params = standardize(train)
        np.testing.assert_array_equal(out.features[:, 0], train.features[:, 0])
        assert params.degenerate[0] and not params.degenerate[1]

    def test_no_leakage(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.zeros(2))
        test = Dataset(np.array([[10.0]]), np.zeros(1))
        _, (test_s,), params = standardize(train, [test])
        expected = (10.0 - 1.0) / np.sqrt(2.0)  # train mean 1, train sample std sqrt(2)
        assert test_s.features[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_targets_scaled_on_train_stats(self):
        train = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 2.0]))
        test = Dataset(np.array([[0.5]]), np.array([4.0]))
        _, (test_s,), params = standardize(train, [test], targets=True)
        assert params.target_mean == pytest.approx(1.0)
        assert test_s.targets[0] == pytest.approx((4.0 - 1.0) / np.sqrt(2.0))


class TestRng:
    def test_streams_are_reproducible_and_distinct(self):
        a = RngHandle(7, 1).generator().random(4)
        b = RngHandle(7, 1).generator().random(4)
        c = RngHandle(7, 2).generator().random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            RngHandle(-1)


class TestCostConfig:
    def test_mode_invariants(self):
        with pytest.raises(ValueError):
            CostConfig.fixed_cost(0.0)
        with pytest.raises(ValueError):
            CostConfig.fixed_budget(1.0)
        assert CostConfig.fixed_cost(2.0).cost_c == 2.0
        assert CostConfig.fixed_budget(0.3).budget_gamma == 0.3

    def test_value_of_the_other_mode_is_refused(self):
        with pytest.raises(ValueError, match="budget_gamma"):
            CostConfig(CostMode.FIXED_COST, cost_c=1.0, budget_gamma=0.2)
        with pytest.raises(ValueError, match="cost_c"):
            CostConfig(CostMode.FIXED_BUDGET, cost_c=1.0, budget_gamma=0.2)


class TestKernelSpec:
    def test_default_grid_spans_seven_decades(self):
        assert DEFAULT_SIGMA_GRID == tuple(10.0**j for j in range(-3, 4))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            KernelSpec(length_scale_sigma=0.0)
        for grid in ((1.0, -1.0), (0.0,), ()):
            with pytest.raises(ValueError, match="sigma grid"):
                sigma_grid(grid)


class TestSerialization:
    def test_table_models_round_trip(self):
        reg = TableLookupRegressor(np.array([[0.0], [1.0]]), np.array([2.0, 3.0]))
        reg2 = model_from_json(model_to_json(reg))
        q = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(reg.predict(q), reg2.predict(q))

    def test_registry_holds_the_kinds_that_fit_and_calibrate_write(self):
        import selreg  # noqa: F401  (registers the model and calibrator classes)
        from selreg import core

        assert sorted(core._MODEL_REGISTRY) == [
            "calibrator/kernel_smoother",
            "regressor/knn",
            "regressor/mlp",
            "regressor/table_lookup",
        ]

    def test_refuses_unregistered_models(self):
        from selreg.rejection import InducedRejector, LinearLossCalibrator

        points = np.array([[0.0], [1.0]])
        calibrator = LinearLossCalibrator(np.zeros(1), 0.5)
        for model in (
            TableLookupRejector(points, np.array([1, 0])),
            calibrator,
            InducedRejector(calibrator, 1.0),
        ):
            with pytest.raises(SelregError, match="not registered for serialization"):
                model_to_json(model)

    def test_lookup_predicts_nearest(self):
        reg = TableLookupRegressor(np.array([[0.0], [10.0]]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(reg.predict(np.array([[1.0], [9.0]])), [1.0, 2.0])
