import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selreg.backend import pairwise_sq_dists
from selreg.core import (
    CostConfig,
    CostMode,
    DEFAULT_SIGMA_GRID,
    DataError,
    Dataset,
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
    _table,
)
from selreg.harness import ExperimentConfig
from selreg.models import KnnRegressor, MlpRegressor
from selreg.oracle import TableRiskCalibrator
from selreg.rejection import KernelSmootherCalibrator, LinearLossCalibrator, linear_calibrate


class TestDataset:
    def test_features_must_be_2d(self):
        with pytest.raises(DataError, match=r"features must be 2-D, got shape \(3,\)"):
            Dataset(np.zeros(3), np.zeros(3))

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


class TestSplit:
    @pytest.mark.parametrize("fracs", [(0.0, 0.1), (0.2, 1.0)])
    def test_fractions_must_lie_in_the_open_unit_interval(self, fracs):
        with pytest.raises(ValueError, match=re.escape(f"fractions must lie in (0,1), got {fracs}")):
            SplitSpec(*fracs)

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
        # fractions below 1 that sum below 1 leave a split empty at every n < 3
        for n in (1, 2):
            data = Dataset(np.zeros((n, 1)), np.zeros(n))
            for spec in (SplitSpec(), SplitSpec(0.5, 0.49), SplitSpec(0.49, 0.5), SplitSpec(0.01, 0.01)):
                with pytest.raises(DataError, match="contain an empty split"):
                    split_dataset(data, spec, 0)

    def test_empty_split_raises(self):
        data = Dataset(np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(DataError, match="contain an empty split"):
            split_dataset(data, SplitSpec(), 0)  # floor(0.1*5) = 0 test rows

    @given(n=st.integers(10, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, seed):
        data = Dataset(np.arange(n, dtype=float)[:, None], np.zeros(n))
        tr, va, te = split_dataset(data, SplitSpec(), seed)
        rows = np.concatenate([tr.features[:, 0], va.features[:, 0], te.features[:, 0]])
        assert sorted(rows.astype(int).tolist()) == list(range(n))

    def test_fractions_must_leave_rows_for_training(self):
        with pytest.raises(ValueError, match="training"):
            SplitSpec(0.6, 0.4)


class TestStandardize:
    def test_one_training_row_is_refused(self):
        with pytest.raises(DataError, match="standardize needs at least 2 training rows"):
            standardize(Dataset(np.zeros((1, 2)), np.zeros(1)))

    def test_unit_scale(self):
        train = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 5.0, 9.0]))
        out, others = standardize(train)
        assert others == []
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(out.targets, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_constant_column_passthrough(self):
        train = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.full(3, 7.0))
        out, _ = standardize(train)
        np.testing.assert_array_equal(out.features[:, 0], train.features[:, 0])
        np.testing.assert_allclose(out.features[:, 1], [-1.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_array_equal(out.targets, train.targets)

    def test_no_leakage(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.zeros(2))
        test = Dataset(np.array([[10.0]]), np.zeros(1))
        _, (test_s,) = standardize(train, [test])
        expected = (10.0 - 1.0) / np.sqrt(2.0)  # train mean 1, train sample std sqrt(2)
        assert test_s.features[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_targets_scaled_on_train_stats(self):
        train = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 2.0]))
        test = Dataset(np.array([[0.5]]), np.array([4.0]))
        _, (test_s,) = standardize(train, [test])
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
        # at c = inf every held-out loss is 0 * inf, and no bandwidth can win
        for c in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="fixed-cost mode requires"):
                CostConfig.fixed_cost(c)
        # 1.5 is a cost but not a budget
        for gamma in (0.0, 1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="fixed-budget mode requires gamma in"):
                CostConfig.fixed_budget(gamma)
        assert CostConfig.fixed_cost(1.5) == CostConfig(CostMode.FIXED_COST, 1.5)
        assert CostConfig.fixed_budget(0.5).value == 0.5
        assert [f.name for f in dataclasses.fields(CostConfig)] == ["mode", "value"]

    @pytest.mark.parametrize("mode", ["cost", "budget", None])
    def test_mode_that_is_not_a_cost_mode_is_refused(self, mode):
        with pytest.raises(ValueError, match="mode must be a CostMode"):
            CostConfig(mode, 0.5)

    @pytest.mark.parametrize("make", [CostConfig.fixed_cost, CostConfig.fixed_budget])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bool_value_is_refused(self, make, value):
        with pytest.raises(ValueError, match="must be a real number"):
            make(value)

    @pytest.mark.parametrize("make", [CostConfig.fixed_cost, CostConfig.fixed_budget])
    @pytest.mark.parametrize("value", ["0.2", b"0.2", None, 0.2j, [0.2]])
    def test_value_that_is_not_real_is_refused(self, make, value):
        with pytest.raises(ValueError, match="must be a real number"):
            make(value)

    def test_int_float_and_numpy_float_values_are_kept(self):
        assert CostConfig.fixed_cost(2).value == 2.0 and type(CostConfig.fixed_cost(2).value) is float
        assert CostConfig.fixed_cost(np.float32(0.5)).value == 0.5
        assert CostConfig.fixed_budget(np.float64(0.2)) == CostConfig.fixed_budget(0.2)

    def test_value_of_the_other_mode_reads_zero(self):
        cost, budget = CostConfig.fixed_cost(2.0), CostConfig.fixed_budget(0.3)
        assert (cost.cost_c, cost.budget_gamma) == (2.0, 0.0)
        assert (budget.cost_c, budget.budget_gamma) == (0.0, 0.3)

    def test_value_of_the_other_mode_is_refused(self):
        # a config has no slot for it, and a config echo that gives one is
        # not the echo of any run
        with pytest.raises(TypeError):
            CostConfig(CostMode.FIXED_COST, cost_c=1.0, budget_gamma=0.2)
        for cost_config, other in ((CostConfig.fixed_cost(1.0), "budget_gamma"),
                                   (CostConfig.fixed_budget(0.2), "cost_c")):
            echo = ExperimentConfig("hetero6", cost_config).to_dict()
            assert echo[other] == 0.0 and ExperimentConfig.from_dict(echo).cost_config == cost_config
            with pytest.raises(ValueError, match=f"differs at \\['{other}'\\]"):
                ExperimentConfig.from_dict(dict(echo, **{other: 0.5}))


class TestKernelSpec:
    def test_default_grid_spans_seven_decades(self):
        assert DEFAULT_SIGMA_GRID == tuple(10.0**j for j in range(-3, 4))

    def test_positivity_enforced(self):
        # an infinite sigma would reach the output files as ``Infinity``,
        # which is not JSON
        for sigma in (0.0, float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                KernelSpec(length_scale_sigma=sigma)
        for grid in ((1.0, -1.0), (0.0,), (), (1.0, float("inf")), (float("nan"),)):
            with pytest.raises(ValueError, match="sigma grid"):
                sigma_grid(grid)

    @pytest.mark.parametrize("sigma", [True, np.bool_(True), "1.0", None])
    def test_sigma_that_is_not_real_is_refused(self, sigma):
        with pytest.raises(ValueError, match="must be a real number"):
            KernelSpec(sigma)

    def test_sigma_is_kept_as_a_float(self):
        assert type(KernelSpec(2).length_scale_sigma) is float
        assert KernelSpec(np.float64(0.5)) == KernelSpec(0.5)


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

    def test_lookup_refuses_nonfinite_queries(self):
        # argmin would send a NaN or infinite query to support point 0
        reg = TableLookupRegressor(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(reg.predict(np.array([[0.5], [1.9]])), [1.0, 3.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="NaN or inf"):
                reg.predict(np.array([[bad], [1.9]]))

    def test_lookup_rejector_accepts_only_zero_or_one(self):
        with pytest.raises(ValueError, match="accepts must be 0/1"):
            TableLookupRejector(np.array([[0.0], [1.0]]), np.array([0, 0.5]))

    def test_lookup_rejector_refuses_nonfinite_queries(self):
        rej = TableLookupRejector(np.array([[0.0], [1.0]]), np.array([0, 1]))
        np.testing.assert_array_equal(rej.accept(np.array([[0.5], [0.9]])), [0, 1])
        with pytest.raises(DataError, match="NaN or inf"):
            rej.accept(np.array([[0.9], [np.nan]]))

    def test_lookup_refuses_nonfinite_entries(self):
        # a NaN point would capture every lookup: argmin takes its NaN
        # distance for the smallest
        for points, values in (
            ([[0.0], [np.nan], [2.0]], [1.0, 2.0, 3.0]),
            ([[0.0], [np.inf], [2.0]], [1.0, 2.0, 3.0]),
            ([[0.0], [1.0], [2.0]], [1.0, np.nan, 3.0]),
        ):
            with pytest.raises(DataError, match="finite"):
                TableLookupRegressor(np.array(points), np.array(values))

    @pytest.mark.parametrize("points", [
        [[0.0], [1.0], [0.0]],
        [[0.0], [-0.0]],
        [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]],
        [[0.0], [1e-170]],
    ], ids=["1-d", "signed-zeros", "2-d", "underflow"])
    def test_lookup_refuses_a_repeated_point(self, points):
        # a lookup reaches only the first copy, so the later values would be
        # dropped; 1e-170 squared underflows to 0, so a lookup at 1e-170 ties
        # with row 0 as at an exact repeat
        values = np.arange(len(points), dtype=float)
        with pytest.raises(DataError, match="appears 2 times"):
            TableLookupRegressor(np.array(points), values)
        with pytest.raises(DataError, match="appears 2 times"):
            TableLookupRejector(np.array(points), values > 0.0)
        with pytest.raises(DataError, match="appears 2 times"):
            TableRiskCalibrator(np.array(points), values)

    def test_lookup_checks_its_support_in_blocks(self):
        # the n x n distances of 3,000 points would take 72 MB
        points = np.random.default_rng(3).normal(size=(3000, 2))
        tracemalloc.start()
        try:
            TableLookupRegressor(points, np.zeros(3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_lookup_takes_points_whose_distance_stays_positive(self):
        reg = TableLookupRegressor(np.array([[0.0], [1e-160]]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(reg.predict(reg.points), reg.values)

    def test_lookup_takes_points_that_share_a_coordinate(self):
        reg = TableLookupRegressor(np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 2.0]]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(reg.predict(reg.points), reg.values)

    def test_lookups_take_the_first_nearest_row_block_by_block(self):
        # half-integer queries on an integer lattice tie with up to four
        # points, and 7,500 queries on 900 points span over 100 distance
        # blocks; the [nq, m] distances would take 54 MB
        points = np.stack(np.meshgrid(np.arange(30.0), np.arange(30.0)), axis=-1).reshape(-1, 2)
        q = np.random.default_rng(5).integers(-2, 61, size=(7500, 2)) / 2.0
        reg = TableLookupRegressor(points, np.arange(900.0))
        tracemalloc.start()
        try:
            got = reg.predict(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, np.argmin(pairwise_sq_dists(q, points), axis=1))
        assert peak < 54e6 / 8


@pytest.mark.parametrize("build", [
    TableLookupRegressor,
    lambda x, v: TableLookupRejector(x, v > 0.0),
    TableRiskCalibrator,
    lambda x, v: KernelSmootherCalibrator(x, v, KernelSpec(1.0)),
    linear_calibrate,
], ids=["lookup-regressor", "lookup-rejector", "risk-table", "kernel-smoother", "linear-calibrate"])
def test_a_table_without_points_is_refused(build):
    # before, the lookups and the smoother failed on first use, and the
    # linear fit of no rows gave a zero model that accepts every query
    with pytest.raises(DataError, match=r"at least one point row, got shape \(0, 2\)"):
        build(np.zeros((0, 2)), np.zeros(0))


def test_a_one_dimensional_block_is_refused():
    # [0, 1] could be one row of two features or two rows of one
    x = np.array([0.0, 1.0])
    points = x[:, None]
    calls = [
        TableLookupRegressor(points, x).predict,
        KnnRegressor(points, x, 1).predict,
        MlpRegressor(np.ones((1, 2)), np.zeros(2), np.ones((2, 1)), np.zeros(1)).predict,
        KernelSmootherCalibrator(points, x, KernelSpec(1.0)).estimate,
        LinearLossCalibrator(np.ones(1), 0.0).estimate,
        TableRiskCalibrator(points, x).estimate,
        lambda q: _table(q, x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"must be 2-D \[rows, features\], got shape \(2,\)"):
            call(x)


def test_no_function_local_package_imports():
    # an import of a sibling module inside a function hides a dependency
    # between modules; the CLI's lazy import of the verification suite is the
    # one allowed, so that the other subcommands never load it
    import ast
    from pathlib import Path

    import selreg

    found = []
    for path in sorted(Path(selreg.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert found == ["cli.py:_cmd_verify_theory"]


def test_no_unused_module_imports():
    # no linter runs on the package, so a name imported at module level must
    # be used in that module or re-exported through its __all__
    import ast
    from pathlib import Path

    import selreg

    found = []
    for path in sorted(Path(selreg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                used |= {elt.value for elt in stmt.value.elts}
        found += [
            f"{path.name}:{name}"
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__"
            for name in ((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
            if name not in used
        ]
    assert found == []


def test_no_private_attribute_read_from_outside():
    # a module reads the private attributes (a _name, not a __dunder__) of
    # self and cls only, never those of another object or module
    import ast
    from pathlib import Path

    import selreg

    found = [
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in sorted(Path(selreg.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert found == []


def test_finiteness_is_checked_in_one_place_per_kind_of_input():
    # _freeze refuses NaN and inf in every array a dataset, task, model or
    # calibrator holds; the other checks guard what is never stored: lookup
    # queries, CSV cells and the training loss
    import ast
    from pathlib import Path

    import selreg

    def sites(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from sites(child, child.name)
                continue
            if getattr(child, "attr", getattr(child, "id", None)) == "isfinite":
                yield where
            yield from sites(child, where)

    found = {
        f"{path.stem}.{where}"
        for path in sorted(Path(selreg.__file__).parent.glob("*.py"))
        for where in sites(ast.parse(path.read_text()), "<module>")
    }
    assert found == {"core._freeze", "core._nearest_row", "harness._finite", "models.fit_mlp"}


def test_one_exception_class_per_exit_code():
    # cli.main maps DataError to exit 2 and SelregError to exit 1; a subclass
    # that nothing catches by type would only carry a second name
    import ast
    import builtins
    from pathlib import Path

    import selreg

    bases = {
        node.name: [ast.unparse(base).split(".")[-1] for base in node.bases]
        for path in sorted(Path(selreg.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return any(is_exception(base) for base in bases.get(name, ()))

    assert {name for name in bases if is_exception(name)} == {"SelregError", "DataError"}
