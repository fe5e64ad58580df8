import logging
import math

import numpy as np
import pytest

import dataclasses
import json

from selreg.backend import pairwise_sq_dists
from selreg import harness
from selreg.core import (
    CostConfig,
    DEFAULT_SIGMA_GRID,
    DataError,
    Dataset,
    Regressor,
    SelregError,
    SplitSpec,
    TableLookupRegressor,
)
from selreg.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    RunReport,
    budget_threshold,
    bundled_data_path,
    cost_calibrator,
    emit_report,
    fit_regressor,
    load_csv,
    materialize,
    run_experiment,
    _median_sq_dist,
)
from selreg.models import KnnConfig, KnnRegressor, MlpConfig, MlpRegressor
from selreg.losses import LossReport, bayes_risk, empirical_rwr_loss
from selreg.rejection import conformal_threshold, induce_rejector, linear_calibrate
from selreg.tasks import DiscreteTask, default_discrete_task, default_smooth_task


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(p, "target")
        assert data.n == 3 and data.dim == 2
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]])
        np.testing.assert_array_equal(data.targets, [3.0, 6.0, 9.0])

    @pytest.mark.parametrize("text", ["a,target\n1,2\n3,4\n\n", "a,target\n1,2\n\n3,4\n"],
                             ids=["trailing", "middle"])
    def test_blank_line_is_skipped(self, text, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text(text)
        data = load_csv(p, "target")
        np.testing.assert_array_equal(data.features, [[1.0], [3.0]])
        np.testing.assert_array_equal(data.targets, [2.0, 4.0])

    def test_bad_row_dropped_with_diagnostic(self, tmp_path, caplog):
        p = tmp_path / "bad.csv"
        for cell in ("NA", "nan", "inf", ""):
            p.write_text(f"a,b,target\n1,2,3\n4,{cell},6\n7,8,9\n")
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="selreg.harness"):
                data = load_csv(p, "target")
            np.testing.assert_array_equal(data.targets, [3.0, 9.0])
            assert [rec.getMessage() for rec in caplog.records] == [
                f"{p}: dropping row 2 (non-numeric cell in column 'b')"
            ], cell

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"target,x\n1,2\n3,4\n5,6\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain, "target"), load_csv(marked, "target")
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.targets, want.targets)

    def test_file_that_is_not_utf8_is_data_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("x,target\n1,2\n\xe9,3\n".encode("latin-1"))
        with pytest.raises(DataError, match="cannot read"):
            load_csv(p, "target")

    def test_missing_target(self, tmp_path):
        p = tmp_path / "no_target.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="target column 'target' not in header"):
            load_csv(p, "target")

    @pytest.mark.parametrize("header, repeated", [
        ("x,target,target", "'target'"),
        ("x,x,target", "'x'"),
    ])
    def test_repeated_column_name_refused(self, header, repeated, tmp_path):
        # a second "target" would otherwise be fed to the regressor as a feature
        p = tmp_path / "dup.csv"
        p.write_text(f"{header}\n1,2,2\n3,4,4\n")
        with pytest.raises(DataError, match="repeats column") as exc:
            load_csv(p, "target")
        assert f"repeats column(s) [{repeated}]" in str(exc.value)

    def test_all_rows_bad(self, tmp_path):
        p = tmp_path / "hopeless.csv"
        p.write_text("a,target\nx,1\ny,2\n")
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(p, "target")

    def test_bundled_datasets_load(self):
        for name in ("hetero_demand.csv", "linear_plant.csv"):
            data = load_csv(bundled_data_path(name), "target")
            assert 100 <= data.n <= 2000


def _cost_cfg(**kw):
    base = dict(
        dataset_source="hetero6",
        cost_config=CostConfig.fixed_cost(2.0),
        regressor=KnnConfig(),
        rejector="kernel",
        repeats=3,
        seed=42,
        synthetic_n=400,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunFixedCost:
    def test_oracle_everything_matches_population_optimum(self):
        task = default_discrete_task()
        cfg = _cost_cfg(regressor="oracle", rejector="oracle", repeats=10, synthetic_n=1000)
        rep = run_experiment(cfg)
        optimum = bayes_risk(task, 2.0)
        # two-point noise keeps per-sample losses near-deterministic; the
        # residual scatter across repeats bounds the Monte Carlo error
        spread = 3.0 * max(rep.rwr_std, 1e-6)
        assert abs(rep.rwr_mean - optimum) <= max(spread, 0.02)

    def test_never_worse_than_always_defer(self):
        rep = run_experiment(_cost_cfg(repeats=5, synthetic_n=600))
        sem = rep.rwr_std / np.sqrt(len(rep.repeats))
        assert rep.rwr_mean <= 2.0 + 3.0 * sem

    def test_deterministic_reruns(self):
        a = run_experiment(_cost_cfg())
        b = run_experiment(_cost_cfg())
        assert a == b

    def test_aggregates_match_recomputation(self):
        rep = run_experiment(_cost_cfg())
        rwr = np.array([r.rwr_loss for r in rep.repeats])
        assert rep.rwr_mean == pytest.approx(float(rwr.mean()), abs=1e-12)
        assert rep.rwr_std == pytest.approx(float(rwr.std(ddof=1)), abs=1e-12)

    def test_csv_source_end_to_end(self):
        cfg = ExperimentConfig(
            dataset_source=str(bundled_data_path("hetero_demand.csv")),
            cost_config=CostConfig.fixed_cost(0.5),
            regressor=KnnConfig(),
            rejector="loss-linear",
            repeats=2,
            seed=0,
        )
        rep = run_experiment(cfg)
        assert np.isfinite(rep.rwr_mean)
        assert "standardize_data" not in rep.config.to_dict()  # CSVs are always standardized

    def test_mlp_regressor_runs(self):
        cfg = _cost_cfg(regressor=MlpConfig(epochs=20), repeats=2, synthetic_n=300)
        rep = run_experiment(cfg)
        assert np.isfinite(rep.rwr_mean)

    def test_config_echo_reproduces_run(self):
        # each regressor kind in both modes: the JSON reads back equal, and its echo reruns the report
        for regressor in (KnnConfig(k_grid=[5, 10]), MlpConfig(epochs=3, batch_size=64), "oracle"):
            for cost in (CostConfig.fixed_cost(2.0), CostConfig.fixed_budget(0.2)):
                rep = run_experiment(_cost_cfg(regressor=regressor, cost_config=cost, repeats=2, synthetic_n=300))
                back = RunReport.from_json(rep.to_json())
                assert back == rep
                assert run_experiment(back.config) == rep

    @pytest.mark.parametrize("change, match", [
        (dict(output_dir="."), "output_dir"),
        (dict(calibrate_on="validation"), "calibrate_on"),
        (dict(standardize_data=None), "standardize_data"),
        (dict(split={"val_fraction": 0.2, "test_fraction": 0.1, "seed": 77}), "seed"),
        (dict(split={"val_fraction": 0.2, "test_fraction": 0.1, "train_fraction": 0.7}), "train_fraction"),
        (dict(regressor={"kind": "knn"}), "regressor"),
        (dict(regressor={"kind": "knn", "k_grid": [5], "k": 99}), "k=99"),
        (dict(regressor={"kind": "mlp"}), "regressor"),
        (dict(cost_c=True), "cost_c"),
        (dict(cost_c=1), "cost_c"),
    ])
    def test_echo_that_the_run_would_not_write_is_refused(self, change, match):
        echo = _cost_cfg().to_dict()
        assert ExperimentConfig.from_dict(echo) == _cost_cfg()
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict(dict(echo, **change))

    @pytest.mark.parametrize("key", ["seed", "workers", "split"])
    def test_echo_missing_a_key_is_refused(self, key):
        echo = _cost_cfg().to_dict()
        del echo[key]
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(echo)

    def test_old_echo_calibrating_on_train_is_refused(self):
        for key, value in (("calibrate_on", "train"), ("standardize_data", True), ("standardize_data", False)):
            old = dict(_cost_cfg().to_dict(), **{key: value})
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(old)

    def test_conformal_rejector_kind_is_gone(self):
        with pytest.raises(ValueError, match="rejector"):
            _cost_cfg(rejector="conformal")

    @pytest.mark.parametrize("kw, match", [
        (dict(cost_config=CostConfig.fixed_budget(0.3), sigma_grid=(0.5,)), "sigma_grid"),
        (dict(rejector="loss-linear", sigma_grid=(0.5,)), "sigma_grid"),
        (dict(rejector="oracle", sigma_grid=(0.5,)), "sigma_grid"),
        (dict(sigma_grid=()), "sigma grid"),
        (dict(regressor=KnnConfig(k=7)), "k_grid"),
        (dict(regressor="knn"), "regressor"),
        (dict(regressor="mlp"), "regressor"),
        (dict(target_column="y"), "target_column"),
        (dict(dataset_source=str(bundled_data_path("hetero_demand.csv"))), "synthetic_n"),
        (dict(synthetic_n=0), "synthetic_n"),
        (dict(synthetic_n=-5), "synthetic_n"),
        (dict(seed=-1), "64 unsigned bits"),
        (dict(seed=2**64 - 2, repeats=3), "64 unsigned bits"),
        (dict(dataset_source=str(bundled_data_path("hetero_demand.csv")), synthetic_n=1000, regressor="oracle"),
         "oracle regressor"),
        (dict(dataset_source=str(bundled_data_path("hetero_demand.csv")), synthetic_n=1000, rejector="oracle"),
         "oracle rejector"),
        (dict(workers=2), "workers"),
    ])
    def test_settings_the_run_would_not_read_are_refused(self, kw, match):
        with pytest.raises(ValueError, match=match):
            _cost_cfg(**kw)

    @pytest.mark.parametrize("name, value", [
        ("seed", 0.5), ("seed", True), ("repeats", 2.0), ("repeats", True),
        ("synthetic_n", 300.0), ("workers", False), ("workers", "2"),
        ("k", 5.0), ("k", True), pytest.param("k_grid", (5, 5.0), id="k_grid-5.0"),
        pytest.param("k_grid", (True,), id="k_grid-True"), ("hidden_width", True),
        ("batch_size", 64.0), ("epochs", 2.5),
    ])
    def test_non_integer_counts_are_refused(self, name, value):
        # the counts of the run, the kNN search and the MLP share one contract
        owner = KnnConfig if name in ("k", "k_grid") else MlpConfig if name in ("hidden_width", "batch_size", "epochs") else _cost_cfg
        with pytest.raises(ValueError, match=fr"{name}(\[\d\])? must be an int"):
            owner(**{name: value})

    def test_failed_repeat_carries_context(self, tmp_path):
        missing = tmp_path / "gone.csv"
        cfg = ExperimentConfig(
            dataset_source=str(missing),
            cost_config=CostConfig.fixed_cost(1.0),
            repeats=2,
            seed=5,
        )
        with pytest.raises(Exception, match=r"repeat 0 \(seed 5\)"):
            run_experiment(cfg)


class TestMaterialize:
    def test_task_name_is_sampled_in_native_units(self):
        train, val, test, task = materialize("hetero6", 3, synthetic_n=100)
        assert isinstance(task, DiscreteTask)
        np.testing.assert_array_equal(task.variances, default_discrete_task().variances)
        assert (train.n, val.n, test.n) == (70, 20, 10)
        assert set(np.unique(train.features)) <= set(task.points.ravel())

    def test_any_other_source_is_a_standardized_csv(self, tmp_path):
        path = tmp_path / "plant.CSV"
        path.write_text(bundled_data_path("linear_plant.csv").read_text())
        train, _, _, task = materialize(str(path), 3)
        assert task is None
        assert train.targets.mean() == pytest.approx(0.0, abs=1e-12)
        assert train.targets.std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name_is_a_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            materialize("hetero7", 0)

    def test_unknown_bundled_dataset_is_refused(self):
        with pytest.raises(DataError, match="no bundled dataset named 'nope.csv'"):
            bundled_data_path("nope.csv")


class TestOracleRegressor:
    def test_is_the_true_mean_off_the_quadrature_nodes(self):
        train, val, _, task = materialize("smooth1d", 0, synthetic_n=100)
        f = fit_regressor("oracle", train, val, task, 0)
        x = np.linspace(-2.0, 2.0, 1001)[:, None]
        np.testing.assert_array_equal(f.predict(x), default_smooth_task().mean_at(x))

    def test_is_a_lookup_table_on_a_finite_support(self):
        train, val, _, task = materialize("hetero6", 0, synthetic_n=100)
        f = fit_regressor("oracle", train, val, task, 0)
        assert isinstance(f, TableLookupRegressor)
        np.testing.assert_array_equal(f.predict(task.points), task.means)


class TestStageRefusals:
    """The stages refuse a kind they do not know, and an oracle without the
    synthetic task that defines it."""

    @pytest.fixture(scope="class")
    def csv_splits(self):
        return materialize(str(bundled_data_path("linear_plant.csv")), 0)

    @pytest.mark.parametrize("regressor, message", [
        ("forest", "unknown regressor 'forest'"),
        ("oracle", "the oracle regressor needs a synthetic task source"),
    ], ids=["unknown-kind", "oracle-without-task"])
    def test_fit_regressor(self, regressor, message, csv_splits):
        train, val, _, task = csv_splits
        with pytest.raises(SelregError, match=message) as exc:
            fit_regressor(regressor, train, val, task, 0)
        assert exc.type is SelregError

    @pytest.mark.parametrize("rejector, message", [
        ("forest", "unknown rejector kind 'forest'"),
        ("oracle", "the oracle rejector needs a synthetic task source"),
    ], ids=["unknown-kind", "oracle-without-task"])
    @pytest.mark.parametrize("stage", ["cost", "budget"])
    def test_calibrator_without_a_grid(self, stage, rejector, message, csv_splits):
        train, val, _, task = csv_splits
        f = fit_regressor(KnnConfig(), train, val, task, 0)
        with pytest.raises(SelregError, match=message) as exc:
            if stage == "cost":
                cost_calibrator(rejector, DEFAULT_SIGMA_GRID, f, val, f.predict(val.features), task, 0.5)
            else:
                budget_threshold(rejector, f, val, task, 0.2)
        assert exc.type is SelregError


class _RowCounter(Regressor):
    """A regressor that counts the rows passed to its predict."""

    def __init__(self, inner):
        self.inner, self.rows = inner, 0

    def predict(self, X):
        self.rows += len(X)
        return self.inner.predict(X)


class TestHeldOutPredictions:
    def _fitted(self):
        train, val, _, task = materialize("hetero6", 3, synthetic_n=400)
        return _RowCounter(fit_regressor(KnnConfig(), train, val, task, 3)), val, task

    def test_cost_calibrator_predicts_each_validation_row_once(self):
        # the caller's one predict of val serves every calibrator
        f, val, task = self._fitted()
        predictions = f.predict(val.features)
        for rejector in ("kernel", "loss-linear"):
            cost_calibrator(rejector, DEFAULT_SIGMA_GRID, f, val, predictions, task, 2.0)
        assert f.rows == val.n

    @pytest.mark.parametrize("regressor", [KnnConfig(), MlpConfig(epochs=2), "oracle"], ids=["knn", "mlp", "oracle"])
    def test_fit_regressor_out_holds_the_bits_of_predict(self, regressor):
        train, val, _, task = materialize("hetero6", 3, synthetic_n=400)
        out = np.full(val.n, np.nan)
        f = fit_regressor(regressor, train, val, task, 3, out=out)
        np.testing.assert_array_equal(out.view(np.int64), f.predict(val.features).view(np.int64))

    @staticmethod
    def _count_rows(monkeypatch, cls) -> list[int]:
        rows, predict = [], cls.predict
        monkeypatch.setattr(cls, "predict", lambda self, X: rows.append(len(X)) or predict(self, X))
        return rows

    @pytest.mark.parametrize("rejector", ["kernel", "loss-linear"])
    def test_cost_mode_knn_run_predicts_the_test_rows_only(self, monkeypatch, rejector):
        # k selection hands its chosen row of val to the calibrator
        rows = self._count_rows(monkeypatch, KnnRegressor)
        cfg = ExperimentConfig("hetero6", CostConfig.fixed_cost(2.0), rejector=rejector, repeats=2, seed=3,
                               synthetic_n=400)
        run_experiment(cfg)
        n_test = [materialize("hetero6", s, synthetic_n=400)[2].n for s in cfg.repeat_seeds()]
        assert sum(rows) == sum(n_test)

    @pytest.mark.parametrize("rejector", ["kernel", "loss-linear"])
    def test_budget_mode_mlp_run_predicts_the_fitting_half_and_the_test_rows(self, monkeypatch, rejector):
        rows = self._count_rows(monkeypatch, MlpRegressor)
        cfg = ExperimentConfig("hetero6", CostConfig.fixed_budget(0.2), regressor=MlpConfig(epochs=2),
                               rejector=rejector, repeats=1, seed=3, synthetic_n=400)
        run_experiment(cfg)
        _, val, test, _ = materialize("hetero6", 3, synthetic_n=400)
        assert sum(rows) == val.n // 2 + test.n

    @pytest.mark.parametrize("rejector", ["kernel", "loss-linear"])
    def test_budget_threshold_predicts_the_fitting_half_only(self, rejector):
        f, val, task = self._fitted()
        calibrator, th = budget_threshold(rejector, f, val, task, 0.2)
        assert f.rows == val.n // 2
        fit_part, score_part = val.subset(np.arange(val.n // 2)), val.subset(np.arange(val.n // 2, val.n))
        if rejector == "loss-linear":
            losses = (f.inner.predict(fit_part.features) - fit_part.targets) ** 2
            expected = linear_calibrate(fit_part.features, losses)
            np.testing.assert_array_equal(calibrator.coef.view(np.int64), expected.coef.view(np.int64))
            assert np.float64(calibrator.intercept).tobytes() == np.float64(expected.intercept).tobytes()
        c_hat = conformal_threshold(calibrator.estimate(score_part.features), 0.2).c_hat
        assert np.float64(th.c_hat).tobytes() == np.float64(c_hat).tobytes()


class TestRunFixedBudget:
    def test_rejection_rate_within_budget_window(self):
        cfg = ExperimentConfig(
            dataset_source="smooth1d",
            cost_config=CostConfig.fixed_budget(0.3),
            regressor=KnnConfig(),
            rejector="kernel",
            repeats=10,
            seed=3,
            synthetic_n=2000,
        )
        rep = run_experiment(cfg)
        m = 200  # half of the 400-row validation split scores the threshold
        assert 0.3 - 0.05 <= rep.rej_mean <= 0.3 + 1.0 / (m + 1) + 0.05

    @pytest.mark.parametrize("source, n, two_sided", [("smooth1d", 1000, True), ("hetero6", 400, False)])
    def test_mean_test_rejection_meets_the_conformal_rate(self, source, n, two_sided):
        # m exchangeable scores without ties reject a new row with probability
        # 1 - ceil((1 - gamma)(m + 1)) / (m + 1); ties accept, so with them
        # only the ceiling gamma + 1 / (m + 1) holds, as on hetero6's six
        # support points.  Each repeat spreads by the threshold's draw of m
        # scores and the binomial draw of the test rows.
        gamma, seeds = 0.2, range(150)
        rates = []
        for seed in seeds:
            train, val, test, task = materialize(source, seed, synthetic_n=n)
            f = fit_regressor(KnnConfig(), train, val.subset(np.arange(val.n // 2)), task, seed)
            calibrator, th = budget_threshold("kernel", f, val, task, gamma)
            rates.append(empirical_rwr_loss(f, induce_rejector(calibrator, th.c_hat), test, 0.0).rejection_rate)
        m, n_test = val.n - val.n // 2, test.n
        se = math.sqrt(gamma * (1.0 - gamma) * (1.0 / (m + 2) + 1.0 / n_test) / len(seeds))
        mean = float(np.mean(rates))
        assert mean <= gamma + 1.0 / (m + 1) + 5.0 * se
        if two_sided:
            assert abs(mean - (1.0 - math.ceil((1.0 - gamma) * (m + 1)) / (m + 1))) <= 5.0 * se

    def test_small_sample_sentinel_accepts_all(self):
        cfg = ExperimentConfig(
            dataset_source="hetero6",
            cost_config=CostConfig.fixed_budget(0.001),
            regressor=KnnConfig(),
            rejector="kernel",
            repeats=3,
            seed=5,
            synthetic_n=100,
        )
        rep = run_experiment(cfg)
        assert rep.rej_mean == 0.0

    @pytest.mark.parametrize("rejector", ["kernel", "loss-linear"])
    @pytest.mark.parametrize("regressor", [KnnConfig(), MlpConfig(epochs=2), "oracle"], ids=["knn", "mlp", "oracle"])
    def test_the_scored_half_reaches_neither_regressor_nor_calibrator(self, monkeypatch, regressor, rejector):
        # the threshold's coverage needs scores independent of both: new
        # targets on the second half of val keep kNN's k, the calibrator's
        # estimates and c_hat bit for bit
        materialize_, budget_threshold_ = harness.materialize, harness.budget_threshold
        cfg = ExperimentConfig("smooth1d", CostConfig.fixed_budget(0.2), regressor=regressor, rejector=rejector,
                               repeats=1, seed=0)
        runs = []

        def run(targets_of):
            def materialize(*args, **kw):
                train, val, test, task = materialize_(*args, **kw)
                half = val.n // 2
                targets = np.concatenate([val.targets[:half], targets_of(val.targets[half:])])
                return train, Dataset(val.features, targets), test, task

            def budget_threshold(rejector, f, val, task, gamma):
                calibrator, th = budget_threshold_(rejector, f, val, task, gamma)
                runs.append((getattr(f, "k", None), calibrator.estimate(val.features), th.c_hat))
                return calibrator, th

            monkeypatch.setattr(harness, "materialize", materialize)
            monkeypatch.setattr(harness, "budget_threshold", budget_threshold)
            run_experiment(cfg)

        run(lambda y: y)
        run(lambda y: 10.0 - 5.0 * y[::-1])
        (k, estimates, c_hat), (k2, estimates2, c_hat2) = runs
        assert k == k2 and (k is not None) == isinstance(regressor, KnnConfig)
        np.testing.assert_array_equal(estimates.view(np.int64), estimates2.view(np.int64))
        assert np.float64(c_hat).tobytes() == np.float64(c_hat2).tobytes()

    def test_one_validation_row_is_refused(self):
        # the calibrator would be fitted on the row that its threshold scores
        cfg = ExperimentConfig("hetero6", CostConfig.fixed_budget(0.2), split=SplitSpec(0.1, 0.2),
                               repeats=1, synthetic_n=10)
        with pytest.raises(DataError, match="2 validation rows"):
            run_experiment(cfg)
        run_experiment(dataclasses.replace(cfg, cost_config=CostConfig.fixed_cost(2.0)))  # cost mode runs

    def test_median_length_scale_is_the_median_over_all_pairs(self):
        # m = 601 at d = 8 spans six 109-row distance blocks
        m = 601
        X = np.random.default_rng(11).standard_normal((m, 8))
        want = np.median(pairwise_sq_dists(X, X)[np.triu_indices(m, 1)])
        assert _median_sq_dist(X) == want

    @pytest.mark.parametrize("X", [np.ones((1, 3)), np.full((5, 3), 2.0)], ids=["one-point", "all-equal"])
    def test_median_length_scale_without_spread_is_one(self, X):
        assert _median_sq_dist(X) == 1.0

    def test_machine_loss_counts_accepted_only(self):
        cfg = ExperimentConfig(
            dataset_source="hetero6",
            cost_config=CostConfig.fixed_budget(0.3),
            regressor="oracle",
            rejector="oracle",
            repeats=4,
            seed=9,
            synthetic_n=1000,
        )
        rep = run_experiment(cfg)
        for r in rep.repeats:
            if r.rejection_rate < 1.0:
                # accepted-only mean of r*(f-y)^2 equals rwr at c=0 rescaled
                assert r.machine_loss == pytest.approx(
                    r.rwr_loss / (1.0 - r.rejection_rate), rel=1e-9
                )


class TestEmitReport:
    def _report(self):
        return run_experiment(_cost_cfg(repeats=2, synthetic_n=200))

    def test_csv_schema(self, tmp_path):
        path = emit_report(self._report(), "csv", tmp_path)
        header, row = path.read_text().strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert row.split(",")[0] == "hetero6"

    def test_byte_stable(self, tmp_path):
        # two identically seeded runs, not one report emitted twice
        first, second = self._report(), self._report()
        for fmt in ("json", "csv"):
            a = emit_report(first, fmt, tmp_path / "a").read_bytes()
            b = emit_report(second, fmt, tmp_path / "b").read_bytes()
            assert a == b

    def test_json_round_trip(self, tmp_path):
        rep = self._report()
        path = emit_report(rep, "json", tmp_path)
        back = RunReport.from_json(path.read_text())
        assert back == rep
        # a field the report does not have, such as an old wall-clock time, is refused
        old = dict(json.loads(path.read_text()), wall_clock_s=1.25)
        with pytest.raises(ValueError, match="wall_clock_s"):
            RunReport.from_dict(old)
        with pytest.raises(DataError, match="wall_clock_s"):
            RunReport.from_json(json.dumps(old))

    @pytest.mark.parametrize("field, edit", [
        ("dataset", lambda doc: doc.update(dataset="smooth1d")),
        ("mode", lambda doc: doc.update(mode="fixed_budget")),
        ("c_or_gamma", lambda doc: doc.update(c_or_gamma=2.5)),
        ("method", lambda doc: doc.update(method="mlp+oracle")),
        ("seed_ledger", lambda doc: doc.update(seed_ledger=[7, 8])),
        ("seed_ledger", lambda doc: doc.update(seed_ledger=[42.0, 43.0])),
        ("seed_ledger", lambda doc: doc.update(seed_ledger=[42])),
        ("rwr_mean", lambda doc: doc.update(rwr_mean=-1.0)),
        # one unit in the last place: the match is exact
        ("machine_std", lambda doc: doc.update(machine_std=float(np.nextafter(doc["machine_std"], 1.0)))),
        ("rej_std", lambda doc: doc.update(rej_std=doc["rej_std"] + 0.125)),
        ("repeats", lambda doc: doc["repeats"].pop()),
        ("n_evaluated", lambda doc: doc["repeats"][0].update(n_evaluated=5.5)),
    ], ids=[
        "dataset", "mode", "c_or_gamma", "method", "seed_ledger", "seed_ledger-floats", "seed_ledger-short",
        "rwr_mean", "machine_std", "rej_std", "repeat-dropped", "n_evaluated-fractional",
    ])
    def test_fields_the_echo_derives_must_match_it(self, field, edit):
        rep = self._report()
        doc = rep.to_dict()
        assert RunReport.from_dict(doc) == rep
        edit(doc)
        with pytest.raises(ValueError, match=field):
            RunReport.from_dict(doc)
        with pytest.raises(DataError, match=field):
            RunReport.from_json(json.dumps(doc))

    @pytest.mark.parametrize("mode", [CostConfig.fixed_cost(2.0), CostConfig.fixed_budget(0.2)], ids=["cost", "budget"])
    def test_repeat_that_breaks_the_loss_identity_is_refused(self, mode):
        rep = run_experiment(_cost_cfg(cost_config=mode, repeats=2, synthetic_n=200))
        first, second = rep.repeats
        # within the tolerance of perfbench's identity check, 1e-9 relative
        RunReport(rep.config, (dataclasses.replace(first, rwr_loss=first.rwr_loss * (1 + 1e-12)), second))
        for broken in (
            dataclasses.replace(first, rwr_loss=first.rwr_loss * (1 + 1e-6)),
            dataclasses.replace(first, machine_loss=first.machine_loss + 0.25),
            dataclasses.replace(first, rejection_rate=first.rejection_rate + 0.25),
        ):
            with pytest.raises(ValueError, match="repeat 0: rwr_loss"):
                RunReport(rep.config, (broken, second))

    def test_only_the_config_and_the_repeats_are_inputs(self):
        rep = self._report()
        assert [f.name for f in dataclasses.fields(RunReport) if f.init] == ["config", "repeats"]
        with pytest.raises(ValueError, match="repeats"):
            RunReport(rep.config, rep.repeats[:1])

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml", tmp_path)


_PARTLY_DEFERRED = LossReport(rwr_loss=0.5 * 0.2 + 0.5 * 1.0, machine_loss=0.2, rejection_rate=0.5, n_evaluated=10)
_ALL_DEFERRED = LossReport(rwr_loss=1.0, machine_loss=0.0, rejection_rate=1.0, n_evaluated=10, all_deferred=True)


@pytest.mark.parametrize("base, field, value", [
    (_PARTLY_DEFERRED, "rejection_rate", 1.5),
    (_PARTLY_DEFERRED, "rejection_rate", -0.25),
    (_PARTLY_DEFERRED, "rwr_loss", -5.0),
    (_PARTLY_DEFERRED, "machine_loss", -0.1),
    (_PARTLY_DEFERRED, "rwr_loss", np.nan),
    (_PARTLY_DEFERRED, "machine_loss", np.nan),
    (_PARTLY_DEFERRED, "n_evaluated", 0),
    (_PARTLY_DEFERRED, "all_deferred", True),
    (_ALL_DEFERRED, "all_deferred", False),
    (_ALL_DEFERRED, "machine_loss", 0.3),
], ids=[
    "rate-above-1", "rate-below-0", "negative-rwr", "negative-machine", "nan-rwr", "nan-machine", "nothing-evaluated",
    "all-deferred-at-rate-0.5", "not-all-deferred-at-rate-1", "all-deferred-with-machine-loss",
])
def test_loss_report_that_rwr_report_cannot_write_is_refused(base, field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(base, **{field: value})


_RUN = dict(cost_config=CostConfig.fixed_cost(2.0), repeats=2, seed=3)
_ON_HETERO6 = dict(_RUN, dataset_source="hetero6", synthetic_n=300)
_WITH_MLP = dict(_ON_HETERO6, regressor=MlpConfig(epochs=3, batch_size=64))
_ON_CSV = dict(_RUN, dataset_source=str(bundled_data_path("hetero_demand.csv")))


def _mlp(**kw):
    return {"regressor": dataclasses.replace(_WITH_MLP["regressor"], **kw)}


# For each settable value: a base config and one variation of that value.
# target_column is read only from a CSV and synthetic_n only from a task.
_VARIATIONS = {
    (ExperimentConfig, "dataset_source"): (_ON_HETERO6, {"dataset_source": "smooth1d"}),
    (ExperimentConfig, "cost_config"): (_ON_HETERO6, {"cost_config": CostConfig.fixed_cost(1.0)}),
    (ExperimentConfig, "regressor"): (_ON_HETERO6, {"regressor": "oracle"}),
    (ExperimentConfig, "rejector"): (_ON_HETERO6, {"rejector": "loss-linear"}),
    (ExperimentConfig, "split"): (_ON_HETERO6, {"split": SplitSpec(0.3, 0.2)}),
    (ExperimentConfig, "repeats"): (_ON_HETERO6, {"repeats": 3}),
    (ExperimentConfig, "seed"): (_ON_HETERO6, {"seed": 4}),
    (ExperimentConfig, "target_column"): (_ON_CSV, {"target_column": "x2"}),
    (ExperimentConfig, "synthetic_n"): (_ON_HETERO6, {"synthetic_n": 400}),
    (ExperimentConfig, "sigma_grid"): (_ON_HETERO6, {"sigma_grid": (1000.0,)}),
    (SplitSpec, "val_fraction"): (_ON_HETERO6, {"split": SplitSpec(0.3, 0.1)}),
    (SplitSpec, "test_fraction"): (_ON_HETERO6, {"split": SplitSpec(0.2, 0.2)}),
    # 0.5 is both a cost and a budget, so only the mode changes
    (CostConfig, "mode"): (dict(_ON_HETERO6, cost_config=CostConfig.fixed_cost(0.5)),
                           {"cost_config": CostConfig.fixed_budget(0.5)}),
    (CostConfig, "value"): (_ON_HETERO6, {"cost_config": CostConfig.fixed_cost(0.5)}),
    (KnnConfig, "k_grid"): (_ON_HETERO6, {"regressor": KnnConfig(k_grid=(1,))}),
    (MlpConfig, "hidden_width"): (_WITH_MLP, _mlp(hidden_width=8)),
    (MlpConfig, "learning_rate"): (_WITH_MLP, _mlp(learning_rate=5e-3)),
    (MlpConfig, "weight_decay"): (_WITH_MLP, _mlp(weight_decay=0.1)),
    (MlpConfig, "batch_size"): (_WITH_MLP, _mlp(batch_size=32)),
    (MlpConfig, "epochs"): (_WITH_MLP, _mlp(epochs=4)),
}
# Values that the run would not read: each builds a config to be refused.
_REFUSED = {
    (KnnConfig, "k"): lambda: dict(_ON_HETERO6, regressor=KnnConfig(k=7)),
    (ExperimentConfig, "workers"): lambda: dict(_ON_HETERO6, workers=2),
}
_SETTINGS = [
    (owner, f.name)
    for owner in (ExperimentConfig, SplitSpec, CostConfig, KnnConfig, MlpConfig)
    for f in dataclasses.fields(owner)
]


@pytest.mark.parametrize("setting", _SETTINGS, ids=[f"{o.__name__}.{n}" for o, n in _SETTINGS])
def test_every_setting_changes_a_repeat_or_is_refused(setting):
    """A config echo names what ran: each value either changes some repeat's
    LossReport or is refused, so none is accepted and then ignored."""
    if setting in _REFUSED:
        with pytest.raises(ValueError):
            ExperimentConfig(**_REFUSED[setting]())
        return
    assert setting in _VARIATIONS, f"no variation of {setting[0].__name__}.{setting[1]}"
    base, change = _VARIATIONS[setting]
    before = run_experiment(ExperimentConfig(**base)).repeats
    after = run_experiment(ExperimentConfig(**{**base, **change})).repeats
    assert after != before
