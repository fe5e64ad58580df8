import logging

import numpy as np
import pytest

from selreg.core import CostConfig, DataError, KernelSpec, Regressor
from selreg.harness import (
    CSV_COLUMNS,
    EmptyAfterFilteringError,
    ExperimentConfig,
    MissingTargetError,
    RunReport,
    budget_threshold,
    bundled_data_path,
    cost_calibrator,
    emit_report,
    fit_regressor,
    load_csv,
    materialize,
    run_experiment,
)
from selreg.oracle import bayes_risk
from selreg.tasks import default_discrete_task


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(p, "target")
        assert data.n == 3 and data.dim == 2
        assert data.feature_names == ("a", "b")
        np.testing.assert_array_equal(data.targets, [3.0, 6.0, 9.0])

    def test_bad_row_dropped_with_diagnostic(self, tmp_path, caplog):
        p = tmp_path / "bad.csv"
        p.write_text("a,target\n1,2\nNA,4\n5,6\n")
        with caplog.at_level(logging.WARNING, logger="selreg.harness"):
            data = load_csv(p, "target")
        assert data.n == 2
        assert any("row 2" in rec.getMessage() for rec in caplog.records)

    def test_missing_target(self, tmp_path):
        p = tmp_path / "no_target.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingTargetError):
            load_csv(p, "target")

    def test_all_rows_bad(self, tmp_path):
        p = tmp_path / "hopeless.csv"
        p.write_text("a,target\nx,1\ny,2\n")
        with pytest.raises(EmptyAfterFilteringError):
            load_csv(p, "target")

    def test_bundled_datasets_load(self):
        for name in ("hetero_demand.csv", "linear_plant.csv"):
            data = load_csv(bundled_data_path(name), "target")
            assert 100 <= data.n <= 2000


def _cost_cfg(**kw):
    base = dict(
        dataset_source="hetero6",
        cost_config=CostConfig.fixed_cost(2.0),
        regressor="knn",
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
        assert a == b  # wall clock excluded from equality

    def test_aggregates_match_recomputation(self):
        rep = run_experiment(_cost_cfg())
        rwr = np.array([r.rwr_loss for r in rep.repeats])
        assert rep.rwr_mean == pytest.approx(float(rwr.mean()), abs=1e-12)
        assert rep.rwr_std == pytest.approx(float(rwr.std(ddof=1)), abs=1e-12)

    def test_csv_source_end_to_end(self):
        cfg = ExperimentConfig(
            dataset_source=str(bundled_data_path("hetero_demand.csv")),
            cost_config=CostConfig.fixed_cost(0.5),
            regressor="knn",
            rejector="loss-linear",
            repeats=2,
            seed=0,
        )
        rep = run_experiment(cfg)
        assert np.isfinite(rep.rwr_mean)
        assert rep.config["standardize_data"] is None  # CSV default: standardized

    def test_mlp_regressor_runs(self):
        from selreg.models import MlpConfig

        cfg = _cost_cfg(regressor=MlpConfig(epochs=20), repeats=2, synthetic_n=300)
        rep = run_experiment(cfg)
        assert np.isfinite(rep.rwr_mean)

    def test_config_echo_reproduces_run(self):
        rep = run_experiment(_cost_cfg())
        again = run_experiment(ExperimentConfig.from_dict(rep.config))
        assert again == rep

    def test_old_echo_with_default_calibrate_on_still_loads(self):
        rep = run_experiment(_cost_cfg())
        assert "calibrate_on" not in rep.config
        assert "output_dir" not in rep.config
        for old in (dict(rep.config, calibrate_on="validation"), dict(rep.config, output_dir=".")):
            assert ExperimentConfig.from_dict(old).to_dict() == rep.config

    def test_old_echo_calibrating_on_train_is_refused(self):
        old = dict(_cost_cfg().to_dict(), calibrate_on="train")
        with pytest.raises(ValueError, match="calibrate_on"):
            ExperimentConfig.from_dict(old)

    def test_conformal_rejector_kind_is_gone(self):
        with pytest.raises(ValueError, match="rejector"):
            _cost_cfg(rejector="conformal")

    def test_threaded_repeats_match_sequential(self):
        seq = run_experiment(_cost_cfg(repeats=4))
        par = run_experiment(_cost_cfg(repeats=4, workers=4))
        assert [r.rwr_loss for r in par.repeats] == [r.rwr_loss for r in seq.repeats]

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
        assert task is not None and task.name == "hetero6"
        assert (train.n, val.n, test.n) == (70, 20, 10)
        assert set(np.unique(train.features)) <= set(task.eval_points()[0].ravel())

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
        return _RowCounter(fit_regressor("knn", train, val, task, 3)), val, task

    def test_cost_calibrator_predicts_each_validation_row_once(self):
        f, val, task = self._fitted()
        cost_calibrator("kernel", KernelSpec(), f, val, task, 2.0)
        assert f.rows == val.n

    def test_budget_threshold_predicts_the_fitting_half_only(self):
        f, val, task = self._fitted()
        budget_threshold("kernel", KernelSpec(), f, val, task, 0.2)
        assert f.rows == val.n // 2


class TestRunFixedBudget:
    def test_rejection_rate_within_budget_window(self):
        cfg = ExperimentConfig(
            dataset_source="smooth1d",
            cost_config=CostConfig.fixed_budget(0.3),
            regressor="knn",
            rejector="kernel",
            repeats=10,
            seed=3,
            synthetic_n=2000,
        )
        rep = run_experiment(cfg)
        m = 200  # half of the 400-row validation split scores the threshold
        assert 0.3 - 0.05 <= rep.rej_mean <= 0.3 + 1.0 / (m + 1) + 0.05

    def test_small_sample_sentinel_accepts_all(self):
        cfg = ExperimentConfig(
            dataset_source="hetero6",
            cost_config=CostConfig.fixed_budget(0.001),
            regressor="knn",
            rejector="kernel",
            repeats=3,
            seed=5,
            synthetic_n=100,
        )
        rep = run_experiment(cfg)
        assert rep.rej_mean == 0.0

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
        rep = self._report()
        a = emit_report(rep, "json", tmp_path / "a").read_bytes()
        b = emit_report(rep, "json", tmp_path / "b").read_bytes()
        assert a == b
        a_csv = emit_report(rep, "csv", tmp_path / "a").read_bytes()
        b_csv = emit_report(rep, "csv", tmp_path / "b").read_bytes()
        assert a_csv == b_csv

    def test_json_round_trip(self, tmp_path):
        rep = self._report()
        path = emit_report(rep, "json", tmp_path)
        back = RunReport.from_json(path.read_text())
        assert back == rep

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml", tmp_path)
