import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from selreg import oracle
from selreg.cli import main
from selreg.core import model_from_json
from selreg.harness import bundled_data_path, materialize
from selreg.losses import empirical_rwr_loss
from selreg.rejection import induce_rejector


@pytest.fixture
def demo_csv():
    return str(bundled_data_path("linear_plant.csv"))


class TestBench:
    def test_fixed_cost_json(self, demo_csv, tmp_path, capsys):
        rc = main([
            "bench", "--mode", "cost", "--cost", "0.5",
            "--data", demo_csv, "--target-col", "target",
            "--regressor", "knn", "--rejector", "kernel",
            "--repeats", "2", "--seed", "1",
            "--out", str(tmp_path), "--format", "json",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["method"] == "knn+kernel"
        assert len(doc["repeats"]) == 2

    def test_fixed_budget_csv_output(self, tmp_path):
        rc = main([
            "bench", "--mode", "budget", "--budget", "0.3",
            "--data", "hetero6", "--synthetic-n", "300",
            "--repeats", "2", "--seed", "2",
            "--out", str(tmp_path), "--format", "csv",
        ])
        assert rc == 0
        header = (tmp_path / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("dataset,c_or_gamma,method")

    def test_missing_cost_is_usage_error(self, demo_csv, tmp_path):
        rc = main(["bench", "--mode", "cost", "--data", demo_csv, "--out", str(tmp_path)])
        assert rc == 1

    def test_uppercase_csv_suffix_is_read_as_csv(self, tmp_path):
        data = tmp_path / "plant.CSV"
        shutil.copy(bundled_data_path("linear_plant.csv"), data)
        rc = main([
            "bench", "--mode", "cost", "--cost", "0.5", "--data", str(data),
            "--repeats", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["dataset"] == str(data)

    @pytest.mark.parametrize("flags", [
        ["--rejector", "conformal"],
        ["--scores-from", "kernel"],
        ["--mode", "cost", "--budget", "0", "--cost", "-1"],
        ["--repeats", "0"],
        ["--sigma-grid", "0.1,1"],  # budget mode takes the median length scale
        ["--mode", "cost", "--budget", "0", "--cost", "1", "--rejector", "loss-linear", "--sigma-grid", "1"],
        ["--mode", "cost", "--budget", "0", "--cost", "1", "--sigma-grid", "1,-1"],
        ["--mode", "cost", "--cost", "1"],  # --budget 0.2 is not read in cost mode
    ])
    def test_removed_options_are_usage_errors(self, flags, tmp_path, capsys):
        argv = [
            "bench", "--mode", "budget", "--budget", "0.2", "--data", "hetero6",
            "--synthetic-n", "200", "--repeats", "1", "--out", str(tmp_path), *flags,
        ]
        try:
            rc = main(argv)
        except SystemExit as exc:  # refused by the argument parser
            rc = exc.code
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main([
            "bench", "--mode", "cost", "--cost", "1.0",
            "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_repeated_csv_column_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("x,target,target\n" + "".join(f"{i},{i},{i}\n" for i in range(20)))
        rc = main(["bench", "--mode", "cost", "--cost", "1", "--data", str(p), "--repeats", "1",
                   "--out", str(tmp_path)])
        assert rc == 2 and "repeats column(s) ['target']" in capsys.readouterr().err

    def test_config_file_supplies_flags(self, demo_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo config\ncost = 0.5\nrepeats = 2\nseed = 9\n")
        rc = main([
            "bench", "--mode", "cost", "--data", demo_csv,
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["config"]["cost_c"] == 0.5
        assert doc["config"]["repeats"] == 2
        assert doc["config"]["seed"] == 9

    def test_cli_flag_overrides_config_file(self, demo_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cost = 0.5\n")
        rc = main([
            "bench", "--mode", "cost", "--cost", "1.5", "--data", demo_csv,
            "--repeats", "2", "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["config"]["cost_c"] == 1.5

    def test_explicit_flag_at_its_default_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("repeats = 2\n")
        rc = main([
            "bench", "--mode", "cost", "--cost", "1", "--data", "hetero6",
            "--repeats", "10", "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["config"]["repeats"] == 10 and len(doc["repeats"]) == 10


class TestFitCalibrate:
    @pytest.mark.parametrize("flags", [
        ["--budget", "1.5"],
        ["--cost", "-1"],
        ["--sigma-grid", ""],
        ["--sigma-grid", "0,1"],
        ["--sigma-grid", "a,b"],
    ])
    def test_refused_values_are_usage_errors(self, flags, demo_csv, tmp_path, capsys):
        # refused before the model file is read
        rc = main(["calibrate", "--data", demo_csv, "--model", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "cal.json"), *flags])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1

    def test_config_file_values_take_the_flag_type(self, demo_csv, tmp_path):
        model, cal, cfg = tmp_path / "model.json", tmp_path / "cal.json", tmp_path / "cal.cfg"
        assert main(["fit", "--data", demo_csv, "--seed", "4", "--out", str(model)]) == 0
        cfg.write_text("budget = 0.2\nseed = 4\nsigma-grid = 0.1,1\n")
        assert main(["calibrate", "--data", demo_csv, "--model", str(model),
                     "--config", str(cfg), "--out", str(cal)]) == 0
        doc = json.loads(cal.read_text())
        assert doc["conformal"]["gamma"] == 0.2 and doc["sigma"] in (0.1, 1.0)

    def test_config_file_refuses_a_value_of_the_wrong_type(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "cal.cfg"
        for text in ("budget = lots\n", "regressor = knn\n"):
            cfg.write_text(text)
            rc = main(["calibrate", "--data", demo_csv, "--model", str(tmp_path / "m.json"),
                       "--config", str(cfg)])
            assert rc == 1 and capsys.readouterr().err.startswith("error: config file")

    def test_fit_then_calibrate(self, demo_csv, tmp_path):
        model = tmp_path / "model.json"
        rc = main(["fit", "--data", demo_csv, "--regressor", "knn", "--seed", "4",
                   "--out", str(model)])
        assert rc == 0 and model.exists()
        cal = tmp_path / "cal.json"
        rc = main([
            "calibrate", "--data", demo_csv, "--model", str(model),
            "--cost", "0.5", "--budget", "0.2", "--seed", "4",
            "--sigma-grid", "0.1,1,10", "--out", str(cal),
        ])
        assert rc == 0
        doc = json.loads(cal.read_text())
        assert doc["sigma"] in (0.1, 1.0, 10.0)
        assert len(doc["scores"]) > 0
        assert doc["conformal"]["gamma"] == 0.2


    @pytest.mark.parametrize("source", ["linear_plant.csv", "hetero6"])
    def test_fit_calibrate_match_bench_repeat_zero(self, source, tmp_path):
        data = str(bundled_data_path(source)) if source.endswith(".csv") else source
        model, cal = tmp_path / "model.json", tmp_path / "cal.json"
        assert main(["fit", "--data", data, "--seed", "4", "--out", str(model)]) == 0
        assert main([
            "calibrate", "--data", data, "--model", str(model), "--cost", "0.5",
            "--seed", "4", "--out", str(cal),
        ]) == 0
        assert main([
            "bench", "--mode", "cost", "--cost", "0.5", "--data", data,
            "--repeats", "1", "--seed", "4", "--out", str(tmp_path),
        ]) == 0
        f = model_from_json(model.read_text())
        calibrator = model_from_json(json.dumps(json.loads(cal.read_text())["calibrator"]))
        _, _, test, _ = materialize(data, 4)
        got = empirical_rwr_loss(f, induce_rejector(calibrator, 0.5), test, 0.5)
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert got.rwr_loss == bench["repeats"][0]["rwr_loss"]

    def test_fit_refuses_to_write_the_oracle_of_a_continuous_task(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        rc = main(["fit", "--data", "smooth1d", "--regressor", "oracle", "--out", str(model)])
        assert rc == 1 and "not registered for serialization" in capsys.readouterr().err
        assert not model.exists()

    def test_calibrate_refuses_a_model_fitted_at_another_seed(self, demo_csv, tmp_path, capsys):
        model, cal = tmp_path / "model.json", tmp_path / "cal.json"
        assert main(["fit", "--data", demo_csv, "--seed", "4", "--out", str(model)]) == 0
        calibrate = ["calibrate", "--model", str(model), "--cost", "0.5", "--out", str(cal)]
        capsys.readouterr()
        assert main(calibrate + ["--data", demo_csv, "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert "seed 4 at fit, 5 here" in err and not cal.exists()
        # another spelling of the same CSV path is the same data
        other_spelling = str(Path(demo_csv).parent / ".." / Path(demo_csv).parent.name / Path(demo_csv).name)
        assert main(calibrate + ["--data", other_spelling, "--seed", "4"]) == 0
        # a model file written without the record loads as before
        doc = json.loads(model.read_text())
        model.write_text(json.dumps({"kind": doc["kind"], "payload": doc["payload"]}))
        assert main(calibrate + ["--data", demo_csv, "--seed", "5"]) == 0

    def test_budget_threshold_scores_the_unseen_half(self, demo_csv, tmp_path):
        model, cal = tmp_path / "model.json", tmp_path / "cal.json"
        assert main(["fit", "--data", demo_csv, "--seed", "4", "--out", str(model)]) == 0
        assert main([
            "calibrate", "--data", demo_csv, "--model", str(model),
            "--budget", "0.2", "--seed", "4", "--out", str(cal),
        ]) == 0
        doc = json.loads(cal.read_text())
        n_val = materialize(demo_csv, 4)[1].n
        assert len(doc["scores"]) == n_val
        assert doc["conformal"]["m"] == n_val - n_val // 2
        budget_cal = model_from_json(json.dumps(doc["conformal"]["calibrator"]))
        assert budget_cal.points.shape[0] == n_val // 2


def _knn_file(**payload) -> str:
    """A knn model file that hetero6 can calibrate, with ``payload`` fields replaced."""
    good = {"k": 2, "train_x": [[0.0], [1.0], [2.0]], "train_y": [0.0, 1.0, 2.0]}
    return json.dumps({"kind": "regressor/knn", "payload": dict(good, **payload)})


@pytest.mark.parametrize(
    "command, text",
    [
        ("calibrate", "not json"),
        ("calibrate", "[1, 2]"),
        ("calibrate", '{"kind": "regressor/knn"}'),
        ("calibrate", '{"kind": "regressor/knn", "payload": {"k": 3}}'),
        ("report", '{"dataset": "x"}'),
        ("calibrate", _knn_file(train_y=[0.0, 1.0])),
        ("calibrate", _knn_file(train_x="abc")),
        ("calibrate", _knn_file(train_x=[[[0.0]], [[1.0]], [[2.0]]])),
        ("calibrate", _knn_file(k=1000000)),
        ("calibrate", _knn_file(k=2.5)),
        ("calibrate", _knn_file(k=True)),
        ("calibrate", json.dumps({"kind": "regressor/mlp", "payload": {
            "layer_shapes": [[1, 2], [2], [2, 1], [1]],
            "w1": [[0.0, 0.0, 0.0]], "b1": [0.0, 0.0], "w2": [[0.0], [0.0]], "b2": [0.0],
        }})),
        ("calibrate", json.dumps({"kind": "regressor/mlp", "payload": {
            "layer_shapes": [[1, 2], [3], [2, 1], [1]],
            "w1": [[0.0, 0.0]], "b1": [0.0, 0.0, 0.0], "w2": [[0.0], [0.0]], "b2": [0.0],
        }})),
        ("calibrate", _knn_file(train_x=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])),
        ("calibrate", json.dumps({"kind": "calibrator/kernel_smoother", "payload": {
            "points": [[0.0], [1.0]], "losses": [0.5, 0.5], "sigma": 1.0,
        }})),
        ("calibrate", '{"kind": "regressor/forest", "payload": {}}'),
        ("calibrate", '{"kind": ["regressor/knn"], "payload": {}}'),
    ],
    ids=[
        "not-json", "json-list", "no-payload", "no-payload-field", "report-no-mode",
        "knn-train-y-short", "knn-string-train-x", "knn-3d-train-x", "knn-k-too-large", "knn-fractional-k", "knn-bool-k",
        "mlp-w1-off-its-header", "mlp-layers-do-not-chain", "knn-two-columns-on-hetero6",
        "calibrator-not-a-regressor", "unknown-kind", "unhashable-kind",
    ],
)
def test_malformed_input_file_is_data_error(command, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "calibrate":
        argv = ["calibrate", "--data", "hetero6", "--model", str(path), "--out", str(tmp_path / "cal.json")]
    else:
        argv = ["report", "--input", str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


class TestVerifyTheory:
    def test_passes_and_emits_json(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = main(["verify-theory", "--trials", "10", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        names = {p["name"] for p in doc["properties"]}
        assert "locally_trapped_pair" in names and "conformal_coverage" in names

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-1"], ["--seed", "-1"]])
    def test_refused_values_are_usage_errors(self, flags, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = main(["verify-theory", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_failed_property_exits_with_verification_code(self, monkeypatch, tmp_path, capsys):
        failing = [oracle.PropertyResult("some_bound", False, -1.0)]
        monkeypatch.setattr(oracle, "run_verification_suite", lambda seed, trials: failing)
        out = tmp_path / "verify.json"
        assert main(["verify-theory", "--out", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert doc["passed"] is False and doc["properties"][0]["name"] == "some_bound"


_BOTH_MODES = pytest.mark.parametrize(
    "mode", [["--mode", "cost", "--cost", "1.0"], ["--mode", "budget", "--budget", "0.2"]], ids=["cost", "budget"]
)


class TestReport:
    def test_json_to_csv(self, tmp_path):
        rc = main([
            "bench", "--mode", "cost", "--cost", "1.0", "--data", "hetero6",
            "--synthetic-n", "200", "--repeats", "2", "--seed", "0",
            "--out", str(tmp_path), "--format", "json",
        ])
        assert rc == 0
        rc = main([
            "report", "--input", str(tmp_path / "bench.json"),
            "--out", str(tmp_path), "--format", "csv",
        ])
        assert rc == 0
        assert (tmp_path / "bench.csv").exists()

    @_BOTH_MODES
    def test_json_report_reproduces_the_bench_file(self, mode, tmp_path):
        bench = tmp_path / "bench.json"
        assert main(["bench", *mode, "--data", "hetero6", "--synthetic-n", "200", "--repeats", "3",
                     "--out", str(tmp_path)]) == 0
        assert main(["report", "--input", str(bench), "--out", str(tmp_path / "again"), "--format", "json"]) == 0
        assert (tmp_path / "again" / "bench.json").read_bytes() == bench.read_bytes()

    @_BOTH_MODES
    def test_mean_the_repeats_do_not_give_is_data_error(self, mode, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        assert main(["bench", *mode, "--data", "hetero6", "--synthetic-n", "200", "--repeats", "2",
                     "--out", str(tmp_path)]) == 0
        bench.write_text(json.dumps(dict(json.loads(bench.read_text()), rwr_mean=-1.0)))
        capsys.readouterr()
        assert main(["report", "--input", str(bench), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and "rwr_mean" in err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("garble", [
        lambda echo: echo.update(standardize_data=False),
        lambda echo: echo.update(rejector="conformal"),
        lambda echo: echo.pop("seed"),
        lambda echo: echo.update(seed=0.5),
        lambda echo: echo["regressor"].update(k_grid=[5.0]),
        lambda echo: echo["regressor"].update(k_grid=[True]),
    ], ids=["unknown-key", "removed-rejector", "missing-key", "fractional-seed", "fractional-k-grid", "bool-k-grid"])
    def test_echo_that_bench_would_not_write_is_data_error(self, garble, tmp_path, capsys):
        assert main([
            "bench", "--mode", "cost", "--cost", "1.0", "--data", "hetero6",
            "--synthetic-n", "200", "--repeats", "2", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        garble(doc["config"])
        (tmp_path / "bench.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--input", str(tmp_path / "bench.json"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (tmp_path / "bench.csv").exists()

    def test_label_the_echo_does_not_derive_is_data_error(self, tmp_path, capsys):
        assert main([
            "bench", "--mode", "cost", "--cost", "1.0", "--data", "hetero6",
            "--synthetic-n", "200", "--repeats", "2", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        (tmp_path / "bench.json").write_text(json.dumps(dict(doc, method="mlp+oracle")))
        capsys.readouterr()
        assert main(["report", "--input", str(tmp_path / "bench.json"), "--out", str(tmp_path)]) == 2
        assert "method" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()


class TestEntryPoint:
    def test_usage_error_exit_code_via_subprocess(self):
        out = subprocess.run(
            [sys.executable, "-m", "selreg.cli", "bench"],
            capture_output=True, text=True,
        )
        assert out.returncode == 1  # missing required --mode
