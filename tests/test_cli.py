import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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
            "bench", "--cost", "0.5",
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
            "bench", "--budget", "0.3",
            "--data", "hetero6", "--synthetic-n", "300",
            "--repeats", "2", "--seed", "2",
            "--out", str(tmp_path), "--format", "csv",
        ])
        assert rc == 0
        header = (tmp_path / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("dataset,c_or_gamma,method")

    def test_csv_row_quotes_a_dataset_path_with_a_comma_or_a_quote(self, tmp_path):
        data = tmp_path / 'plant, "copy".csv'
        shutil.copy(bundled_data_path("linear_plant.csv"), data)
        bench = ["bench", "--cost", "0.5", "--data", str(data), "--repeats", "1"]
        assert main([*bench, "--out", str(tmp_path / "csv"), "--format", "csv"]) == 0
        assert main([*bench, "--out", str(tmp_path / "json")]) == 0
        assert main(["report", "--input", str(tmp_path / "json" / "bench.json"),
                     "--out", str(tmp_path / "again"), "--format", "csv"]) == 0
        text = (tmp_path / "csv" / "bench.csv").read_text()
        header, row = csv.reader(io.StringIO(text))
        assert len(header) == len(row) == 9 and row[header.index("dataset")] == str(data)
        assert (tmp_path / "again" / "bench.csv").read_bytes() == (tmp_path / "csv" / "bench.csv").read_bytes()

    def test_missing_cost_is_usage_error(self, demo_csv, tmp_path, capsys):
        rc = main(["bench", "--data", demo_csv, "--out", str(tmp_path)])
        assert rc == 1 and capsys.readouterr().err == "error: one of the arguments --cost --budget is required\n"

    def test_uppercase_csv_suffix_is_read_as_csv(self, tmp_path):
        data = tmp_path / "plant.CSV"
        shutil.copy(bundled_data_path("linear_plant.csv"), data)
        rc = main([
            "bench", "--cost", "0.5", "--data", str(data),
            "--repeats", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["dataset"] == str(data)

    @pytest.mark.parametrize("flags", [
        ["--budget", "0.2", "--rejector", "conformal"],
        ["--budget", "0.2", "--scores-from", "kernel"],
        ["--cost", "-1"],
        ["--budget", "0.2", "--repeats", "0"],
        ["--budget", "0.2", "--sigma-grid", "0.1,1"],  # budget mode takes the median length scale
        ["--cost", "1", "--rejector", "loss-linear", "--sigma-grid", "1"],
        ["--cost", "1", "--sigma-grid", "1,-1"],
        ["--budget", "0.2", "--cost", "1"],  # one flag picks the mode
        ["--budget", "0.2", "--target-col", "y"],  # a synthetic task has no target column
        ["--budget", "0.2", "--data", str(bundled_data_path("linear_plant.csv"))],  # a CSV reads no --synthetic-n 200
        ["--budget", "0.2", "--synthetic-n", "-5"],
        ["--budget", "0.2", "--seed", "-1"],
        ["--budget", "0.2", "--seed", str(2**64 - 1), "--repeats", "2"],
        ["--budget", "0.2", "--repeats", "x"],
        ["--budget", "0.2", "--rep", "2"],  # flags are spelled in full
        ["--cost", "inf"],  # no bandwidth could win at c = inf
        ["--cost", "1", "--sigma-grid", "inf"],  # not JSON
        ["--mode", "cost", "--cost", "1"],  # --cost alone picks the mode
        [],  # neither --cost nor --budget
        ["--budget", "0.2", "--cost", "0"],  # a flag given at 0 is still given
        ["--cost", "0.5", "--budget", "0"],
    ])
    def test_removed_options_are_usage_errors(self, flags, tmp_path, capsys):
        rc = main(["bench", "--data", "hetero6", "--synthetic-n", "200", "--repeats", "1", "--out", str(tmp_path), *flags])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "bench.json").exists()

    def test_mode_line_in_a_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = cost\ncost = 1\n")
        rc = main(["bench", "--data", "hetero6", "--repeats", "1", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1 and err == "error: unrecognized arguments: --mode=cost\n"
        assert not (tmp_path / "bench.json").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main([
            "bench", "--cost", "1.0",
            "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", [
        ["bench", "--data", "hetero6", "--cost", "2", "--config", "{bad}"],
        ["calibrate", "--data", "hetero6", "--cost", "2", "--model", "{bad}"],
        ["report", "--input", "{bad}"],
    ], ids=["config", "calibrate-model", "report-input"])
    def test_an_input_file_that_is_not_utf8_is_data_error(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"cost = 2\n\xff\n")
        rc = main([arg.format(bad=bad) for arg in command] + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"data error: cannot read {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_a_config_file_may_open_with_a_byte_order_mark(self, demo_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("cost = 0.5\nrepeats = 1\n".encode("utf-8-sig"))
        assert main(["bench", "--data", demo_csv, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "bench.json").read_text())["config"]["cost_c"] == 0.5

    def test_repeated_csv_column_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("x,target,target\n" + "".join(f"{i},{i},{i}\n" for i in range(20)))
        rc = main(["bench", "--cost", "1", "--data", str(p), "--repeats", "1",
                   "--out", str(tmp_path)])
        assert rc == 2 and "repeats column(s) ['target']" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "empty file, header row required"),
        ("x,y,target\n1,2,3\n4,5\n", "row 2 has 2 fields, expected 3"),
    ], ids=["empty-file", "short-row"])
    def test_malformed_csv_is_data_error(self, text, message, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        rc = main(["bench", "--cost", "1", "--data", str(p), "--repeats", "1",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("data error: ") and err.count("\n") == 1 and message in err

    def test_config_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cost = 1\nrepeats 2\n")
        rc = main(["bench", "--data", "hetero6", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert f"{cfg}:2: expected 'key = value'" in err

    def test_config_file_supplies_flags(self, demo_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo config\ncost = 0.5\nrepeats = 2\nseed = 9\n")
        rc = main([
            "bench", "--data", demo_csv,
            "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["config"]["cost_c"] == 0.5
        assert doc["config"]["repeats"] == 2
        assert doc["config"]["seed"] == 9

    def test_config_file_supplies_required_flags(self, demo_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {demo_csv}\ncost = 0.5\nrepeats = 1\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["config"]["dataset_source"] == demo_csv
        assert (doc["config"]["mode"], doc["config"]["cost_c"]) == ("cost", 0.5)

    def test_cli_flag_overrides_config_file(self, demo_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cost = 0.5\n")
        rc = main([
            "bench", "--cost", "1.5", "--data", demo_csv,
            "--repeats", "2", "--config", str(cfg), "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["config"]["cost_c"] == 1.5

    def test_explicit_flag_at_its_default_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("repeats = 2\n")
        rc = main([
            "bench", "--cost", "1", "--data", "hetero6",
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
        ["--seed", "-1"],
        ["--seed", str(2**64)],
        ["--data", "hetero6", "--target-col", "y"],  # a synthetic task has no target column
        ["--cost", "inf"],
        ["--sigma-grid", "inf"],
    ])
    def test_refused_values_are_usage_errors(self, flags, demo_csv, tmp_path, capsys):
        # refused before the model file is read
        rc = main(["calibrate", "--data", demo_csv, "--model", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "cal.json"), *flags])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_fit_refuses_a_seed_outside_64_bits(self, seed, demo_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", demo_csv, "--seed", seed, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1 and not out.exists()

    def test_fit_refuses_a_target_column_on_a_synthetic_task(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", "hetero6", "--target-col", "y", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1 and not out.exists()

    def test_config_file_supplies_the_required_model(self, demo_csv, tmp_path):
        model, cal, cfg = tmp_path / "model.json", tmp_path / "cal.json", tmp_path / "cal.cfg"
        assert main(["fit", "--data", demo_csv, "--out", str(model)]) == 0
        cfg.write_text(f"model = {model}\ndata = {demo_csv}\ncost = 0.5\n")
        assert main(["calibrate", "--config", str(cfg), "--out", str(cal)]) == 0
        assert json.loads(cal.read_text())["cost"] == 0.5

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
        for text, flag in (("budget = lots\n", "--budget"), ("regressor = knn\n", "--regressor")):
            cfg.write_text(text)
            rc = main(["calibrate", "--data", demo_csv, "--model", str(tmp_path / "m.json"),
                       "--config", str(cfg)])
            err = capsys.readouterr().err
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1 and flag in err

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
            "bench", "--cost", "0.5", "--data", data,
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
        ("calibrate", '{"kind": "regressor/table_lookup", '
                      '"payload": {"points": [[0.0], [NaN], [2.0]], "values": [1.0, 2.0, 3.0]}}'),
        ("calibrate", '{"kind": "regressor/table_lookup", '
                      '"payload": {"points": [[0.0], [2.0], [0.0]], "values": [1.0, 2.0, 3.0]}}'),
        ("calibrate", _knn_file(train_y=[0.0, float("nan"), 2.0])),
        ("calibrate", _knn_file(train_x=[[0.0], [float("inf")], [2.0]])),
        ("calibrate", json.dumps({"kind": "regressor/mlp", "payload": {
            "layer_shapes": [[1, 2], [2], [2, 1], [1]],
            "w1": [[0.0, 0.0]], "b1": [0.0, 0.0], "w2": [[0.0], [float("nan")]], "b2": [0.0],
        }})),
    ],
    ids=[
        "not-json", "json-list", "no-payload", "no-payload-field", "report-no-mode",
        "knn-train-y-short", "knn-string-train-x", "knn-3d-train-x", "knn-k-too-large", "knn-fractional-k", "knn-bool-k",
        "mlp-w1-off-its-header", "mlp-layers-do-not-chain", "knn-two-columns-on-hetero6",
        "calibrator-not-a-regressor", "unknown-kind", "unhashable-kind",
        "table-nan-point", "table-repeated-point", "knn-nan-train-y", "knn-infinity-train-x", "mlp-nan-weight",
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


@pytest.mark.parametrize("flag", ["report --input", "--config", "calibrate --model"])
def test_unreadable_input_file_is_data_error(flag, tmp_path, capsys):
    # a directory stands for any file that cannot be read
    argv = {
        "report --input": ["report", "--input", str(tmp_path)],
        "--config": ["bench", "--data", "hetero6", "--cost", "1", "--config", str(tmp_path)],
        "calibrate --model": ["calibrate", "--data", "hetero6", "--model", str(tmp_path)],
    }[flag]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-theory", "report --input r.json"])
def test_config_on_a_command_that_does_not_take_it_is_usage_error(command, tmp_path, capsys):
    # refused by the command's parser before the file is looked for
    assert main([*command.split(), "--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--config" in err and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["bench", "--cost", "1", "--regressor", "oracle"],
    ["bench", "--cost", "1", "--rejector", "oracle"],
    ["fit", "--regressor", "oracle"],
], ids=["bench-regressor", "bench-rejector", "fit"])
def test_oracle_on_a_csv_is_usage_error(flags, tmp_path, capsys):
    # a CSV has no true mean or risk; refused before the file is read
    assert main([*flags, "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the oracle ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["fit", "calibrate", "verify-theory", "bench", "report"])
def test_unwritable_output_is_usage_error(command, tmp_path, capsys):
    """An --out that is an existing directory, or whose report file is one,
    is refused with one error line."""
    model, bench = tmp_path / "model.json", tmp_path / "bench"
    assert main(["fit", "--data", "hetero6", "--out", str(model)]) == 0
    assert main(["bench", "--data", "hetero6", "--cost", "1", "--repeats", "1",
                 "--synthetic-n", "200", "--out", str(bench)]) == 0
    blocked = tmp_path / "blocked"
    (blocked / "bench.json").mkdir(parents=True)
    (blocked / "bench.csv").mkdir()
    argv = {
        "fit": ["fit", "--data", "hetero6", "--out", str(blocked)],
        "calibrate": ["calibrate", "--data", "hetero6", "--model", str(model), "--out", str(blocked)],
        "verify-theory": ["verify-theory", "--trials", "10", "--out", str(blocked)],
        "bench": ["bench", "--data", "hetero6", "--cost", "1", "--repeats", "1",
                  "--synthetic-n", "200", "--out", str(blocked)],
        "report": ["report", "--input", str(bench / "bench.json"), "--out", str(blocked)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


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
        # passed is the sign of the margin, so the old (name, passed, margin) call is refused
        with pytest.raises(ValueError, match="margin must be a real number"):
            oracle.PropertyResult("some_bound", False, -1.0)
        failing = [oracle.PropertyResult("some_bound", -1.0)]
        monkeypatch.setattr(oracle, "run_verification_suite", lambda seed, trials: failing)
        out = tmp_path / "verify.json"
        assert main(["verify-theory", "--out", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert doc["passed"] is False and doc["properties"][0]["name"] == "some_bound"


_BOTH_MODES = pytest.mark.parametrize(
    "mode", [["--cost", "1.0"], ["--budget", "0.2"]], ids=["cost", "budget"]
)


class TestReport:
    def test_json_to_csv(self, tmp_path):
        rc = main([
            "bench", "--cost", "1.0", "--data", "hetero6",
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

    @pytest.mark.parametrize("index, field, value", [(0, "all_deferred", True), (1, "rwr_loss", -5.0)])
    def test_repeat_rwr_report_cannot_write_is_data_error(self, index, field, value, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        assert main(["bench", "--cost", "2.0", "--data", "hetero6", "--repeats", "2",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads(bench.read_text())
        doc["repeats"][index][field] = value
        # recompute the summary, so that only the repeat itself is wrong
        for name, loss in (("rwr", "rwr_loss"), ("machine", "machine_loss"), ("rej", "rejection_rate")):
            values = np.array([r[loss] for r in doc["repeats"]])
            doc.update({f"{name}_mean": float(values.mean()), f"{name}_std": float(values.std(ddof=1))})
        bench.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--input", str(bench), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and field in err
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
            "bench", "--cost", "1.0", "--data", "hetero6",
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

    @pytest.mark.parametrize("value", [True, 1])
    def test_cost_that_is_not_a_float_is_data_error(self, value, tmp_path, capsys):
        assert main([
            "bench", "--cost", "1.0", "--data", "hetero6",
            "--synthetic-n", "200", "--repeats", "2", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        doc["config"]["cost_c"] = doc["c_or_gamma"] = value
        (tmp_path / "bench.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--input", str(tmp_path / "bench.json"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and "cost_c" in err
        assert not (tmp_path / "bench.csv").exists()

    def test_label_the_echo_does_not_derive_is_data_error(self, tmp_path, capsys):
        assert main([
            "bench", "--cost", "1.0", "--data", "hetero6",
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
        assert out.returncode == 1  # neither --cost nor --budget
