"""Tests of the benchmark itself: span arithmetic, traced-run determinism,
output checks and the contract with BENCHMARK.json."""

import os

# single-threaded BLAS, as in the benchmark's own processes; set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from selreg import LossReport  # noqa: E402
from tracer import Span  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] counts once
        Span("a1", 2.0, 3.0, 1, 0),
        Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    totals = tracer.layer_totals(spans + [Span("a", 11.0, 11.5, None, 1)])
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(2.5)


def test_patched_restores_every_lookup_name():
    import selreg.backend
    import selreg.models

    before = (selreg.backend.knn_mean, vars(selreg.models.KnnRegressor)["predict"])
    tr = tracer.Tracer()
    with tr.patched():
        assert selreg.backend.knn_mean is not before[0]
    assert (selreg.backend.knn_mean, vars(selreg.models.KnnRegressor)["predict"]) == before
    assert tr.missing == []


def small(name):
    """The named workload shrunk to run in about a second."""
    w = workloads.make(name, seed=3)
    if name == "fit-knn-smooth1d":
        w.base = replace(w.base, synthetic_n=300, repeats=2)
    elif name == "fit-mlp-budget-csv":
        w.base = replace(w.base, regressor=replace(w.base.regressor, epochs=5), repeats=2)
    else:
        w = workloads.Score(name, seed=3, n_train=600, n_cal=200, block=64)
    w.setup()
    return w


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_agree_on_counts_and_choices(name):
    first, second = (worker.measure(small(name), 0, 0.0, True, seed=3) for _ in range(2))
    assert first["failed"] == second["failed"] == 0, first["errors"]
    counts = [
        {k: m["value"] for k, m in r["per_layer"].items() if m["unit"] == "count"} for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["models.predict.calls"] > 0
    assert first["selected"] == second["selected"]
    if name == "fit-knn-smooth1d":
        assert len(first["selected"]["k"]) == len(first["selected"]["sigma"]) == 2
    if name == "fit-mlp-budget-csv":
        assert len(first["selected"]["c_hat"]) == 2
        assert counts[0]["harness.load_csv.calls"] == 2


def test_checks_reject_a_report_that_breaks_the_loss_identity():
    good = LossReport(rwr_loss=0.5 * 0.2 + 0.5 * 1.0, machine_loss=0.2, rejection_rate=0.5, n_evaluated=10)
    assert workloads.identity_error(good, 1.0) is None
    assert workloads.identity_error(replace(good, rwr_loss=good.rwr_loss * (1 + 1e-6)), 1.0)
    lo, hi = workloads.budget_window(0.2, m=80, n_test=80, repeats=10)
    assert lo < 0.2 - 1 / 81 < 0.2 < hi < 0.35


def test_benchmark_json_declares_what_the_benchmark_measures():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    result = worker.measure(small("score-knn-d8"), 0, 0.0, True, seed=3)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: m["unit"] for k, m in result["per_layer"].items()
    }
    assert set(json.loads(worker.REFERENCE.read_text())) == set(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-knn-d8", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
