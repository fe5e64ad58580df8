"""scripts/bench_record.py: the matrix half on one shrunken config, and the
parsing of canned perfbench output."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_matrix_run_records_time_memory_and_results():
    bench_record = load_script()
    assert set(bench_record.MATRIX) == {
        "csv-knn-kernel-c0.2", "hetero6-knn-kernel-budget0.2", "smooth1d-n5000-knn-kernel-c0.5", "csv-mlp-kernel-c0.2",
    }
    spec = dict(bench_record.MATRIX["smooth1d-n5000-knn-kernel-c0.5"], synthetic_n=400)
    run = bench_record.run_config(ROOT, spec, repeats=1)
    assert set(run) == {"wall_s", "peak_rss_mb", "rwr_mean", "rej_mean"}
    assert 0.0 < run["wall_s"] < 2.0 and run["peak_rss_mb"] > 0.0
    # the results are kept by repr, so that two files can be compared bit for bit
    assert float(run["rwr_mean"]) >= 0.0 and 0.0 <= float(run["rej_mean"]) <= 1.0
    assert repr(float(run["rwr_mean"])) == run["rwr_mean"]


def test_a_record_names_what_it_measured():
    bench_record = load_script()
    record = bench_record.new_record("x", ROOT, None)
    env = record["env"]
    assert env["src_selreg_lines"] > 0 and len(env["src_selreg_sha256"]) == 64
    assert env["thread_variables"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert set(record["perfbench"]) == set(bench_record.WORKLOADS)
    assert all(m["config"]["repeats"] == 10 for m in record["matrix"].values())
    json.dumps(record)


# canned perfbench/run.py output, cut to the lines that parse_perfbench reads
ENV = {"backend": "numpy", "nproc": 2}
RESULT = {"correct": True, "attempted": 48, "failed": 0, "metrics": {}}


def traced(missing: str) -> str:
    return "\n".join([
        "workload score-knn-d8  seed 0  trace 1  backend numpy",
        "  operations                             48             0 failed, error rate 0",
        "  spans written to .perfbench_out/score-knn-d8-seed0.json; lookup names not found: " + missing,
        "env " + json.dumps(ENV),
        json.dumps(RESULT),
    ]) + "\n"


def test_a_perfbench_run_keeps_its_exit_code_and_the_names_its_tracer_missed():
    parse = load_script().parse_perfbench
    assert parse(traced("none"), 0) == {"result": RESULT, "env": ENV, "exit_code": 0, "missing": []}
    gone = ["selreg.backend.pairwise_sq_dists", "selreg.harness.kernel_calibrate"]
    assert parse(traced(str(gone)), 0)["missing"] == gone
    # an untraced run prints no such line
    untraced = "".join(line + "\n" for line in traced("none").splitlines() if "lookup names" not in line)
    assert parse(untraced, 0) == {"result": RESULT, "env": ENV, "exit_code": 0, "missing": None}


def test_a_perfbench_run_that_fails_keeps_its_exit_code():
    parse = load_script().parse_perfbench
    failed = parse("perfbench: workload nothing is not in BENCHMARK.json\n", 1)
    assert failed == {
        "result": {"error": "perfbench exited 1 without a JSON line"}, "env": None, "exit_code": 1, "missing": None,
    }
    assert parse("", 2)["result"] == {"error": "perfbench exited 2 without a JSON line"}
