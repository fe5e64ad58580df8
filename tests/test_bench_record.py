"""scripts/bench_record.py: the matrix half on one shrunken config, the
kernel half on shrunken inputs, and the parsing of canned perfbench output."""

import hashlib
import importlib.util
import json
import textwrap
from pathlib import Path

import numpy as np

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
        "csv-mlp-fullbatch-budget0.2",
    }
    spec = dict(bench_record.MATRIX["smooth1d-n5000-knn-kernel-c0.5"], synthetic_n=400)
    run = bench_record.run_config(ROOT, spec, repeats=1, calls=2)
    assert set(run) == {"median_s", "call_s", "peak_rss_mb", "rwr_mean", "rej_mean"}
    # the timed calls follow an untimed one, in the same process
    assert len(run["call_s"]) == 2 and 0.0 < min(run["call_s"]) <= run["median_s"] <= max(run["call_s"]) < 2.0
    assert run["peak_rss_mb"] > 0.0
    # the results are kept by repr, so that two files can be compared bit for bit
    assert float(run["rwr_mean"]) >= 0.0 and 0.0 <= float(run["rej_mean"]) <= 1.0
    assert repr(float(run["rwr_mean"])) == run["rwr_mean"]


def test_the_kernel_half_times_each_input_and_hashes_its_result():
    from selreg import backend

    bench_record = load_script()
    assert set(bench_record.KERNELS) == {
        "uniform-d8", "csv-like-d3", "uniform-d8-m2^20", "uniform-d8-far-every8th", "lognormal-d8",
        "cluster-outlier1e3-d8", "cluster-outlier1e8-d8", "lattice-d8", "few-points-d8", "six-values-d1",
        "uniform-d1", "smooth1d-nw-at-most", "score-d8-nw-at-most", "lognormal-d8-nw-at-most",
    }
    for name, spec in bench_record.KERNELS.items():
        q, p, v, *_ = bench_record.kernel_input(spec)
        assert q.shape == (spec["nq"], spec["d"]) and p.shape == (spec["m"], spec["d"]) and v.shape == (spec["m"],)
        kernel = getattr(backend, spec.get("kernel", "knn_mean"))
        # shrunk, so that the script cannot rot unseen
        tiny = dict(spec, nq=8, m=300)
        run = bench_record.run_kernel(ROOT, tiny, calls=2)
        assert set(run) == {"median_s", "call_s", "sha256"}
        assert len(run["call_s"]) == 2 and 0.0 < run["median_s"] < 2.0
        # the hash is of the result's bytes, so two files show whether the bits held
        want = hashlib.sha256(kernel(*bench_record.kernel_input(tiny)).tobytes()).hexdigest()
        assert run["sha256"] == want, name
    # each nw_at_most input hashes the bits of the expression it stands for
    for name in ("smooth1d-nw-at-most", "score-d8-nw-at-most", "lognormal-d8-nw-at-most"):
        q, p, v, sigmas, c = bench_record.kernel_input(dict(bench_record.KERNELS[name], nq=8, m=300))
        want = np.maximum(backend.gaussian_nw(q, p, v, sigmas), 0.0) <= c
        assert backend.nw_at_most(q, p, v, sigmas, c).tobytes() == want.tobytes(), name


def test_a_record_names_what_it_measured():
    bench_record = load_script()
    record = bench_record.new_record("x", ROOT, None)
    env = record["env"]
    assert env["src_selreg_lines"] > 0 and len(env["src_selreg_sha256"]) == 64
    assert 0 < env["src_selreg_code_lines"] < env["src_selreg_lines"]
    by_file = env["src_selreg_code_lines_by_file"]
    assert set(by_file) == {p.relative_to(ROOT).as_posix() for p in (ROOT / "src" / "selreg").rglob("*.py")}
    assert sum(by_file.values()) == env["src_selreg_code_lines"]
    # code lines leave out docstrings, comments and blank lines, but not a
    # string that is no docstring, nor a statement after a docstring
    canned = textwrap.dedent('''\
        """A module
        docstring."""

        import os  # a comment
        # a comment line


        def f():
            """One line."""; x = 1
            return ("""a
            string""")
        ''')
    assert bench_record.code_lines(canned) == 5
    assert env["thread_variables"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert set(record["perfbench"]) == set(bench_record.WORKLOADS)
    assert all(m["config"]["repeats"] == 10 and m["calls"] == 9 for m in record["matrix"].values())
    assert all(k["input"] == bench_record.KERNELS[name] and k["calls"] == 9 for name, k in record["kernels"].items())
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
