"""Record a checkout's benchmark numbers in BENCH_<commit>.json at the repo root.

    python scripts/bench_record.py [--label L] [--checkout PATH] [--against PATH --pairs N]

The matrix, perfbench and kernel halves, all run in fresh processes with
OpenBLAS, OpenMP and MKL on one thread, from the measured checkout's own
``src`` and ``perfbench``:

* the matrix: five ``run_experiment`` configs (``MATRIX``), 10 repeats at
  seed 0, each in a fresh ``python``, timed in process: the median of
  ``CALLS`` calls after one untimed warm-up call, which pays for the
  imports' first use, and each call's seconds.  Every run also records the
  process's peak RSS, and ``rwr_mean`` and ``rej_mean`` by ``repr``, so that
  the file also shows whether the results kept their bits;
* perfbench: ``perfbench/run.py`` at ``--trace 0`` and ``--trace 1`` on each
  workload of ``BENCHMARK.json``, each for its ``run_seconds``, keeping each
  run's last JSON line, its ``env`` line, its exit code and, on a traced run,
  the lookup names its tracer did not find (``parse_perfbench``);
* the kernels: ``backend.knn_mean`` on each input of ``KERNELS`` but
  three, and ``backend.nw_at_most`` on those, one fresh ``python`` per
  input, timed in process: the median of ``CALLS`` calls after one untimed
  warm-up call, each call's seconds, and a sha256 of the result's bytes, so
  that two files show whether the bits held.  Each kNN input reaches one
  tier of the kNN search.  The ``nw_at_most`` inputs are bandwidth
  selection's decision on fit-knn-smooth1d's shape, a kernel rejector's
  decision on score-knn-d8's shape, which the float32 bracket settles, and
  one it cannot settle.  This script builds the inputs (``kernel_input``),
  so both checkouts get the same ones.

The file also records the checkout's commit (and whether its tree differs
from it), a hash of ``src/selreg`` and its count of lines, in all and of code
(``code_lines``), its code lines file by file, the Python, NumPy and BLAS
versions, nproc and the thread variables.

The file is named by the checkout's short commit, unless ``--label`` names
it; a checkout whose ``src`` or ``perfbench`` differs from its commit needs a
label.  ``--against PATH`` measures a second checkout in alternation: each of
the N pairs runs the halves on one checkout and then on the other, the first
of the two swapping from pair to pair, and one file is written for each, the
second named by PATH's short commit.  Make the two checkouts the same way and
at paths of equal length; two checkouts of one commit give an A/A run, which
shows the noise of the machine and of the way the checkouts were made.
Compare two files by their per-pair lists, not by one median.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import subprocess
import sys
import tokenize
from io import StringIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]  # per perfbench run
BUNDLED_CSV = "src/selreg/data/hetero_demand.csv"  # relative to the checkout
MISSING = "lookup names not found: "  # how run.py prints the tracer's misses

# name -> the run_experiment config, as the child process builds it
MATRIX = {
    "csv-knn-kernel-c0.2": {"source": BUNDLED_CSV, "mode": "cost", "value": 0.2, "regressor": "knn"},
    "hetero6-knn-kernel-budget0.2": {"source": "hetero6", "mode": "budget", "value": 0.2, "regressor": "knn"},
    "smooth1d-n5000-knn-kernel-c0.5": {
        "source": "smooth1d", "mode": "cost", "value": 0.5, "regressor": "knn", "synthetic_n": 5000,
    },
    "csv-mlp-kernel-c0.2": {"source": BUNDLED_CSV, "mode": "cost", "value": 0.2, "regressor": "mlp"},
    # the CSV's 560 training rows in one batch: fit-mlp-budget-csv's
    # full-batch path, on data that every checkout holds
    "csv-mlp-fullbatch-budget0.2": {
        "source": BUNDLED_CSV, "mode": "budget", "value": 0.2, "regressor": "mlp", "batch_size": 800,
    },
}
REPEATS = 10
CALLS = 9  # timed calls per matrix config and per kernel input

# name -> a knn_mean input, or an input of the kernel it names, which
# kernel_input draws at seed 0; the comments name the tier of the kNN search
# that settles its rows
DEFAULT_K_GRID = [5, 10, 15, 20, 30, 50, 70, 100, 150]  # as in selreg.models
DEFAULT_SIGMA_GRID = [10.0**j for j in range(-3, 4)]  # as in selreg.core
KERNELS = {
    # the float32 candidate pass settles every row
    "uniform-d8": {"data": "uniform", "nq": 512, "m": 8000, "d": 8, "ks": [20]},
    "csv-like-d3": {"data": "normal", "nq": 160, "m": 560, "d": 3, "ks": DEFAULT_K_GRID},
    # past 2**16 points the candidates are picked in tiles of 2**16
    "uniform-d8-m2^20": {"data": "uniform", "nq": 64, "m": 2**20, "d": 8, "ks": [20]},
    # the float32 pass leaves rows to the full distance row
    # (here every 8th query, whose first coordinate, 1e19, has a square that
    # fails S, the pass's overflow test)
    "uniform-d8-far-every8th": {"data": "uniform", "nq": 512, "m": 8000, "d": 8, "ks": [20], "far_every": 8},
    "lognormal-d8": {"data": "lognormal", "nq": 200, "m": 2000, "d": 8, "ks": [20]},
    "cluster-outlier1e3-d8": {"data": "cluster", "outlier": 1e3, "nq": 512, "m": 8000, "d": 8, "ks": [20]},
    # the full distance row takes every row
    "cluster-outlier1e8-d8": {"data": "cluster", "outlier": 1e8, "nq": 512, "m": 8000, "d": 8, "ks": [20]},
    "lattice-d8": {"data": "lattice", "nq": 512, "m": 8000, "d": 8, "ks": [20]},
    "few-points-d8": {"data": "normal", "nq": 512, "m": 250, "d": 8, "ks": [150]},
    # d = 1 on six values, as on hetero6: the window settles no row
    "six-values-d1": {"data": "six_values", "nq": 200, "m": 600, "d": 1, "ks": DEFAULT_K_GRID},
    # d = 1 as in fit-knn-smooth1d's k search: the window settles every row
    "uniform-d1": {"data": "uniform", "nq": 1000, "m": 3500, "d": 1, "ks": DEFAULT_K_GRID},
    # select_bandwidth's decisions in fit-knn-smooth1d: z-scored uniform
    # points, squared errors as the values, the default grid and c = 0.5
    "smooth1d-nw-at-most": {
        "kernel": "nw_at_most", "data": "zscored_uniform", "nq": 500, "m": 1000, "d": 1,
        "sigmas": DEFAULT_SIGMA_GRID, "c": 0.5,
    },
    # a kernel rejector's decisions in score-knn-d8's shape, c near the
    # median estimate: the float32 bracket settles nearly every row
    "score-d8-nw-at-most": {
        "kernel": "nw_at_most", "data": "uniform", "nq": 512, "m": 2000, "d": 8, "sigmas": [1.0], "c": 1.0,
    },
    # heavy tails at a small sigma: the bracket settles no row
    "lognormal-d8-nw-at-most": {
        "kernel": "nw_at_most", "data": "lognormal", "nq": 512, "m": 2000, "d": 8, "sigmas": [1e-3], "c": 1.0,
    },
}

# Times one matrix config in the child: argv holds the config and the number
# of timed run_experiment calls; it prints their seconds, then the process's
# peak RSS (ru_maxrss is in KiB on Linux) and the untimed call's results.
CHILD = """
import json, resource, statistics, sys, time
from selreg import CostConfig, KnnConfig, MlpConfig
from selreg.harness import ExperimentConfig, run_experiment
spec = json.loads(sys.argv[1])
cost = CostConfig.fixed_cost if spec["mode"] == "cost" else CostConfig.fixed_budget
mlp = MlpConfig(batch_size=spec.get("batch_size", MlpConfig.batch_size))
cfg = ExperimentConfig(
    spec["source"], cost(spec["value"]),
    regressor=KnnConfig() if spec["regressor"] == "knn" else mlp,
    rejector="kernel", repeats=spec["repeats"], seed=0, synthetic_n=spec.get("synthetic_n", 1000),
)
report = run_experiment(cfg)
seconds = []
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    run_experiment(cfg)
    seconds.append(time.perf_counter() - t0)
print(json.dumps({
    "median_s": statistics.median(seconds),
    "call_s": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "rwr_mean": repr(report.rwr_mean),
    "rej_mean": repr(report.rej_mean),
}))
"""


# Times one kernel input in the child: argv holds the input's spec, the number
# of timed calls and the directory of this script, whose kernel_input builds it.
KERNEL_CHILD = """
import hashlib, json, statistics, sys, time
sys.path.insert(0, sys.argv[3])
from bench_record import kernel_input
from selreg import backend
spec = json.loads(sys.argv[1])
args = kernel_input(spec)
call = getattr(backend, spec.get("kernel", "knn_mean"))
out = call(*args)
seconds = []
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    call(*args)
    seconds.append(time.perf_counter() - t0)
print(json.dumps({
    "median_s": statistics.median(seconds),
    "call_s": seconds,
    "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
}))
"""


def kernel_input(spec: dict):
    """The ``knn_mean`` arguments ``(queries, points, values, ks)`` that a
    ``KERNELS`` spec names, drawn at seed 0, or for an ``nw_at_most`` spec
    ``(queries, centers, values, sigmas, c)``; with ``far_every`` j, the
    first coordinate of every jth query is 1e19."""
    rng = np.random.default_rng(0)
    data, nq, m, d = spec["data"], spec["nq"], spec["m"], spec["d"]
    if data == "uniform":  # as score-knn-d8 draws its points
        q, p = rng.uniform(-1.0, 1.0, size=(nq, d)), rng.uniform(-1.0, 1.0, size=(m, d))
    elif data == "zscored_uniform":  # as smooth1d's points after standardize
        q, p = rng.uniform(-3**0.5, 3**0.5, size=(nq, d)), rng.uniform(-3**0.5, 3**0.5, size=(m, d))
    elif data == "lognormal":  # z-scored and heavy-tailed
        z = rng.lognormal(sigma=2.0, size=(nq + m, d))
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        q, p = z[:nq], z[nq:]
    elif data == "cluster":  # a cluster at scale 1e-2 and one point far out
        q, p = rng.normal(size=(nq, d)) * 1e-2, rng.normal(size=(m, d)) * 1e-2
        p[7] = spec["outlier"]
    elif data == "six_values":  # ties on every row
        q, p = rng.integers(-1, 7, size=(nq, d)) * 1.0, rng.integers(0, 6, size=(m, d)) * 1.0
    else:  # normal, or rounded to the integer lattice
        q, p = rng.normal(size=(nq, d)), rng.normal(size=(m, d))
        if data == "lattice":
            q, p = np.round(q), np.round(p)
    if "far_every" in spec:
        q[:: spec["far_every"], 0] = 1e19
    if spec.get("kernel") == "nw_at_most":
        return q, p, rng.normal(size=m) ** 2, tuple(spec["sigmas"]), spec["c"]
    return q, p, rng.normal(size=m), tuple(spec["ks"])


def run_child(checkout: Path, code: str, *args: str) -> dict:
    """The last line of ``code``, run in a fresh ``python`` on ``checkout``'s
    source with ``args`` as its argv, read as JSON."""
    env = dict(os.environ, **THREADS, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_kernel(checkout: Path, spec: dict, calls: int = CALLS) -> dict:
    """One kernel input, timed in a fresh ``python`` on ``checkout``'s source."""
    return run_child(checkout, KERNEL_CHILD, json.dumps(spec), str(calls), str(Path(__file__).resolve().parent))


def run_config(checkout: Path, spec: dict, repeats: int = REPEATS, calls: int = CALLS) -> dict:
    """One matrix config, timed in a fresh ``python`` on ``checkout``'s source."""
    return run_child(checkout, CHILD, json.dumps(dict(spec, repeats=repeats)), str(calls))


def parse_perfbench(stdout: str, exit_code: int) -> dict:
    """What one ``perfbench/run.py`` run printed: its last JSON line as
    ``result``, its ``env`` line, its exit code, and the lookup names that
    its tracer did not find as ``missing``: a list, empty where run.py
    prints ``none``, and None on an untraced run, which prints no such
    line.  A traced name that loses its last caller shows up there."""
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    found = next((line.split(MISSING, 1)[1] for line in lines if MISSING in line), None)
    missing = None if found is None else [] if found == "none" else ast.literal_eval(found)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"perfbench exited {exit_code} without a JSON line"}
    return {"result": result, "env": env, "exit_code": exit_code, "missing": missing}


def run_perfbench(checkout: Path, workload: str, trace: int) -> dict:
    """The checkout's own perfbench on one workload at seed 0, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, env=dict(os.environ, **THREADS), stdout=subprocess.PIPE, text=True)
    return parse_perfbench(done.stdout, done.returncode)


def code_lines(source: str) -> int:
    """The lines of a Python source that hold a token outside docstrings and
    comments, so that deleting a docstring does not read as less code."""
    docstrings = [
        (node.body[0].lineno, node.body[0].end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    ]
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(StringIO(source).readline):
        if tok.type in skip or (
            tok.type == tokenize.STRING and any(a <= tok.start[0] and tok.end[0] <= b for a, b in docstrings)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def environment(checkout: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy < 2 has no dict form
        blas = None

    def git(*args: str) -> str | None:
        done = subprocess.run(["git", "-C", str(checkout), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src", "perfbench")
    digest, lines, code = hashlib.sha256(), 0, {}
    for path in sorted((checkout / "src" / "selreg").rglob("*.py")):
        text, name = path.read_bytes(), path.relative_to(checkout).as_posix()
        digest.update(name.encode() + b"\0" + text)
        lines += len(text.splitlines())
        code[name] = code_lines(text.decode())
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": None if status is None else bool(status),
        "src_selreg_sha256": digest.hexdigest(),
        "src_selreg_lines": lines,
        "src_selreg_code_lines": sum(code.values()),
        "src_selreg_code_lines_by_file": code,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_variables": THREADS,
    }


def new_record(label: str, checkout: Path, against: str | None) -> dict:
    return {
        "label": label,
        "against": against,
        "env": environment(checkout),
        "matrix": {name: {"config": dict(spec, repeats=REPEATS), "calls": CALLS, "runs": []}
                   for name, spec in MATRIX.items()},
        "perfbench": {w: {"seconds": SECONDS, "trace0": [], "trace1": []} for w in WORKLOADS},
        "kernels": {name: {"input": spec, "calls": CALLS, "runs": []} for name, spec in KERNELS.items()},
    }


def measure(record: dict, checkout: Path, pair: int) -> None:
    """Each half once on ``checkout``, appended to ``record``."""
    for name, spec in MATRIX.items():
        run = run_config(checkout, spec)
        record["matrix"][name]["runs"].append(dict(run, pair=pair))
        print(f"  {record['label']:>8} {name:32s} {run['median_s']:.3f} s  {run['peak_rss_mb']:.1f} MB", flush=True)
    for name, spec in KERNELS.items():
        run = run_kernel(checkout, spec)
        record["kernels"][name]["runs"].append(dict(run, pair=pair))
        print(f"  {record['label']:>8} {name:32s} {run['median_s'] * 1e3:8.2f} ms  {run['sha256'][:12]}", flush=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_perfbench(checkout, workload, trace)
            record["perfbench"][workload][f"trace{trace}"].append(dict(run, pair=pair))
            ok, code, missing = run["result"].get("correct"), run["exit_code"], run["missing"]
            print(f"  {record['label']:>8} {workload} trace {trace}: correct {ok}, exit {code},"
                  f" names not found {missing}", flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json at the repo root (default: the short commit)")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to measure (default: this one)")
    parser.add_argument("--against", type=Path, help="a second checkout, measured in alternation")
    parser.add_argument("--pairs", type=int, default=1, help="rounds of the halves per checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.label is None:
        env = environment(args.checkout.resolve())
        if not env["git_commit"] or env["tree_differs_from_commit"]:
            parser.error("--label is needed where the checkout's src or perfbench differs from a commit")
        args.label = env["git_commit"][:7]
    sides = [(args.label, args.checkout.resolve())]
    if args.against is not None:
        against = args.against.resolve()
        label = (environment(against)["git_commit"] or "")[:7]
        if label in ("", args.label):
            parser.error(f"--against needs a git checkout whose short commit is not the label {args.label!r}")
        sides.append((label, against))
    records = [new_record(label, path, sides[1 - i][0] if len(sides) == 2 else None)
               for i, (label, path) in enumerate(sides)]
    for pair in range(args.pairs):
        order = range(len(sides)) if pair % 2 == 0 else reversed(range(len(sides)))
        for i in order:
            print(f"pair {pair + 1}/{args.pairs}: {sides[i][0]}", flush=True)
            measure(records[i], sides[i][1], pair)
    for record in records:
        out = ROOT / f"BENCH_{record['label']}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
