"""Record a checkout's benchmark numbers in BENCH_<label>.json at the repo root.

    python scripts/bench_record.py --label L [--checkout PATH] [--against PATH --pairs N]

Two halves, both run in fresh processes with OpenBLAS, OpenMP and MKL on one
thread, from the measured checkout's own ``src`` and ``perfbench``:

* the matrix: four ``run_experiment`` configs (``MATRIX``), 10 repeats at seed
  0, each in a fresh ``python``.  Every run records its wall seconds, the
  process's peak RSS, and ``rwr_mean`` and ``rej_mean`` by ``repr``, so that
  the file also shows whether the results kept their bits;
* perfbench: ``perfbench/run.py`` at ``--trace 0`` and ``--trace 1`` on each
  workload of ``BENCHMARK.json``, each for its ``run_seconds``, keeping each
  run's last JSON line, its ``env`` line, its exit code and, on a traced run,
  the lookup names its tracer did not find (``parse_perfbench``).

The file also records the checkout's commit (and whether its tree differs
from it), a hash and the line count of ``src/selreg``, the Python, NumPy and
BLAS versions, nproc and the thread variables.

``--against PATH`` measures a second checkout in alternation: each of the N
pairs runs both halves on one checkout and then on the other, the first of
the two swapping from pair to pair, and one file is written for each:
``BENCH_<label>.json``, and ``BENCH_<commit>.json`` for PATH, named by its
short commit.  Make the two checkouts the same way and at paths of equal
length; two checkouts of one commit give an A/A run, which shows the noise of
the machine and of the way the checkouts were made.  Compare two files by
their per-pair lists, not by one median.
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
}
REPEATS = 10

# Runs one config in the child: the wall seconds of run_experiment alone, then
# the process's peak RSS (ru_maxrss is in KiB on Linux).
CHILD = """
import json, resource, sys, time
from selreg import CostConfig, KnnConfig, MlpConfig
from selreg.harness import ExperimentConfig, run_experiment
spec = json.loads(sys.argv[1])
cost = CostConfig.fixed_cost if spec["mode"] == "cost" else CostConfig.fixed_budget
cfg = ExperimentConfig(
    spec["source"], cost(spec["value"]),
    regressor=KnnConfig() if spec["regressor"] == "knn" else MlpConfig(),
    rejector="kernel", repeats=spec["repeats"], seed=0, synthetic_n=spec.get("synthetic_n", 1000),
)
t0 = time.perf_counter()
report = run_experiment(cfg)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "rwr_mean": repr(report.rwr_mean),
    "rej_mean": repr(report.rej_mean),
}))
"""


def run_config(checkout: Path, spec: dict, repeats: int = REPEATS) -> dict:
    """One matrix config in a fresh ``python`` on ``checkout``'s source."""
    arg = json.dumps(dict(spec, repeats=repeats))
    env = dict(os.environ, **THREADS, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, arg], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


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
    digest, lines = hashlib.sha256(), 0
    for path in sorted((checkout / "src" / "selreg").rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0" + text)
        lines += len(text.splitlines())
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "tree_differs_from_commit": None if status is None else bool(status),
        "src_selreg_sha256": digest.hexdigest(),
        "src_selreg_lines": lines,
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
        "matrix": {name: {"config": dict(spec, repeats=REPEATS), "runs": []} for name, spec in MATRIX.items()},
        "perfbench": {w: {"seconds": SECONDS, "trace0": [], "trace1": []} for w in WORKLOADS},
    }


def measure(record: dict, checkout: Path, pair: int) -> None:
    """Both halves once on ``checkout``, appended to ``record``."""
    for name, spec in MATRIX.items():
        run = run_config(checkout, spec)
        record["matrix"][name]["runs"].append(dict(run, pair=pair))
        print(f"  {record['label']:>8} {name:32s} {run['wall_s']:.3f} s  {run['peak_rss_mb']:.1f} MB", flush=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_perfbench(checkout, workload, trace)
            record["perfbench"][workload][f"trace{trace}"].append(dict(run, pair=pair))
            ok, code, missing = run["result"].get("correct"), run["exit_code"], run["missing"]
            print(f"  {record['label']:>8} {workload} trace {trace}: correct {ok}, exit {code},"
                  f" names not found {missing}", flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to measure (default: this one)")
    parser.add_argument("--against", type=Path, help="a second checkout, measured in alternation")
    parser.add_argument("--pairs", type=int, default=1, help="rounds of both halves per checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
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
