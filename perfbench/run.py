"""End-to-end benchmark of selreg's fitting and scoring.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each call measures one workload in fresh
processes of its own (worker.py) with BLAS, OpenMP and MKL pinned to one
thread, and prints every metric with its unit; the last line of output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  BENCHMARK.json at the root names the workloads and metrics.

Workloads (inputs come from ``--seed`` only):

* ``fit-knn-smooth1d``: ``run_experiment`` on smooth1d, n=5000, kNN with
  k chosen on a 9-entry grid, kernel rejector with sigma chosen on a
  7-entry grid, fixed cost c=0.5, 3 repeats.  The heavy path: nearly all
  of it is ``backend.knn_mean``.
* ``fit-mlp-budget-csv``: ``run_experiment`` on an 8000-row CSV drawn at
  the seed by the generator of the bundled hetero_demand.csv, an MLP
  trained full-batch (otherwise the default MlpConfig), kernel rejector,
  budget gamma=0.2, 1 repeat per operation, after one untimed warm-up
  operation per process.  The only workload that bypasses kNN, and the
  only one on the budget path and on CSV parsing, which every repeat
  redoes; no bandwidth selection.
* ``score-knn-d8``: a kNN regressor (k=20) on 8000 rows and a kernel
  smoother (sigma=1) on 2000 held-out rows, both d=8, are fitted during
  set-up; each operation scores one 512-row block with ``predict`` and
  ``accept``.  The deployment use of the kernels, with no selection.

End-to-end metrics (``--trace 0``):

* ``setup_s``: from the start of a worker process to the end of its
  set-up, before any operation (interpreter start and imports, writing the
  generated CSV on fit-mlp-budget-csv, and on score-knn-d8 generating the
  data and fitting the pair); the median over the run's three worker
  processes.
* ``op_s.p50``: median seconds per operation, i.e. per ``run_experiment``
  call (experiment_s.p50) or per 512-row block (block_s.p50).
* ``throughput``: repeats per second of timed work on the fit workloads
  (repeats_per_s), query rows per second on score-knn-d8 (rows_per_s).
* ``peak_rss_mb``: the largest ``ru_maxrss`` of the run's worker processes.

The error rate is ``failed / attempted`` on the result line.  An operation
fails when it raises or an output check fails.

Per-layer metrics (``--trace 1``) are per traced operation: calls, counted
rows and query-by-point pairs, and self seconds of each traced selreg
function (see tracer.py), plus the tracer's overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# An untraced run is split over this many fresh worker processes in turn.  Each
# sets up the workload (setup_s is their median) and measures for a share of
# --seconds; the operation times of all of them are pooled, so that no single
# process's memory layout sets the run's medians.
PARTS = 3
DEADLINE_S = 170.0
E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "throughput": "1/s", "peak_rss_mb": "MB"}
# names of the same metrics in the issue that defined the benchmark, per work unit
ALIASES = {
    "repeat": {"op_s.p50": "experiment_s.p50", "op_s.p90": "experiment_s.p90", "throughput": "repeats_per_s"},
    "row": {"op_s.p50": "block_s.p50", "op_s.p90": "block_s.p90", "throughput": "rows_per_s"},
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_worker(args, part: int, seconds: float, deadline: float) -> dict:
    """Run one worker.py process to completion; return its last output line."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        "perfbench/worker.py",
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={seconds}",
        f"--trace={args.trace}",
        f"--part={part}",
        f"--t0={t0!r}",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        fail(f"worker did not finish within {DEADLINE_S:.0f} s")
    if done.returncode != 0:
        fail(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    t_start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 10**12:
        p.error("--seed must lie in [0, 1e12)")
    if not (ROOT / "src" / "selreg" / "__init__.py").is_file():
        fail(f"no selreg sources under {ROOT / 'src'}; run from a checkout of the repository")

    # a traced run needs one process: its spans and counts do not depend on layout
    parts = 1 if args.trace else PARTS
    deadline = t_start + DEADLINE_S
    results = [run_worker(args, k, args.seconds / parts, deadline) for k in range(parts)]
    last = results[-1]
    times = [t for r in results for t in r["times"]]
    failed = sum(r["failed"] for r in results)
    setups = [r["setup_s"] for r in results]
    aliases = ALIASES[last["unit"]]
    if args.trace:
        if "per_layer" not in last:
            fail("no traced operation completed")
        declared, measured = spec["per_layer"], last["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(times),
            "throughput": sum(r["work"] for r in results) / sum(times),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        measured = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    for m in declared:
        if measured.get(m["name"], {}).get("unit") != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] is not measured as declared in BENCHMARK.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  backend {last['env']['backend']}")
    for name, m in measured.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:38s} {m['value']:<14.6g} {m['unit']}{alias}")
    if len(times) >= 100:  # a tail is quoted only with at least 10 samples beyond it
        print(f"  {'op_s.p90':38s} {statistics.quantiles(times, n=10)[-1]:<14.6g} s  ({aliases['op_s.p90']})")
    print(f"  {'operations':38s} {len(times):<14d} {failed} failed, error rate {failed / len(times):.3g}")
    print(f"  setup_s per process: {', '.join(f'{s:.4f}' for s in setups)}")
    if args.trace:
        print(f"  spans written to {last['trace_file']}; lookup names not found: {last['missing_targets'] or 'none'}")
    print("env " + json.dumps(last["env"], sort_keys=True))
    for r in results:
        for e in r["errors"]:
            print("error: " + e.splitlines()[0])
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {m["name"]: measured[m["name"]] for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
