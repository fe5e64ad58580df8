"""One benchmark process: set up one workload, then measure it.

Started by run.py, which sets the BLAS thread variables before this process
imports NumPy.  The process sets up the workload, runs operations for about
``--seconds`` and prints one JSON object on its last line of output.

A workload whose first operation in a fresh process is much slower than the
rest (``warm_up``) runs it once untimed before timing starts.

Untraced (``--trace 0``): each operation is timed with nothing patched.
Traced (``--trace 1``): each operation runs untraced and then traced on the
same inputs.  The two outputs must agree, the spans give the per-layer
metrics, and the ratio of the two times is the tracing overhead.  The spans
are written to ``.perfbench_out/`` at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import selreg  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
OPS_PER_PART = 10_000  # process k of a run runs operations k * OPS_PER_PART, ...

UNITS = {"calls": "count", "pairs": "count", "rows": "count", "s": "s"}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy < 2 has no dict form
        blas = None
    src = ROOT / "src" / "selreg"
    lines = sum(len(p.read_text().splitlines()) for pat in ("*.py", "*.pyx") for p in src.rglob(pat))
    return {
        "backend": selreg.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_selreg_lines": lines,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed(w, x, errors: list[str], label: str):
    """Run one operation; return (output, seconds), output None if it raised."""
    t0 = time.perf_counter()
    try:
        out = w.run(x)
    except Exception:
        errors.append(f"{label} raised:\n{traceback.format_exc()}")
        out = None
    return out, time.perf_counter() - t0


def output_errors(w, x, out, label: str) -> list[str]:
    try:
        return [f"{label}: {e}" for e in w.check(x, out)]
    except Exception:
        return [f"{label} check raised:\n{traceback.format_exc()}"]


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(u, v) for u, v in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9)
    return False


def reference_errors(name: str, seed: int, got: dict) -> list[str]:
    """At the default seed the first traced operation must choose what
    reference.json records: k and accepted counts exactly, floats within
    1e-9 relative.  After an intended change of these values, copy
    ``selected`` from ``.perfbench_out/<workload>-seed0.json`` into it."""
    if seed != workloads.DEFAULT_SEED:
        return []
    want = json.loads(REFERENCE.read_text())[name]
    return [
        f"reference: {key} = {got.get(key)!r}, expected {want.get(key)!r}"
        for key in sorted(set(want) | set(got))
        if not _close(got.get(key), want.get(key))
    ]


def measure(w, first_op: int, seconds: float, trace: bool, seed: int) -> dict:
    """Run operations first_op, first_op + 1, ... for about ``seconds``."""
    tr = tracer.Tracer()
    errors: list[str] = []
    times, traced_times, paired_times = [], [], []
    work = heldout = failed = 0
    selected = None
    if w.warm_up:
        # untimed; its inputs then run again, timed and checked, as op first_op
        timed(w, w.inputs(first_op), errors, f"op {first_op} warm-up")
    start = time.perf_counter()
    rounds = []  # wall seconds per loop iteration, checks included
    # An operation starts only if a typical iteration still fits in `seconds`,
    # so a run ends near `seconds` however long one operation takes.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t_round = time.perf_counter()
        i = first_op + len(rounds)
        x = w.inputs(i)
        label = f"op {i}"
        op_errors: list[str] = []
        out, dt = timed(w, x, op_errors, label)
        times.append(dt)
        if out is not None:
            work += w.work(out)
            op_errors += output_errors(w, x, out, label)
        if trace and out is not None:
            with tr.patched(), tr.op(i, w.op_name):
                traced, dt = timed(w, x, op_errors, f"{label} traced")
            traced_times.append(dt)
            paired_times.append(times[-1])
            heldout += w.heldout_rows(out)
            if traced is not None and not w.same(out, traced):
                op_errors.append(f"{label}: traced output differs from untraced output")
            if traced is not None and i == 0:
                selected = w.selected(x, traced, tr.of_op(0))
                op_errors += reference_errors(w.name, seed, selected)
        failed += bool(op_errors)
        errors += op_errors
        rounds.append(time.perf_counter() - t_round)
    for e in errors:
        print(e, file=sys.stderr)

    result = {"times": times, "work": work, "failed": failed, "errors": errors[:10], "unit": w.unit}
    if trace and traced_times:
        result["per_layer"] = per_layer(tr, w.op_name, traced_times, paired_times, heldout)
        result["selected"] = selected
        result["missing_targets"] = sorted(set(tr.missing))
        result["spans"] = tr.to_json()
    return result


def per_layer(tr, op_name: str, traced_times, untraced_times, heldout: int) -> dict:
    """Per-layer metrics per traced operation, plus the tracer's own cost
    from each operation's untraced and traced times."""
    n = len(traced_times)
    totals = tracer.layer_totals(tr.spans)
    zero = {"calls": 0, "s": 0.0, "rows": 0, "pairs": 0}
    metrics = {}
    for layer in tracer.LAYERS:
        for fld in layer.fields:
            value = totals.get(layer.name, zero)[fld] / n
            if fld != "s" and value.is_integer():
                value = int(value)  # counts repeat exactly per operation
            metrics[f"{layer.name}.{fld}"] = {"value": value, "unit": UNITS[fld]}
    rows = totals.get("models.predict", zero)["rows"]
    metrics["models.predict.rows_per_heldout_row"] = {"value": rows / heldout, "unit": "ratio"}
    traced = sum(traced_times)
    layers = sum(t["s"] for name, t in totals.items() if name != op_name)
    metrics["trace.op_s"] = {"value": traced / n, "unit": "s"}
    metrics["trace.layer_share"] = {"value": layers / traced, "unit": "ratio"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (statistics.median(traced_times) / statistics.median(untraced_times) - 1.0),
        "unit": "%",
    }
    return metrics


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--part", type=int, required=True, help="this process's index within the run")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py started this process")
    args = p.parse_args()

    w = workloads.make(args.workload, args.seed)
    w.setup()
    setup_s = time.monotonic() - args.t0
    result = measure(w, args.part * OPS_PER_PART, args.seconds, bool(args.trace), args.seed)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    spans = result.pop("spans", None)
    if spans is not None:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**result, "spans": spans}, indent=1) + "\n")
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
