"""In-memory spans around calls into selreg, recorded from outside the package.

The tracer replaces each traced function at the name its caller looks up
(a module attribute such as ``selreg.harness.fit_knn_auto`` or a class
attribute such as ``KnnRegressor.predict``) with a wrapper that records a
span, and restores the original on exit.  Nothing under ``src/`` changes.

A span carries its name, start, end, parent span and operation id, plus the
counts measured at that boundary (``rows``, ``pairs``) and selected values
(``k``, ``sigma``, ``c_hat``).  A layer's self time is its span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator


def _pairs(args, out) -> dict:
    return {"pairs": len(args[0]) * len(args[1])}


def _rows(args, out) -> dict:
    return {"rows": len(args[1])}  # args[0] is self


@dataclass(frozen=True)
class Layer:
    """One traced layer: the span name, the lookup names it wraps, the fields
    reported for it per operation as "<name>.<field>", and an optional
    function (args, output) -> attributes recorded on each span."""

    name: str
    lookups: tuple[str, ...]  # "module.attr", or "module:Class.attr" for a class attribute
    fields: tuple[str, ...]
    count: Callable | None = None


# One layer may cover several lookup names: harness and select_bandwidth reach
# kernel_calibrate and empirical_rwr_loss through different modules.  The NumPy
# kernels call pairwise_sq_dists inside their own module, so
# backend.pairwise_sq_dists counts direct calls only.
LAYERS: tuple[Layer, ...] = (
    Layer("backend.knn_mean", ("selreg.backend.knn_mean",), ("calls", "pairs", "s"), _pairs),
    Layer("backend.gaussian_nw", ("selreg.backend.gaussian_nw",), ("calls", "pairs", "s"), _pairs),
    Layer("backend.pairwise_sq_dists", ("selreg.backend.pairwise_sq_dists",), ("calls", "pairs", "s"), _pairs),
    Layer("models.fit_knn_auto", ("selreg.harness.fit_knn_auto",), ("s",), lambda a, out: {"k": out.k}),
    Layer("models.fit_mlp", ("selreg.harness.fit_mlp",), ("s",)),
    Layer(
        "models.predict",
        ("selreg.models:KnnRegressor.predict", "selreg.models:MlpRegressor.predict"),
        ("calls", "rows"),
        _rows,
    ),
    Layer(
        "rejection.select_bandwidth",
        ("selreg.harness.select_bandwidth",),
        ("s",),
        lambda a, out: {"sigma": out.length_scale_sigma},
    ),
    Layer("rejection.kernel_calibrate", ("selreg.harness.kernel_calibrate", "selreg.rejection.kernel_calibrate"), ("s",)),
    Layer("rejection.estimate", ("selreg.rejection:KernelSmootherCalibrator.estimate",), ("calls", "rows", "s"), _rows),
    Layer(
        "rejection.conformal_threshold",
        ("selreg.harness.conformal_threshold",),
        ("s",),
        lambda a, out: {"c_hat": out.c_hat, "m": out.m},
    ),
    Layer("losses.empirical_rwr_loss", ("selreg.harness.empirical_rwr_loss", "selreg.losses.empirical_rwr_loss"), ("s",)),
    Layer("harness.load_csv", ("selreg.harness.load_csv",), ("calls", "s")),
    Layer("core.split_dataset", ("selreg.core.split_dataset",), ("s",)),
    Layer("core.standardize", ("selreg.harness.standardize",), ("s",)),
    Layer("tasks.sample", ("selreg.tasks:SmoothTask1D.sample",), ("s",)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``patched()`` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        sid = len(self.spans)
        s = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self._op)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int, name: str) -> Iterator[Span]:
        """Root span of one benchmark operation; nested spans inherit its id."""
        self._op = op_id
        try:
            with self.span(name) as s:
                yield s
        finally:
            self._op = None

    def wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if count is not None:
                    s.attrs.update(count(args, out))
            return out

        return traced

    @contextmanager
    def patched(self, layers=LAYERS) -> Iterator["Tracer"]:
        saved = []
        try:
            for layer in layers:
                for lookup in layer.lookups:
                    path, _, attr = lookup.rpartition(".")
                    module, _, cls = path.partition(":")
                    owner = importlib.import_module(module)
                    if cls:
                        owner = getattr(owner, cls, None)
                    orig = vars(owner).get(attr) if owner is not None else None
                    if orig is None:
                        # the program no longer has this lookup name; the layer reads 0
                        self.missing.append(lookup)
                        continue
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, self.wrap(orig, layer.name, layer.count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def of_op(self, op_id: int) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span.  ``parent`` indexes into ``spans``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed self seconds and summed counts."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "rows": 0, "pairs": 0})
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.name]
        t["calls"] += 1
        t["s"] += own
        t["rows"] += s.attrs.get("rows", 0)
        t["pairs"] += s.attrs.get("pairs", 0)
    return dict(totals)
