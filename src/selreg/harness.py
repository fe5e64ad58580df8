"""Experiment orchestration: data ingestion, repeated fixed-cost and
fixed-budget runs, and report emission.

One repeat runs four stages, which the CLI's ``fit`` and ``calibrate`` call
too: ``materialize``, ``fit_regressor``, then ``cost_calibrator`` or
``budget_threshold``.  Each stage takes only the settings it reads, and
``ExperimentConfig`` refuses a setting that its run would not read, so a
config echo names exactly what ran.

Each held-out row is predicted once per repeat at most, with one
exception.  In cost mode ``fit_regressor`` hands its predictions of the
validation split to ``cost_calibrator``, which predicts nothing: kNN's are
the chosen k's row of its k grid.  In budget mode only the half of the
split that the calibrator fits on is predicted, but kNN predicts it twice:
once for its k grid in ``fit_regressor``, and once more at the chosen k
when ``budget_threshold`` takes its losses.  Handing those predictions over
as cost mode does waits for ROADMAP direction 7, as the benchmark traces
``kernel_calibrate``, the call that predicts them again.

Per-repeat seeds are master_seed + repeat_index on named streams: the
repeat seed draws the synthetic sample, permutes the split and initialises
the MLP, so every table is exactly reproducible from its config echo.  CSV
features and targets are z-scored on train statistics so that deferral
costs are comparable across datasets; synthetic tasks are left in their
native units because their population optima are stated there.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import core
from .backend import median_sq_dist
from .core import (
    Calibrator,
    CostConfig,
    CostMode,
    DEFAULT_SIGMA_GRID,
    DataError,
    Dataset,
    KernelSpec,
    RngHandle,
    STREAM_SAMPLE,
    SelregError,
    SplitSpec,
    TableLookupRegressor,
    _require_int,
    read_text,
    sigma_grid,
    standardize,
)
from .losses import LossReport, empirical_rwr_loss
from .models import KnnConfig, MlpConfig, fit_knn_auto, fit_mlp
from .rejection import (
    ConformalThreshold,
    KernelSmootherCalibrator,
    conformal_threshold,
    induce_rejector,
    kernel_calibrate,
    linear_calibrate,
    select_bandwidth,
)
from .tasks import CondMeanRegressor, DiscreteTask, OracleRiskCalibrator, SyntheticTask, get_task, task_names

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "load_csv",
    "check_source",
    "materialize",
    "fit_regressor",
    "cost_calibrator",
    "budget_threshold",
    "run_experiment",
    "emit_report",
    "write_output",
    "bundled_data_path",
]

log = logging.getLogger(__name__)

REJECTOR_KINDS = ("kernel", "loss-linear", "oracle")


def load_csv(path: str | Path, target_column: str) -> Dataset:
    """Parse a headered numeric CSV into a Dataset.

    Rows containing non-numeric or missing cells are dropped with a
    row-indexed diagnostic on the module logger; structural problems
    (no header, a repeated column name, wrong field count) raise
    DataError.  Blank lines are skipped.  The file is read as UTF-8, with
    or without a byte-order mark.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"{path}: header repeats column(s) {repeated}")
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not in header {header}")
    rows = []
    n_dropped = 0
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}")
        values = [_finite(cell) for cell in row]
        if None in values:
            bad = header[values.index(None)]
            log.warning("%s: dropping row %d (non-numeric cell in column %r)", path, row_no, bad)
            n_dropped += 1
            continue
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no usable rows ({n_dropped} dropped)")
    table = np.array(rows)
    t_idx = header.index(target_column)
    return Dataset(np.delete(table, t_idx, axis=1), table[:, t_idx])


def _finite(cell: str) -> float | None:
    """The cell's value, or None if it is not a finite number."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def bundled_data_path(name: str) -> Path:
    """Path of a CSV shipped inside the package (tests never touch the
    network)."""
    p = Path(__file__).parent / "data" / name
    if not p.exists():
        raise DataError(f"no bundled dataset named {name!r}")
    return p


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmark row.

    dataset_source is a synthetic task name ("hetero6", "smooth1d"), which
    draws ``synthetic_n`` rows, or else a CSV path, whose ``target_column``
    is the target.  The regressor is a KnnConfig (k picked from its
    ``k_grid``), an MlpConfig, or "oracle" (the task's true mean).  The
    rejector always learns from the validation split, disjoint from the
    training rows; only the kernel rejector in cost mode searches
    ``sigma_grid``.  The repeats run in turn: ``workers`` must be 1, and
    stays in the echo only so that stored reports keep loading.

    A value that the run would not read, or could not use, is refused with
    ValueError rather than echoed.
    """

    dataset_source: str
    cost_config: CostConfig
    regressor: KnnConfig | MlpConfig | str = field(default_factory=KnnConfig)
    rejector: str = "kernel"
    split: SplitSpec = field(default_factory=SplitSpec)
    repeats: int = 10
    seed: int = 0
    target_column: str = "target"
    synthetic_n: int = 1000
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("seed", "repeats", "synthetic_n", "workers"):
            _require_int(name, getattr(self, name))
        if min(self.repeats, self.synthetic_n) < 1:
            raise ValueError("repeats and synthetic_n must be >= 1")
        if self.workers != 1:
            raise ValueError(f"workers={self.workers}: the repeats run in turn, so workers must be 1")
        for seed in (self.seed, self.seed + self.repeats - 1):
            RngHandle(seed)  # every repeat seed fits the RNG's 64 bits
        check_source(self.dataset_source, self.target_column, self.synthetic_n, self.regressor, self.rejector)
        if self.rejector not in REJECTOR_KINDS:
            raise ValueError(f"rejector must be one of {REJECTOR_KINDS}")
        if not isinstance(self.regressor, (KnnConfig, MlpConfig)) and self.regressor != "oracle":
            raise ValueError(f'regressor must be a KnnConfig, an MlpConfig or "oracle", got {self.regressor!r}')
        if isinstance(self.regressor, KnnConfig) and self.regressor.k != KnnConfig.k:
            raise ValueError(f"KnnConfig(k={self.regressor.k}): the run picks k from k_grid; "
                             f"write k_grid=({self.regressor.k},) for a fixed k")
        object.__setattr__(self, "sigma_grid", sigma_grid(self.sigma_grid))
        searched = self.rejector == "kernel" and self.cost_config.mode is CostMode.FIXED_COST
        if self.sigma_grid != DEFAULT_SIGMA_GRID and not searched:
            raise ValueError(f"sigma_grid is searched only by the kernel rejector in cost mode, "
                             f"not by {self.rejector} in {self.cost_config.mode.value} mode")

    def method_name(self) -> str:
        return f"{self.to_dict()['regressor']['kind']}+{self.rejector}"

    def repeat_seeds(self) -> tuple[int, ...]:
        return tuple(self.seed + i for i in range(self.repeats))

    def to_dict(self) -> dict:
        reg = self.regressor
        if isinstance(reg, KnnConfig):
            reg_doc = {"kind": "knn", "k_grid": list(reg.k_grid)}
        elif isinstance(reg, MlpConfig):
            reg_doc = {"kind": "mlp", **asdict(reg)}
        else:
            reg_doc = {"kind": reg}
        return {
            "dataset_source": self.dataset_source,
            "mode": self.cost_config.mode.value,
            "cost_c": self.cost_config.cost_c,
            "budget_gamma": self.cost_config.budget_gamma,
            "regressor": reg_doc,
            "rejector": self.rejector,
            "split": asdict(self.split),
            "repeats": self.repeats,
            "seed": self.seed,
            "target_column": self.target_column,
            "synthetic_n": self.synthetic_n,
            "sigma_grid": list(self.sigma_grid),
            "workers": self.workers,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """The config whose ``to_dict`` is ``doc``; any other document is
        refused with ValueError."""
        try:
            reg_doc = dict(doc["regressor"])
            kind = reg_doc.pop("kind")
            mode = CostMode(doc["mode"])
            kw = {k: v for k, v in doc.items() if k not in ("mode", "cost_c", "budget_gamma")}
            field = "cost_c" if mode is CostMode.FIXED_COST else "budget_gamma"
            try:
                cost_config = CostConfig(mode, doc[field])
            except ValueError as exc:
                raise ValueError(f"config echo garbles {field}: {exc}") from None
            kw.update(
                cost_config=cost_config,
                regressor=KnnConfig(**reg_doc) if kind == "knn" else MlpConfig(**reg_doc) if kind == "mlp" else kind,
                split=SplitSpec(**doc["split"]),
            )
            cfg = ExperimentConfig(**kw)
            differ = _json_differ(cfg.to_dict(), doc)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"config echo lacks or garbles a field: {exc}") from None
        if differ:
            raise ValueError(f"config echo differs at {differ} from the one its run writes")
        return cfg


def check_source(source: str, target_column: str, synthetic_n: int = ExperimentConfig.synthetic_n,
                 regressor=None, rejector: str | None = None) -> None:
    """Refuse, with ValueError, a target column other than the default on a
    synthetic task, or on a CSV a sample size other than the default or an
    oracle stage: the source would not read the first two, and has no true
    mean or risk for the oracle."""
    if source in task_names():
        if target_column != ExperimentConfig.target_column:
            raise ValueError(f"target_column is read only from a CSV, not from task {source!r}")
        return
    if synthetic_n != ExperimentConfig.synthetic_n:
        raise ValueError(f"synthetic_n is read only by a synthetic task, not from CSV {source!r}")
    for stage, kind in (("regressor", regressor), ("rejector", rejector)):
        if kind == "oracle":
            raise ValueError(f"the oracle {stage} needs a synthetic task source, not CSV {source!r}")


def _json_differ(mine: dict, theirs: dict) -> list[str]:
    """The keys at which two documents differ as JSON spells them, floats by
    repr, so the match is exact and 1 differs from 1.0 or true."""
    a, b = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()} for d in (mine, theirs))
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


@dataclass(frozen=True)
class RunReport:
    """One row of the results table: the config that ran and its repeats.
    Every other field is derived from those two, once, so identically
    seeded reruns compare equal and emit byte-identical files.
    """

    config: ExperimentConfig
    repeats: tuple[LossReport, ...]
    dataset: str = field(init=False)
    mode: str = field(init=False)
    c_or_gamma: float = field(init=False)
    method: str = field(init=False)
    seed_ledger: tuple[int, ...] = field(init=False)
    rwr_mean: float = field(init=False)
    rwr_std: float = field(init=False)
    machine_mean: float = field(init=False)
    machine_std: float = field(init=False)
    rej_mean: float = field(init=False)
    rej_std: float = field(init=False)

    def __post_init__(self) -> None:
        cfg, cc = self.config, self.config.cost_config
        if len(self.repeats) != cfg.repeats:
            raise ValueError(f"repeats holds {len(self.repeats)} reports, but its config runs {cfg.repeats}")
        c = cc.cost_c  # 0.0 in budget mode, as run_experiment charges
        for i, r in enumerate(self.repeats):
            expect = (1.0 - r.rejection_rate) * r.machine_loss + r.rejection_rate * c
            if not math.isclose(r.rwr_loss, expect, rel_tol=1e-9, abs_tol=1e-15):
                raise ValueError(f"repeat {i}: rwr_loss {r.rwr_loss!r} != (1 - rej) * machine + rej * c = {expect!r}")
        derived = dict(
            dataset=cfg.dataset_source,
            mode=cc.mode.value,
            c_or_gamma=cc.value,
            method=cfg.method_name(),
            seed_ledger=cfg.repeat_seeds(),
        )
        for name, loss in (("rwr", "rwr_loss"), ("machine", "machine_loss"), ("rej", "rejection_rate")):
            values = np.array([getattr(r, loss) for r in self.repeats])
            derived[f"{name}_mean"] = float(values.mean())
            derived[f"{name}_std"] = float(values.std(ddof=1)) if values.size > 1 else 0.0
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc.update(repeats=list(doc["repeats"]), config=self.config.to_dict(), seed_ledger=list(self.seed_ledger))
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(doc: dict) -> "RunReport":
        """The report whose ``to_dict`` is ``doc``, rebuilt from its config
        echo and its repeats; a missing or garbled one raises KeyError,
        TypeError or ValueError, and any other difference ValueError naming
        the keys as ``_json_differ`` compares them."""
        report = RunReport(ExperimentConfig.from_dict(doc["config"]), tuple(LossReport(**r) for r in doc["repeats"]))
        differ = _json_differ(report.to_dict(), doc)
        if differ:
            raise ValueError(f"report fields {differ} differ from those its config and repeats derive")
        return report

    @staticmethod
    def from_json(doc: str) -> "RunReport":
        try:
            return RunReport.from_dict(core.json_object(doc, "run report"))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"run report lacks or garbles a field: {exc}") from None


def materialize(
    source: str, seed: int, *, target_column: str = "target", synthetic_n: int = 1000,
    split: SplitSpec = SplitSpec(),
) -> tuple[Dataset, Dataset, Dataset, SyntheticTask | None]:
    """(train, val, test, task) for one repeat at ``seed``, which also seeds
    the split permutation.

    A source that names a registered synthetic task draws ``synthetic_n``
    rows from it and keeps its native units; any other source is read as a
    CSV (task None) and z-scored, targets too, on train statistics.
    """
    if source in task_names():
        task = get_task(source)
        data = task.sample(synthetic_n, RngHandle(seed, STREAM_SAMPLE))
        return (*core.split_dataset(data, split, seed), task)
    data = load_csv(source, target_column)
    train, val, test = core.split_dataset(data, split, seed)
    train, (val, test) = standardize(train, [val, test])
    return train, val, test, None


def fit_regressor(regressor: KnnConfig | MlpConfig | str, train: Dataset, val: Dataset, task, seed: int, *,
                  out: np.ndarray | None = None):
    """Fit on every training row.  kNN picks k on ``val``; the MLP draws its
    initial weights from ``seed``; "oracle" is the task's true mean, as a
    lookup table on a finite support.

    ``out``, an array of ``val.n`` floats, receives the fitted model's
    predictions on ``val``: kNN's from its k grid, the others' from one
    ``predict``.
    """
    if isinstance(regressor, KnnConfig):
        return fit_knn_auto(train, val, regressor, out=out)
    if isinstance(regressor, MlpConfig):
        f = fit_mlp(train, regressor, seed)
    elif regressor != "oracle":
        raise SelregError(f"unknown regressor {regressor!r}")
    elif task is None:
        raise SelregError("the oracle regressor needs a synthetic task source")
    elif isinstance(task, DiscreteTask):  # a form that `fit` can write
        f = TableLookupRegressor(task.points, task.means)
    else:
        f = CondMeanRegressor(task)
    if out is not None:
        out[...] = f.predict(val.features)
    return f


def _halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first and second half of n rows; one row serves as both."""
    if n < 2:
        return np.arange(n), np.arange(n)
    return np.arange(n // 2), np.arange(n // 2, n)


def cost_calibrator(rejector: str, grid: tuple[float, ...], f, val: Dataset, predictions: np.ndarray,
                    task, c: float) -> Calibrator:
    """Conditional-risk estimate of ``f`` from its losses on ``val``, whose
    rows ``f`` predicted as ``predictions`` (see ``fit_regressor``'s
    ``out``); this stage predicts nothing.

    The kernel smoother picks its bandwidth from ``grid`` by the deferral
    loss at cost ``c``, fitting on one half of ``val`` and scoring on the
    other, then refits on all of ``val``.  The loss-linear fit reads the
    same losses; the oracle reads ``f`` and ``task`` alone.  The other
    rejectors read neither ``grid`` nor ``c``.
    """
    losses = (predictions - val.targets) ** 2
    if rejector == "kernel":
        inner, outer = ((val.features[i], losses[i]) for i in _halves(val.n))
        spec = select_bandwidth(inner, outer, grid, c)
        return KernelSmootherCalibrator(val.features, losses, spec)
    if rejector == "loss-linear":
        return linear_calibrate(val.features, losses)
    return _oracle_calibrator(rejector, f, task)


def budget_threshold(rejector: str, f, val: Dataset, task, gamma: float) -> tuple[Calibrator, ConformalThreshold]:
    """Calibrator fitted on the first half of ``val`` and the conformal
    acceptance threshold for budget ``gamma`` from its scores on the second
    half.  Those scores are independent of the calibrator, and of a
    regressor that read no row of that half (``run_experiment`` picks kNN's
    k on the first half), as the threshold's coverage guarantee requires, so
    ``val`` needs two rows at least.  ``f`` predicts the first half only.
    """
    if val.n < 2:
        raise DataError(f"budget mode needs 2 validation rows, got {val.n}")
    fit_part, score_part = (val.subset(i) for i in _halves(val.n))
    if rejector == "kernel":
        # median length scale keeps the smoother in range without
        # consuming the score split
        sigma = _median_sq_dist(fit_part.features)
        calibrator = kernel_calibrate(f, fit_part, KernelSpec(length_scale_sigma=sigma))
    elif rejector == "loss-linear":
        losses = (f.predict(fit_part.features) - fit_part.targets) ** 2
        calibrator = linear_calibrate(fit_part.features, losses)
    else:
        calibrator = _oracle_calibrator(rejector, f, task)
    return calibrator, conformal_threshold(calibrator.estimate(score_part.features), gamma)


def _oracle_calibrator(rejector: str, f, task) -> Calibrator:
    """The task's exact conditional risk of ``f``: the one calibrator that
    reads no held-out row."""
    if rejector != "oracle":
        raise SelregError(f"unknown rejector kind {rejector!r}")
    if task is None:
        raise SelregError("the oracle rejector needs a synthetic task source")
    return OracleRiskCalibrator(task, f)


def _median_sq_dist(X: np.ndarray) -> float:
    # below two rows the median is NaN, and NaN > 0 is False
    med = median_sq_dist(X)
    return med if med > 0.0 else 1.0


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Split, fit on all training rows, calibrate on held-out data, threshold
    at the deferral cost or the budget's conformal threshold, evaluate on
    test; repeated in turn with seeds cfg.seed + i.  A failing repeat aborts
    the whole run with its index and seed attached.
    """
    cc = cfg.cost_config

    def one_repeat(i: int, seed: int) -> LossReport:
        # a repeat's arrays are freed when it returns, before the next one starts
        try:
            train, val, test, task = materialize(
                cfg.dataset_source, seed, target_column=cfg.target_column,
                synthetic_n=cfg.synthetic_n, split=cfg.split,
            )
            if cc.mode is CostMode.FIXED_COST:
                predictions = np.empty(val.n)
                f = fit_regressor(cfg.regressor, train, val, task, seed, out=predictions)
                c = threshold = cc.value
                calibrator = cost_calibrator(cfg.rejector, cfg.sigma_grid, f, val, predictions, task, c)
            else:
                # kNN picks k on the calibrator's half, so that the half the
                # threshold scores stays unseen by the regressor too
                f = fit_regressor(cfg.regressor, train, val.subset(_halves(val.n)[0]), task, seed)
                c = 0.0
                calibrator, th = budget_threshold(cfg.rejector, f, val, task, cc.value)
                threshold = th.c_hat
            return empirical_rwr_loss(f, induce_rejector(calibrator, threshold), test, c)
        except Exception as exc:
            exc.args = (f"repeat {i} (seed {seed}) failed: {exc}",)
            raise

    return RunReport(cfg, tuple(one_repeat(i, seed) for i, seed in enumerate(cfg.repeat_seeds())))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "dataset",
    "c_or_gamma",
    "method",
    "rwr_mean",
    "rwr_std",
    "rej_mean",
    "rej_std",
    "machine_mean",
    "machine_std",
)


def write_output(path: str | Path, text: str) -> Path:
    """Write ``text`` and a final newline to ``path``, creating its directory; OSError becomes SelregError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    except OSError as exc:
        raise SelregError(f"cannot write {path}: {exc}") from exc
    return path


def emit_report(report: RunReport, fmt: str, out_dir: str | Path, stem: str = "report") -> Path:
    """Write the report as JSON (full fidelity) or CSV (one table row).

    Output is byte-stable for identical reports: floats are emitted via repr
    and keys are sorted.
    """
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        row = [v if isinstance(v, str) else repr(v) for v in (getattr(report, name) for name in CSV_COLUMNS)]
        buf = io.StringIO()
        # minimal quoting: only a field with a comma, a quote or a line break
        # in it, such as a dataset path, is quoted
        csv.writer(buf, lineterminator="\n").writerows([CSV_COLUMNS, row])
        text = buf.getvalue()[:-1]  # write_output adds the final newline
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return write_output(Path(out_dir) / f"{stem}.{fmt}", text)
