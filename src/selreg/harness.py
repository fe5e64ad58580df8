"""Experiment orchestration: data ingestion, repeated fixed-cost and
fixed-budget runs, and report emission.

One repeat runs four stages, which the CLI's ``fit`` and ``calibrate`` call
too: ``materialize``, ``fit_regressor``, then ``cost_calibrator`` or
``budget_threshold``.  Each stage takes only the settings it reads, and
``ExperimentConfig`` refuses a setting that its run would not read, so a
config echo names exactly what ran.

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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import core
from .backend import _sq_dist_blocks
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
    "MissingTargetError",
    "CsvParseError",
    "EmptyAfterFilteringError",
    "ReportIoError",
    "ExperimentConfig",
    "RunReport",
    "load_csv",
    "materialize",
    "fit_regressor",
    "cost_calibrator",
    "budget_threshold",
    "run_experiment",
    "emit_report",
    "bundled_data_path",
]

log = logging.getLogger(__name__)

REJECTOR_KINDS = ("kernel", "loss-linear", "oracle")


class MissingTargetError(DataError):
    pass


class CsvParseError(DataError):
    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyAfterFilteringError(DataError):
    pass


class ReportIoError(SelregError):
    pass


def load_csv(path: str | Path, target_column: str) -> Dataset:
    """Parse a headered numeric CSV into a Dataset.

    Rows containing non-numeric or missing cells are dropped with a
    row-indexed diagnostic on the module logger; structural problems
    (no header, a repeated column name, wrong field count) raise
    CsvParseError.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise CsvParseError(f"{path}: header repeats column(s) {repeated}", column=repeated[0])
    if target_column not in header:
        raise MissingTargetError(f"{path}: target column {target_column!r} not in header {header}")
    t_idx = header.index(target_column)
    f_idx = [i for i in range(len(header)) if i != t_idx]

    feats, targs = [], []
    n_dropped = 0
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise CsvParseError(
                f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}",
                row=row_no,
            )
        try:
            values = [float(cell) for cell in row]
            if not all(np.isfinite(values)):
                raise ValueError("non-finite value")
        except ValueError:
            bad = next(
                (header[i] for i, cell in enumerate(row) if not _is_number(cell)),
                header[0],
            )
            log.warning("%s: dropping row %d (non-numeric cell in column %r)", path, row_no, bad)
            n_dropped += 1
            continue
        feats.append([values[i] for i in f_idx])
        targs.append(values[t_idx])
    if not feats:
        raise EmptyAfterFilteringError(f"{path}: no usable rows ({n_dropped} dropped)")
    names = tuple(header[i] for i in f_idx)
    return Dataset(np.array(feats), np.array(targs), names)


def _is_number(cell: str) -> bool:
    try:
        return bool(np.isfinite(float(cell)))
    except ValueError:
        return False


def bundled_data_path(name: str) -> Path:
    """Path of a CSV shipped inside the package (tests never touch the
    network)."""
    p = Path(__file__).parent / "data" / name
    if not p.exists():
        raise CsvParseError(f"no bundled dataset named {name!r}")
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
    ``sigma_grid``.  workers > 1 runs the repeats on a thread pool;
    per-repeat seeding makes the result identical either way.

    A value that the run would not read is refused with ValueError rather
    than echoed.
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
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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
        reg = self.regressor if isinstance(self.regressor, str) else (
            "knn" if isinstance(self.regressor, KnnConfig) else "mlp"
        )
        return f"{reg}+{self.rejector}"

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
        # Older echoes may carry calibrate_on and standardize_data, whose
        # defaults alone still mean the same; output_dir, which nothing read;
        # and split.seed and the kNN k, which the run always replaced.  An
        # echo of "knn" or "mlp" by name ran the default config.
        for key, default, rule in (
            ("calibrate_on", "validation", "the rejector always learns from the validation split"),
            ("standardize_data", None, "CSVs are z-scored and synthetic tasks keep native units"),
        ):
            if doc.get(key, default) != default:
                raise ValueError(f"{key}={doc[key]!r}: the option was removed; {rule}")
        mode = CostMode(doc["mode"])
        cost = CostConfig(mode, cost_c=doc["cost_c"], budget_gamma=doc["budget_gamma"])
        reg_doc = doc["regressor"]
        if reg_doc["kind"] == "knn":
            reg = KnnConfig(k_grid=tuple(reg_doc.get("k_grid", KnnConfig.k_grid)))
        elif reg_doc["kind"] == "mlp":
            reg = MlpConfig(**{k: v for k, v in reg_doc.items() if k != "kind"})
        else:
            reg = reg_doc["kind"]
        return ExperimentConfig(
            dataset_source=doc["dataset_source"],
            cost_config=cost,
            regressor=reg,
            rejector=doc["rejector"],
            split=SplitSpec(**{k: v for k, v in doc["split"].items() if k != "seed"}),
            repeats=doc["repeats"],
            seed=doc["seed"],
            target_column=doc["target_column"],
            synthetic_n=doc["synthetic_n"],
            sigma_grid=doc["sigma_grid"],
            workers=doc.get("workers", 1),
        )


@dataclass(frozen=True)
class RunReport:
    """Aggregated result of one repeated experiment.  Every field is
    deterministic, so identically seeded reruns compare equal and emit
    byte-identical files.
    """

    dataset: str
    mode: str
    c_or_gamma: float
    method: str
    repeats: tuple[LossReport, ...]
    rwr_mean: float
    rwr_std: float
    machine_mean: float
    machine_std: float
    rej_mean: float
    rej_std: float
    config: dict
    seed_ledger: tuple[int, ...]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc.update(repeats=list(doc["repeats"]), seed_ledger=list(self.seed_ledger))
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(doc: dict) -> "RunReport":
        # older reports also carry wall_clock_s, which is not read
        kw = {f.name: doc[f.name] for f in fields(RunReport)}
        kw.update(repeats=tuple(LossReport(**r) for r in doc["repeats"]), seed_ledger=tuple(doc["seed_ledger"]))
        return RunReport(**kw)

    @staticmethod
    def from_json(doc: str) -> "RunReport":
        return RunReport.from_dict(json.loads(doc))


def _std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


def _aggregate(cfg: ExperimentConfig, reports: list[LossReport], seeds: list[int]) -> RunReport:
    rwr = np.array([r.rwr_loss for r in reports])
    mach = np.array([r.machine_loss for r in reports])
    rej = np.array([r.rejection_rate for r in reports])
    cc = cfg.cost_config
    return RunReport(
        dataset=cfg.dataset_source,
        mode=cc.mode.value,
        c_or_gamma=cc.cost_c if cc.mode is CostMode.FIXED_COST else cc.budget_gamma,
        method=cfg.method_name(),
        repeats=tuple(reports),
        rwr_mean=float(rwr.mean()),
        rwr_std=_std(rwr),
        machine_mean=float(mach.mean()),
        machine_std=_std(mach),
        rej_mean=float(rej.mean()),
        rej_std=_std(rej),
        config=cfg.to_dict(),
        seed_ledger=tuple(seeds),
    )


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
    train, (val, test), _ = standardize(train, [val, test], targets=True)
    return train, val, test, None


def fit_regressor(regressor: KnnConfig | MlpConfig | str, train: Dataset, val: Dataset, task, seed: int):
    """Fit on every training row.  kNN picks k on ``val``; the MLP draws its
    initial weights from ``seed``; "oracle" is the task's true mean, as a
    lookup table on a finite support."""
    if isinstance(regressor, KnnConfig):
        return fit_knn_auto(train, val, regressor)
    if isinstance(regressor, MlpConfig):
        return fit_mlp(train, regressor, seed)
    if regressor != "oracle":
        raise SelregError(f"unknown regressor {regressor!r}")
    if task is None:
        raise SelregError("the oracle regressor needs a synthetic task source")
    if isinstance(task, DiscreteTask):  # a form that `fit` can write
        return TableLookupRegressor(task.points, task.means)
    return CondMeanRegressor(task)


def _halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first and second half of n rows; one row serves as both."""
    if n < 2:
        return np.arange(n), np.arange(n)
    return np.arange(n // 2), np.arange(n // 2, n)


def cost_calibrator(rejector: str, grid: tuple[float, ...], f, val: Dataset, task, c: float):
    """Conditional-risk estimate of ``f`` from its losses on ``val``.

    The kernel smoother picks its bandwidth from ``grid`` by the deferral
    loss at cost ``c``, fitting on one half of ``val`` and scoring on the
    other, then refits on all of ``val``.  ``f`` predicts ``val`` once.  The
    other rejectors read neither ``grid`` nor ``c``.
    """
    if rejector != "kernel":
        return _gridless_calibrator(rejector, f, val, task)
    losses = (f.predict(val.features) - val.targets) ** 2
    inner, outer = ((val.features[i], losses[i]) for i in _halves(val.n))
    spec = select_bandwidth(inner, outer, grid, c)
    return KernelSmootherCalibrator(val.features, losses, spec)


def budget_threshold(rejector: str, f, val: Dataset, task, gamma: float) -> tuple[Calibrator, ConformalThreshold]:
    """Calibrator fitted on the first half of ``val`` and the conformal
    acceptance threshold for budget ``gamma`` from its scores on the second
    half.  Those scores are independent of both the regressor and the
    calibrator, as the threshold's coverage guarantee requires.
    """
    fit_part, score_part = (val.subset(i) for i in _halves(val.n))
    if rejector == "kernel":
        # median length scale keeps the smoother in range without
        # consuming the score split
        sigma = _median_sq_dist(fit_part.features)
        calibrator = kernel_calibrate(f, fit_part, KernelSpec(length_scale_sigma=sigma))
    else:
        calibrator = _gridless_calibrator(rejector, f, fit_part, task)
    return calibrator, conformal_threshold(calibrator.estimate(score_part.features), gamma)


def _gridless_calibrator(rejector: str, f, val: Dataset, task) -> Calibrator:
    """The calibrators that take no bandwidth and no cost."""
    if rejector == "loss-linear":
        return linear_calibrate(f, val)
    if rejector == "oracle":
        if task is None:
            raise SelregError("the oracle rejector needs a synthetic task source")
        return OracleRiskCalibrator(task, f)
    raise SelregError(f"unknown rejector kind {rejector!r}")


def _median_sq_dist(X: np.ndarray) -> float:
    # the condensed upper triangle, one block of rows at a time: no m x m matrix
    m = X.shape[0]
    vals = np.empty(m * (m - 1) // 2)
    cols = np.arange(m)
    filled = 0
    for start, d2 in _sq_dist_blocks(X, X):
        upper = d2[cols[start : start + d2.shape[0], None] < cols]
        vals[filled : filled + upper.size] = upper
        filled += upper.size
    med = float(np.median(vals)) if vals.size else 1.0
    return med if med > 0.0 else 1.0


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Split, fit on all training rows, calibrate on held-out data, threshold
    at the deferral cost or the budget's conformal threshold, evaluate on
    test; repeated with seeds cfg.seed + i.

    Every repeat owns its derived seed, so running the repeats on a thread
    pool gives the same result as running them in turn.  A failing repeat
    aborts the whole run with its index and seed attached.
    """
    cc = cfg.cost_config
    seeds = [cfg.seed + i for i in range(cfg.repeats)]

    def one_repeat(i: int) -> LossReport:
        seed = seeds[i]
        try:
            train, val, test, task = materialize(
                cfg.dataset_source, seed, target_column=cfg.target_column,
                synthetic_n=cfg.synthetic_n, split=cfg.split,
            )
            f = fit_regressor(cfg.regressor, train, val, task, seed)
            if cc.mode is CostMode.FIXED_COST:
                c = cc.cost_c
                calibrator = cost_calibrator(cfg.rejector, cfg.sigma_grid, f, val, task, c)
                rejector = induce_rejector(calibrator, c)
            else:
                c = 0.0
                calibrator, th = budget_threshold(cfg.rejector, f, val, task, cc.budget_gamma)
                rejector = th.rejector(calibrator)
            return empirical_rwr_loss(f, rejector, test, c)
        except Exception as exc:
            exc.args = (f"repeat {i} (seed {seed}) failed: {exc}",)
            raise

    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            reports = list(pool.map(one_repeat, range(cfg.repeats)))
    else:
        reports = [one_repeat(i) for i in range(cfg.repeats)]
    return _aggregate(cfg, reports, seeds)


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


def emit_report(report: RunReport, fmt: str, out_dir: str | Path, stem: str = "report") -> Path:
    """Write the report as JSON (full fidelity) or CSV (one table row).

    Output is byte-stable for identical reports: floats are emitted via repr
    and keys are sorted.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            path = out_dir / f"{stem}.json"
            path.write_text(report.to_json() + "\n")
        elif fmt == "csv":
            path = out_dir / f"{stem}.csv"
            values = (getattr(report, name) for name in CSV_COLUMNS)
            row = [v if isinstance(v, str) else repr(v) for v in values]
            path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise ReportIoError(f"cannot write report to {out_dir}: {exc}") from exc
    return path
