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
from dataclasses import asdict, dataclass, field
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
    EmptyValidationError,
    KernelSpec,
    RngHandle,
    STREAM_SAMPLE,
    SelregError,
    SplitSpec,
    TableLookupRegressor,
    _require_int,
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
    pass


class EmptyAfterFilteringError(DataError):
    pass


class ReportIoError(SelregError):
    pass


def load_csv(path: str | Path, target_column: str) -> Dataset:
    """Parse a headered numeric CSV into a Dataset.

    Rows containing non-numeric or missing cells are dropped with a
    row-indexed diagnostic on the module logger; structural problems
    (no header, a repeated column name, wrong field count) raise
    CsvParseError.  Blank lines are skipped.
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
        raise CsvParseError(f"{path}: header repeats column(s) {repeated}")
    if target_column not in header:
        raise MissingTargetError(f"{path}: target column {target_column!r} not in header {header}")
    t_idx = header.index(target_column)
    f_idx = [i for i in range(len(header)) if i != t_idx]

    feats, targs = [], []
    n_dropped = 0
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvParseError(f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}")
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
    return Dataset(np.array(feats), np.array(targs))


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
        for name in ("seed", "repeats", "synthetic_n", "workers"):
            _require_int(name, getattr(self, name))
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
            kw = {k: v for k, v in doc.items() if k not in ("mode", "cost_c", "budget_gamma")}
            kw.update(
                cost_config=CostConfig(CostMode(doc["mode"]), doc["cost_c"], doc["budget_gamma"]),
                regressor=KnnConfig(**reg_doc) if kind == "knn" else MlpConfig(**reg_doc) if kind == "mlp" else kind,
                split=SplitSpec(**doc["split"]),
            )
            cfg = ExperimentConfig(**kw)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"config echo lacks or garbles a field: {exc}") from None
        echo = cfg.to_dict()
        differ = sorted(k for k in doc.keys() | echo.keys() if (k in doc) != (k in echo) or doc[k] != echo[k])
        if differ:
            raise ValueError(f"config echo differs at {differ} from the one its run writes")
        return cfg


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
        derived = dict(
            dataset=cfg.dataset_source,
            mode=cc.mode.value,
            c_or_gamma=cc.cost_c if cc.mode is CostMode.FIXED_COST else cc.budget_gamma,
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
        the keys.  Values compare as JSON spells them, floats by repr, so
        the match is exact and 1 differs from 1.0 or true."""
        report = RunReport(ExperimentConfig.from_dict(doc["config"]), tuple(LossReport(**r) for r in doc["repeats"]))
        mine, theirs = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()} for d in (report.to_dict(), doc))
        differ = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
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
    calibrator, as the threshold's coverage guarantee requires, so ``val``
    needs two rows at least.
    """
    if val.n < 2:
        raise EmptyValidationError(f"budget mode needs 2 validation rows, got {val.n}")
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
    seeds = cfg.repeat_seeds()

    def one_repeat(i: int) -> LossReport:
        seed = seeds[i]
        try:
            train, val, test, task = materialize(
                cfg.dataset_source, seed, target_column=cfg.target_column,
                synthetic_n=cfg.synthetic_n, split=cfg.split,
            )
            f = fit_regressor(cfg.regressor, train, val, task, seed)
            if cc.mode is CostMode.FIXED_COST:
                c = threshold = cc.cost_c
                calibrator = cost_calibrator(cfg.rejector, cfg.sigma_grid, f, val, task, c)
            else:
                c = 0.0
                calibrator, th = budget_threshold(cfg.rejector, f, val, task, cc.budget_gamma)
                threshold = th.c_hat
            return empirical_rwr_loss(f, induce_rejector(calibrator, threshold), test, c)
        except Exception as exc:
            exc.args = (f"repeat {i} (seed {seed}) failed: {exc}",)
            raise

    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            reports = list(pool.map(one_repeat, range(cfg.repeats)))
    else:
        reports = [one_repeat(i) for i in range(cfg.repeats)]
    return RunReport(cfg, tuple(reports))


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
