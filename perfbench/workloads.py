"""The benchmark's workloads, driven through selreg's public API.

Each workload builds its inputs from the benchmark seed in ``setup()``.  One
operation then runs as ``out = run(inputs(i))``: only ``run`` is timed.
``check`` returns the reasons an operation's output is wrong (empty when
correct), ``work`` counts the units that throughput is quoted in, and
``selected`` gives the values compared against ``reference.json``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from selreg import (
    CostConfig,
    Dataset,
    KernelSpec,
    KnnConfig,
    MlpConfig,
    fit_knn,
    induce_rejector,
    kernel_calibrate,
)
from selreg.core import CostMode
from selreg.harness import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"  # generated inputs and traced spans go here
sys.path.insert(0, str(ROOT / "scripts"))
import make_bundled_data  # noqa: E402  the generator of the bundled CSVs

# Operation i < SEED_STRIDE at benchmark seed s runs run_experiment with master
# seed (s * SEED_STRIDE + i) * repeats, so no two operations share a repeat seed.
SEED_STRIDE = 100_000
# Standard errors allowed on each side of the budget window: over a few thousand
# checked experiments per benchmark session a correct pipeline still never trips it.
BUDGET_Z = 5.0


def identity_error(r, c: float) -> str | None:
    """A LossReport must satisfy rwr = (1 - rej) * machine + rej * c."""
    expect = (1.0 - r.rejection_rate) * r.machine_loss + r.rejection_rate * c
    if math.isclose(r.rwr_loss, expect, rel_tol=1e-9, abs_tol=1e-15):
        return None
    return f"rwr_loss {r.rwr_loss!r} != (1-rej)*machine + rej*c = {expect!r}"


def budget_window(gamma: float, m: int, n_test: int, repeats: int) -> tuple[float, float]:
    """Range for the mean test rejection over ``repeats`` budget-mode repeats.

    Split-conformal keeps the expected rejection in [gamma - 1/(m+1), gamma]
    for m independent scores.  Around that, allow BUDGET_Z standard errors of
    the mean: per repeat the threshold's coverage varies by about
    gamma(1-gamma)/(m+2) and the binomial test draw by gamma(1-gamma)/n_test.
    """
    sd = math.sqrt(gamma * (1.0 - gamma) * (1.0 / (m + 2) + 1.0 / n_test) / repeats)
    return gamma - 1.0 / (m + 1) - BUDGET_Z * sd, gamma + BUDGET_Z * sd


class Experiment:
    """One operation is one ``run_experiment`` call; throughput counts repeats."""

    op_name = "harness.run_experiment"
    unit = "repeat"
    warm_up = False  # run one untimed operation before timing (see worker.measure)

    def __init__(self, name: str, base: ExperimentConfig, seed: int):
        self.name = name
        self.base = base
        self.seed = seed

    def setup(self) -> None:
        """Only the split sizes that the checks need; every repeat draws its
        own data inside the timed call."""
        self.split_sizes(self.base.synthetic_n)

    def split_sizes(self, n: int) -> None:
        # validation and test get the floor of their fractions, train the rest
        split = self.base.split
        self.n_val, self.n_test = int(n * split.val_fraction), int(n * split.test_fraction)

    def inputs(self, i: int) -> ExperimentConfig:
        return replace(self.base, seed=(self.seed * SEED_STRIDE + i) * self.base.repeats)

    def run(self, cfg: ExperimentConfig):
        return run_experiment(cfg)

    def work(self, report) -> int:
        return len(report.repeats)

    def heldout_rows(self, report) -> int:
        return len(report.repeats) * (self.n_val + self.n_test)

    def same(self, a, b) -> bool:
        return a == b  # RunReport equality leaves out wall-clock time

    def check(self, cfg: ExperimentConfig, report) -> list[str]:
        cost = cfg.cost_config
        budget = cost.mode is CostMode.FIXED_BUDGET
        c = 0.0 if budget else cost.cost_c
        errors = []
        if len(report.repeats) != cfg.repeats:
            errors.append(f"{len(report.repeats)} repeats reported, {cfg.repeats} run")
        if list(report.seed_ledger) != [cfg.seed + j for j in range(cfg.repeats)]:
            errors.append(f"seed ledger {report.seed_ledger} does not follow seed {cfg.seed}")
        for j, r in enumerate(report.repeats):
            problems = [identity_error(r, c)]
            if r.n_evaluated != self.n_test:
                problems.append(f"evaluated {r.n_evaluated} test rows, split has {self.n_test}")
            errors += [f"repeat {j}: {p}" for p in problems if p]
        if budget:
            m = self.n_val - self.n_val // 2  # run_fixed_budget scores the second half
            lo, hi = budget_window(cost.budget_gamma, m, self.n_test, len(report.repeats))
            if not lo <= report.rej_mean <= hi:
                errors.append(f"mean test rejection {report.rej_mean} outside [{lo:.4f}, {hi:.4f}]")
        return errors

    def selected(self, cfg, report, spans) -> dict:
        """What the pipeline chose in each repeat, read from the traced spans."""
        out = {
            name: [s.attrs[key] for s in spans if s.name == span]
            for name, span, key in (
                ("k", "models.fit_knn_auto", "k"),
                ("sigma", "rejection.select_bandwidth", "sigma"),
                ("c_hat", "rejection.conformal_threshold", "c_hat"),
            )
        }
        out["rwr_loss"] = [r.rwr_loss for r in report.repeats]
        return {key: v for key, v in out.items() if v}


class GeneratedCsvExperiment(Experiment):
    """An Experiment on a hetero_demand CSV of ``rows`` rows, drawn at the
    benchmark seed by the generator of the bundled file.  Set-up writes the
    file; every repeat parses it again inside the timed call.

    A fresh process's first experiment here took 1.7-2.1 s against 1.0-1.3 s
    for later ones (2-core VM, numpy backend): about 440,000 page faults
    against 6,500, until glibc's allocator keeps the multi-megabyte training
    arrays on its heap instead of mapping fresh pages for each.  Users pay
    that once per process, so the first operation warms up untimed.
    """

    warm_up = True

    def __init__(self, name: str, base: ExperimentConfig, seed: int, rows: int):
        super().__init__(name, base, seed)
        self.rows = rows

    def setup(self) -> None:
        x, y, header = make_bundled_data.hetero_demand(self.rows, self.seed)
        OUT_DIR.mkdir(exist_ok=True)
        make_bundled_data.write_csv(Path(self.base.dataset_source), x, y, header)
        self.split_sizes(self.rows)  # the file has no bad rows: load_csv keeps them all


def hetero_d8(n: int, rng: np.random.Generator) -> Dataset:
    """d=8 inputs on [-1, 1]^8; the noise scale depends on x4 and x5 only, so
    the conditional risk varies across the input space."""
    x = rng.uniform(-1.0, 1.0, size=(n, 8))
    mean = np.sin(np.pi * x[:, 0]) + x[:, 1] * x[:, 2] + 0.5 * x[:, 3]
    sd = 0.1 + 0.9 * np.abs(x[:, 4]) + 0.3 * x[:, 5] ** 2
    return Dataset(x, mean + sd * rng.standard_normal(n))


class Score:
    """Deployment: a fitted (kNN, kernel-smoother) pair scores 512-row query
    blocks.  One operation is one block through ``predict`` then ``accept``;
    throughput counts rows."""

    op_name = "score.block"
    unit = "row"
    warm_up = False
    n_checked = 4  # rows per block recomputed by brute force

    def __init__(self, name: str, seed: int, n_train=8000, n_cal=2000, block=512, k=20, sigma=1.0):
        self.name = name
        self.seed = seed
        self.n_train, self.n_cal, self.block, self.k, self.sigma = n_train, n_cal, block, k, sigma

    def setup(self) -> None:
        train = hetero_d8(self.n_train, np.random.default_rng([self.seed, 0]))
        cal = hetero_d8(self.n_cal, np.random.default_rng([self.seed, 1]))
        self.f = fit_knn(train, KnnConfig(k=self.k))
        calibrator = kernel_calibrate(self.f, cal, KernelSpec(length_scale_sigma=self.sigma))
        # c at the median risk estimate of fresh inputs: about half are accepted
        pilot = hetero_d8(self.block, np.random.default_rng([self.seed, 2])).features
        self.c = float(np.median(calibrator.estimate(pilot)))
        self.rejector = induce_rejector(calibrator, self.c)
        self.train, self.cal, self.cal_losses = train, cal, np.asarray(calibrator.losses)

    def inputs(self, i: int) -> np.ndarray:
        return hetero_d8(self.block, np.random.default_rng([self.seed, 3, i])).features

    def run(self, q: np.ndarray):
        return self.f.predict(q), self.rejector.accept(q)

    def work(self, out) -> int:
        return len(out[0])

    def heldout_rows(self, out) -> int:
        return len(out[0])  # every scored row is held out from training

    def same(self, a, b) -> bool:
        return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def check(self, q: np.ndarray, out) -> list[str]:
        pred, acc = out
        errors = []
        if pred.shape != (len(q),) or not np.all(np.isfinite(pred)):
            errors.append("predictions are not one finite value per row")
        if acc.shape != (len(q),) or not np.all((acc == 0) | (acc == 1)):
            errors.append("accept values are not all 0 or 1")
        share = float(np.mean(acc))
        if not 0.3 <= share <= 0.7:
            errors.append(f"accepted share {share:.3f} outside [0.3, 0.7]")
        for j in range(min(self.n_checked, len(q))):
            errors += self._brute_force(q[j], pred[j], acc[j])
        return errors

    def _brute_force(self, x, pred, acc) -> list[str]:
        """Recompute one row without selreg's kernels."""
        errors = []
        d2 = np.sum((self.train.features - x) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[: self.k]
        expect = float(self.train.targets[nearest].mean())
        if not math.isclose(pred, expect, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"prediction {pred!r} != brute-force kNN mean {expect!r}")
        w = np.exp(-np.sum((self.cal.features - x) ** 2, axis=1) / self.sigma)
        est = max(float(w @ self.cal_losses / w.sum()), 0.0)
        if not math.isclose(est, self.c, rel_tol=1e-9) and int(acc) != int(est <= self.c):
            errors.append(f"accept {int(acc)} but brute-force risk {est!r} vs c {self.c!r}")
        return errors

    def selected(self, q, out, spans) -> dict:
        return {"c": self.c, "accepted": int(np.sum(out[1]))}


DEFAULT_SEED = 0
WORKLOADS = ("fit-knn-smooth1d", "fit-mlp-budget-csv", "score-knn-d8")


def make(name: str, seed: int):
    """The named workload at benchmark seed ``seed``; each run of an
    experiment is single-threaded (``workers=1``)."""
    if name == "fit-knn-smooth1d":
        cfg = ExperimentConfig(
            "smooth1d",
            CostConfig.fixed_cost(0.5),
            regressor=KnnConfig(),
            rejector="kernel",
            synthetic_n=5000,
            repeats=3,
            workers=1,
        )
        return Experiment(name, cfg, seed)
    if name == "fit-mlp-budget-csv":
        # 8000 rows, one full-batch step per epoch (fit_mlp clips the batch to
        # the training rows).  On the bundled 800-row file with 256-row
        # batches, each step is dozens of NumPy calls on 128 KiB arrays, and
        # that code slows most when the host is loaded: in one process on a
        # 2-core VM, its median over 20-30 s windows spread 19-24% (quartile
        # distance over median), this configuration's 4.8%.
        rows = 8000
        cfg = ExperimentConfig(
            str(OUT_DIR / f"hetero_demand-n{rows}-seed{seed}.csv"),
            CostConfig.fixed_budget(0.2),
            regressor=MlpConfig(batch_size=rows),
            rejector="kernel",
            repeats=1,
            workers=1,
        )
        return GeneratedCsvExperiment(name, cfg, seed, rows)
    if name == "score-knn-d8":
        return Score(name, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
