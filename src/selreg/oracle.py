"""Counterexample constructions and numerical verification of the theory.

Everything here runs on synthetic tasks whose conditional moments are known
in closed form, so each claimed inequality can be checked by exact
enumeration rather than sampling:

* the conditional-mean regressor paired with the variance-threshold rejector
  is unimprovable, and its risk equals E[min(v(X), c)];
* joint objectives over (regressor, rejector) admit traps: pairs that are
  locally optimal, or unimprovable in either argument alone, while sitting
  strictly above the global optimum;
* the truncated loss E[min(R(f,X), c)] sandwiches the combined loss, and its
  excess is dominated by the plain squared-loss excess;
* the achieved excess risk of a fitted pair is bounded by prediction error
  plus calibration error.

The module is the engine behind the `verify-theory` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Calibrator,
    PremiseViolatedError,
    Regressor,
    Rejector,
    RngHandle,
    STREAM_SCORES,
    STREAM_VERIFY,
    SupportTooLargeError,
    TableLookupRegressor,
    TableLookupRejector,
    UnsupportedTaskError,
)
from .losses import bayes_risk, excess_losses, oracle_rwr_risk, prediction_error, risk_values, truncated_loss
from .rejection import classify_with_rejection, conformal_threshold, induce_rejector, oracle_bayes_pair
from .tasks import BinaryTask, DiscreteTask, OracleRiskCalibrator, binary_rwr_risk, default_discrete_task

__all__ = [
    "TableRiskCalibrator",
    "build_locally_trapped_pair",
    "build_entrywise_trapped_pair",
    "verify_local_optimality",
    "verify_entrywise_optimality",
    "check_risk_decomposition",
    "enumerate_pair_minimum",
    "random_discrete_task",
    "random_table_regressor",
    "random_table_rejector",
    "random_table_calibrator",
    "run_verification_suite",
    "LocalSearchReport",
    "EntrywiseReport",
]

_EXHAUSTIVE_SUPPORT_LIMIT = 12
# random joint perturbations per local search; a candidate counts as an
# improvement only if it beats the baseline loss by more than _TOL
_N_RANDOM = 10_000
_TOL = 1e-10


def _require_discrete(task) -> DiscreteTask:
    if not isinstance(task, DiscreteTask):
        raise UnsupportedTaskError("this check needs a finite-support task")
    return task


def _pair_losses(F: np.ndarray, A: np.ndarray, task: DiscreteTask, c: float) -> np.ndarray:
    """Combined loss for a batch of lookup pairs.

    F: [batch, m] regressor values at the support, A: [batch, m] accept bits.
    Same c + sum(w * A * (risk - c)) form as oracle_rwr_risk.
    """
    risk = (F - task.means) ** 2 + task.variances
    return c + (task.weights * (A * (risk - c))).sum(axis=1)


class TableRiskCalibrator(Calibrator):
    """Arbitrary nonnegative risk table on a finite support; the workhorse
    for randomized calibration-error checks."""

    def __init__(self, points: np.ndarray, values: np.ndarray):
        self._table = TableLookupRegressor(points, np.maximum(np.asarray(values, float), 0.0))

    @property
    def values(self) -> np.ndarray:
        return self._table.values

    def estimate(self, X: np.ndarray) -> np.ndarray:
        return self._table.predict(X)


# ---------------------------------------------------------------------------
# Trap constructions
# ---------------------------------------------------------------------------


def build_locally_trapped_pair(task: DiscreteTask, c: float) -> tuple[TableLookupRegressor, TableLookupRejector]:
    """A pair that no small joint perturbation can improve, yet sits strictly
    above the global optimum.

    The regressor is shifted 2*sqrt(c) above the conditional mean wherever
    the variance is <= c (and left exact elsewhere); the rejector defers
    everything.  Every point then carries conditional risk >= c — at least
    4c + v on the shifted region, v > c elsewhere — and stays above c under
    any regressor perturbation smaller than sqrt(c), so no nearby pair beats
    the flat deferral loss of exactly c.
    """
    task = _require_discrete(task)
    v = task.variances
    if not (v.min() < c < v.max()):
        raise PremiseViolatedError(
            f"need min variance < c < max variance, got [{v.min()}, {v.max()}] vs c={c}"
        )
    shift = np.where(v <= c, 2.0 * math.sqrt(c), 0.0)
    f0 = TableLookupRegressor(task.points, task.means + shift)
    r0 = TableLookupRejector(task.points, np.zeros(task.size, dtype=np.int64))
    return f0, r0


def build_entrywise_trapped_pair(task: DiscreteTask, c: float) -> tuple[TableLookupRegressor, TableLookupRejector]:
    """A pair unimprovable in either argument alone, yet globally suboptimal.

    The regressor is spoiled (shifted 2*sqrt(c)) exactly on the strictly
    low-variance region U1 = {v < c}; its own optimal rejector then defers
    all of U1, making the spoiled values irrelevant to single-argument
    improvement while the pair forfeits E[1{U1} * (c - v)] of risk.
    """
    task = _require_discrete(task)
    u1 = task.variances < c
    if not np.any(u1):
        raise PremiseViolatedError("need a region of strictly sub-threshold variance")
    shift = np.where(u1, 2.0 * math.sqrt(c), 0.0)
    values = task.means + shift
    f1 = TableLookupRegressor(task.points, values)
    risk = (values - task.means) ** 2 + task.variances
    r1 = TableLookupRejector(task.points, (risk <= c).astype(np.int64))
    return f1, r1


# ---------------------------------------------------------------------------
# Optimality verification by search / enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalSearchReport:
    baseline_loss: float
    best_found_loss: float
    n_candidates: int
    global_optimum: float
    counterexample: dict | None = None

    @property
    def improvement_found(self) -> bool:
        return self.counterexample is not None

    @property
    def global_gap(self) -> float:
        return self.baseline_loss - self.global_optimum


def _masks_within_budget(rng: np.random.Generator, base: np.ndarray, weights: np.ndarray, radius: float, n: int) -> np.ndarray:
    """Random accept patterns whose disagreement weight with ``base`` stays
    within ``radius`` (flips are dropped in random order until they fit)."""
    m = base.shape[0]
    flips = rng.integers(0, 2, size=(n, m)).astype(bool)
    out = np.empty((n, m), dtype=np.float64)
    for i in range(n):
        mask = flips[i].copy()
        over = np.dot(weights, mask) - radius
        if over > 1e-15:
            order = rng.permutation(m)
            for j in order:
                if not mask[j]:
                    continue
                mask[j] = False
                if np.dot(weights, mask) <= radius + 1e-15:
                    break
        out[i] = np.where(mask, 1.0 - base, base)
    return out


def verify_local_optimality(
    pair: tuple[Regressor, Rejector],
    task: DiscreteTask,
    radius: float,
    c: float,
    rng: RngHandle = RngHandle(0, STREAM_VERIFY),
) -> LocalSearchReport:
    """Search the perturbation ball for a pair with strictly lower loss.

    The ball caps both the sup-norm change of the regressor values and the
    marginal probability on which the rejector disagrees at ``radius``.
    Exhaustive single-coordinate moves (a 17-point value grid per support
    point, with and without a rejector flip wherever a flip fits the
    disagreement budget) are combined with 10,000 random joint
    perturbations; each random regressor is additionally paired with its own
    induced rejector whenever that rejector stays inside the ball.  The
    report carries a counterexample if anything beat the baseline by more
    than 1e-10.
    """
    task = _require_discrete(task)
    f, r = pair
    m = task.size
    f_vals = f.predict(task.points)
    accepts = r.accept(task.points).astype(np.float64)
    baseline = float(_pair_losses(f_vals[None, :], accepts[None, :], task, c)[0])

    cand_F: list[np.ndarray] = []
    cand_A: list[np.ndarray] = []

    # single-coordinate deterministic moves
    offsets = np.linspace(-radius, radius, 17)
    for j in range(m):
        flip_ok = task.weights[j] <= radius + 1e-15
        for off in offsets:
            fv = f_vals.copy()
            fv[j] += off
            cand_F.append(fv)
            cand_A.append(accepts)
            if flip_ok:
                av = accepts.copy()
                av[j] = 1.0 - av[j]
                cand_F.append(fv)
                cand_A.append(av)

    # random joint perturbations
    gen = rng.generator()
    F_rand = f_vals + gen.uniform(-radius, radius, size=(_N_RANDOM, m))
    A_rand = _masks_within_budget(gen, accepts, task.weights, radius, _N_RANDOM)
    cand_F.append(F_rand)
    cand_A.append(A_rand)

    # each random regressor's own induced rejector, when inside the ball
    risk_rand = (F_rand - task.means) ** 2 + task.variances
    induced = (risk_rand <= c).astype(np.float64)
    dis = (task.weights * (induced != accepts)).sum(axis=1)
    ok = dis <= radius + 1e-15
    if np.any(ok):
        cand_F.append(F_rand[ok])
        cand_A.append(induced[ok])

    F = np.vstack([np.atleast_2d(a) for a in cand_F])
    A = np.vstack([np.atleast_2d(a) for a in cand_A])
    losses = _pair_losses(F, A, task, c)
    best = int(np.argmin(losses))
    best_loss = float(losses[best])

    counterexample = None
    if best_loss < baseline - _TOL:
        counterexample = {
            "regressor_values": F[best].tolist(),
            "accepts": A[best].tolist(),
            "loss": best_loss,
        }
    return LocalSearchReport(
        baseline_loss=baseline,
        best_found_loss=best_loss,
        n_candidates=int(F.shape[0]),
        global_optimum=bayes_risk(task, c),
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class EntrywiseReport:
    baseline_loss: float
    best_rejector_loss: float
    best_regressor_loss: float
    global_optimum: float
    rejector_coverage: float  # fraction of accept patterns enumerated
    counterexample: dict | None = None

    @property
    def improvement_found(self) -> bool:
        return self.counterexample is not None

    @property
    def global_gap(self) -> float:
        return self.baseline_loss - self.global_optimum


def _all_accept_patterns(m: int) -> np.ndarray:
    codes = np.arange(2**m, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(m)) & 1).astype(np.float64)


def verify_entrywise_optimality(
    pair: tuple[Regressor, Rejector],
    task: DiscreteTask,
    c: float,
    rng: RngHandle = RngHandle(0, STREAM_VERIFY),
) -> EntrywiseReport:
    """Confirm no single-argument improvement exists.

    Rejector side: every accept pattern is enumerated (all 2^m for supports
    of at most 12 points; beyond that, 2^12 random patterns with the
    coverage fraction recorded).  Regressor side: with the rejector fixed
    the objective decomposes per support point, so an independent value grid
    per coordinate — spanning the conditional mean and the current value by
    +/- 2*sqrt(c) in 0.25*sqrt(c) steps — covers the full product grid.
    """
    task = _require_discrete(task)
    f, r = pair
    m = task.size
    f_vals = f.predict(task.points)
    accepts = r.accept(task.points).astype(np.float64)
    baseline = float(_pair_losses(f_vals[None, :], accepts[None, :], task, c)[0])

    if m <= _EXHAUSTIVE_SUPPORT_LIMIT:
        patterns = _all_accept_patterns(m)
        coverage = 1.0
    else:
        gen = rng.generator()
        patterns = gen.integers(0, 2, size=(2**_EXHAUSTIVE_SUPPORT_LIMIT, m)).astype(np.float64)
        coverage = float(patterns.shape[0]) / float(2.0**m)
    rej_losses = _pair_losses(np.broadcast_to(f_vals, patterns.shape), patterns, task, c)
    best_rej = float(rej_losses.min())

    # per-point value grid; decomposition makes this exact over the product
    step = 0.25 * math.sqrt(c)
    span = 2.0 * math.sqrt(c)
    best_reg = 0.0
    best_values = f_vals.copy()
    for j in range(m):
        lo = min(f_vals[j], task.means[j]) - span
        hi = max(f_vals[j], task.means[j]) + span
        grid = np.append(np.arange(lo, hi + step / 2, step), f_vals[j])
        risks = (grid - task.means[j]) ** 2 + task.variances[j]
        point_losses = accepts[j] * risks + (1.0 - accepts[j]) * c
        best_idx = int(np.argmin(point_losses))
        best_values[j] = grid[best_idx]
        best_reg += task.weights[j] * float(point_losses[best_idx])
    best_reg = float(best_reg)

    counterexample = None
    if best_rej < baseline - _TOL:
        counterexample = {"side": "rejector", "loss": best_rej,
                          "accepts": patterns[int(np.argmin(rej_losses))].tolist()}
    elif best_reg < baseline - _TOL:
        counterexample = {"side": "regressor", "loss": best_reg,
                          "regressor_values": best_values.tolist()}
    return EntrywiseReport(
        baseline_loss=baseline,
        best_rejector_loss=best_rej,
        best_regressor_loss=best_reg,
        global_optimum=bayes_risk(task, c),
        rejector_coverage=coverage,
        counterexample=counterexample,
    )


def check_risk_decomposition(
    fhat: Regressor, calibrator: Calibrator, task, c: float
) -> tuple[float, float, float]:
    """Excess combined risk of (fhat, rejector induced by the calibrator at
    cost c) next to its two upper-bound terms.

    Returns (excess, prediction_error, calibration_error) where

        excess            = L(fhat, r_cal) - E[min(v, c)]
        prediction_error  = E[(fhat - f_bar)^2]
        calibration_error = E[|cal(X) - R(fhat, X)|]

    and excess <= prediction_error + calibration_error always holds.
    """
    points, weights = task.eval_points()
    rej = induce_rejector(calibrator, c)
    achieved = oracle_rwr_risk(fhat, rej, task, c)
    calibration_error = float(
        np.dot(weights, np.abs(calibrator.estimate(points) - risk_values(fhat, task)))
    )
    return achieved - bayes_risk(task, c), prediction_error(fhat, task), calibration_error


def enumerate_pair_minimum(task: DiscreteTask, c: float) -> float:
    """Minimum combined loss over all lookup pairs on a value grid.

    The regressor ranges over per-point grids centered at the conditional
    mean (span 2*sqrt(c), step 0.25*sqrt(c)); the rejector ranges over all
    2^m accept patterns.  Given an accept pattern the objective
    decomposes per point, so the minimum over the product grid is computed
    exactly.
    """
    task = _require_discrete(task)
    if task.size > 8:
        raise SupportTooLargeError("pair enumeration is limited to 8 support points")
    span = 2.0 * math.sqrt(c)
    step = 0.25 * math.sqrt(c)
    offsets = np.arange(-span, span + step / 2, step)
    # per point: accepted -> min over grid of risk; deferred -> c
    point_risk_min = np.array(
        [np.min((offsets) ** 2 + task.variances[j]) for j in range(task.size)]
    )
    best = math.inf
    for pattern in _all_accept_patterns(task.size):
        loss = float(c + np.dot(task.weights, pattern * (point_risk_min - c)))
        best = min(best, loss)
    return best


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------


def random_discrete_task(gen: np.random.Generator) -> DiscreteTask:
    """3 to 8 support points with means in [-3, 3] and variances in [0.05, 9]."""
    m = int(gen.integers(3, 8 + 1))
    weights = gen.uniform(0.2, 1.0, size=m)
    weights /= weights.sum()
    # spread points out so lookup queries are unambiguous
    points = np.cumsum(gen.uniform(1.0, 2.0, size=m))[:, None]
    return DiscreteTask(
        points=points,
        weights=weights,
        means=gen.uniform(-3.0, 3.0, size=m),
        variances=gen.uniform(0.05, 9.0, size=m),
    )


def random_table_regressor(gen: np.random.Generator, task: DiscreteTask) -> TableLookupRegressor:
    return TableLookupRegressor(task.points, task.means + gen.uniform(-3.0, 3.0, size=task.size))


def random_table_rejector(gen: np.random.Generator, task: DiscreteTask) -> TableLookupRejector:
    return TableLookupRejector(task.points, gen.integers(0, 2, size=task.size))


def random_table_calibrator(gen: np.random.Generator, task: DiscreteTask, f: Regressor) -> TableRiskCalibrator:
    true_risk = risk_values(f, task)
    return TableRiskCalibrator(task.points, true_risk + gen.uniform(-2.0, 2.0, size=task.size))


# ---------------------------------------------------------------------------
# The full suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def run_verification_suite(seed: int = 20240000, trials: int = 100) -> list[PropertyResult]:
    """Numerically check every verifiable claim; returns one result per
    property with its worst-case margin (negative margin = violation)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results: list[PropertyResult] = []
    gen = RngHandle(seed, STREAM_VERIFY).generator()
    task6 = default_discrete_task()
    c6 = 2.0
    tol = 1e-12

    # --- unimprovable reference pair attains the enumerated grid minimum
    f_star, r_star = oracle_bayes_pair(task6, c6)
    star_loss = oracle_rwr_risk(f_star, r_star, task6, c6)
    grid_min = enumerate_pair_minimum(task6, c6)
    margin = grid_min - star_loss
    results.append(
        PropertyResult(
            "bayes_pair_grid_minimum",
            bool(abs(star_loss - bayes_risk(task6, c6)) <= 1e-10 and margin >= -1e-10),
            float(margin),
            f"pair loss {star_loss:.12f}, grid minimum {grid_min:.12f}",
        )
    )

    # --- conditional mean is the argmin for every rejector simultaneously
    worst = math.inf
    for _ in range(trials):
        t = random_discrete_task(gen)
        f_mean = TableLookupRegressor(t.points, t.means)
        f_other = random_table_regressor(gen, t)
        r = random_table_rejector(gen, t)
        cc = float(gen.uniform(0.2, 4.0))
        worst = min(
            worst,
            oracle_rwr_risk(f_other, r, t, cc) - oracle_rwr_risk(f_mean, r, t, cc),
        )
    results.append(
        PropertyResult("cond_mean_argmin_any_rejector", bool(worst >= -tol), float(worst))
    )

    # --- locally trapped pair
    f0, r0 = build_locally_trapped_pair(task6, c6)
    report = verify_local_optimality(
        (f0, r0), task6, 0.9 * math.sqrt(c6), c6,
        rng=RngHandle(seed + 1, STREAM_VERIFY),
    )
    gap_err = abs(report.global_gap - (c6 - bayes_risk(task6, c6)))
    results.append(
        PropertyResult(
            "locally_trapped_pair",
            bool(
                not report.improvement_found
                and abs(report.baseline_loss - c6) <= tol
                and gap_err <= tol
                and report.global_gap > 0.0
            ),
            float(report.best_found_loss - report.baseline_loss),
            f"baseline {report.baseline_loss:.12f}, gap {report.global_gap:.12f}",
        )
    )

    # --- entrywise trapped pair
    f1, r1 = build_entrywise_trapped_pair(task6, c6)
    ew = verify_entrywise_optimality((f1, r1), task6, c6)
    u1 = task6.variances < c6
    closed_gap = float(np.dot(task6.weights[u1], c6 - task6.variances[u1]))
    results.append(
        PropertyResult(
            "entrywise_trapped_pair",
            bool(
                not ew.improvement_found
                and abs(ew.global_gap - closed_gap) <= tol
                and ew.global_gap > 0.0
            ),
            float(min(ew.best_rejector_loss, ew.best_regressor_loss) - ew.baseline_loss),
            f"gap {ew.global_gap:.12f} vs closed form {closed_gap:.12f}",
        )
    )

    # --- truncated loss lower-bounds the combined loss; ties at the induced rejector
    worst_lb, worst_eq = math.inf, 0.0
    for _ in range(trials):
        t = random_discrete_task(gen)
        f = random_table_regressor(gen, t)
        r = random_table_rejector(gen, t)
        cc = float(gen.uniform(0.2, 4.0))
        worst_lb = min(worst_lb, oracle_rwr_risk(f, r, t, cc) - truncated_loss(f, t, cc))
        r_f = induce_rejector(OracleRiskCalibrator(t, f), cc)
        worst_eq = max(worst_eq, abs(oracle_rwr_risk(f, r_f, t, cc) - truncated_loss(f, t, cc)))
    results.append(PropertyResult("truncated_lower_bound", bool(worst_lb >= -tol), float(worst_lb)))
    results.append(PropertyResult("truncated_equality_at_induced", bool(worst_eq <= tol), float(worst_eq)))

    # --- calibration-gap upper bound
    worst_gap = math.inf
    for _ in range(trials):
        t = random_discrete_task(gen)
        f = random_table_regressor(gen, t)
        cal = random_table_calibrator(gen, t, f)
        cc = float(gen.uniform(0.2, 4.0))
        lhs = oracle_rwr_risk(f, induce_rejector(cal, cc), t, cc)
        cal_err = float(np.dot(t.weights, np.abs(cal.values - risk_values(f, t))))
        worst_gap = min(worst_gap, truncated_loss(f, t, cc) + cal_err - lhs)
    results.append(PropertyResult("calibration_gap_bound", bool(worst_gap >= -tol), float(worst_gap)))

    # --- squared loss dominates the truncated loss in excess
    worst_sur = math.inf
    for _ in range(trials):
        t = random_discrete_task(gen)
        f = random_table_regressor(gen, t)
        cc = float(gen.uniform(0.2, 4.0))
        exc_t, exc_s = excess_losses(f, t, cc)
        worst_sur = min(worst_sur, exc_s - exc_t)
    results.append(PropertyResult("surrogate_excess_bound", bool(worst_sur >= -tol), float(worst_sur)))

    # --- excess <= prediction error + calibration error; tight at the oracle
    worst_dec = math.inf
    for _ in range(trials):
        t = random_discrete_task(gen)
        f = random_table_regressor(gen, t)
        cal = random_table_calibrator(gen, t, f)
        cc = float(gen.uniform(0.2, 4.0))
        excess, pred, calib = check_risk_decomposition(f, cal, t, cc)
        worst_dec = min(worst_dec, pred + calib - excess)
    f_star6 = TableLookupRegressor(task6.points, task6.means)
    tight = check_risk_decomposition(f_star6, OracleRiskCalibrator(task6, f_star6), task6, c6)
    tight_ok = all(abs(x) <= tol for x in tight)
    results.append(PropertyResult("risk_decomposition_bound", bool(worst_dec >= -tol), float(worst_dec)))
    results.append(
        PropertyResult(
            "risk_decomposition_tight_at_oracle",
            bool(tight_ok),
            float(max(abs(x) for x in tight)),
        )
    )

    # --- exact pair consistency: zero errors give exactly the optimum
    ach, _, _ = check_risk_decomposition(f_star6, OracleRiskCalibrator(task6, f_star6), task6, c6)
    results.append(PropertyResult("pair_consistency_exact", bool(abs(ach) <= tol), float(abs(ach))))

    # --- conformal acceptance threshold: coverage, monotonicity, rate ceiling
    m_cal, gamma, n_trials = 99, 0.2, 2000
    cov_gen = RngHandle(seed + 2, STREAM_SCORES).generator()
    hits = 0
    total = 0
    fresh_per_trial = 200
    for _ in range(n_trials):
        scores = cov_gen.standard_normal(m_cal)
        th = conformal_threshold(scores, gamma)
        fresh = cov_gen.standard_normal(fresh_per_trial)
        hits += int((fresh <= th.c_hat).sum())
        total += fresh_per_trial
    acc_rate = hits / total
    lo, hi = (1 - gamma) - 0.03, (1 - gamma) + 1.0 / (m_cal + 1) + 0.03
    results.append(
        PropertyResult(
            "conformal_coverage",
            bool(lo <= acc_rate <= hi),
            float(min(acc_rate - lo, hi - acc_rate)),
            f"acceptance {acc_rate:.4f} in [{lo:.3f}, {hi:.3f}]",
        )
    )

    mono_gen = RngHandle(seed + 3, STREAM_SCORES).generator()
    worst_mono = math.inf
    for _ in range(200):
        s = mono_gen.standard_normal(int(mono_gen.integers(5, 60)))
        g1, g2 = sorted(mono_gen.uniform(0.05, 0.95, size=2))
        if g1 == g2:
            continue
        c1 = conformal_threshold(s, g1).c_hat
        c2 = conformal_threshold(s, g2).c_hat
        worst_mono = min(worst_mono, (c1 - c2) if not (math.isinf(c1) and math.isinf(c2)) else 0.0)
    results.append(PropertyResult("conformal_monotone_in_budget", bool(worst_mono >= 0.0), float(worst_mono)))

    ceil_gen = RngHandle(seed + 4, STREAM_SCORES).generator()
    worst_ceil = math.inf
    for _ in range(200):
        mm = int(ceil_gen.integers(5, 120))
        g = float(ceil_gen.uniform(0.05, 0.95))
        s = ceil_gen.standard_normal(mm)
        th = conformal_threshold(s, g)
        rej_rate = float(np.mean(s > th.c_hat))
        worst_ceil = min(worst_ceil, g + 1.0 / (mm + 1) - rej_rate)
    results.append(PropertyResult("conformal_rejection_ceiling", bool(worst_ceil >= -tol), float(worst_ceil)))

    # --- classification extension on the 4-point label task
    btask = BinaryTask(
        points=np.array([[0.0], [1.0], [2.0], [3.0]]),
        weights=np.full(4, 0.25),
        eta=np.array([0.9, 0.6, 0.5, 0.1]),
    )
    clf, rej = classify_with_rejection(btask, 0.3)
    risk = binary_rwr_risk(clf, rej, btask, 0.3)
    expected = float(np.dot(btask.weights, np.where(
        np.minimum(btask.eta, 1 - btask.eta) <= 0.3, np.minimum(btask.eta, 1 - btask.eta), 0.3
    )))
    results.append(
        PropertyResult(
            "classification_extension",
            bool(abs(risk - expected) <= tol),
            float(abs(risk - expected)),
            f"risk {risk:.12f} vs enumerated {expected:.12f}",
        )
    )

    return results
