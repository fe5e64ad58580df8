"""Counterexample constructions and numerical verification of the theory.

Everything here runs on synthetic tasks whose conditional moments are known
in closed form, so each claimed inequality can be checked exactly rather
than by sampling:

* the conditional-mean regressor paired with the variance-threshold rejector
  is unimprovable, and its risk equals E[min(v(X), c)];
* joint objectives over (regressor, rejector) admit traps: pairs that are
  locally optimal, or unimprovable in either argument alone, while sitting
  strictly above the global optimum;
* the truncated loss E[min(R(f,X), c)] sandwiches the combined loss, and its
  excess is dominated by the plain squared-loss excess;
* the achieved excess risk of a fitted pair is bounded by prediction error
  plus calibration error.

The trap checks search lookup pairs on at most 12 support points.  Given an
accept pattern the combined loss splits per point (see _pair_losses), and an
accepted point's risk is lowest at the allowed value nearest its conditional
mean; so each search sets the regressor values that way once and scores every
allowed accept pattern, which gives the exact minimum over its set of pairs;
it returns that minimum next to the pair's own loss.

The module is the engine behind the `verify-theory` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Calibrator,
    Regressor,
    Rejector,
    RngHandle,
    STREAM_SCORES,
    STREAM_VERIFY,
    SelregError,
    TableLookupRegressor,
    TableLookupRejector,
    _require_cost,
    _require_real,
)
from .losses import bayes_risk, excess_losses, oracle_rwr_risk, prediction_error, risk_values, truncated_loss
from .rejection import classify_with_rejection, conformal_threshold, induce_rejector, oracle_bayes_pair
from .tasks import (
    BinaryTask,
    CondMeanRegressor,
    DiscreteTask,
    OracleRiskCalibrator,
    binary_rwr_risk,
    default_discrete_task,
)

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
]

# the searches enumerate all 2^m accept patterns, so m is capped; the suite
# counts a search's minimum as an improvement only if it beats the pair's own
# loss by more than _TOL
_EXHAUSTIVE_SUPPORT_LIMIT = 12
_TOL = 1e-10


def _search_task(task, c, radius=0.0) -> DiscreteTask:
    """The task of a search or a trap, once its cost and radius pass: the
    one check of the three searches and the two trap builders.  It refuses
    a cost that ``_require_cost`` refuses, a radius that is negative or NaN,
    and a task without a finite support; an infinite radius makes the local
    search global."""
    _require_cost(c)
    if not _require_real("radius", radius) >= 0.0:
        raise ValueError(f"radius must be >= 0 or inf, got {radius!r}")
    if not isinstance(task, DiscreteTask):
        raise SelregError("this check needs a finite-support task")
    return task


def _pair_losses(F: np.ndarray, A: np.ndarray, task: DiscreteTask, c: float) -> np.ndarray:
    """Combined loss of lookup pairs, c + sum_j w_j A_j (risk_j - c) as in
    oracle_rwr_risk, with risk_j = (F_j - f_bar_j)^2 + v_j.

    F: [..., m] regressor values at the support, A: [..., m] accept bits;
    the two broadcast against each other.
    """
    risk = (F - task.means) ** 2 + task.variances
    return c + (task.weights * (A * (risk - c))).sum(axis=-1)


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
    task = _search_task(task, c)
    v = task.variances
    if not (v.min() < c < v.max()):
        raise SelregError(f"need min variance < c < max variance, got [{v.min()}, {v.max()}] vs c={c}")
    shift = np.where(v <= c, 2.0 * math.sqrt(c), 0.0)
    f0 = TableLookupRegressor(task.points, task.means + shift)
    r0 = TableLookupRejector(task.points, np.zeros(task.size, dtype=np.int64))
    return f0, r0


def build_entrywise_trapped_pair(task: DiscreteTask, c: float) -> tuple[TableLookupRegressor, Rejector]:
    """A pair unimprovable in either argument alone, yet globally suboptimal.

    The regressor is spoiled (shifted 2*sqrt(c)) exactly on the strictly
    low-variance region U1 = {v < c}; its own optimal rejector then defers
    all of U1, making the spoiled values irrelevant to single-argument
    improvement while the pair forfeits E[1{U1} * (c - v)] of risk.
    """
    task = _search_task(task, c)
    u1 = task.variances < c
    if not np.any(u1):
        raise SelregError("need a region of strictly sub-threshold variance")
    shift = np.where(u1, 2.0 * math.sqrt(c), 0.0)
    f1 = TableLookupRegressor(task.points, task.means + shift)
    return f1, induce_rejector(OracleRiskCalibrator(task, f1), c)


# ---------------------------------------------------------------------------
# Optimality verification by search / enumeration
# ---------------------------------------------------------------------------


def _all_accept_patterns(m: int) -> np.ndarray:
    if m > _EXHAUSTIVE_SUPPORT_LIMIT:
        raise SelregError(f"exhaustive search is limited to {_EXHAUSTIVE_SUPPORT_LIMIT} points, got {m}")
    codes = np.arange(2**m, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(m)) & 1).astype(np.float64)


def _baseline(pair: tuple[Regressor, Rejector], task: DiscreteTask, c: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The pair's regressor values and accept bits on the support, and its loss."""
    f, r = pair
    f_vals = f.predict(task.points)
    accepts = r.accept(task.points).astype(np.float64)
    return f_vals, accepts, float(_pair_losses(f_vals, accepts, task, c))


def verify_local_optimality(
    pair: tuple[Regressor, Rejector], task: DiscreteTask, radius: float, c: float
) -> tuple[float, float]:
    """``(baseline, best)``: the combined loss of ``pair``, and the least
    loss over the perturbation ball around it.

    The ball caps both the sup-norm change of the regressor values and the
    marginal probability on which the rejector disagrees at ``radius``; an
    infinite radius makes it every lookup pair.  The regressor takes the
    conditional mean clipped to the ball, and every accept pattern within
    the disagreement budget is scored at those values; by the per-point
    split of the loss (module docstring) this is the exact minimum over the
    ball.
    """
    task = _search_task(task, c, radius)
    f_vals, accepts, baseline = _baseline(pair, task, c)
    patterns = _all_accept_patterns(task.size)
    allowed = patterns[(patterns != accepts) @ task.weights <= radius + 1e-15]
    F = np.clip(task.means, f_vals - radius, f_vals + radius)
    return baseline, float(_pair_losses(F, allowed, task, c).min())


def verify_entrywise_optimality(
    pair: tuple[Regressor, Rejector], task: DiscreteTask, c: float
) -> tuple[float, float, float]:
    """``(baseline, best_rejector, best_regressor)``: the combined loss of
    ``pair``, and the least loss of each single-argument change of it.

    Rejector side: every accept pattern is scored at the pair's regressor
    values.  Regressor side: with the rejector fixed, the regressor takes the
    conditional mean, which minimizes every accepted point's risk.  Both
    minima are exact.
    """
    task = _search_task(task, c)
    f_vals, accepts, baseline = _baseline(pair, task, c)
    best_rej = float(_pair_losses(f_vals, _all_accept_patterns(task.size), task, c).min())
    return baseline, best_rej, float(_pair_losses(task.means, accepts, task, c))


def check_risk_decomposition(
    fhat: Regressor, calibrator: Calibrator, task, c: float
) -> tuple[float, float, float]:
    """Excess combined risk of (fhat, rejector induced by the calibrator at
    cost c) next to its two upper-bound terms.

    Returns (excess, prediction_error, calibration_error) where

        excess            = L(fhat, r_cal) - E[min(v, c)]
        prediction_error  = E[(fhat - f_bar)^2]
        calibration_error = E[|cal(X) - R(fhat, X)|]

    and excess <= prediction_error + calibration_error always holds.  A cost
    that is not finite and >= 0 is refused.
    """
    _require_cost(c)  # before induce_rejector, whose threshold message would come first
    rej = induce_rejector(calibrator, c)
    achieved = oracle_rwr_risk(fhat, rej, task, c)
    calibration_error = float(
        np.dot(task.weights, np.abs(calibrator.estimate(task.points) - risk_values(fhat, task)))
    )
    return achieved - bayes_risk(task, c), prediction_error(fhat, task), calibration_error


def enumerate_pair_minimum(task: DiscreteTask, c: float) -> float:
    """Minimum combined loss over all lookup pairs: the regressor at the
    conditional mean, the rejector over all 2^m accept patterns."""
    task = _search_task(task, c)
    return float(_pair_losses(task.means, _all_accept_patterns(task.size), task, c).min())


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
    """One property of the suite and its margin: its least slack over the
    instances it checked, with the tolerance included.  It passes exactly
    where the margin is at least 0, so a NaN margin fails."""

    name: str
    margin: float
    detail: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "margin", _require_real("margin", self.margin))
        object.__setattr__(self, "passed", self.margin >= 0.0)


def _least(*margins: float) -> float:
    """The least margin, NaN if any is NaN (``min`` keeps whichever of a NaN
    and a number comes first)."""
    return float(np.min(margins))


def run_verification_suite(seed: int = 20240000, trials: int = 100) -> list[PropertyResult]:
    """Numerically check every verifiable claim; returns one result per
    property, in a fixed order.

    Each property reports its worst margin over the instances it checked,
    with the tolerance included: ``x + tol`` for a claim ``x >= -tol``,
    ``tol - err`` for a claim ``err <= tol``, and the least of these for a
    claim of several parts.  It passes exactly where that margin is >= 0,
    and ``selreg verify-theory`` exits with code 3 if any property fails.
    The random-instance properties share ``trials`` lookup instances.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    props: dict[str, tuple[float, str]] = {}  # name -> (margin, detail), in report order
    gen = RngHandle(seed, STREAM_VERIFY).generator()
    task6 = default_discrete_task()
    c6 = 2.0
    tol = 1e-12
    bayes6 = bayes_risk(task6, c6)

    # --- unimprovable reference pair attains the enumerated minimum
    f_star, r_star = oracle_bayes_pair(task6, c6)
    star_loss = oracle_rwr_risk(f_star, r_star, task6, c6)
    enum_min = enumerate_pair_minimum(task6, c6)
    props["bayes_pair_enumerated_minimum"] = (
        _least(_TOL - abs(star_loss - bayes6), enum_min - star_loss + _TOL),
        f"pair loss {star_loss:.12f}, enumerated minimum {enum_min:.12f}",
    )

    # --- random lookup instances: each trial draws one task, regressor,
    # rejector, calibrator and cost, and checks every inequality on that draw
    worst: dict[str, float] = {}  # name -> least margin over the draws
    for _ in range(trials):
        t = random_discrete_task(gen)
        f = random_table_regressor(gen, t)
        r = random_table_rejector(gen, t)
        cal = random_table_calibrator(gen, t, f)
        cc = float(gen.uniform(0.2, 4.0))
        loss = oracle_rwr_risk(f, r, t, cc)
        trunc = truncated_loss(f, t, cc)
        r_f = induce_rejector(OracleRiskCalibrator(t, f), cc)
        excess, pred, calib = check_risk_decomposition(f, cal, t, cc)
        exc_trunc, exc_sq = excess_losses(f, t, cc)
        for name, margin in {
            # the conditional mean is the argmin for every rejector at once
            "cond_mean_argmin_any_rejector": loss - oracle_rwr_risk(CondMeanRegressor(t), r, t, cc) + tol,
            # the truncated loss lower-bounds the combined loss and ties at the induced rejector
            "truncated_lower_bound": loss - trunc + tol,
            "truncated_equality_at_induced": tol - abs(oracle_rwr_risk(f, r_f, t, cc) - trunc),
            # the calibrated rejector adds at most the calibration error to the
            # truncated loss; the squared excess dominates the truncated excess;
            # and excess <= prediction error + calibration error
            "calibration_gap_bound": exc_trunc + calib - excess + tol,
            "surrogate_excess_bound": exc_sq - exc_trunc + tol,
            "risk_decomposition_bound": pred + calib - excess + tol,
        }.items():
            worst[name] = _least(worst.get(name, math.inf), margin)
    props["cond_mean_argmin_any_rejector"] = (worst.pop("cond_mean_argmin_any_rejector"), "")

    # --- locally trapped pair: nothing in the ball beats its loss of c by
    # more than _TOL, and its gap to the optimum is the closed form's, > 0
    baseline, best = verify_local_optimality(build_locally_trapped_pair(task6, c6), task6, 0.9 * math.sqrt(c6), c6)
    gap = baseline - bayes6
    props["locally_trapped_pair"] = (
        _least(best - (baseline - _TOL), tol - abs(baseline - c6), tol - abs(gap - (c6 - bayes6)), gap - tol),
        f"baseline {baseline:.12f}, gap {gap:.12f}",
    )

    # --- entrywise trapped pair: no single-argument change beats it by more
    # than _TOL, and its gap to the optimum is the closed form's, > 0
    baseline, best_rej, best_reg = verify_entrywise_optimality(build_entrywise_trapped_pair(task6, c6), task6, c6)
    gap = baseline - bayes6
    u1 = task6.variances < c6
    closed_gap = float(np.dot(task6.weights[u1], c6 - task6.variances[u1]))
    props["entrywise_trapped_pair"] = (
        _least(best_rej - (baseline - _TOL), best_reg - (baseline - _TOL), tol - abs(gap - closed_gap), gap - tol),
        f"gap {gap:.12f} vs closed form {closed_gap:.12f}",
    )
    props |= {name: (margin, "") for name, margin in worst.items()}

    # --- the decomposition is tight at the oracle: zero errors give exactly the optimum
    tight = check_risk_decomposition(f_star, OracleRiskCalibrator(task6, f_star), task6, c6)
    props["risk_decomposition_tight_at_oracle"] = (_least(*(tol - abs(x) for x in tight)), "")

    # --- conformal acceptance threshold: coverage, monotonicity, rate ceiling
    m_cal, gamma, n_trials, n_fresh = 99, 0.2, 2000, 200
    cov_gen = RngHandle(seed + 2, STREAM_SCORES).generator()
    hits = 0
    for _ in range(n_trials):
        th = conformal_threshold(cov_gen.standard_normal(m_cal), gamma)
        hits += int((cov_gen.standard_normal(n_fresh) <= th.c_hat).sum())
    acc_rate = hits / (n_trials * n_fresh)
    lo, hi = (1 - gamma) - 0.03, (1 - gamma) + 1.0 / (m_cal + 1) + 0.03
    props["conformal_coverage"] = (
        _least(acc_rate - lo, hi - acc_rate), f"acceptance {acc_rate:.4f} in [{lo:.3f}, {hi:.3f}]"
    )

    # each draw: m scores and two budgets; the larger budget never raises the
    # threshold, and at each budget the rejection rate stays under gamma + 1/(m+1)
    draw_gen = RngHandle(seed + 3, STREAM_SCORES).generator()
    mono = ceil = math.inf
    for _ in range(200):
        m = int(draw_gen.integers(5, 120))
        s = draw_gen.standard_normal(m)
        budgets = sorted(draw_gen.uniform(0.05, 0.95, size=2))
        c1, c2 = (conformal_threshold(s, g).c_hat for g in budgets)
        mono = _least(mono, 0.0 if math.isinf(c1) and math.isinf(c2) else c1 - c2)
        for g, c_hat in zip(budgets, (c1, c2)):
            ceil = _least(ceil, g + 1.0 / (m + 1) - float(np.mean(s > c_hat)) + tol)
    props |= {"conformal_monotone_in_budget": (mono, ""), "conformal_rejection_ceiling": (ceil, "")}

    # --- classification extension on the 4-point label task
    btask = BinaryTask(points=np.arange(4.0)[:, None], weights=np.full(4, 0.25), eta=np.array([0.9, 0.6, 0.5, 0.1]))
    clf, rej = classify_with_rejection(btask, 0.3)
    risk = binary_rwr_risk(clf, rej, btask, 0.3)
    expected = float(np.dot(btask.weights, np.minimum(np.minimum(btask.eta, 1 - btask.eta), 0.3)))
    props["classification_extension"] = (tol - abs(risk - expected), f"risk {risk:.12f} vs enumerated {expected:.12f}")

    return [PropertyResult(name, margin, detail) for name, (margin, detail) in props.items()]
