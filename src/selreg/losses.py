"""Loss functionals for regression with a reject option.

The combined loss of a regressor f and a binary rejector r at deferral cost
c is, per sample,

    l(f, r; x, y) = r(x) * (f(x) - y)^2 + (1 - r(x)) * c,

i.e. the machine pays its squared error where it accepts and a flat cost c
where it defers.  Population quantities are available exactly on synthetic
tasks through the bias-variance identity

    R(f, x) = E[(f(X) - Y)^2 | X = x] = (f(x) - f_bar(x))^2 + v(x),

which is what makes every inequality in the verification suite checkable to
machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Regressor, Rejector, _require_int
from .tasks import OracleRiskCalibrator, SyntheticTask

__all__ = [
    "LossReport",
    "rwr_report",
    "empirical_rwr_loss",
    "empirical_squared_loss",
    "risk_values",
    "prediction_error",
    "bayes_risk",
    "oracle_rwr_risk",
    "truncated_loss",
    "squared_risk",
    "excess_losses",
]


@dataclass(frozen=True)
class LossReport:
    """One evaluation of a (regressor, rejector) pair on a dataset.

    machine_loss is the mean squared error over accepted samples only; when
    everything is deferred it is reported as 0.0 with all_deferred set.
    """

    rwr_loss: float
    machine_loss: float
    rejection_rate: float
    n_evaluated: int
    all_deferred: bool = False

    def __post_init__(self) -> None:
        _require_int("n_evaluated", self.n_evaluated)


def rwr_report(sq: np.ndarray, accept: np.ndarray, c: float) -> LossReport:
    """Sample mean of r*(f-y)^2 + (1-r)*c, plus the accepted-only loss, from
    per-sample squared errors ``sq`` and {0,1} decisions ``accept``."""
    acc = accept.astype(np.float64)
    rwr = float(np.mean(acc * sq + (1.0 - acc) * c))
    all_deferred = int(acc.sum()) == 0
    machine = 0.0 if all_deferred else float(sq[acc == 1.0].mean())
    return LossReport(
        rwr_loss=rwr,
        machine_loss=machine,
        rejection_rate=float(1.0 - acc.mean()),
        n_evaluated=sq.shape[0],
        all_deferred=all_deferred,
    )


def empirical_rwr_loss(
    f: Regressor, r: Rejector, data: Dataset, c: float
) -> LossReport:
    """rwr_report of (f, r) on ``data``."""
    if c < 0.0:
        raise ValueError("deferral cost must be nonnegative")
    sq = (f.predict(data.features) - data.targets) ** 2
    return rwr_report(sq, r.accept(data.features), c)


def empirical_squared_loss(f: Regressor, data: Dataset) -> float:
    return float(np.mean((f.predict(data.features) - data.targets) ** 2))


def risk_values(f: Regressor, task: SyntheticTask) -> np.ndarray:
    """Exact conditional risk R(f, x) at the task's evaluation points."""
    points, _ = task.eval_points()
    return OracleRiskCalibrator(task, f).estimate(points)


def prediction_error(f: Regressor, task: SyntheticTask) -> float:
    """Exact E[(f(X) - f_bar(X))^2]."""
    points, weights = task.eval_points()
    bias = f.predict(points) - task.mean_at(points)
    return float(np.dot(weights, bias * bias))


def bayes_risk(task: SyntheticTask, c: float) -> float:
    """Global optimum of the combined loss: E[min(v(X), c)], evaluated as
    c + E[min(v - c, 0)] for exact cancellation against all-defer losses."""
    points, weights = task.eval_points()
    return float(c + np.dot(weights, np.minimum(task.var_at(points) - c, 0.0)))


def oracle_rwr_risk(f: Regressor, r: Rejector, task: SyntheticTask, c: float) -> float:
    """Exact E[r * R(f, X) + (1 - r) * c] by enumeration/quadrature.

    Evaluated as c + E[r * (R - c)] so the all-defer policy costs exactly c
    even when the weight vector cannot sum to 1.0 in floating point.
    """
    points, weights = task.eval_points()
    risk = risk_values(f, task)
    acc = r.accept(points).astype(np.float64)
    return float(c + np.dot(weights, acc * (risk - c)))


def truncated_loss(f: Regressor, task: SyntheticTask, c: float) -> float:
    """Exact E[min(R(f, X), c)].

    This is the combined risk of f under its own optimal rejector, hence a
    lower bound on oracle_rwr_risk(f, r, ., c) for every r.  Written as
    c + E[min(R - c, 0)], which matches oracle_rwr_risk term by term at the
    induced rejector.
    """
    _, weights = task.eval_points()
    return float(c + np.dot(weights, np.minimum(risk_values(f, task) - c, 0.0)))


def squared_risk(f: Regressor, task: SyntheticTask) -> float:
    """Exact E[(f(X) - Y)^2] = E[(f - f_bar)^2] + E[v]."""
    _, weights = task.eval_points()
    return float(np.dot(weights, risk_values(f, task)))


def excess_losses(f: Regressor, task: SyntheticTask, c: float) -> tuple[float, float]:
    """(truncated excess, squared excess) of f over the conditional mean.

    Both minimizers over all measurable functions coincide with f_bar, so
    the excesses reduce to differences against the f_bar baseline:

        excess_truncated = E[min(R(f,X), c)] - E[min(v(X), c)]
        excess_squared   = E[(f - f_bar)^2]

    and the first never exceeds the second (squared loss is a surrogate for
    the truncated loss).
    """
    return truncated_loss(f, task, c) - bayes_risk(task, c), prediction_error(f, task)
