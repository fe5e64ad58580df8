"""Synthetic tasks with closed-form conditional moments.

A task knows its marginal over x, the conditional mean f_bar(x) and the
conditional variance v(x), so every population-level loss in this package
can be computed exactly: by enumeration on a discrete support, or by fixed
Gauss-Legendre quadrature on a 1-D continuous one.

Discrete tasks draw two-point noise, placing Y at f_bar(x) +/- sqrt(v(x))
with equal probability, which makes the conditional mean and variance exact
by construction and keeps Monte Carlo checks tight; the continuous task
draws Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Callable

import numpy as np

from .core import (
    Calibrator,
    Dataset,
    Regressor,
    Rejector,
    RngHandle,
    SelregError,
    _as_block,
    _freeze,
    _nearest_row,
    _require_cost,
    _support_table,
)

__all__ = [
    "SyntheticTask",
    "DiscreteTask",
    "SmoothTask1D",
    "BinaryTask",
    "OracleRiskCalibrator",
    "CondMeanRegressor",
    "default_discrete_task",
    "default_smooth_task",
    "get_task",
    "task_names",
    "binary_rwr_risk",
]


@dataclass(frozen=True)
class _FiniteSupport:
    """Support points and their probability weights: the base of the
    finite-support tasks.  A subclass adds its own columns, one entry per
    point, and checks only those.  Every field is frozen into one lookup
    table, which must reach each point."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for f, a in zip(fields(self), _support_table(*(getattr(self, f.name) for f in fields(self)))):
            object.__setattr__(self, f.name, a)
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < 0.0):
            raise ValueError("weights must be a probability vector (sum 1 within 1e-12)")

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DiscreteTask(_FiniteSupport):
    """Finite support with per-point weight, conditional mean and variance."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.variances < 0.0):
            raise ValueError("conditional variances must be nonnegative")

    def mean_at(self, X: np.ndarray) -> np.ndarray:
        return self.means[_nearest_row(X, self.points)]

    def var_at(self, X: np.ndarray) -> np.ndarray:
        return self.variances[_nearest_row(X, self.points)]

    def sample(self, n: int, rng: RngHandle) -> Dataset:
        gen = rng.generator()
        idx = gen.choice(self.size, size=n, p=self.weights)
        x = self.points[idx]
        sign = gen.integers(0, 2, size=n) * 2 - 1
        y = self.means[idx] + sign * np.sqrt(self.variances[idx])
        return Dataset(x, y)


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Order-128 Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    return tuple(_freeze(a) for a in np.polynomial.legendre.leggauss(128))


@dataclass(frozen=True)
class SmoothTask1D:
    """Uniform marginal on [lo, hi] with callable conditional moments and
    Gaussian noise.

    Expectations use the order-128 Gauss-Legendre rule held in ``points`` and
    ``weights``, which is plenty for the smooth moment functions shipped here.
    """

    lo: float
    hi: float
    mean_fn: Callable[[np.ndarray], np.ndarray]
    var_fn: Callable[[np.ndarray], np.ndarray]
    points: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes, weights = _legendre_rule()
        half = 0.5 * (self.hi - self.lo)
        object.__setattr__(self, "points", _freeze(self.lo + half * (nodes[:, None] + 1.0)))
        # uniform density 1/(hi-lo) times the affine Jacobian `half`
        object.__setattr__(self, "weights", _freeze(weights * half / (self.hi - self.lo)))

    def mean_at(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.mean_fn(_as_block(X)[:, 0]), dtype=np.float64)

    def var_at(self, X: np.ndarray) -> np.ndarray:
        v = np.asarray(self.var_fn(_as_block(X)[:, 0]), dtype=np.float64)
        if np.any(v < 0.0):
            raise ValueError("var_fn returned a negative variance")
        return v

    def sample(self, n: int, rng: RngHandle) -> Dataset:
        gen = rng.generator()
        x = gen.uniform(self.lo, self.hi, size=n)
        mean = self.mean_at(x[:, None])
        sd = np.sqrt(self.var_at(x[:, None]))
        y = mean + gen.standard_normal(n) * sd
        return Dataset(x[:, None], y)


# A task with exact conditional moments: mean_at, var_at, sample, and the
# attributes points and weights, which give E[g(X)] = sum_i w_i g(points_i),
# exactly on a discrete support and to quadrature accuracy otherwise.
SyntheticTask = DiscreteTask | SmoothTask1D


@dataclass(frozen=True)
class BinaryTask(_FiniteSupport):
    """Finite-support binary-label task: eta(x) = P(Y=1 | X=x)."""

    eta: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any((self.eta < 0.0) | (self.eta > 1.0)):
            raise ValueError("eta must lie in [0,1]")


def binary_rwr_risk(classifier: Regressor, rejector: Rejector, task: BinaryTask, c: float) -> float:
    """Exact combined risk of (classifier, rejector) under 0-1 loss.

    Per point: accept pays the misclassification probability, defer pays c.
    Computed from eta directly (P(Y != yhat) = eta if yhat=0 else 1-eta), so
    it is independent of any thresholding shortcut used to build the pair.
    """
    _require_cost(c)
    yhat = classifier.predict(task.points)
    if not np.all((yhat == 0.0) | (yhat == 1.0)):
        raise ValueError("classifier must output 0/1 labels on the support")
    err = np.where(yhat == 1.0, 1.0 - task.eta, task.eta)
    r = rejector.accept(task.points)
    return float(np.dot(task.weights, r * err + (1 - r) * c))


# ---------------------------------------------------------------------------
# Oracle models derived from a task
# ---------------------------------------------------------------------------


class CondMeanRegressor(Regressor):
    """Wraps a task's exact conditional mean."""

    def __init__(self, task: SyntheticTask):
        self.task = task

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.task.mean_at(X)


class OracleRiskCalibrator(Calibrator):
    """Exact conditional risk of a fixed regressor on a synthetic task:
    R(f, x) = (f(x) - f_bar(x))^2 + v(x)."""

    def __init__(self, task: SyntheticTask, regressor: Regressor):
        self.task = task
        self.regressor = regressor

    def estimate(self, X: np.ndarray) -> np.ndarray:
        bias = self.regressor.predict(X) - self.task.mean_at(X)
        return bias * bias + self.task.var_at(X)


# ---------------------------------------------------------------------------
# Stock tasks
# ---------------------------------------------------------------------------


def default_discrete_task() -> DiscreteTask:
    """Six-point heteroscedastic task used throughout the verification suite.

    Variances straddle the usual cost range (0.25 .. 9 around c = 2) with
    margin, so threshold rules are exercised on both sides.
    """
    return DiscreteTask(
        points=np.array([[0.0], [2.0], [4.0], [6.0], [8.0], [10.0]]),
        weights=np.full(6, 1.0 / 6.0),
        means=np.array([0.5, -1.0, 2.0, 0.0, 1.5, -0.5]),
        variances=np.array([0.25, 0.5, 1.0, 2.0, 4.0, 9.0]),
    )


def default_smooth_task() -> SmoothTask1D:
    """1-D smooth heteroscedastic task on [-2, 2]."""
    return SmoothTask1D(
        lo=-2.0,
        hi=2.0,
        mean_fn=lambda x: np.sin(1.5 * x),
        var_fn=lambda x: 0.05 + 0.5 * (1.0 + np.tanh(x)),
    )


_TASKS: dict[str, Callable[[], SyntheticTask]] = {
    "hetero6": default_discrete_task,
    "smooth1d": default_smooth_task,
}


def task_names() -> tuple[str, ...]:
    """Names that get_task accepts, sorted."""
    return tuple(sorted(_TASKS))


def get_task(name: str) -> SyntheticTask:
    try:
        return _TASKS[name]()
    except KeyError:
        raise SelregError(f"unknown synthetic task {name!r}; available: {list(task_names())}") from None
