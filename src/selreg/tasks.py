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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Calibrator,
    Dataset,
    Regressor,
    Rejector,
    RngHandle,
    UnsupportedTaskError,
    _as_block,
    _freeze,
)

__all__ = [
    "SyntheticTask",
    "DiscreteTask",
    "SmoothTask1D",
    "BinaryTask",
    "OracleRiskCalibrator",
    "CondMeanRegressor",
    "VarThresholdRejector",
    "default_discrete_task",
    "default_smooth_task",
    "get_task",
    "task_names",
    "binary_rwr_risk",
]


class SyntheticTask:
    """Protocol-ish base: subclasses expose exact conditional moments."""

    def mean_at(self, X: np.ndarray) -> np.ndarray:
        raise UnsupportedTaskError("task lacks a closed-form conditional mean")

    def var_at(self, X: np.ndarray) -> np.ndarray:
        raise UnsupportedTaskError("task lacks a closed-form conditional variance")

    def eval_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights) such that E[g(X)] = sum_i w_i g(points_i),
        exactly for discrete supports, to quadrature accuracy otherwise."""
        raise UnsupportedTaskError("task does not support exact expectation")

    def sample(self, n: int, rng: RngHandle) -> Dataset:
        raise UnsupportedTaskError("task is not samplable")


@dataclass(frozen=True)
class DiscreteTask(SyntheticTask):
    """Finite support with per-point weight, conditional mean and variance."""

    points: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _freeze(_as_block(self.points)))
        for f in ("weights", "means", "variances"):
            object.__setattr__(self, f, _freeze(np.asarray(getattr(self, f), dtype=np.float64)))
        m = self.points.shape[0]
        if not (self.weights.shape == self.means.shape == self.variances.shape == (m,)):
            raise ValueError("weights/means/variances must all have one entry per point")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < 0.0):
            raise ValueError("weights must be a probability vector (sum 1 within 1e-12)")
        if np.any(self.variances < 0.0):
            raise ValueError("conditional variances must be nonnegative")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def _index_of(self, X: np.ndarray) -> np.ndarray:
        from .backend import pairwise_sq_dists

        return np.argmin(pairwise_sq_dists(_as_block(X), self.points), axis=1)

    def mean_at(self, X: np.ndarray) -> np.ndarray:
        return self.means[self._index_of(X)]

    def var_at(self, X: np.ndarray) -> np.ndarray:
        return self.variances[self._index_of(X)]

    def eval_points(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points, self.weights

    def sample(self, n: int, rng: RngHandle) -> Dataset:
        gen = rng.generator()
        idx = gen.choice(self.size, size=n, p=self.weights)
        x = self.points[idx]
        sign = gen.integers(0, 2, size=n) * 2 - 1
        y = self.means[idx] + sign * np.sqrt(self.variances[idx])
        return Dataset(x, y)


@dataclass(frozen=True)
class SmoothTask1D(SyntheticTask):
    """Uniform marginal on [lo, hi] with callable conditional moments and
    Gaussian noise.

    Expectations use Gauss-Legendre quadrature of order 128, which is plenty
    for the smooth moment functions shipped here.
    """

    lo: float
    hi: float
    mean_fn: Callable[[np.ndarray], np.ndarray]
    var_fn: Callable[[np.ndarray], np.ndarray]

    def mean_at(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.mean_fn(_as_block(X)[:, 0]), dtype=np.float64)

    def var_at(self, X: np.ndarray) -> np.ndarray:
        v = np.asarray(self.var_fn(_as_block(X)[:, 0]), dtype=np.float64)
        if np.any(v < 0.0):
            raise ValueError("var_fn returned a negative variance")
        return v

    def eval_points(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = np.polynomial.legendre.leggauss(128)
        half = 0.5 * (self.hi - self.lo)
        x = self.lo + half * (nodes + 1.0)
        # uniform density 1/(hi-lo) times the affine Jacobian `half`
        w = weights * half / (self.hi - self.lo)
        return x[:, None], w

    def sample(self, n: int, rng: RngHandle) -> Dataset:
        gen = rng.generator()
        x = gen.uniform(self.lo, self.hi, size=n)
        mean = self.mean_at(x[:, None])
        sd = np.sqrt(self.var_at(x[:, None]))
        y = mean + gen.standard_normal(n) * sd
        return Dataset(x[:, None], y)


@dataclass(frozen=True)
class BinaryTask:
    """Finite-support binary-label task: eta(x) = P(Y=1 | X=x)."""

    points: np.ndarray
    weights: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _freeze(_as_block(self.points)))
        object.__setattr__(self, "weights", _freeze(np.asarray(self.weights, dtype=np.float64)))
        object.__setattr__(self, "eta", _freeze(np.asarray(self.eta, dtype=np.float64)))
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if np.any((self.eta < 0.0) | (self.eta > 1.0)):
            raise ValueError("eta must lie in [0,1]")

    @property
    def size(self) -> int:
        return self.points.shape[0]


def binary_rwr_risk(classifier: Regressor, rejector: Rejector, task: BinaryTask, c: float) -> float:
    """Exact combined risk of (classifier, rejector) under 0-1 loss.

    Per point: accept pays the misclassification probability, defer pays c.
    Computed from eta directly (P(Y != yhat) = eta if yhat=0 else 1-eta), so
    it is independent of any thresholding shortcut used to build the pair.
    """
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


class VarThresholdRejector(Rejector):
    """Accepts exactly where the conditional variance is <= threshold."""

    def __init__(self, task: SyntheticTask, threshold: float):
        self.task = task
        self.threshold = float(threshold)

    def accept(self, X: np.ndarray) -> np.ndarray:
        return (self.task.var_at(X) <= self.threshold).astype(np.int64)


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
        raise UnsupportedTaskError(
            f"unknown synthetic task {name!r}; available: {list(task_names())}"
        ) from None
