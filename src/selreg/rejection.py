"""Rejector learning.

Fixed cost: estimate the regressor's conditional risk with a Gaussian-kernel
smoother over held-out losses, then accept exactly where the estimate is at
or below the deferral cost.

Fixed budget: turn held-out risk scores into an acceptance threshold via the
split-conformal order statistic; acceptance probability is then at least
1 - gamma provided the scored samples are independent of the regressor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import backend
from .core import (
    Calibrator,
    Dataset,
    EmptyScoresError,
    EmptyValidationError,
    KernelSpec,
    Regressor,
    Rejector,
    TableLookupRegressor,
    TableLookupRejector,
    _as_block,
    _freeze,
    register_model,
    sigma_grid,
)
from .tasks import (
    BinaryTask,
    CondMeanRegressor,
    SyntheticTask,
    VarThresholdRejector,
)

__all__ = [
    "KernelSmootherCalibrator",
    "LinearLossCalibrator",
    "InducedRejector",
    "ConformalThreshold",
    "kernel_calibrate",
    "linear_calibrate",
    "select_bandwidth",
    "induce_rejector",
    "conformal_threshold",
    "oracle_bayes_pair",
    "classify_with_rejection",
]


@register_model("calibrator/kernel_smoother")
class KernelSmootherCalibrator(Calibrator):
    """Conditional-risk estimate as a kernel-weighted average of held-out
    squared errors:

        R_hat(x) = sum_i k(x, x_i) * l_i / sum_i k(x, x_i),
        k(x, x') = exp(-||x - x'||^2 / sigma).

    A query so far from every held-out point that the weights underflow to
    zero falls back to the loss of the nearest point.  Estimates are clamped
    at zero (a no-op here since the losses are nonnegative).
    """

    def __init__(self, points: np.ndarray, losses: np.ndarray, kernel: KernelSpec):
        self.points = _freeze(_as_block(points))
        self.losses = _freeze(np.asarray(losses, dtype=np.float64))
        if self.points.shape[0] != self.losses.shape[0]:
            raise ValueError("points/losses length mismatch")
        self.kernel = kernel

    def estimate(self, X: np.ndarray) -> np.ndarray:
        est = backend.gaussian_nw(
            _as_block(X), self.points, self.losses, self.kernel.length_scale_sigma
        )
        return np.maximum(est, 0.0)

    def payload(self) -> dict:
        return {
            "points": self.points.tolist(),
            "losses": self.losses.tolist(),
            "sigma": self.kernel.length_scale_sigma,
        }

    @staticmethod
    def from_payload(payload: dict) -> "KernelSmootherCalibrator":
        return KernelSmootherCalibrator(
            np.array(payload["points"]),
            np.array(payload["losses"]),
            KernelSpec(length_scale_sigma=payload["sigma"]),
        )


class LinearLossCalibrator(Calibrator):
    """Least-squares fit of held-out losses on (1, features), clamped at 0."""

    def __init__(self, coef: np.ndarray, intercept: float):
        self.coef = _freeze(np.asarray(coef, dtype=np.float64))
        self.intercept = float(intercept)

    def estimate(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(_as_block(X) @ self.coef + self.intercept, 0.0)


class InducedRejector(Rejector):
    """Accepts exactly where the calibrator's risk estimate is <= threshold
    (exact ties accept)."""

    def __init__(self, calibrator: Calibrator, threshold: float):
        self.calibrator = calibrator
        self.threshold = float(threshold)

    def accept(self, X: np.ndarray) -> np.ndarray:
        return (self.calibrator.estimate(X) <= self.threshold).astype(np.int64)


def kernel_calibrate(f: Regressor, val: Dataset, kernel: KernelSpec) -> KernelSmootherCalibrator:
    """Store per-sample held-out losses of f and smooth them with the kernel."""
    if val.n == 0:
        raise EmptyValidationError("validation data must be nonempty")
    losses = (f.predict(val.features) - val.targets) ** 2
    return KernelSmootherCalibrator(val.features, losses, kernel)


def linear_calibrate(f: Regressor, val: Dataset) -> LinearLossCalibrator:
    if val.n == 0:
        raise EmptyValidationError("validation data must be nonempty")
    losses = (f.predict(val.features) - val.targets) ** 2
    design = np.column_stack([np.ones(val.n), val.features])
    beta, *_ = np.linalg.lstsq(design, losses, rcond=None)
    return LinearLossCalibrator(beta[1:], beta[0])


def induce_rejector(calibrator: Calibrator, c: float) -> InducedRejector:
    if c < 0.0:
        raise ValueError("threshold cost must be nonnegative")
    return InducedRejector(calibrator, c)


def select_bandwidth(
    inner: tuple[np.ndarray, np.ndarray],
    outer: tuple[np.ndarray, np.ndarray],
    grid: Sequence[float],
    c: float,
) -> KernelSpec:
    """Pick the bandwidth of ``grid`` whose induced rejector has the lowest
    held-out combined loss; exact ties go to the smallest sigma.

    ``inner`` and ``outer`` are (points, squared losses) of the regressor on
    held-out rows: the smoother fits on ``inner`` and its rejector is scored
    on ``outer``.
    """
    from .losses import rwr_report

    if len(inner[1]) == 0 or len(outer[1]) == 0:
        raise EmptyValidationError("validation data must be nonempty")
    outer_points, outer_losses = outer
    best_sigma, best_loss = None, np.inf
    for sigma in sorted(sigma_grid(grid)):
        cal = KernelSmootherCalibrator(*inner, KernelSpec(sigma))
        accept = induce_rejector(cal, c).accept(outer_points)
        loss = rwr_report(outer_losses, accept, c).rwr_loss
        if loss < best_loss:
            best_sigma, best_loss = sigma, loss
    return KernelSpec(best_sigma)


# ---------------------------------------------------------------------------
# Fixed budget: split-conformal acceptance threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalThreshold:
    """Order-statistic acceptance threshold for a target budget gamma.

    c_hat is the ceil((1-gamma)(m+1))-th smallest of m held-out scores, or
    +inf when that index exceeds m (then everything is accepted).  Scoring
    fresh points against c_hat accepts with probability at least 1 - gamma,
    provided the m scored samples are independent of the regressor — scores
    computed on the regressor's own training data are biased low and void
    the guarantee.
    """

    c_hat: float
    m: int
    gamma: float
    order_statistic_index: int

    @property
    def accepts_everything(self) -> bool:
        return math.isinf(self.c_hat)

    def rejector(self, calibrator: Calibrator) -> InducedRejector:
        return InducedRejector(calibrator, self.c_hat)


def conformal_threshold(scores: np.ndarray, gamma: float) -> ConformalThreshold:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    m = scores.shape[0]
    if m == 0:
        raise EmptyScoresError("need at least one calibration score")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0,1)")
    # the 1e-9 guard keeps float excess (e.g. 0.8*100 = 80.0000...01) from
    # bumping an exactly-integer rank up by one
    rank = math.ceil((1.0 - gamma) * (m + 1) - 1e-9)
    if rank > m:
        c_hat = math.inf
    else:
        c_hat = float(np.sort(scores, kind="stable")[rank - 1])
    return ConformalThreshold(c_hat=c_hat, m=m, gamma=float(gamma), order_statistic_index=rank)


# ---------------------------------------------------------------------------
# Exact reference pairs on synthetic tasks
# ---------------------------------------------------------------------------


def oracle_bayes_pair(task: SyntheticTask, c: float) -> tuple[CondMeanRegressor, VarThresholdRejector]:
    """The unimprovable pair: conditional mean plus the rejector that accepts
    exactly where the conditional variance is <= c."""
    return CondMeanRegressor(task), VarThresholdRejector(task, c)


def classify_with_rejection(task: BinaryTask, c: float) -> tuple[TableLookupRegressor, TableLookupRejector]:
    """Binary classification with a reject option on a finite support.

    The classifier thresholds eta at 1/2; the rejector accepts exactly where
    the classifier's conditional 0-1 risk min(eta, 1-eta) is <= c.
    """
    if c < 0.0:
        raise ValueError("deferral cost must be nonnegative")
    labels = (task.eta >= 0.5).astype(np.float64)
    risk = np.minimum(task.eta, 1.0 - task.eta)
    classifier = TableLookupRegressor(task.points, labels)
    rejector = TableLookupRejector(task.points, (risk <= c).astype(np.int64))
    return classifier, rejector
