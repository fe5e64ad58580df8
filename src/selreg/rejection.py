"""Rejector learning.

Fixed cost: estimate the regressor's conditional risk with a Gaussian-kernel
smoother over held-out losses, then accept exactly where the estimate is at
or below the deferral cost.

Fixed budget: turn held-out risk scores into an acceptance threshold via the
split-conformal order statistic; acceptance probability is then at least
1 - gamma provided the scored samples are independent of the regressor.

Where a decision skips the estimate: ``select_bandwidth`` and
``InducedRejector.accept`` need only whether the clamped estimate is at most
the threshold.  They ask ``backend.nw_at_most``, the second through
``Calibrator.at_most``, which at d = 1 settles most rows from a slice of the
centres with a bound on what the slice leaves out, and takes the full
estimate for the rest: the same decisions.  The conformal scores of budget
mode and the scores ``selreg calibrate`` writes are ``estimate``'s values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import backend
from .core import (
    Calibrator,
    DataError,
    Dataset,
    KernelSpec,
    Regressor,
    Rejector,
    TableLookupRegressor,
    TableLookupRejector,
    _as_block,
    _freeze,
    _require_cost,
    _require_real,
    _table,
    register_model,
    sigma_grid,
)
from .losses import rwr_report
from .tasks import BinaryTask, CondMeanRegressor, OracleRiskCalibrator, SyntheticTask

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
        self.points, self.losses = _loss_table(points, losses)
        self.kernel = kernel

    def estimate(self, X: np.ndarray) -> np.ndarray:
        est = backend.gaussian_nw(
            _as_block(X), self.points, self.losses, (self.kernel.length_scale_sigma,)
        )
        return np.maximum(est[0], 0.0)

    def at_most(self, X: np.ndarray, c: float) -> np.ndarray:
        return backend.nw_at_most(
            _as_block(X), self.points, self.losses, (self.kernel.length_scale_sigma,), c
        )[0]

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


def _loss_table(points: np.ndarray, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_table`` of held-out points and their losses, which are squared
    errors: a negative one is a DataError."""
    points, losses = _table(points, losses)
    if np.any(losses < 0.0):
        raise DataError("held-out losses are squared errors and must be >= 0")
    return points, losses


class LinearLossCalibrator(Calibrator):
    """Least-squares fit of held-out losses on (1, features), clamped at 0."""

    def __init__(self, coef: np.ndarray, intercept: float):
        self.coef = _freeze(coef)
        self.intercept = float(intercept)

    def estimate(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(_as_block(X) @ self.coef + self.intercept, 0.0)


class InducedRejector(Rejector):
    """Accepts exactly where the calibrator's risk estimate is <= threshold
    (exact ties accept), asking the calibrator's ``at_most``.

    The threshold is a real number >= 0, and not ``_require_cost``'s finite
    cost: a budget's threshold ``c_hat`` is +inf when its order statistic
    runs past the scores, and then every row is accepted.  NaN fails every
    comparison and would accept no row, so it is refused.
    """

    def __init__(self, calibrator: Calibrator, threshold: float):
        if not _require_real("threshold", threshold) >= 0.0:
            raise ValueError(f"threshold cost must be nonnegative, got {threshold!r}")
        self.calibrator = calibrator
        self.threshold = float(threshold)

    def accept(self, X: np.ndarray) -> np.ndarray:
        return self.calibrator.at_most(X, self.threshold).astype(np.int64)


def kernel_calibrate(f: Regressor, val: Dataset, kernel: KernelSpec) -> KernelSmootherCalibrator:
    """Store per-sample held-out losses of f and smooth them with the kernel."""
    losses = (f.predict(val.features) - val.targets) ** 2
    return KernelSmootherCalibrator(val.features, losses, kernel)


def linear_calibrate(points: np.ndarray, losses: np.ndarray) -> LinearLossCalibrator:
    """Least-squares fit of the held-out ``losses`` on (1, ``points``)."""
    points, losses = _loss_table(points, losses)
    design = np.column_stack([np.ones(points.shape[0]), points])
    beta, *_ = np.linalg.lstsq(design, losses, rcond=None)
    return LinearLossCalibrator(beta[1:], beta[0])


def induce_rejector(calibrator: Calibrator, c: float) -> InducedRejector:
    """The rejector that accepts where ``calibrator``'s estimate is <= c,
    which ``InducedRejector`` checks."""
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
    on ``outer``.  One kernel call decides every sigma: row j accepts where
    the estimate, clamped at zero, is at or below ``c``, as the
    ``KernelSmootherCalibrator`` and ``InducedRejector`` of that sigma would.
    """
    if len(inner[1]) == 0 or len(outer[1]) == 0:
        raise DataError("validation data must be nonempty")
    _require_cost(c)
    outer_points, outer_losses = outer
    sigmas = sorted(sigma_grid(grid))
    accepts = backend.nw_at_most(_as_block(outer_points), _as_block(inner[0]), inner[1], sigmas, c)
    best_sigma, best_loss = None, np.inf
    for sigma, accept in zip(sigmas, accepts):
        loss = rwr_report(outer_losses, accept.astype(np.int64), c).rwr_loss
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


def conformal_threshold(scores: np.ndarray, gamma: float) -> ConformalThreshold:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    m = scores.shape[0]
    if m == 0:
        raise DataError("need at least one calibration score")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0,1)")
    # the 1e-9 guard keeps float excess (e.g. 0.8*100 = 80.0000...01) from
    # bumping an exactly-integer rank up by one; the exact rank is >= 1 for
    # every gamma < 1, so the guard may not take it to 0
    rank = max(1, math.ceil((1.0 - gamma) * (m + 1) - 1e-9))
    if rank > m:
        c_hat = math.inf
    else:
        c_hat = float(np.sort(scores, kind="stable")[rank - 1])
    return ConformalThreshold(c_hat=c_hat, m=m, gamma=float(gamma), order_statistic_index=rank)


# ---------------------------------------------------------------------------
# Exact reference pairs on synthetic tasks
# ---------------------------------------------------------------------------


def oracle_bayes_pair(task: SyntheticTask, c: float) -> tuple[CondMeanRegressor, InducedRejector]:
    """The unimprovable pair: conditional mean plus the rejector that accepts
    exactly where its risk, the conditional variance, is <= c."""
    f = CondMeanRegressor(task)
    return f, induce_rejector(OracleRiskCalibrator(task, f), c)


def classify_with_rejection(task: BinaryTask, c: float) -> tuple[TableLookupRegressor, TableLookupRejector]:
    """Binary classification with a reject option on a finite support.

    The classifier thresholds eta at 1/2; the rejector accepts exactly where
    the classifier's conditional 0-1 risk min(eta, 1-eta) is <= c.
    """
    _require_cost(c)
    labels = (task.eta >= 0.5).astype(np.float64)
    risk = np.minimum(task.eta, 1.0 - task.eta)
    classifier = TableLookupRegressor(task.points, labels)
    rejector = TableLookupRejector(task.points, (risk <= c).astype(np.int64))
    return classifier, rejector
