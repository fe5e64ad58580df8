"""Shared domain types: datasets, splits, cost configuration, model interfaces.

Everything here is an immutable value.  Fitted models, calibrators and
datasets can be shared freely across threads; all fitting happens elsewhere
and returns new objects.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import backend

__all__ = [
    "SelregError",
    "DataError",
    "EmptyDatasetError",
    "EmptySplitError",
    "EmptyValidationError",
    "EmptyScoresError",
    "UnsupportedTaskError",
    "KTooLargeError",
    "NonFiniteLossError",
    "PremiseViolatedError",
    "SupportTooLargeError",
    "CostMode",
    "CostConfig",
    "Dataset",
    "SplitSpec",
    "KernelSpec",
    "DEFAULT_SIGMA_GRID",
    "sigma_grid",
    "RngHandle",
    "Regressor",
    "Rejector",
    "Calibrator",
    "TableLookupRegressor",
    "TableLookupRejector",
    "split_dataset",
    "standardize",
    "model_to_json",
    "model_from_json",
    "json_object",
    "STREAM_SPLIT",
    "STREAM_SAMPLE",
    "STREAM_MLP",
    "STREAM_VERIFY",
    "STREAM_SCORES",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class SelregError(Exception):
    """Base error for the package."""


class DataError(SelregError):
    """Input data violates a contract."""


class EmptyDatasetError(DataError):
    pass


class EmptySplitError(DataError):
    """A requested split fraction rounds to zero rows."""


class EmptyValidationError(DataError):
    pass


class EmptyScoresError(DataError):
    pass


class UnsupportedTaskError(SelregError):
    """The synthetic task does not expose the closed form needed here."""


class KTooLargeError(SelregError):
    pass


class NonFiniteLossError(SelregError):
    """Training diverged; usually a learning-rate misconfiguration."""


class PremiseViolatedError(SelregError):
    """A construction's premise on the task (e.g. variance range) fails."""


class SupportTooLargeError(SelregError):
    """Exhaustive enumeration is infeasible for this support size."""


# ---------------------------------------------------------------------------
# Randomness control
# ---------------------------------------------------------------------------

# Named streams so that independent consumers of the same master seed never
# share a draw sequence.
STREAM_SPLIT = 1
STREAM_SAMPLE = 2
STREAM_MLP = 3
STREAM_VERIFY = 4
STREAM_SCORES = 5


@dataclass(frozen=True)
class RngHandle:
    """Seedable, stream-separated source of randomness.

    Identical (seed, stream_id) pairs yield identical draw sequences across
    runs and platforms (PCG64 via a spawned SeedSequence).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Datasets and splits
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True, order="C")
    a.setflags(write=False)
    return a


def _require_int(name: str, value) -> None:
    """The one contract for counts: an int, and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [n, d] plus target vector [n]; validated and immutable."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        targs = np.asarray(self.targets, dtype=np.float64)
        if targs.ndim != 1:
            raise DataError(f"targets must be 1-D, got shape {targs.shape}")
        n, d = feats.shape
        if n < 1 or d < 1:
            raise EmptyDatasetError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if targs.shape[0] != n:
            raise DataError(f"row mismatch: {n} feature rows vs {targs.shape[0]} targets")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(targs)):
            raise DataError("NaN/Inf entries are not allowed after ingestion")
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "targets", _freeze(targs))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.targets[idx])


@dataclass(frozen=True)
class SplitSpec:
    """Validation and test fractions; training takes the remaining rows."""

    val_fraction: float = 0.2
    test_fraction: float = 0.1

    def __post_init__(self) -> None:
        fracs = (self.val_fraction, self.test_fraction)
        if any(not 0.0 < f < 1.0 for f in fracs):
            raise ValueError(f"fractions must lie in (0,1), got {fracs}")
        if sum(fracs) >= 1.0:
            raise ValueError(f"fractions must leave rows for training, got a sum of {sum(fracs)!r}")


def split_dataset(data: Dataset, spec: SplitSpec, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint row partition into (train, val, test).

    Validation and test sizes are floor allocations of their fractions and
    train takes every remaining row (the regressor is fitted on all of them);
    an empty split, as every n < 3 gives, raises EmptySplitError.  The
    permutation is fully determined by ``seed``.
    """
    n = data.n
    n_val = int(np.floor(n * spec.val_fraction))
    n_test = int(np.floor(n * spec.test_fraction))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) == 0:
        raise EmptySplitError(
            f"split sizes ({n_train},{n_val},{n_test}) contain an empty split for n={n}"
        )
    perm = RngHandle(seed, STREAM_SPLIT).generator().permutation(n)
    i_train = perm[:n_train]
    i_val = perm[n_train : n_train + n_val]
    i_test = perm[n_train + n_val :]
    return data.subset(i_train), data.subset(i_val), data.subset(i_test)


def _location_scale(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # mean and sample std (ddof=1) per column; a constant column gets (0, 1)
    mean, std = values.mean(axis=0), values.std(axis=0, ddof=1)
    constant = std == 0.0
    return np.where(constant, 0.0, mean), np.where(constant, 1.0, std)


def standardize(train: Dataset, others: Sequence[Dataset] = ()) -> tuple[Dataset, list[Dataset]]:
    """Z-score features and targets on train statistics only; a constant
    column passes through unscaled.

    The other datasets are transformed with the train mean/std — never their
    own — so no information leaks across splits.
    """
    if train.n < 2:
        raise DataError("standardize needs at least 2 training rows")
    (f_mean, f_std), (t_mean, t_std) = _location_scale(train.features), _location_scale(train.targets)

    def z(data: Dataset) -> Dataset:
        return Dataset((data.features - f_mean) / f_std, (data.targets - t_mean) / t_std)

    return z(train), [z(d) for d in others]


# ---------------------------------------------------------------------------
# Cost configuration
# ---------------------------------------------------------------------------


class CostMode(Enum):
    FIXED_COST = "cost"
    FIXED_BUDGET = "budget"


@dataclass(frozen=True)
class CostConfig:
    """Either a deferral cost c (same units as squared target error) or a
    maximum rejection fraction gamma."""

    mode: CostMode
    cost_c: float = 0.0
    budget_gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.mode is CostMode.FIXED_COST:
            if not self.cost_c > 0.0:
                raise ValueError("fixed-cost mode requires cost_c > 0")
            if self.budget_gamma != 0.0:
                raise ValueError("fixed-cost mode reads no budget_gamma")
        else:
            if not 0.0 < self.budget_gamma < 1.0:
                raise ValueError("fixed-budget mode requires budget_gamma in (0,1)")
            if self.cost_c != 0.0:
                raise ValueError("fixed-budget mode reads no cost_c")

    @classmethod
    def fixed_cost(cls, c: float) -> "CostConfig":
        return cls(CostMode.FIXED_COST, cost_c=float(c))

    @classmethod
    def fixed_budget(cls, gamma: float) -> "CostConfig":
        return cls(CostMode.FIXED_BUDGET, budget_gamma=float(gamma))


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel k(x, x') = exp(-||x - x'||^2 / sigma) at one
    bandwidth sigma.  Bandwidth selection searches a grid of sigmas (see
    ``sigma_grid``) and returns the KernelSpec of its choice.
    """

    length_scale_sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.length_scale_sigma > 0.0:
            raise ValueError("length_scale_sigma must be positive")


# the candidate bandwidths of selection when none are given: seven decades
DEFAULT_SIGMA_GRID = tuple(10.0**j for j in range(-3, 4))


def sigma_grid(values: Sequence[float]) -> tuple[float, ...]:
    """``values`` as a bandwidth grid; refuses an empty or nonpositive one."""
    grid = tuple(float(s) for s in values)
    if not grid or any(not s > 0.0 for s in grid):
        raise ValueError(f"sigma grid must be nonempty and strictly positive, got {grid}")
    return grid


# ---------------------------------------------------------------------------
# Model interfaces
# ---------------------------------------------------------------------------


class Regressor(ABC):
    """Fitted predictor f: X -> Y.  Immutable; predict is pure."""

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized prediction for an [n, d] feature block."""


class Rejector(ABC):
    """Binary accept/defer rule: 1 = accept (machine predicts), 0 = defer."""

    @abstractmethod
    def accept(self, X: np.ndarray) -> np.ndarray:
        """Vectorized {0,1} decision for an [n, d] feature block."""


class Calibrator(ABC):
    """Estimator of the conditional squared-error risk of a fixed regressor.

    Estimates are clamped at 0; rejectors are derived by thresholding.
    """

    @abstractmethod
    def estimate(self, X: np.ndarray) -> np.ndarray:
        """Vectorized nonnegative risk estimate for an [n, d] feature block."""


def _as_block(X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"a feature block must be 1-D or 2-D, got shape {X.shape}")
    return X


class TableLookupRegressor(Regressor):
    """Explicit x -> value map on a finite support; exact on discrete tasks.

    Queries off the support resolve to the nearest support point (ties by
    ascending row index), which makes the model total while staying exact
    wherever it is actually used.
    """

    def __init__(self, points: np.ndarray, values: np.ndarray):
        self.points = _freeze(_as_block(points))
        self.values = _freeze(np.asarray(values, dtype=np.float64))
        if self.points.shape[0] != self.values.shape[0]:
            raise DataError("points/values length mismatch")
        self.dim = self.points.shape[1]

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        return np.argmin(backend.pairwise_sq_dists(_as_block(X), self.points), axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.values[self._nearest(X)]

    def payload(self) -> dict:
        return {"points": self.points.tolist(), "values": self.values.tolist()}

    @staticmethod
    def from_payload(payload: dict) -> "TableLookupRegressor":
        return TableLookupRegressor(np.array(payload["points"]), np.array(payload["values"]))


class TableLookupRejector(Rejector):
    """Explicit x -> {0,1} map on a finite support (nearest-point lookup)."""

    def __init__(self, points: np.ndarray, accepts: np.ndarray):
        accepts = np.asarray(accepts)
        if not np.all((accepts == 0) | (accepts == 1)):
            raise ValueError("accepts must be 0/1")
        self._table = TableLookupRegressor(points, accepts.astype(np.float64))

    def accept(self, X: np.ndarray) -> np.ndarray:
        return self._table.predict(X).astype(np.int64)


# ---------------------------------------------------------------------------
# Self-describing JSON serialization (kind tag + payload)
# ---------------------------------------------------------------------------

_MODEL_REGISTRY: dict[str, type] = {}


def register_model(tag: str):
    def deco(cls):
        _MODEL_REGISTRY[tag] = cls
        cls.json_tag = tag
        return cls

    return deco


register_model("regressor/table_lookup")(TableLookupRegressor)


def model_to_json(model) -> str:
    tag = getattr(model, "json_tag", None)
    if tag is None:
        raise SelregError(f"{type(model).__name__} is not registered for serialization")
    return json.dumps({"kind": tag, "payload": model.payload()}, sort_keys=True)


def json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON object; anything else is a DataError that
    names ``what``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{what} holds a JSON {type(obj).__name__}, not an object")
    return obj


def model_from_json(doc: str):
    """The model that ``doc`` describes; an unknown kind, or a payload that
    its class refuses, is a DataError."""
    obj = json_object(doc, "model file")
    tag = obj.get("kind")
    if not isinstance(tag, str) or tag not in _MODEL_REGISTRY:
        raise DataError(f"unknown model kind {tag!r}")
    if not isinstance(obj.get("payload"), dict):
        raise DataError(f"{tag} model file has no payload object")
    try:
        return _MODEL_REGISTRY[tag].from_payload(obj["payload"])
    except KeyError as exc:
        raise DataError(f"{tag} payload lacks field {exc}") from None
    except (TypeError, ValueError, SelregError) as exc:
        raise DataError(f"{tag} payload garbles a field: {exc}") from None
