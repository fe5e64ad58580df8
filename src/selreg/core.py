"""Shared domain types: datasets, splits, cost configuration, model interfaces.

Everything here is an immutable value.  Fitted models, calibrators and
datasets can be shared freely across threads; all fitting happens elsewhere
and returns new objects.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .backend import _sq_dist_blocks

__all__ = [
    "SelregError",
    "DataError",
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
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Datasets and splits
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``.  Every array that a dataset, task,
    model or calibrator holds passes through here, so this is the one place
    that refuses NaN and inf: one such entry would spoil every risk estimate
    and threshold computed from it."""
    a = np.array(a, dtype=np.float64, copy=True, order="C")
    if not np.isfinite(a).all():
        raise DataError(f"stored arrays must be finite; one of shape {a.shape} holds NaN or inf")
    a.setflags(write=False)
    return a


def _table(points: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """``points`` frozen as an [n, d] block, then each column frozen; no
    point row, or a column without exactly one entry per point row, is a
    DataError."""
    points = _freeze(_as_block(points))
    if points.shape[0] == 0:
        raise DataError(f"a table needs at least one point row, got shape {points.shape}")
    frozen = tuple(_freeze(col) for col in columns)
    for col in frozen:
        if col.shape != points.shape[:1]:
            raise DataError(f"a column of shape {col.shape} does not give one entry to each of "
                            f"{points.shape[0]} point rows")
    return (points, *frozen)


def _require_int(name: str, value) -> None:
    """The one contract for counts: an int, and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _require_real(name: str, value) -> float:
    """The one contract for real-valued settings: an int or a float, and not
    a bool, returned as a float.  float() alone would take True as 1.0 and
    "0.2" as 0.2; the caller checks the range, NaN and inf included."""
    if not isinstance(value, (int, float, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [n, d] plus target vector [n]; validated and immutable."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.features) != 2:
            raise DataError(f"features must be 2-D, got shape {np.shape(self.features)}")
        feats, targs = _table(self.features, self.targets)
        if feats.shape[1] < 1:
            raise DataError(f"need d >= 1 features, got shape {feats.shape}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

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
    an empty split, as every n < 3 gives, raises DataError.  The
    permutation is fully determined by ``seed``.
    """
    n = data.n
    n_val = int(np.floor(n * spec.val_fraction))
    n_test = int(np.floor(n * spec.test_fraction))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) == 0:
        raise DataError(f"split sizes ({n_train},{n_val},{n_test}) contain an empty split for n={n}")
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
    maximum rejection fraction gamma: ``value`` is the one ``mode`` reads."""

    mode: CostMode
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _require_real("a cost or budget", self.value))
        if self.mode is CostMode.FIXED_COST:
            if not 0.0 < self.value < math.inf:
                raise ValueError(f"fixed-cost mode requires a finite cost c > 0, got {self.value!r}")
        elif self.mode is CostMode.FIXED_BUDGET:
            if not 0.0 < self.value < 1.0:
                raise ValueError(f"fixed-budget mode requires gamma in (0,1), got {self.value!r}")
        else:
            raise ValueError(f"mode must be a CostMode, got {self.mode!r}")

    @classmethod
    def fixed_cost(cls, c: float) -> "CostConfig":
        return cls(CostMode.FIXED_COST, c)

    @classmethod
    def fixed_budget(cls, gamma: float) -> "CostConfig":
        return cls(CostMode.FIXED_BUDGET, gamma)

    @property
    def cost_c(self) -> float:
        """The deferral cost; 0.0 in budget mode, where deferring is free."""
        return self.value if self.mode is CostMode.FIXED_COST else 0.0

    @property
    def budget_gamma(self) -> float:
        """The rejection budget; 0.0 in cost mode."""
        return self.value if self.mode is CostMode.FIXED_BUDGET else 0.0


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel k(x, x') = exp(-||x - x'||^2 / sigma) at one
    bandwidth sigma.  Bandwidth selection searches a grid of sigmas (see
    ``sigma_grid``) and returns the KernelSpec of its choice.
    """

    length_scale_sigma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "length_scale_sigma", _require_real("length_scale_sigma", self.length_scale_sigma))
        if not 0.0 < self.length_scale_sigma < math.inf:
            raise ValueError("length_scale_sigma must be positive and finite")


# the candidate bandwidths of selection when none are given: seven decades
DEFAULT_SIGMA_GRID = tuple(10.0**j for j in range(-3, 4))


def sigma_grid(values: Sequence[float]) -> tuple[float, ...]:
    """``values`` as a bandwidth grid; refuses an empty one and any sigma that
    is not positive and finite."""
    grid = tuple(float(s) for s in values)
    if not grid or not all(0.0 < s < math.inf for s in grid):
        raise ValueError(f"sigma grid must be nonempty and each sigma positive and finite, got {grid}")
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
    if X.ndim != 2:
        raise ValueError(f"a feature block must be 2-D [rows, features], got shape {X.shape}")
    return X


def _nearest_row(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row of ``points`` nearest to each finite query, ties to the lower row:
    the argmin of each distance block, as ``gaussian_nw``'s fallback takes."""
    X = _as_block(X)
    if not np.isfinite(X).all():
        raise DataError("a lookup query holds NaN or inf")
    nearest = np.empty(X.shape[0], dtype=np.intp)
    for start, d2 in _sq_dist_blocks(X, points):
        nearest[start : start + d2.shape[0]] = np.argmin(d2, axis=1)
    return nearest


def _support_table(points: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_table`` for a lookup's support, whose every row a lookup must reach:
    each point's nearest row is itself.  That refuses a repeated point and
    two distinct points whose squared distance underflows to 0 alike, as the
    lookup reads only the first of them."""
    table = _table(points, *columns)
    nearest = _nearest_row(table[0], table[0])
    if np.any(nearest != np.arange(nearest.shape[0])):
        counts = np.bincount(nearest)
        row = int(counts.argmax())
        raise DataError(f"support point {table[0][row].tolist()} appears {counts[row]} times to a lookup:"
                        f" rows {np.flatnonzero(nearest == row).tolist()} are at distance 0 from it")
    return table


class TableLookupRegressor(Regressor):
    """Explicit x -> value map on a finite support; exact on discrete tasks.

    Queries off the support resolve to the nearest support point (ties by
    ascending row index), which makes the model total while staying exact
    wherever it is actually used.
    """

    def __init__(self, points: np.ndarray, values: np.ndarray):
        self.points, self.values = _support_table(points, values)
        self.dim = self.points.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.values[_nearest_row(X, self.points)]

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
