"""Regressors fitted by plain least-squares risk minimization on all
training samples.

The deferral structure is deliberately ignored at this stage: the regressor
is trained on every row, and the reject rule is learned afterwards from the
regressor's conditional risk (see rejection.py).  Squared loss is a valid
surrogate for the deferral-aware objective, so nothing is lost by training
this way whenever the model class is rich enough.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import backend
from .core import (
    DataError,
    Dataset,
    KTooLargeError,
    NonFiniteLossError,
    Regressor,
    RngHandle,
    STREAM_MLP,
    _as_block,
    _freeze,
    _require_int,
    register_model,
)

__all__ = [
    "KnnConfig",
    "MlpConfig",
    "KnnRegressor",
    "MlpRegressor",
    "GradientCheckReport",
    "fit_knn",
    "fit_mlp",
    "fit_knn_auto",
    "gradient_check",
]

DEFAULT_K_GRID = (5, 10, 15, 20, 30, 50, 70, 100, 150)


@dataclass(frozen=True)
class KnnConfig:
    """``k`` is the neighbour count of ``fit_knn``; ``fit_knn_auto`` picks k
    from ``k_grid`` instead."""

    k: int = 5
    k_grid: tuple[int, ...] = DEFAULT_K_GRID

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_grid", tuple(self.k_grid))
        for i, k in enumerate(self.k_grid):
            _require_int(f"k_grid[{i}]", k)
        _require_int("k", self.k)
        if self.k < 1 or not self.k_grid or any(k < 1 for k in self.k_grid):
            raise ValueError(f"neighbour counts must be positive and k_grid nonempty, "
                             f"got k={self.k}, k_grid={self.k_grid}")


@dataclass(frozen=True)
class MlpConfig:
    """One-hidden-layer ReLU network trained with mini-batch Adam plus
    decoupled weight decay.  200 epochs is the desk-scale default; raise to
    800 to match the full experimental protocol.  The seed of the initial
    weights and batch order is an argument of ``fit_mlp``."""

    hidden_width: int = 64
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    batch_size: int = 256
    epochs: int = 200

    def __post_init__(self) -> None:
        for name in ("hidden_width", "batch_size", "epochs"):
            _require_int(name, getattr(self, name))
        if min(self.hidden_width, self.batch_size, self.epochs) < 1:
            raise ValueError("hidden_width, batch_size and epochs must be >= 1")
        if self.learning_rate <= 0.0 or self.weight_decay < 0.0:
            raise ValueError("learning_rate must be > 0 and weight_decay >= 0")


@register_model("regressor/knn")
class KnnRegressor(Regressor):
    """Mean target of the k nearest training points (Euclidean distance,
    ties by ascending training-row index)."""

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int):
        self.train_x = _freeze(_as_block(train_x))
        self.train_y = _freeze(np.asarray(train_y, dtype=np.float64))
        if self.train_y.shape != self.train_x.shape[:1]:
            raise DataError(f"train_y has shape {self.train_y.shape}, not one value per train_x row")
        _require_int("k", k)
        self.k = k
        if not 1 <= self.k <= self.train_x.shape[0]:
            raise KTooLargeError(f"k={k} exceeds training size {self.train_x.shape[0]}")
        self.dim = self.train_x.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return backend.knn_mean(_as_block(X), self.train_x, self.train_y, (self.k,))[0]

    def payload(self) -> dict:
        return {
            "k": self.k,
            "train_x": self.train_x.tolist(),
            "train_y": self.train_y.tolist(),
        }

    @staticmethod
    def from_payload(payload: dict) -> "KnnRegressor":
        return KnnRegressor(np.array(payload["train_x"]), np.array(payload["train_y"]), payload["k"])


def fit_knn(train: Dataset, cfg: KnnConfig) -> KnnRegressor:
    return KnnRegressor(train.features, train.targets, cfg.k)


@register_model("regressor/mlp")
class MlpRegressor(Regressor):
    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
        self.w1 = _freeze(w1)
        self.b1 = _freeze(b1)
        self.w2 = _freeze(w2)
        self.b2 = _freeze(b2)
        shapes = tuple(p.shape for p in (self.w1, self.b1, self.w2, self.b2))
        if len(shapes[0]) != 2 or shapes[1:] != ((shapes[0][1],), (shapes[0][1], 1), (1,)):
            raise ValueError(f"MLP layer shapes {shapes} do not chain as [d, h], [h], [h, 1], [1]")
        self.dim = shapes[0][0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        hidden = np.maximum(_as_block(X) @ self.w1 + self.b1, 0.0)
        return (hidden @ self.w2 + self.b2)[:, 0]

    def payload(self) -> dict:
        # explicit layer-shape header so readers can validate before parsing
        return {
            "layer_shapes": [list(self.w1.shape), list(self.b1.shape), list(self.w2.shape), list(self.b2.shape)],
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
        }

    @staticmethod
    def from_payload(payload: dict) -> "MlpRegressor":
        arrs = [np.array(payload[k], dtype=np.float64) for k in ("w1", "b1", "w2", "b2")]
        for arr, shape in zip(arrs, payload["layer_shapes"]):
            if list(arr.shape) != list(shape):
                raise ValueError(f"layer shape header {shape} does not match data {arr.shape}")
        return MlpRegressor(*arrs)


def _init_params(dim: int, width: int, rng: np.random.Generator):
    # uniform +/- sqrt(6 / (fan_in + fan_out)); biases start at zero
    lim1 = np.sqrt(6.0 / (dim + width))
    lim2 = np.sqrt(6.0 / (width + 1))
    w1 = rng.uniform(-lim1, lim1, size=(dim, width))
    b1 = np.zeros(width)
    w2 = rng.uniform(-lim2, lim2, size=(width, 1))
    b2 = np.zeros(1)
    return [w1, b1, w2, b2]


def _forward_backward(params, X: np.ndarray, y: np.ndarray, work=None):
    """Mean-squared loss and its gradients for one batch.

    ``work`` is three [batch, width] buffers for the hidden-layer arrays.
    Training passes the same ones at every step: allocating and freeing
    arrays of megabytes per step lets malloc hand their pages back to the
    system and fault them in again, which slowed a full-batch fit by a
    third.
    """
    w1, b1, w2, b2 = params
    n = X.shape[0]
    if work is None:
        work = [np.empty((n, w1.shape[1])) for _ in range(3)]
    pre, hidden, dhidden = (buf[:n] for buf in work)
    np.matmul(X, w1, out=pre)
    pre += b1
    np.maximum(pre, 0.0, out=hidden)
    pred = (hidden @ w2 + b2)[:, 0]
    err = pred - y
    loss = float(np.mean(err**2))
    dpred = (2.0 / n) * err
    dw2 = hidden.T @ dpred[:, None]
    db2 = np.array([dpred.sum()])
    np.multiply(dpred[:, None], w2[:, 0][None, :], out=dhidden)
    dhidden[pre <= 0.0] = 0.0
    dw1 = X.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return loss, [dw1, db1, dw2, db2]


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def fit_mlp(train: Dataset, cfg: MlpConfig, seed: int) -> MlpRegressor:
    """Mini-batch Adam on the squared loss over all training rows.

    Weight decay is decoupled from the gradient (applied directly to the
    weight matrices, not the biases).  Batches larger than the training set
    are clipped.  Training is bit-deterministic given ``seed``, which draws
    on the STREAM_MLP stream.
    """
    rng = RngHandle(seed, STREAM_MLP).generator()
    X, y = train.features, train.targets
    params = _init_params(train.dim, cfg.hidden_width, rng)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    batch = min(cfg.batch_size, train.n)
    lr, wd = cfg.learning_rate, cfg.weight_decay
    work = [np.empty((batch, cfg.hidden_width)) for _ in range(3)]
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train.n)
        for start in range(0, train.n, batch):
            idx = order[start : start + batch]
            loss, grads = _forward_backward(params, X[idx], y[idx], work)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"training loss became non-finite at step {t}; lower the learning rate"
                )
            t += 1
            c1 = 1.0 - _ADAM_BETA1**t
            c2 = 1.0 - _ADAM_BETA2**t
            for i, g in enumerate(grads):
                m[i] = _ADAM_BETA1 * m[i] + (1.0 - _ADAM_BETA1) * g
                v[i] = _ADAM_BETA2 * v[i] + (1.0 - _ADAM_BETA2) * g * g
                params[i] = params[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + _ADAM_EPS)
                if wd > 0.0 and i in (0, 2):  # decay weights only
                    params[i] = params[i] - lr * wd * params[i]
    return MlpRegressor(*params)


@dataclass(frozen=True)
class GradientCheckReport:
    max_relative_error: float
    per_layer: dict[str, float]


def gradient_check(cfg: MlpConfig, probe: Dataset, seed: int) -> GradientCheckReport:
    """Analytic backprop gradients vs central finite differences (step 1e-5)
    at the initial weights ``fit_mlp`` draws from ``seed``.

    Relative error per parameter is |g_a - g_n| / max(|g_a|, |g_n|, 1e-6);
    the floor keeps near-zero gradients from inflating the ratio.  Probe
    datasets should stay small (<= 32 rows).
    """
    if probe.n > 32:
        raise ValueError("probe dataset must have at most 32 rows")
    step = 1e-5
    rng = RngHandle(seed, STREAM_MLP).generator()
    params = _init_params(probe.dim, cfg.hidden_width, rng)
    X, y = probe.features, probe.targets
    _, analytic = _forward_backward(params, X, y)

    names = ("w1", "b1", "w2", "b2")
    per_layer: dict[str, float] = {}
    worst = 0.0
    for i, name in enumerate(names):
        p = params[i]
        numeric = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + step
            up, _ = _forward_backward(params, X, y)
            p[ix] = orig - step
            down, _ = _forward_backward(params, X, y)
            p[ix] = orig
            numeric[ix] = (up - down) / (2.0 * step)
            it.iternext()
        denom = np.maximum(np.maximum(np.abs(analytic[i]), np.abs(numeric)), 1e-6)
        err = float(np.max(np.abs(analytic[i] - numeric) / denom))
        per_layer[name] = err
        worst = max(worst, err)
    return GradientCheckReport(max_relative_error=worst, per_layer=per_layer)


def fit_knn_auto(train: Dataset, val: Dataset, cfg: KnnConfig | None = None) -> KnnRegressor:
    """Fit a k-NN regressor with k chosen on the validation split.

    Every k in the grid comes from one neighbour ordering of ``val``
    against ``train``; the lowest validation mean squared error wins, and
    exact ties go to the smallest k.  Grid entries above n_train are
    silently dropped (small-data runs keep working); if nothing survives,
    k = n_train.
    """
    cfg = cfg or KnnConfig()
    grid = sorted(k for k in cfg.k_grid if k <= train.n) or [train.n]
    preds = backend.knn_mean(_as_block(val.features), train.features, train.targets, grid)
    mse = np.mean((preds - val.targets) ** 2, axis=1)
    return fit_knn(train, replace(cfg, k=grid[int(np.argmin(mse))]))
