"""Regressors fitted by plain least-squares risk minimization on all
training samples.

The deferral structure is deliberately ignored at this stage: the regressor
is trained on every row, and the reject rule is learned afterwards from the
regressor's conditional risk (see rejection.py).  Squared loss is a valid
surrogate for the deferral-aware objective, so nothing is lost by training
this way whenever the model class is rich enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .core import (
    Dataset,
    Regressor,
    RngHandle,
    STREAM_MLP,
    SelregError,
    _as_block,
    _freeze,
    _require_int,
    _require_real,
    _table,
    register_model,
)

__all__ = [
    "KnnConfig",
    "MlpConfig",
    "KnnRegressor",
    "MlpRegressor",
    "fit_knn",
    "fit_mlp",
    "fit_knn_auto",
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
        for name in ("learning_rate", "weight_decay"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        # NaN fails both comparisons: a NaN decay would skip the decay silently
        if not (0.0 < self.learning_rate < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ValueError(f"learning_rate must be > 0 and weight_decay >= 0, both finite, got "
                             f"{self.learning_rate!r} and {self.weight_decay!r}")


@register_model("regressor/knn")
class KnnRegressor(Regressor):
    """Mean target of the k nearest training points (Euclidean distance,
    ties by ascending training-row index)."""

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int):
        self.train_x, self.train_y = _table(train_x, train_y)
        _require_int("k", k)
        self.k = k
        if not 1 <= self.k <= self.train_x.shape[0]:
            raise SelregError(f"k={k} exceeds training size {self.train_x.shape[0]}")
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
        """One output per row of X, with the bits of a one-row call: the
        first layer adds its terms one input coordinate at a time and the
        output is a row sum, where BLAS products would give bits that depend
        on the number of rows.  Training keeps its matrix products."""
        X = _as_block(X)
        if X.shape[1] != self.dim:
            raise ValueError(f"the MLP takes {self.dim} input features, got {X.shape[1]}")
        hidden = np.broadcast_to(self.b1, (X.shape[0], self.b1.shape[0])).copy()
        term = np.empty_like(hidden)
        for x, w in zip(X.T, self.w1):
            hidden += np.multiply.outer(x, w, out=term)
        np.maximum(hidden, 0.0, out=hidden)
        return np.multiply(hidden, self.w2[:, 0], out=hidden).sum(axis=1) + self.b2[0]

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


# rows per pass of the step's row-wise work: a 512 x 64 block of floats
# is 256 KiB, which stays in a core's L2 cache between the passes
_CHUNK = 512


def _chunks(n: int) -> list[slice]:
    """Slices of ``_CHUNK`` rows that cover ``n`` rows.  A one-row tail joins
    the slice before it: NumPy sends a one-row product to gemv, whose bits
    differ from gemm's."""
    edges = [*range(0, n, _CHUNK), n]
    if n > 1 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _forward_backward(params, X: np.ndarray, y: np.ndarray, work):
    """Mean-squared loss and its gradients for one batch.

    ``work`` is one [batch, width] buffer: the hidden layer, built in place,
    until its ReLU mask is taken, then the hidden-layer gradient.  Training
    passes the same one at every step: allocating and freeing arrays of
    megabytes per step lets malloc hand their pages back to the system and
    fault them in again, which slowed a full-batch fit by a third.

    The row-wise passes run over slices of ``_chunks(n)``, so that a slice
    of the buffer stays in cache from one pass to the next: ``X @ w1``, the
    bias, the ReLU and the prediction; then the ReLU mask, the product
    ``dpred w2^T`` and the mask multiply.  The loss and the four reductions
    over rows (``dw2``, ``db2``, ``dw1``, ``db1``) run once over the whole
    batch, because their bits depend on how a sum is split.  Each row of a
    product over a slice has the bits of the whole batch's product, except
    in a one-row product, which ``_chunks`` never makes of a longer batch.
    Besides ``work``, a step allocates the error vector and its square, of
    ``n`` floats each, and arrays of one slice's size.

    ``dpred w2^T`` is the K = 2 product ``[dpred, 0] @ [w2^T; 0]``, which
    BLAS writes into the buffer about four times faster than ``np.outer``:
    110 against 450 us at 5600 x 64, on one OpenBLAS thread of a 2-core x86
    VM.  Each entry is ``dpred_i * w2_j`` rounded once, as in the outer
    product, but a ``-0.0`` product comes out ``+0.0``.  The ReLU
    backward multiplies by the mask ``hidden > 0.0`` rather than scattering
    zeros through a boolean index, which leaves ``-0.0`` where the scatter
    wrote ``+0.0``.  Neither sign of a zero changes a bit of the fit: added
    to the Adam moments, which start at ``+0.0``, either gives the same bits.
    """
    w1, b1, w2, b2 = params
    n, width = X.shape[0], w1.shape[1]
    hidden = work[:n]
    chunks = _chunks(n)
    err = np.empty(n)
    for rows in chunks:
        h = hidden[rows]
        np.matmul(X[rows], w1, out=h)
        h += b1
        np.maximum(h, 0.0, out=h)
        np.subtract((h @ w2 + b2)[:, 0], y[rows], out=err[rows])
    loss = float(np.mean(err**2))
    dpred = np.multiply(err, 2.0 / n, out=err)
    dw2 = hidden.T @ dpred[:, None]
    db2 = np.array([dpred.sum()])
    lhs = np.zeros((min(n, _CHUNK + 1), 2))  # [dpred, 0], a slice at a time
    rhs = np.concatenate([w2.T, np.zeros((1, width))])
    for rows in chunks:
        h = hidden[rows]
        active = h > 0.0
        lhs[: len(h), 0] = dpred[rows]
        np.matmul(lhs[: len(h)], rhs, out=h)
        h *= active
    dw1 = X.T @ hidden
    db1 = hidden.sum(axis=0)
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

    The parameters, both Adam moments and the gradient are flat vectors laid
    out as w1, w2, b1, b2, so one update of in-place ufunc calls serves all
    four layers, and the weight decay one slice.  Each call is the operation,
    in the order, of the per-layer update
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``,
    ``p = p - lr (m / c1) / (sqrt(v / c2) + eps)``, then
    ``p = p - lr wd p`` on the weights.  Each batch is gathered into buffers
    made once per fit, and ``_forward_backward`` takes it in row slices of
    ``_CHUNK`` that stay in cache.
    """
    rng = RngHandle(seed, STREAM_MLP).generator()
    X, y = train.features, train.targets
    w1, b1, w2, b2 = _init_params(train.dim, cfg.hidden_width, rng)
    theta = np.concatenate([w1.ravel(), w2.ravel(), b1, b2])
    grad, m, v, step, denom = (np.zeros_like(theta) for _ in range(5))
    nw = w1.size + w2.size
    params = [theta[: w1.size].reshape(w1.shape), theta[nw : -1], theta[w1.size : nw].reshape(w2.shape), theta[-1:]]
    batch = min(cfg.batch_size, train.n)
    lr, wd = cfg.learning_rate, cfg.weight_decay
    Xb, yb, work = np.empty((batch, train.dim)), np.empty(batch), np.empty((batch, cfg.hidden_width))
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train.n)
        for start in range(0, train.n, batch):
            idx = order[start : start + batch]
            rows = idx.shape[0]
            # "clip" writes straight into out, where "raise" gathers into a copy first
            np.take(X, idx, axis=0, out=Xb[:rows], mode="clip")
            np.take(y, idx, out=yb[:rows], mode="clip")
            loss, (dw1, db1, dw2, db2) = _forward_backward(params, Xb[:rows], yb[:rows], work)
            if not np.isfinite(loss):
                raise SelregError(f"training loss became non-finite at step {t}; lower the learning rate")
            np.concatenate([dw1.ravel(), dw2.ravel(), db1, db2], out=grad)
            t += 1
            m *= _ADAM_BETA1
            m += np.multiply(grad, 1.0 - _ADAM_BETA1, out=step)
            v *= _ADAM_BETA2
            np.multiply(grad, 1.0 - _ADAM_BETA2, out=step)
            v += np.multiply(step, grad, out=step)
            np.sqrt(np.divide(v, 1.0 - _ADAM_BETA2**t, out=denom), out=denom)
            denom += _ADAM_EPS
            np.divide(m, 1.0 - _ADAM_BETA1**t, out=step)
            step *= lr
            theta -= np.divide(step, denom, out=step)
            if wd > 0.0:  # decay weights only
                theta[:nw] -= np.multiply(theta[:nw], lr * wd, out=step[:nw])
    return MlpRegressor(*params)


def fit_knn_auto(train: Dataset, val: Dataset, cfg: KnnConfig = KnnConfig(), *,
                 out: np.ndarray | None = None) -> KnnRegressor:
    """Fit a k-NN regressor with k chosen on the validation split.

    Every k in the grid comes from one neighbour ordering of ``val``
    against ``train``; the lowest validation mean squared error wins, and
    exact ties go to the smallest k.  Grid entries above n_train are
    silently dropped (small-data runs keep working); if nothing survives,
    k = n_train.

    ``out``, an array of ``val.n`` floats, receives the chosen k's row of
    the grid: the model's predictions on ``val``, with the bits of
    ``predict(val.features)``, as each row of ``knn_mean`` has the bits of
    a call with its k alone.  So the held-out losses need no second pass.
    """
    grid = sorted(k for k in cfg.k_grid if k <= train.n) or [train.n]
    preds = backend.knn_mean(_as_block(val.features), train.features, train.targets, grid)
    mse = np.mean((preds - val.targets) ** 2, axis=1)
    best = int(np.argmin(mse))
    if out is not None:
        out[...] = preds[best]
    return KnnRegressor(train.features, train.targets, grid[best])
