from dataclasses import dataclass

import numpy as np
import pytest

from selreg import models
from selreg.core import (
    Dataset,
    RngHandle,
    STREAM_MLP,
    STREAM_SAMPLE,
    SelregError,
    SplitSpec,
    TableLookupRegressor,
    model_from_json,
    model_to_json,
    split_dataset,
)
from selreg.losses import oracle_rwr_risk, squared_risk
from selreg.models import (
    KnnConfig,
    MlpConfig,
    fit_knn,
    fit_knn_auto,
    fit_mlp,
)
from selreg.oracle import random_table_rejector
from selreg.tasks import default_discrete_task, default_smooth_task


def _mse(f, data):
    return float(np.mean((f.predict(data.features) - data.targets) ** 2))


class TestKnn:
    def test_k_equals_n_predicts_global_mean(self, tiny_dataset):
        model = fit_knn(tiny_dataset, KnnConfig(k=3))
        np.testing.assert_allclose(
            model.predict(np.array([[-5.0], [7.0]])), tiny_dataset.targets.mean()
        )

    def test_k1_exact_match(self, tiny_dataset):
        model = fit_knn(tiny_dataset, KnnConfig(k=1))
        assert model.predict(np.array([[2.0]]))[0] == 4.0

    def test_two_neighbor_hand_case(self, tiny_dataset):
        # query 0.9: neighbors at x=1 (d^2=0.01) and x=0 (d^2=0.81) -> mean(1, 0)
        model = fit_knn(tiny_dataset, KnnConfig(k=2))
        assert model.predict(np.array([[0.9]]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_k_too_large(self, tiny_dataset):
        with pytest.raises(SelregError, match="k=4 exceeds training size 3") as exc:
            fit_knn(tiny_dataset, KnnConfig(k=4))
        assert exc.type is SelregError

    def test_distance_tie_breaks_to_lower_index(self):
        data = Dataset(np.array([[0.0], [2.0]]), np.array([10.0, 20.0]))
        model = fit_knn(data, KnnConfig(k=1))
        # query at 1.0 is equidistant; row 0 wins
        assert model.predict(np.array([[1.0]]))[0] == 10.0

    def test_round_trip_serialization(self, tiny_dataset):
        model = fit_knn(tiny_dataset, KnnConfig(k=2))
        clone = model_from_json(model_to_json(model))
        q = np.array([[0.4], [1.9]])
        np.testing.assert_array_equal(model.predict(q), clone.predict(q))


class TestSelectHyperparameters:
    """fit_knn_auto picks k on the validation split from one k-grid call."""

    def test_singleton_grid(self, tiny_dataset):
        got = fit_knn_auto(tiny_dataset, tiny_dataset, KnnConfig(k_grid=(2,)))
        assert got.k == 2

    def test_tie_prefers_smaller(self):
        # constant targets: every k has zero validation loss
        data = Dataset(np.arange(6, dtype=float)[:, None], np.ones(6))
        got = fit_knn_auto(data, data, KnnConfig(k_grid=(4, 2)))
        assert got.k == 2

    def test_small_k_wins_on_sloped_data(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 200)[:, None]
        y = 3.0 * x[:, 0]
        train = Dataset(x, y)
        val = Dataset(x + 0.001, y)
        losses = {
            k: _mse(fit_knn(train, KnnConfig(k=k)), val) for k in (5, 150)
        }
        assert losses[5] < losses[150]
        got = fit_knn_auto(train, val, KnnConfig(k_grid=(5, 150)))
        assert got.k == 5

    def test_matches_per_k_fits_on_smooth1d(self):
        data = default_smooth_task().sample(1500, RngHandle(4, STREAM_SAMPLE))
        train, val, _ = split_dataset(data, SplitSpec(), 4)
        losses = {
            k: _mse(fit_knn(train, KnnConfig(k=k)), val)
            for k in KnnConfig().k_grid
        }
        assert len(set(losses.values())) > 1
        assert fit_knn_auto(train, val).k == min(losses, key=lambda k: (losses[k], k))

    def test_auto_fit_truncates_grid_silently(self):
        data = Dataset(np.arange(8, dtype=float)[:, None], np.arange(8, dtype=float))
        model = fit_knn_auto(data, data, KnnConfig(k_grid=(5, 150)))
        assert model.k == 5
        # with no grid entry left, k = n_train
        assert fit_knn_auto(data, data, KnnConfig(k_grid=(50, 150))).k == 8

    def test_empty_grid_is_refused(self):
        with pytest.raises(ValueError, match="k_grid"):
            KnnConfig(k_grid=())

    def test_list_grid_is_kept_as_a_tuple(self):
        cfg = KnnConfig(k_grid=[5, 10])
        assert cfg.k_grid == (5, 10) and cfg == KnnConfig(k_grid=(5, 10))
        assert hash(cfg) == hash(KnnConfig(k_grid=(5, 10)))


class TestGridRow:
    """``fit_knn_auto(..., out=p)`` gives ``p`` the bits of the chosen
    model's ``predict(val.features)``."""

    @staticmethod
    def _fit(train, val, cfg=KnnConfig()):
        out = np.full(val.n, np.nan)
        model = fit_knn_auto(train, val, cfg, out=out)
        np.testing.assert_array_equal(out.view(np.int64), model.predict(val.features).view(np.int64))
        return model

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_bits_of_predict(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(900, d))
        y = np.sin(2.0 * x[:, 0]) + x.sum(axis=1) + 0.1 * rng.normal(size=900)
        train, val = Dataset(x[:600], y[:600]), Dataset(x[600:], y[600:])
        # a k below the grid's largest: the grid orders more neighbours than k needs
        assert self._fit(train, val).k < max(KnnConfig().k_grid)

    def test_bits_of_predict_with_ties_at_the_kth_distance(self):
        # integer coordinates: each has about 20 training rows, so the kth
        # distance ties and the rows are redone on the full path
        rng = np.random.default_rng(5)
        train = Dataset(rng.integers(0, 30, size=(600, 1)).astype(float), rng.normal(size=600))
        val = Dataset(rng.integers(0, 30, size=(200, 1)).astype(float), rng.normal(size=200))
        model = self._fit(train, val, KnnConfig(k_grid=(5, 10, 30, 70)))
        d2 = np.sort((val.features - train.features.T) ** 2, axis=1)
        assert np.any(d2[:, model.k - 1] == d2[:, model.k])

    def test_bits_of_predict_when_every_grid_entry_exceeds_n_train(self):
        rng = np.random.default_rng(6)
        train = Dataset(rng.normal(size=(40, 2)), rng.normal(size=40))
        val = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        assert self._fit(train, val, KnnConfig(k_grid=(50, 150))).k == train.n


def _boolean_scatter_forward_backward(params, X, y, work):
    """Reference for ``models._forward_backward``: the same arithmetic in
    three arrays of its own, ignoring ``work``, and the ReLU backward writes
    zeros through the boolean index ``pre <= 0.0``."""
    w1, b1, w2, b2 = params
    n = X.shape[0]
    pre, hidden, dhidden = (np.empty((n, w1.shape[1])) for _ in range(3))
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


def _outer_forward_backward(params, X, y, work):
    """Reference for ``models._forward_backward``: one pass over the whole
    batch, the product ``dpred w2^T`` from ``np.outer``."""
    w1, b1, w2, b2 = params
    n = X.shape[0]
    hidden = work[:n]
    np.matmul(X, w1, out=hidden)
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    pred = (hidden @ w2 + b2)[:, 0]
    err = pred - y
    loss = float(np.mean(err**2))
    dpred = (2.0 / n) * err
    dw2 = hidden.T @ dpred[:, None]
    db2 = np.array([dpred.sum()])
    active = hidden > 0.0
    dhidden = np.outer(dpred, w2[:, 0], out=hidden)
    np.multiply(dhidden, active, out=dhidden)
    dw1 = X.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return loss, [dw1, db1, dw2, db2]


def _per_layer_fit_mlp(train, cfg, seed):
    """Reference for ``models.fit_mlp``: Adam layer by layer, each batch
    gathered by ``X[idx]``, and the step ``_outer_forward_backward``."""
    rng = RngHandle(seed, STREAM_MLP).generator()
    X, y = train.features, train.targets
    params = models._init_params(train.dim, cfg.hidden_width, rng)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    batch = min(cfg.batch_size, train.n)
    lr, wd = cfg.learning_rate, cfg.weight_decay
    work = np.empty((batch, cfg.hidden_width))
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train.n)
        for start in range(0, train.n, batch):
            idx = order[start : start + batch]
            _, grads = _outer_forward_backward(params, X[idx], y[idx], work)
            t += 1
            c1 = 1.0 - models._ADAM_BETA1**t
            c2 = 1.0 - models._ADAM_BETA2**t
            for i, g in enumerate(grads):
                m[i] = models._ADAM_BETA1 * m[i] + (1.0 - models._ADAM_BETA1) * g
                v[i] = models._ADAM_BETA2 * v[i] + (1.0 - models._ADAM_BETA2) * g * g
                params[i] = params[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + models._ADAM_EPS)
                if wd > 0.0 and i in (0, 2):
                    params[i] = params[i] - lr * wd * params[i]
    return models.MlpRegressor(*params)


def _weight_bytes(model):
    return [p.tobytes() for p in (model.w1, model.b1, model.w2, model.b2)]


# (n, d, batch_size, low, high): rows are drawn uniform on [low, high)^d.
# All-zero rows make pre exactly 0.0 at the initial zero biases.
_STEP_SHAPES = {
    "mini-batch-short-last": (640, 2, 256, -1.0, 1.0),
    "batch-clipped-to-n-d1": (50, 1, 256, -1.0, 1.0),
    "full-batch-d3": (800, 3, 800, -1.0, 1.0),
    "zero-rows": (32, 2, 32, 0.0, 0.0),
    "unit-dead-on-every-row": (96, 1, 96, 0.5, 1.5),
}


class TestMlp:
    @pytest.mark.parametrize("shape", list(_STEP_SHAPES), ids=list(_STEP_SHAPES))
    def test_mask_multiply_keeps_the_boolean_scatter_bits(self, shape, monkeypatch):
        n, d, batch, low, high = _STEP_SHAPES[shape]
        rng = np.random.default_rng(11)
        X = rng.uniform(low, high, size=(n, d))
        data = Dataset(X, np.sin(3.0 * X.sum(axis=1)) + rng.normal(0, 0.1, n))
        cfg = MlpConfig(learning_rate=5e-3, batch_size=batch, epochs=20)
        if shape == "unit-dead-on-every-row":
            w1 = models._init_params(d, cfg.hidden_width, RngHandle(4, STREAM_MLP).generator())[0]
            assert (X @ w1 <= 0.0).all(axis=0).any()  # at the initial weights
        new = _weight_bytes(fit_mlp(data, cfg, 4))
        monkeypatch.setattr(models, "_forward_backward", _boolean_scatter_forward_backward)
        assert new == _weight_bytes(fit_mlp(data, cfg, 4))

    @pytest.mark.parametrize("shape", list(_STEP_SHAPES), ids=list(_STEP_SHAPES))
    def test_fit_keeps_the_per_layer_bits(self, shape):
        n, d, batch, low, high = _STEP_SHAPES[shape]
        rng = np.random.default_rng(11)
        X = rng.uniform(low, high, size=(n, d))
        data = Dataset(X, np.sin(3.0 * X.sum(axis=1)) + rng.normal(0, 0.1, n))
        cfg = MlpConfig(learning_rate=5e-3, batch_size=batch, epochs=20)
        assert _weight_bytes(fit_mlp(data, cfg, 4)) == _weight_bytes(_per_layer_fit_mlp(data, cfg, 4))

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("tail", [1, 2, 17])
    def test_full_batch_fit_keeps_the_per_layer_bits_whatever_its_last_chunk(self, tail, d):
        # the step's row-wise passes run over models._CHUNK rows at a time;
        # a one-row last chunk would be a gemv product, with other bits.
        # Weight decay 0 covers the fit that skips the decay update
        n = 2 * models._CHUNK + tail
        rng = np.random.default_rng(12)
        X = rng.normal(size=(n, d))
        data = Dataset(X, np.sin(X.sum(axis=1)) + rng.normal(0, 0.1, n))
        cfg = MlpConfig(learning_rate=5e-3, weight_decay=0.0, batch_size=n, epochs=10)
        assert _weight_bytes(fit_mlp(data, cfg, 5)) == _weight_bytes(_per_layer_fit_mlp(data, cfg, 5))

    def test_constant_zero_target_fits_fast(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.uniform(-1, 1, size=(256, 3)), np.zeros(256))
        cfg = MlpConfig(learning_rate=5e-3, epochs=50)
        model = fit_mlp(data, cfg, 3)
        assert _mse(model, data) <= 1e-3

    def test_bit_identical_retrain(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(128, 2)), rng.normal(size=128))
        cfg = MlpConfig(epochs=30)
        a = fit_mlp(data, cfg, 9)
        b = fit_mlp(data, cfg, 9)
        for pa, pb in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2)):
            np.testing.assert_array_equal(pa, pb)

    def test_linear_task_matches_least_squares_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=(500, 1))
        y = 2.0 * x[:, 0] + rng.normal(0, 0.01, 500)
        train, _, test = split_dataset(Dataset(x, y), SplitSpec(), 1)
        cfg = MlpConfig(epochs=800)
        model = fit_mlp(train, cfg, 5)
        mlp_mse = _mse(model, test)

        design = np.column_stack([np.ones(train.n), train.features])
        beta, *_ = np.linalg.lstsq(design, train.targets, rcond=None)
        ls_pred = np.column_stack([np.ones(test.n), test.features]) @ beta
        ls_mse = float(np.mean((ls_pred - test.targets) ** 2))

        assert mlp_mse <= 5e-3
        assert mlp_mse <= ls_mse + 5e-3  # within range of the closed-form fit

    def test_weights_round_trip_with_shape_header(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(64, 2)), rng.normal(size=64))
        model = fit_mlp(data, MlpConfig(epochs=5), 2)
        clone = model_from_json(model_to_json(model))
        q = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(model.predict(q), clone.predict(q))

    def test_predict_rows_are_the_bits_of_one_row_calls(self):
        # a row must score alike in any batch, as split-conformal calibration
        # assumes; BLAS products give bits that depend on the row count
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(400, 5)), rng.normal(size=400))
        model = fit_mlp(data, MlpConfig(epochs=3), 0)
        q = rng.normal(size=(300, 5))
        got = model.predict(q)
        alone = np.array([model.predict(row[None])[0] for row in q])
        # compared as integers, so that equal predictions are equal bits
        np.testing.assert_array_equal(got.view(np.int64), alone.view(np.int64))
        products = (np.maximum(q @ model.w1 + model.b1, 0.0) @ model.w2 + model.b2)[:, 0]
        np.testing.assert_allclose(got, products, rtol=1e-12, atol=1e-14)
        with pytest.raises(ValueError, match="takes 5 input features, got 4"):
            model.predict(q[:, :4])

    def test_batch_larger_than_n_is_clipped(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(20, 2)), rng.normal(size=20))
        fit_mlp(data, MlpConfig(epochs=2, batch_size=256), 1)

    @pytest.mark.parametrize("change, message", [
        (dict(hidden_width=0), "hidden_width, batch_size and epochs must be >= 1"),
        (dict(learning_rate=0.0), "learning_rate must be > 0 and weight_decay >= 0"),
    ], ids=["zero-width", "zero-learning-rate"])
    def test_config_refuses_values_it_cannot_train_with(self, change, message):
        with pytest.raises(ValueError, match=message):
            MlpConfig(**change)

    # a NaN decay failed ``wd > 0.0``, so training skipped the decay silently
    @pytest.mark.parametrize("change", [
        dict(weight_decay=float("nan")),
        dict(weight_decay=float("inf")),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
    ], ids=["nan-decay", "inf-decay", "nan-rate", "inf-rate"])
    def test_config_refuses_a_non_finite_rate(self, change):
        with pytest.raises(ValueError, match="both finite"):
            MlpConfig(**change)

    @pytest.mark.parametrize("change", [
        dict(learning_rate=True),
        dict(weight_decay=False),
        dict(learning_rate="5e-4"),
        dict(weight_decay=None),
    ], ids=["bool-rate", "bool-decay", "str-rate", "none-decay"])
    def test_config_refuses_a_rate_that_is_not_real(self, change):
        with pytest.raises(ValueError, match="must be a real number"):
            MlpConfig(**change)

    def test_config_keeps_rates_as_floats(self):
        cfg = MlpConfig(learning_rate=np.float32(0.5), weight_decay=0)
        assert (cfg.learning_rate, cfg.weight_decay) == (0.5, 0.0)
        assert type(cfg.learning_rate) is float and type(cfg.weight_decay) is float

    def test_divergence_raises_non_finite_loss(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(32, 2)), rng.normal(size=32))
        absurd = MlpConfig(learning_rate=1e200, epochs=5)
        with np.errstate(all="ignore"), pytest.raises(SelregError, match="training loss became non-finite") as exc:
            fit_mlp(data, absurd, 2)
        assert exc.type is SelregError


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
    params = models._init_params(probe.dim, cfg.hidden_width, rng)
    X, y = probe.features, probe.targets
    work = np.empty((probe.n, cfg.hidden_width))
    _, analytic = models._forward_backward(params, X, y, work)

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
            up, _ = models._forward_backward(params, X, y, work)
            p[ix] = orig - step
            down, _ = models._forward_backward(params, X, y, work)
            p[ix] = orig
            numeric[ix] = (up - down) / (2.0 * step)
            it.iternext()
        denom = np.maximum(np.maximum(np.abs(analytic[i]), np.abs(numeric)), 1e-6)
        err = float(np.max(np.abs(analytic[i] - numeric) / denom))
        per_layer[name] = err
        worst = max(worst, err)
    return GradientCheckReport(max_relative_error=worst, per_layer=per_layer)


class TestGradientCheck:
    def test_random_probe_passes_bar(self):
        rng = np.random.default_rng(12)
        probe = Dataset(rng.normal(size=(16, 3)), rng.normal(size=16))
        report = gradient_check(MlpConfig(), probe, 4)
        assert report.max_relative_error <= 1e-4

    def test_zero_inputs_finite(self):
        probe = Dataset(np.zeros((8, 2)), np.ones(8))
        report = gradient_check(MlpConfig(), probe, 5)
        assert np.isfinite(report.max_relative_error)

    def test_per_layer_diagnostics_present(self):
        rng = np.random.default_rng(13)
        probe = Dataset(rng.normal(size=(8, 2)), rng.normal(size=8))
        report = gradient_check(MlpConfig(), probe, 6)
        assert set(report.per_layer) == {"w1", "b1", "w2", "b2"}

    def test_probe_size_cap(self):
        probe = Dataset(np.zeros((33, 2)), np.zeros(33))
        with pytest.raises(ValueError):
            gradient_check(MlpConfig(), probe, 0)


class TestConsistencyProperties:
    def test_knn_excess_risk_shrinks_with_n(self):
        task = default_discrete_task()
        noise_floor = float(np.dot(task.weights, task.variances))
        medians = []
        for n in (100, 400, 1600):
            excesses = []
            for seed in range(5):
                data = task.sample(n, RngHandle(500 + seed, STREAM_SAMPLE))
                tr, va, _ = split_dataset(data, SplitSpec(), seed)
                f = fit_knn_auto(tr, va)
                excesses.append(squared_risk(f, task) - noise_floor)
            medians.append(float(np.median(excesses)))
        assert medians[0] > medians[1] > medians[2]

    def test_cond_mean_lookup_beats_any_competitor_for_every_rejector(self):
        task = default_discrete_task()
        f_mean = TableLookupRegressor(task.points, task.means)
        gen = np.random.default_rng(21)
        for _ in range(30):
            competitor = TableLookupRegressor(
                task.points, task.means + gen.uniform(-2, 2, task.size)
            )
            rej = random_table_rejector(gen, task)
            c = float(gen.uniform(0.2, 4.0))
            assert (
                oracle_rwr_risk(f_mean, rej, task, c)
                <= oracle_rwr_risk(competitor, rej, task, c) + 1e-12
            )
