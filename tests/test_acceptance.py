"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its worst-case margin and wall time.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from selreg.core import (
    DEFAULT_SIGMA_GRID,
    Dataset,
    RngHandle,
    STREAM_SAMPLE,
    STREAM_VERIFY,
    SplitSpec,
    TableLookupRegressor,
    TableLookupRejector,
    split_dataset,
)
from selreg.harness import ExperimentConfig, cost_calibrator, run_experiment
from selreg.core import CostConfig
from selreg.losses import bayes_risk, excess_losses, oracle_rwr_risk, squared_risk, truncated_loss
from selreg.models import KnnConfig, MlpConfig, fit_knn_auto, fit_mlp
from selreg.oracle import (
    build_entrywise_trapped_pair,
    build_locally_trapped_pair,
    check_risk_decomposition,
    enumerate_pair_minimum,
    random_discrete_task,
    random_table_calibrator,
    random_table_regressor,
    random_table_rejector,
    verify_entrywise_optimality,
    verify_local_optimality,
)
from selreg.rejection import (
    classify_with_rejection,
    conformal_threshold,
    induce_rejector,
    oracle_bayes_pair,
)
from selreg.tasks import (
    BinaryTask,
    OracleRiskCalibrator,
    binary_rwr_risk,
    default_discrete_task,
)
from test_models import gradient_check

TOL = 1e-12


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def _report(num: int, name: str, ok: bool, margin: float, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} (margin {margin:.3e}, {seconds:.2f}s)")
    assert ok, f"criterion {num} failed with margin {margin}"


def test_criterion_01_surrogate_inequality():
    gen = RngHandle(101, STREAM_VERIFY).generator()
    with _Timer() as t:
        worst = math.inf
        for _ in range(100):
            task = random_discrete_task(gen)
            f = random_table_regressor(gen, task)
            c = float(gen.uniform(0.2, 4.0))
            exc_trunc, exc_sq = excess_losses(f, task, c)
            worst = min(worst, exc_sq - exc_trunc)
    _report(1, "squared-loss excess dominates truncated excess", worst >= -TOL, worst, t.seconds)
    assert t.seconds < 1.0


def test_criterion_02_truncated_loss_sandwich():
    gen = RngHandle(102, STREAM_VERIFY).generator()
    with _Timer() as t:
        worst_lb = math.inf
        worst_eq = 0.0
        for _ in range(100):
            task = random_discrete_task(gen)
            f = random_table_regressor(gen, task)
            r = random_table_rejector(gen, task)
            c = float(gen.uniform(0.2, 4.0))
            worst_lb = min(worst_lb, oracle_rwr_risk(f, r, task, c) - truncated_loss(f, task, c))
            risk = (f.predict(task.points) - task.means) ** 2 + task.variances
            r_f = TableLookupRejector(task.points, (risk <= c).astype(int))
            worst_eq = max(worst_eq, abs(oracle_rwr_risk(f, r_f, task, c) - truncated_loss(f, task, c)))
        ok = worst_lb >= -TOL and worst_eq <= TOL
    _report(2, "truncated loss lower-bounds every rejector, ties at induced",
            ok, min(worst_lb, TOL - worst_eq), t.seconds)
    assert t.seconds < 1.0


def test_criterion_03_calibration_gap_and_decomposition():
    gen = RngHandle(103, STREAM_VERIFY).generator()
    with _Timer() as t:
        worst_gap = math.inf
        worst_dec = math.inf
        for _ in range(100):
            task = random_discrete_task(gen)
            f = random_table_regressor(gen, task)
            cal = random_table_calibrator(gen, task, f)
            c = float(gen.uniform(0.2, 4.0))
            from selreg.losses import risk_values

            lhs = oracle_rwr_risk(f, induce_rejector(cal, c), task, c)
            cal_err = float(np.dot(task.weights, np.abs(cal.values - risk_values(f, task))))
            worst_gap = min(worst_gap, truncated_loss(f, task, c) + cal_err - lhs)
            excess, pred, calib = check_risk_decomposition(f, cal, task, c)
            worst_dec = min(worst_dec, pred + calib - excess)
        task6 = default_discrete_task()
        f_star = TableLookupRegressor(task6.points, task6.means)
        tight = check_risk_decomposition(f_star, OracleRiskCalibrator(task6, f_star), task6, 2.0)
        tight_err = max(abs(x) for x in tight)
        ok = worst_gap >= -TOL and worst_dec >= -TOL and tight_err <= TOL
    _report(3, "calibration-gap bound and excess-risk decomposition",
            ok, min(worst_gap, worst_dec, TOL - tight_err), t.seconds)
    assert t.seconds < 2.0


def test_criterion_04_trap_constructions():
    task = default_discrete_task()
    c = 2.0
    with _Timer() as t:
        f0, r0 = build_locally_trapped_pair(task, c)
        flat_loss = oracle_rwr_risk(f0, r0, task, c)
        local_base, local_best = verify_local_optimality((f0, r0), task, 0.9 * math.sqrt(c), c)
        local_gap = local_base - bayes_risk(task, c)
        gap_closed_form = c - bayes_risk(task, c)
        local_ok = (
            flat_loss == c
            and not local_best < local_base - 1e-10
            and abs(local_gap - gap_closed_form) <= TOL
            and local_gap > 0.0
        )

        f1, r1 = build_entrywise_trapped_pair(task, c)
        entry_base, best_rej, best_reg = verify_entrywise_optimality((f1, r1), task, c)
        entry_gap = entry_base - bayes_risk(task, c)
        u1 = task.variances < c
        entry_gap_closed = float(np.dot(task.weights[u1], c - task.variances[u1]))
        entry_ok = (
            not (best_rej < entry_base - 1e-10 or best_reg < entry_base - 1e-10)
            and abs(entry_gap - entry_gap_closed) <= TOL
            and entry_gap > 0.0
        )
        ok = local_ok and entry_ok
        margin = min(local_best - local_base, best_rej - entry_base, best_reg - entry_base)
    _report(4, "trapped pairs: unimprovable locally/entrywise, positive global gaps",
            ok, margin, t.seconds)
    assert t.seconds < 30.0


def test_criterion_05_conformal_coverage():
    m, gamma, trials, fresh = 99, 0.2, 2000, 200
    gen = RngHandle(105, STREAM_VERIFY).generator()
    with _Timer() as t:
        hits = total = 0
        for _ in range(trials):
            th = conformal_threshold(gen.standard_normal(m), gamma)
            draws = gen.standard_normal(fresh)
            hits += int((draws <= th.c_hat).sum())
            total += fresh
        rate = hits / total
        lo, hi = 0.77, 0.84
        ok = lo <= rate <= hi
    _report(5, f"conformal acceptance rate {rate:.4f} within [{lo}, {hi}]",
            ok, min(rate - lo, hi - rate), t.seconds)
    assert t.seconds < 10.0


def test_criterion_06_reference_pair_attains_enumerated_minimum():
    task = default_discrete_task()
    c = 2.0
    with _Timer() as t:
        f_star, r_star = oracle_bayes_pair(task, c)
        star = oracle_rwr_risk(f_star, r_star, task, c)
        grid_min = enumerate_pair_minimum(task, c)
        expected = float(np.mean([0.25, 0.5, 1.0, 2.0, 2.0, 2.0]))
        ok = grid_min >= star - 1e-10 and abs(star - expected) <= 1e-10
        margin = min(grid_min - star + 1e-10, 1e-10 - abs(star - expected))
    _report(6, "variance-threshold pair attains the enumerated minimum", ok, margin, t.seconds)
    assert t.seconds < 5.0


def test_criterion_07_pipeline_beats_always_defer():
    with _Timer() as t:
        margins = []
        for c in (0.5, 1.0, 2.0):
            cfg = ExperimentConfig(
                dataset_source="hetero6",
                cost_config=CostConfig.fixed_cost(c),
                regressor=KnnConfig(),
                rejector="kernel",
                repeats=10,
                seed=77,
                synthetic_n=1000,
            )
            rep = run_experiment(cfg)
            margins.append(c - rep.rwr_mean)
        ok = all(m > 0.0 for m in margins)
    _report(7, "k-NN + kernel rejector beats the all-defer baseline at every cost",
            ok, min(margins), t.seconds)
    assert t.seconds < 60.0


def test_criterion_08_mlp_gradients_and_determinism():
    with _Timer() as t:
        rng = np.random.default_rng(108)
        probe = Dataset(rng.normal(size=(16, 3)), rng.normal(size=16))
        report = gradient_check(MlpConfig(), probe, 8)
        grad_ok = report.max_relative_error <= 1e-4

        data = Dataset(rng.normal(size=(200, 2)), rng.normal(size=200))
        cfg = MlpConfig(epochs=40)
        a, b = fit_mlp(data, cfg, 88), fit_mlp(data, cfg, 88)
        bit_ok = all(
            np.array_equal(pa, pb)
            for pa, pb in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2))
        )
        ok = grad_ok and bit_ok
    _report(8, "backprop matches finite differences; retraining is bit-exact",
            ok, 1e-4 - report.max_relative_error, t.seconds)
    assert t.seconds < 10.0


def test_criterion_09_consistency_trends():
    task = default_discrete_task()
    c = 2.0
    noise_floor = squared_risk(TableLookupRegressor(task.points, task.means), task)
    optimum = bayes_risk(task, c)
    with _Timer() as t:
        excess_medians, gap_medians = [], []
        for n in (100, 400, 1600):
            excesses, gaps = [], []
            for seed in range(9):
                data = task.sample(n, RngHandle(9000 + seed, STREAM_SAMPLE))
                train, val, _ = split_dataset(data, SplitSpec(), seed)
                predictions = np.empty(val.n)
                f = fit_knn_auto(train, val, out=predictions)
                excesses.append(squared_risk(f, task) - noise_floor)
                cal = cost_calibrator("kernel", DEFAULT_SIGMA_GRID, f, val, predictions, None, c)
                achieved = oracle_rwr_risk(f, induce_rejector(cal, c), task, c)
                gaps.append(abs(achieved - optimum))
            excess_medians.append(float(np.median(excesses)))
            gap_medians.append(float(np.median(gaps)))
        dec_excess = min(np.diff([-m for m in excess_medians]))
        dec_gap = min(np.diff([-m for m in gap_medians]))
        ok = (
            excess_medians[0] > excess_medians[1] > excess_medians[2]
            and gap_medians[0] > gap_medians[1] > gap_medians[2]
        )
    _report(9, f"medians fall with n: excess {excess_medians}, gap {gap_medians}",
            ok, min(dec_excess, dec_gap), t.seconds)
    assert t.seconds < 120.0


def test_criterion_10_classification_extension():
    task = BinaryTask(
        points=np.array([[0.0], [1.0], [2.0], [3.0]]),
        weights=np.full(4, 0.25),
        eta=np.array([0.9, 0.6, 0.5, 0.1]),
    )
    c = 0.3
    with _Timer() as t:
        clf, rej = classify_with_rejection(task, c)
        labels = clf.predict(task.points)
        accepts = rej.accept(task.points)

        # independent oracle: exact expected 0-1 loss from the label
        # probabilities, fixed ahead of the implementation
        expected_risk = 0.0
        for j in range(task.size):
            if accepts[j]:
                p_err = task.eta[j] if labels[j] == 0.0 else 1.0 - task.eta[j]
                expected_risk += 0.25 * p_err
            else:
                expected_risk += 0.25 * c
        achieved = binary_rwr_risk(clf, rej, task, c)

        # the risk-threshold rule defers every point whose conditional 0-1
        # risk min(eta, 1-eta) exceeds c=0.3: that is both the eta=0.6 point
        # (risk 0.4) and the eta=0.5 point (risk 0.5)
        coin_flip_deferred = accepts[2] == 0
        deferral_set_ok = list(accepts) == [1, 0, 0, 1]
        frozen_value_ok = achieved == pytest.approx(0.2, abs=TOL)
        ok = (
            coin_flip_deferred
            and deferral_set_ok
            and frozen_value_ok
            and achieved == pytest.approx(expected_risk, abs=TOL)
            and list(labels) == [1.0, 1.0, 1.0, 0.0]
        )
    _report(10, "label task: risk-threshold deferral and enumerated risk 0.2",
            ok, abs(achieved - 0.2), t.seconds)
    assert t.seconds < 1.0
