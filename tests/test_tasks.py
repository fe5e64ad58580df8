import numpy as np
import pytest

from selreg.core import DataError, SelregError
from selreg.harness import materialize
from selreg.tasks import SmoothTask1D, _legendre_rule, default_discrete_task, default_smooth_task, get_task


def quadrature_reference(task):
    """The 128-node rule on [lo, hi] as the tasks built it on every call,
    before they carried it."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    half = 0.5 * (task.hi - task.lo)
    x = task.lo + half * (nodes + 1.0)
    # uniform density 1/(hi-lo) times the affine Jacobian `half`
    w = weights * half / (task.hi - task.lo)
    return x[:, None], w


SMOOTH_TASKS = [
    default_smooth_task(),
    SmoothTask1D(lo=0.5, hi=3.0, mean_fn=np.cos, var_fn=lambda x: 1.0 + 0.0 * x),
]


@pytest.mark.parametrize("task", SMOOTH_TASKS, ids=["default", "shifted"])
class TestSmoothTaskRule:
    def test_points_and_weights_keep_the_reference_bits(self, task):
        points, weights = quadrature_reference(task)
        assert task.points.shape == (128, 1) and task.weights.shape == (128,)
        assert task.points.tobytes() == points.tobytes()
        assert task.weights.tobytes() == weights.tobytes()

    def test_weights_integrate_x_squared(self, task):
        lo, hi = task.lo, task.hi
        exact = (hi**3 - lo**3) / (3.0 * (hi - lo))
        assert abs(np.dot(task.weights, task.points[:, 0] ** 2) - exact) <= 1e-12


@pytest.mark.parametrize("task", [*SMOOTH_TASKS, default_discrete_task()], ids=["default", "shifted", "hetero6"])
def test_points_and_weights_are_read_only(task):
    for a in (task.points, task.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_rule_is_computed_once_per_process(monkeypatch):
    calls, real = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda deg: calls.append(deg) or real(deg))
    _legendre_rule.cache_clear()
    try:
        tasks = [materialize("smooth1d", seed)[3] for seed in range(3)]
    finally:
        _legendre_rule.cache_clear()
    assert calls == [128]
    assert all(t.points.tobytes() == tasks[0].points.tobytes() for t in tasks)


def test_rule_is_not_part_of_equality_or_repr():
    # an array field in the generated __eq__ would raise on comparison
    a = default_smooth_task()
    assert "points" not in repr(a) and "weights" not in repr(a)
    assert SmoothTask1D(a.lo, a.hi, a.mean_fn, a.var_fn) == SmoothTask1D(a.lo, a.hi, a.mean_fn, a.var_fn)


@pytest.mark.parametrize("method", ["mean_at", "var_at"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_discrete_moments_refuse_nonfinite_queries(method, bad):
    task = default_discrete_task()
    with pytest.raises(DataError, match="NaN or inf"):
        getattr(task, method)(np.array([[bad], [1.0]]))


def test_discrete_moments_take_the_nearest_point_ties_lower():
    task = default_discrete_task()
    np.testing.assert_array_equal(task.mean_at(np.array([[1.0], [1.1], [11.0]])), [0.5, -1.0, -0.5])
    np.testing.assert_array_equal(task.var_at(np.array([[3.0], [-1.0]])), [0.5, 0.25])


def test_smooth_task_refuses_a_negative_variance():
    task = SmoothTask1D(lo=0.0, hi=1.0, mean_fn=np.sin, var_fn=lambda x: x - 0.5)
    with pytest.raises(ValueError, match="var_fn returned a negative variance"):
        task.var_at(np.array([[0.25]]))


def test_unknown_task_name_is_refused():
    with pytest.raises(SelregError, match=r"unknown synthetic task 'hetero7'; available: \['hetero6', 'smooth1d'\]") as exc:
        get_task("hetero7")
    assert exc.type is SelregError
