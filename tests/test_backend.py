"""Backend contract tests: the kernels must agree with a brute-force
reference, resolve ties to the lower index and stay bounded in memory."""

import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selreg import backend


def brute_sq_dists(q, p):
    out = np.zeros((len(q), len(p)))
    for i, qi in enumerate(q):
        for j, pj in enumerate(p):
            out[i, j] = float(np.sum((qi - pj) ** 2))
    return out


def brute_knn_mean(q, p, v, k):
    order = np.argsort(brute_sq_dists(q, p), axis=1, kind="stable")[:, :k]
    return v[order].mean(axis=1)


def per_sigma_nw(q, c, v, sigma):
    """The single-sigma kernel that the grid kernel replaced, kept as the
    reference its rows must match bit for bit: a fresh ``d2 / -sigma`` per
    call, which keeps a NaN's sign bit as the kernel does, and the nearest
    center by ``argmin`` of the distances.  Its
    numerator is the kernel's row sum of weight times value, which replaced
    the ``w @ v`` product whose bits depend on the block's row count."""
    out = np.empty(len(q))
    q, table, rows = backend._prepare(q, c)
    for start in range(0, len(q), rows):
        d2 = backend._sq_dist(q[start : start + rows], table)
        w = np.exp(d2 / -float(sigma))
        den = w.sum(axis=1)
        est = (w * v).sum(axis=1) / np.where(den > 0.0, den, 1.0)
        dead = den == 0.0
        if np.any(dead):
            est[dead] = v[np.argmin(d2[dead], axis=1)]
        out[start : start + d2.shape[0]] = est
    return out


def partition_nearest(d2, k):
    """The (distance, index) order as ``_nearest`` built it before it became
    one stable argsort, kept as the reference whose bits it must keep: an
    argpartition pick, a stable re-sort of the k picked, and a full sort of
    the rows where a tie or a NaN at the kth distance may have left a lower
    index out."""
    part = np.argpartition(d2, k - 1, axis=1)
    kth = np.take_along_axis(d2, part[:, k - 1 : k], axis=1)
    idx = np.sort(part[:, :k], axis=1)
    idx = np.take_along_axis(
        idx, np.argsort(np.take_along_axis(d2, idx, axis=1), axis=1, kind="stable"), axis=1
    )
    tied = np.count_nonzero(d2 <= kth, axis=1) != k
    if tied.any():
        idx[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return idx


def full_path_knn_mean(q, p, v, ks):
    """The d > 1 kernel before candidate preselection, kept as the reference
    its output must match bit for bit: every distance of each row, ranked
    by a stable argsort of the row."""
    out = np.empty((len(ks), len(q)))
    q, table, rows = backend._prepare(q, p)
    for start in range(0, len(q), rows):
        d2 = backend._sq_dist(q[start : start + rows], table)
        g = v[np.argsort(d2, axis=1, kind="stable")[:, : max(ks)]]
        for j, k in enumerate(ks):
            out[j, start : start + len(g)] = g[:, :k].mean(axis=1)
    return out


def preselection_cases():
    """(name, queries, points) at d = 8 over 2.5 blocks of queries: the data
    on which candidate preselection must keep the full path's bits."""
    rng = np.random.default_rng(31)
    m, d = 300, 8
    p = rng.normal(size=(m, d))
    q = rng.normal(size=(2 * 256 + 40, d)) * 1.5
    yield "continuous", q, p
    for decimals in (0, 1, 2):
        # lattice ties at the kth distance
        yield f"rounded{decimals}", np.round(q, decimals), np.round(p, decimals)
    yield "duplicated", q, p[rng.integers(0, 40, size=m)]
    # the expansion cancels: its error dwarfs the spacing of the points
    yield "offset1e8", q + 1e8, p + 1e8
    # squares underflow to subnormals, whose error is absolute, not relative
    yield "scale1e-162", q * 1e-162, p * 1e-162
    bad_q = q.copy()
    bad_q[[3, 300], 0] = np.nan
    bad_q[[7, 301], 0] = np.inf
    bad_q[8, 0] = -np.inf
    yield "nonfinite_queries", bad_q, p
    # inf only in a column that the queries keep finite: inf - inf would warn
    for bad in (np.nan, np.inf):
        bad_p = p.copy()
        bad_p[11, 1] = bad
        yield f"points_with_{bad}", q, bad_p
    # float32 on the first pass: squares that underflow, inputs that are
    # subnormal, squares that overflow, and, on a lattice, squares that
    # underflow where distances tie
    for scale in (1e-20, 1e-40, 1e19, 1e20):
        yield f"scale{scale:.0e}", q * scale, p * scale
    yield "rounded0_scale1e-21", np.round(q) * 1e-21, np.round(p) * 1e-21
    # centred, the offset leaves float32 the points' spread
    yield "offset1e3", q + 1e3, p + 1e3
    # the outlier puts the centre, and float32's error, far from the cluster
    cluster = p * 1e-2
    cluster[7] = 1e3
    yield "cluster_outlier", q * 1e-2, cluster
    # points distinct in float64 that round to one float32 value
    yield "float32_collisions", q, p[rng.integers(0, 40, size=m)] + 1e-12 * rng.normal(size=(m, d))


def extreme_cases(d):
    """(name, queries, points) at dimension d whose arithmetic leaves the
    finite range: a query and a point sharing an infinite coordinate
    (inf - inf), squares that overflow, and a distance of about 2.5e305,
    whose quotient by a sigma of 1e-3 overflows.  At d = 8 an infinite or
    overflowing point sends every row to the full path; in the last case the
    points stay finite, and the candidate path settles all but two rows."""
    rng = np.random.default_rng(40 + d)
    p, q = rng.normal(size=(300, d)), rng.normal(size=(60, d))
    shared_p, shared_q = p.copy(), q.copy()
    shared_p[5, 0], shared_p[6, 0], shared_p[7, -1] = np.inf, -np.inf, np.inf
    shared_q[0, 0], shared_q[1, 0], shared_q[2, -1] = np.inf, -np.inf, np.inf
    yield "shared_inf", shared_q, shared_p
    big_p, big_q = p.copy(), q.copy()
    big_p[5], big_p[6, 0] = -1e200, 1e200
    big_q[0], big_q[1, 0] = 1e200, -1e200
    yield "square_overflow", big_q, big_p
    far_q = q.copy()
    far_q[0, 0], far_q[1, 0] = 5e152, 1e152
    yield "quotient_overflow", far_q, p


def quiet_reference(q, p, v, ks, sigmas):
    """Brute-force ``knn_mean`` and ``gaussian_nw`` with every floating-point
    warning silenced: distances summed coordinate by coordinate, neighbours
    by a stable argsort, the smoother's numerator as the kernel's row sum of
    weight times value, and the all-zero-weight fallback by ``argmin``."""
    with np.errstate(all="ignore"):
        d2 = np.zeros((len(q), len(p)))
        for j in range(q.shape[1]):
            d2 += np.square(q[:, None, j] - p[None, :, j])
        g = v[np.argsort(d2, axis=1, kind="stable")[:, : max(ks)]]
        knn = np.array([g[:, :k].mean(axis=1) for k in ks])
        nw = []
        for sigma in sigmas:
            w = np.exp(-d2 / sigma)
            den = w.sum(axis=1)
            est = (w * v).sum(axis=1) / np.where(den > 0.0, den, 1.0)
            dead = den == 0.0
            est[dead] = v[np.argmin(d2[dead], axis=1)]
            nw.append(est)
    return knn, np.array(nw)


def brute_nw(q, c, v, sigma):
    d2 = brute_sq_dists(q, c)
    w = np.exp(-d2 / sigma)
    den = w.sum(axis=1)
    return np.where(den > 0.0, (w @ v) / np.where(den > 0.0, den, 1.0), v[np.argmin(d2, axis=1)])


# The ids are those the tests had while a compiled backend ran them too, so
# each test keeps its name across that backend's removal.
@pytest.mark.parametrize("name,impl", [pytest.param("numpy", backend, id="numpy-selreg.backend._numpy")])
class TestContracts:
    def test_pairwise_matches_brute_force(self, name, impl):
        rng = np.random.default_rng(0)
        q, p = rng.normal(size=(7, 3)), rng.normal(size=(11, 3))
        np.testing.assert_allclose(impl.pairwise_sq_dists(q, p), brute_sq_dists(q, p), atol=1e-12)
        # with no coordinates every distance is 0, whatever the last call left
        # in the workspace
        np.testing.assert_array_equal(impl.pairwise_sq_dists(q[:, :0], p[:, :0]), np.zeros((7, 11)))

    def test_knn_tie_breaks_by_index(self, name, impl):
        points = np.array([[0.0], [2.0], [1.0]])
        values = np.array([10.0, 20.0, 99.0])
        # query at 1.0: exact-match row 2 first, then rows 0 and 2... row 0
        # and row 1 tie at distance 1; row 0 must win the second slot
        got = impl.knn_mean(np.array([[1.0]]), points, values, (2,))[0]
        assert got[0] == pytest.approx((99.0 + 10.0) / 2.0)

    def test_knn_k_equals_m_is_plain_mean(self, name, impl):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(9, 2))
        v = rng.normal(size=9)
        got = impl.knn_mean(rng.normal(size=(4, 2)), p, v, (9,))[0]
        np.testing.assert_allclose(got, v.mean(), atol=1e-12)

    def test_nw_exact_hand_value(self, name, impl):
        got = impl.gaussian_nw(
            np.array([[1.0]]), np.array([[0.0], [2.0]]), np.array([1.0, 9.0]), (1.0,)
        )[0]
        assert got[0] == pytest.approx(5.0, abs=1e-12)

    def test_nw_underflow_nearest_fallback(self, name, impl):
        centers = np.array([[0.0], [100.0]])
        got = impl.gaussian_nw(np.array([[60.0]]), centers, np.array([1.0, 9.0]), (1e-6,))[0]
        assert got[0] == 9.0

    def test_nw_underflow_tie_takes_lower_index(self, name, impl):
        centers = np.array([[0.0], [120.0]])
        got = impl.gaussian_nw(np.array([[60.0]]), centers, np.array([1.0, 9.0]), (1e-6,))[0]
        assert got[0] == 1.0

    def test_knn_validates_k(self, name, impl):
        for ks in ((4,), (), (0,), (3, 0), (1, 4)):
            with pytest.raises(ValueError):
                impl.knn_mean(np.zeros((1, 1)), np.zeros((3, 1)), np.zeros(3), ks)

    # a one-column operand broadcasts against any width, so a mismatch must
    # be caught explicitly rather than left to NumPy
    @pytest.mark.parametrize("dq,dp", [(2, 1), (1, 2), (2, 3)])
    def test_dimension_mismatch_rejected(self, name, impl, dq, dp):
        q, p, v = np.zeros((2, dq)), np.zeros((3, dp)), np.zeros(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            impl.pairwise_sq_dists(q, p)
        with pytest.raises(ValueError, match="dimension mismatch"):
            impl.knn_mean(q, p, v, (1,))
        with pytest.raises(ValueError, match="dimension mismatch"):
            impl.gaussian_nw(q, p, v, (1.0,))

    @pytest.mark.parametrize("m_values", [2, 4])
    def test_values_length_mismatch_rejected(self, name, impl, m_values):
        q, p, v = np.zeros((2, 1)), np.zeros((3, 1)), np.zeros(m_values)
        with pytest.raises(ValueError, match="values length"):
            impl.knn_mean(q, p, v, (1,))
        with pytest.raises(ValueError, match="values length"):
            impl.gaussian_nw(q, p, v, (1.0,))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_nw_rejects_nonpositive_sigma(self, name, impl, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            impl.gaussian_nw(np.zeros((1, 1)), np.ones((2, 1)), np.ones(2), (sigma,))

    @pytest.mark.parametrize("sigmas", [(), (1.0, 0.0), (-1.0, 1.0), (1.0, float("nan")), (1.0, 10.0, float("inf"))])
    def test_nw_rejects_a_grid_with_any_bad_sigma(self, name, impl, sigmas):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            impl.gaussian_nw(np.zeros((1, 1)), np.ones((2, 1)), np.ones(2), sigmas)

    @pytest.mark.parametrize("d", [1, 8])
    def test_nw_rows_are_the_bits_of_single_sigma_calls(self, name, impl, d):
        # 2.5 blocks of queries; at sigma 1e-3 most rows underflow and take
        # the nearest center, as do the far queries at every sigma but 1e3;
        # row 300 holds a NaN, so its estimate is NaN at every sigma
        rng = np.random.default_rng(17 + d)
        c = rng.normal(size=(300, d))
        q = np.concatenate([rng.normal(size=(2 * 256 + 100, d)) * 1.5, 40.0 + rng.normal(size=(28, d))])
        q[300, -1] = np.nan
        v = rng.exponential(size=300)
        sigmas = tuple(10.0**j for j in range(-3, 4))
        got = impl.gaussian_nw(q, c, v, sigmas)
        assert got.shape == (len(sigmas), len(q))
        dead = np.exp(-impl.pairwise_sq_dists(q, c) / sigmas[0]).sum(axis=1) == 0.0
        assert dead[-28:].all() and not dead.all()
        assert np.isnan(got[:, 300]).all() and np.isnan(got).sum() == len(sigmas)
        for row, sigma in zip(got, sigmas):
            # compared as integers, so that equal estimates are equal bits
            alone = impl.gaussian_nw(q, c, v, (sigma,))[0]
            np.testing.assert_array_equal(row.view(np.int64), alone.view(np.int64))
            np.testing.assert_array_equal(row.view(np.int64), per_sigma_nw(q, c, v, sigma).view(np.int64))

    def test_nw_weights_keep_their_bits_where_exp_underflows(self, name, impl):
        # np.exp is slow below about -707.7, and the kernel clamps a block's
        # quotients below -700 and restores the few in [-746, -700) exactly.
        # Row i of the second block sits at about sqrt(t_i) from 51 centers on
        # [0, 0.05], so its quotients at sigma 1 span [-t_i, -t_i + 2.7] and
        # straddle -700, -707.7, ln(DBL_MIN) = -708.40, -745.13 (the least
        # nonzero weight) and -746; near -745.13 a whole row of weights is
        # subnormal, so each one shows in its sums.  The third block adds an
        # inf distance, a quotient that overflows at sigma 0.5 and NaN
        # distances; the first and last blocks keep every quotient above -700
        # at sigmas 1 and 1e3.
        rng = np.random.default_rng(61)
        c = np.linspace(0.0, 0.05, 51)[:, None]
        v = rng.exponential(size=len(c))
        t = np.concatenate([edge + np.linspace(-3.0, 3.0, 50) for edge in (700.0, 707.7, 708.4, 745.13, 746.0)])
        near = lambda n: rng.uniform(-5.0, 5.0, size=n)
        odd = near(256)
        odd[[3, 50]] = np.nan
        odd[[7, 90]] = 1e200, -1e200  # the square overflows: an inf distance
        odd[[9, 120]] = 1e154, -1e154  # 1e308, whose quotient by 0.5 overflows
        q = np.concatenate([near(256), np.sqrt(t), near(6), odd, near(40)])[:, None]
        sigmas = (0.5, 1.0, 1e3)
        qs, table, rows = backend._prepare(q, c)
        with np.errstate(over="ignore", invalid="ignore"):
            deep = [
                [np.any(backend._sq_dist(qs[start : start + rows], table) / -s < -700.0) for s in sigmas]
                for start in range(0, len(qs), rows)
            ]
        assert deep == [[False, False, False], [True, True, False], [True, True, True], [False, False, False]]
        got = impl.gaussian_nw(q, c, v, sigmas)
        assert np.isnan(got[:, [256 + 256 + 3, 256 + 256 + 50]]).all()
        for row, sigma in zip(got, sigmas):
            with np.errstate(over="ignore", invalid="ignore"):
                expect = per_sigma_nw(q, c, v, sigma)
            # compared as integers, so that equal estimates are equal bits
            np.testing.assert_array_equal(row.view(np.int64), expect.view(np.int64))

    def test_random_batches_match_brute_force(self, name, impl):
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = rng.normal(size=(40, 4))
            p = rng.normal(size=(60, 4))
            v = rng.normal(size=60)
            np.testing.assert_allclose(impl.pairwise_sq_dists(q, p), brute_sq_dists(q, p), rtol=1e-12)
            for k in (1, 5, 60):
                np.testing.assert_allclose(
                    impl.knn_mean(q, p, v, (k,))[0], brute_knn_mean(q, p, v, k), rtol=1e-12
                )
            for sigma in (1e-3, 1.0, 1e3):
                np.testing.assert_allclose(
                    impl.gaussian_nw(q, p, np.abs(v), (sigma,))[0], brute_nw(q, p, np.abs(v), sigma), rtol=1e-10
                )

    def test_knn_duplicate_point_ties(self, name, impl):
        # duplicated training points produce exact distance ties, which must
        # resolve to the lowest-index rows
        points = np.array([[1.0], [1.0], [1.0], [2.0]])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        q = np.array([[1.0], [1.5]])
        for k in (1, 2, 3):
            np.testing.assert_array_equal(
                impl.knn_mean(q, points, values, (k,))[0], brute_knn_mean(q, points, values, k)
            )

    def test_knn_integer_lattice_ties(self, name, impl):
        # small integer coordinates make exact ties pervasive; distinct
        # per-point values expose any tie-order mismatch in the mean
        rng = np.random.default_rng(123)
        for _ in range(20):
            m = int(rng.integers(3, 30))
            points = rng.integers(0, 3, size=(m, 2)).astype(float)
            queries = rng.integers(0, 3, size=(8, 2)).astype(float)
            values = rng.permutation(m).astype(float)  # all distinct
            for k in (1, 2, m // 2 + 1, m):
                np.testing.assert_array_equal(
                    impl.knn_mean(queries, points, values, (k,))[0], brute_knn_mean(queries, points, values, k)
                )

    def test_queries_spanning_several_blocks(self, name, impl):
        # 2.5 blocks of 256 rows: every row must match its own brute-force value
        rng = np.random.default_rng(5)
        q = rng.integers(-3, 4, size=(2 * 256 + 37, 2)).astype(float)
        p = rng.integers(-3, 4, size=(40, 2)).astype(float)
        v = rng.permutation(40).astype(float)
        np.testing.assert_array_equal(impl.pairwise_sq_dists(q, p), brute_sq_dists(q, p))
        for k in (1, 7, 40):
            np.testing.assert_array_equal(impl.knn_mean(q, p, v, (k,))[0], brute_knn_mean(q, p, v, k))
        np.testing.assert_allclose(impl.gaussian_nw(q, p, v + 1.0, (2.0,))[0], brute_nw(q, p, v + 1.0, 2.0), rtol=1e-12)

    def test_knn_tie_across_the_kth_boundary(self, name, impl):
        # 1000 points tie at distance 1 from the first query, far more than
        # k: the k lowest indices must win.  The second query shares the
        # block and has no tie at its kth distance while k <= 100.
        points = np.concatenate([np.ones(500), -np.ones(500), 10.0 + 0.01 * np.arange(100)])[:, None]
        values = np.arange(1100.0)
        q = np.array([[0.0], [9.5]])
        for k in (1, 10, 300):
            np.testing.assert_array_equal(
                impl.knn_mean(q, points, values, (k,))[0], brute_knn_mean(q, points, values, k)
            )

    @staticmethod
    def _assert_rows_match_brute_force(impl, q, p, v, ks):
        got = impl.knn_mean(q, p, v, ks)
        assert got.shape == (len(ks), len(q))
        for row, k in zip(got, ks):
            np.testing.assert_array_equal(row, brute_knn_mean(q, p, v, k))

    def test_knn_one_dimension_matches_the_padded_full_path(self, name, impl):
        # d=1 takes a window of k sorted points; a zero second column sends
        # the same distances down the full path, which the window must match
        # bit for bit: continuous and rounded coordinates (duplicates and
        # mirror ties), queries on points, NaN queries, queries beyond every
        # point, k = 1, max(ks) above m/2, k = m - 1 and k = m, over three
        # blocks of queries
        rng = np.random.default_rng(21)
        cases = []
        for decimals in (None, 1, 2):
            m = 300
            p = rng.normal(size=m)
            q = rng.normal(size=2 * 256 + 40) * 1.5
            q = np.concatenate([q, p[:40], [np.nan, -50.0, 50.0, np.nan]])
            if decimals is not None:
                p, q = np.round(p, decimals), np.round(q, decimals)
            cases.append((p, q, ((5, 1, 20), (3, 200), (1,), (m - 1,), (m,))))
        # a single point
        cases.append((np.array([0.25]), np.array([-1.0, 0.25, 0.3, np.nan, 7.0]), ((1,),)))
        # a run of 40 equal coordinates, longer than k: from on the run and
        # just beside it, the window starts or ends inside the run; the last
        # ks are a NumPy array
        p = rng.permutation(np.concatenate([rng.normal(size=60), np.full(40, 0.5), rng.normal(size=60)]))
        q = np.concatenate([[0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.45, 0.55, -40.0, 40.0], p[:30], rng.normal(size=30)])
        cases.append((p, q, ((1, 5, 20), (39,), (41,), (len(p) - 1,), np.array([2, 7]))))
        # points at both infinities: at k = 51 the sums of sorted coordinates
        # k apart, which the window searches, run -inf, -inf, NaN, inf, inf
        p = rng.permutation(np.concatenate([np.full(3, -np.inf), rng.normal(size=50), np.full(3, np.inf)]))
        q = np.concatenate([rng.normal(size=40) * 3.0, [-np.inf, np.inf, np.nan, 0.0, -40.0, 40.0]])
        cases.append((p, q, ((51,), (1, 5), (52,), (len(p),))))
        # coordinates near the largest float, where those sums and twice the
        # query overflow
        p = np.concatenate([rng.uniform(-1.0, 1.0, size=200) * 1.7e308, [1.7e308, -1.7e308]])
        q = np.concatenate([rng.uniform(-1.0, 1.0, size=60) * 1.7e308, [1.7e308, -1.7e308, 0.0]])
        cases.append((p, q, ((1, 5), (30,), (150,))))
        for p, q, kss in cases:
            v = rng.normal(size=len(p))
            for ks in kss:
                got = impl.knn_mean(q[:, None], p[:, None], v, ks)
                padded = impl.knn_mean(np.c_[q, np.zeros_like(q)], np.c_[p, np.zeros_like(p)], v, ks)
                # compared as integers, so that equal means are equal bits
                np.testing.assert_array_equal(got.view(np.int64), padded.view(np.int64))

    @pytest.mark.parametrize("case", list(preselection_cases()), ids=lambda case: case[0])
    def test_knn_preselection_matches_the_full_path(self, name, impl, case):
        # d > 1 with 2 max(ks) < m preselects candidates with the norm
        # expansion; max(ks) >= m/2 and k = m take the full path
        _, q, p = case
        v = np.random.default_rng(32).normal(size=len(p))
        for ks in ((5, 1, 20), (1,), (3, 149), (3, 150), (len(p),)):
            # compared as integers, so that equal means are equal bits
            np.testing.assert_array_equal(
                impl.knn_mean(q, p, v, ks).view(np.int64), full_path_knn_mean(q, p, v, ks).view(np.int64)
            )

    def test_knn_duplicates_straddling_the_window_edge(self, name, impl):
        # from 0 the window of the two sorted positions next to it holds the
        # second -1 (row 1) and 3; row 0, the first -1, lies just outside it
        # at the same distance and must win
        p = np.array([[-1.0], [-1.0], [3.0], [-1.0], [3.0], [0.4]])
        v = 10.0 ** np.arange(6)
        self._assert_rows_match_brute_force(impl, np.array([[0.0]]), p[:3], v[:3], (1,))
        # rows 0, 1 and 3 share -1: k cuts the run of duplicates on either edge
        q = np.array([[0.0], [-0.3], [1.2], [2.0], [-1.0]])
        self._assert_rows_match_brute_force(impl, q, p, v, (1, 2, 3))
        self._assert_rows_match_brute_force(impl, q, p, v, (2, 4, 6))
        # distinct points at one rounded distance: from -0.1, 1e-20 (row 1)
        # fills the window and 2e-20 (row 0) lies just past its right edge
        tiny = np.array([[2e-20], [1e-20], [-5.0]])
        self._assert_rows_match_brute_force(impl, np.array([[-0.1]]), tiny, v[:3], (1,))

    def test_knn_mirror_tie_goes_to_the_lower_index(self, name, impl):
        # from 0, row 1 at -1 and row 0 at +1 tie; the window meets -1 first
        # but row 0 must take the first slot, whether the largest k keeps
        # just the pair (1, 2) or reaches past it (1, 3, 5)
        p = np.array([[1.0], [-1.0], [5.0], [3.0], [2.5]])
        v = 10.0 ** np.arange(5)
        q = np.array([[0.0], [2.0], [2.75]])
        self._assert_rows_match_brute_force(impl, q, p, v, (1, 2))
        self._assert_rows_match_brute_force(impl, q, p, v, (1, 3, 5))

    def test_knn_nan_training_point(self, name, impl):
        # a NaN point is at NaN distance from every query: it comes last
        p = np.array([[0.5], [np.nan], [-1.0], [2.0], [np.nan], [1.0]])
        v = 10.0 ** np.arange(6)
        q = np.array([[0.0], [1.9], [-5.0], [5.0], [np.nan]])
        self._assert_rows_match_brute_force(impl, q, p, v, (1, 2, 4, 5, 6))

    def test_knn_several_ks_match_brute_force(self, name, impl):
        # one call over a k grid: row j equals the brute-force mean at ks[j],
        # on random points, duplicated points and an integer lattice
        rng = np.random.default_rng(11)
        q, p = rng.normal(size=(300, 3)), rng.normal(size=(80, 3))
        self._assert_rows_match_brute_force(impl, q, p, rng.normal(size=80), (5, 1, 80, 17))
        dup = np.array([[1.0], [1.0], [1.0], [2.0]])
        self._assert_rows_match_brute_force(impl, np.array([[1.0], [1.5]]), dup, np.arange(4.0), (1, 2, 3, 4))
        for _ in range(20):
            m = int(rng.integers(3, 30))
            lattice = rng.integers(0, 3, size=(m, 2)).astype(float)
            queries = rng.integers(0, 3, size=(8, 2)).astype(float)
            self._assert_rows_match_brute_force(
                impl, queries, lattice, rng.permutation(m).astype(float), (1, 2, m // 2 + 1, m)
            )
        # from 0, rows 1, 2 and 4 tie at distance 1, so k=2 cuts through the
        # tie while the 5th and 6th nearest (rows 0 and 5) do not tie
        line = np.array([[3.0], [1.0], [-1.0], [2.0], [1.0], [4.0], [5.0]])
        self._assert_rows_match_brute_force(impl, np.array([[0.0]]), line, 10.0 ** np.arange(7), (2, 5))


@pytest.mark.parametrize("width", [1, 2, 3, 7, 40, 257, 3000])
def test_nearest_keeps_the_partition_order(width):
    rng = np.random.default_rng(width)
    rows = np.abs(rng.normal(size=(24, width)))
    nonfinite = rows.copy()
    for bad in (np.nan, np.inf, -np.inf):
        nonfinite[rng.random(rows.shape) < 0.1] = bad
    nonfinite[[0, 9]] = np.nan
    cases = [rows, rng.choice(rows[0, :3], size=rows.shape), nonfinite]
    # rounding ties rows at their kth entry
    cases += [np.round(rows, decimals) for decimals in (0, 1, 2)]
    for d2 in cases:
        for k in sorted({1, 2, width // 2, width - 1, width} & set(range(1, width + 1))):
            np.testing.assert_array_equal(backend._nearest(d2, k), partition_nearest(d2, k))


@pytest.mark.parametrize("m", [40, 41, 600])
def test_full_path_ranking_is_the_stable_argsort(m):
    # where 2k < m the full path ranks only the points at or below each
    # row's kth distance; k = (m - 1) // 2 puts 2k at m - 1 on odd m, and
    # k = m // 2 puts it at m on even m
    rng = np.random.default_rng(m)
    d2 = np.abs(rng.normal(size=(40, m)))
    d2[10:20] = np.round(d2[10:20], 1)  # ties at the kth distance
    # NaN distances of either sign bit, and +inf
    for bad in (np.nan, -np.nan, np.inf):
        d2[20:35][rng.random((15, m)) < 0.1] = bad
    assert np.signbit(d2[20:35][np.isnan(d2[20:35])]).any()
    d2[35] = np.nan  # a NaN kth distance
    d2[36, : m - m // 4] = -np.nan  # a NaN kth distance from k = m // 4 + 1
    d2[37] = np.inf
    d2[38] = d2[39] = 0.0
    # a six-value support at d = 1, as on hetero6: every row ties
    x = rng.integers(0, 6, size=m).astype(float)[:, None]
    support = backend._sq_dist(np.arange(-1.0, 7.0, 0.5)[:, None], backend._point_table(x)).copy()
    for rows in (d2, support):
        for k in (1, 2, 3, m // 4 + 1, (m - 1) // 2, m // 2):
            want = np.argsort(rows, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(backend._nearest(rows, k).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 8])
def test_extreme_coordinates_compute_without_warnings(d):
    ks, sigmas = (1, 5, 20), (1e-3, 1.0, 1e3)
    for name, q, p in extreme_cases(d):
        v = np.random.default_rng(d).normal(size=len(p))
        knn, nw = quiet_reference(q, p, v, ks, sigmas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_knn = backend.knn_mean(q, p, v, ks)
            got_nw = backend.gaussian_nw(q, p, v, sigmas)
        np.testing.assert_array_equal(got_knn.view(np.int64), knn.view(np.int64), err_msg=name)
        np.testing.assert_allclose(got_nw, nw, rtol=1e-12, atol=0.0, err_msg=name)
        if name == "shared_inf":
            # inf - inf is a NaN distance: that query's smoother estimate is NaN
            assert np.isnan(got_nw[:, :3]).all() and not np.isnan(got_nw[:, 3:]).any()


def subtract_outer_sq_dists(q, p):
    """Squared distances as ``_sq_dist`` summed them before its differences
    came from products: ``np.subtract.outer`` per coordinate, squared and
    added to zeros in coordinate order."""
    with np.errstate(all="ignore"):
        d2 = np.zeros((len(q), len(p)))
        for j in range(q.shape[1]):
            d2 += np.square(np.subtract.outer(q[:, j], p[:, j]))
    return d2


@pytest.mark.parametrize("m", [300, 2000, 3000])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_sq_dist_keeps_the_bits_of_subtract_outer(m, d):
    # m on both sides of about 2,700 points, below which np.subtract.outer
    # runs through NumPy's buffered iterator; every special value meets
    # every other in the first coordinate, and again in the last
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324,
                        3e-310, 2.2e-308, 1e-160, -3e-162, 1.0])
    s = len(special)
    rng = np.random.default_rng(m + d)
    p, q = rng.normal(size=(m, d)), rng.normal(size=(2 * s + 1, d))
    p[:s, 0] = q[:s, 0] = special
    p[-s:, -1] = q[s : 2 * s, -1] = special[::-1]
    # a query and points whose differences and squares are subnormal
    q[-1] = 1e-160 * rng.normal(size=d)
    p[s : 2 * s] = 1e-160 * rng.normal(size=(s, d))
    want = subtract_outer_sq_dists(q, p)
    table = backend._point_table(p)
    # compared as integers, so that equal distances are equal bits
    np.testing.assert_array_equal(backend._sq_dist(q, table).view(np.int64), want.view(np.int64))
    # of two NaNs the product may keep either one's bits: a NaN all the same
    assert np.isnan(backend._sq_dist(-q[:1], table)).all()


def test_kernels_leave_the_callers_error_policy_alone():
    # each kernel quiets its own overflowing arithmetic and restores the
    # caller's policy on return: squares of 1e200 overflow to inf, and
    # inf - inf is NaN
    q = np.full((300, 2), 1e200)
    q[::7] = -np.inf
    p = np.concatenate([np.ones((4, 2)), np.full((4, 2), np.inf), -q[:4]])
    v = np.arange(len(p), dtype=np.float64)
    ramp = np.linspace(-40.0, 40.0, 80).reshape(40, 2)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        policy = np.geterr()
        for call in (
            lambda: backend.pairwise_sq_dists(q, p),
            lambda: backend.knn_mean(q, p, v, (1, 3)),
            lambda: backend.knn_mean(q[:, :1], p[:, :1], v, (1, 3)),
            lambda: backend.gaussian_nw(q, p, v, (1.0, 1e-300)),
            # finite input takes the float32 bracket, which meets overflow,
            # underflow and zero weight sums at these sigmas
            lambda: backend.nw_at_most(q[1:7], p[:4], v[:4], (1.0, 1e-300, 1e300), 0.5),
            lambda: backend.nw_at_most(ramp, p[:4], v[:4], (1.0, 1e-300, 1e300), 0.5),
            lambda: backend.nearest_rows(q, p),
            lambda: backend.median_sq_dist(np.concatenate([q[1:20], p])),
        ):
            call()
            assert np.geterr() == policy
        # the two middle squared distances, 1.5625e308 and 1.69e308, are
        # finite, but their sum is not: the median halves each first
        overflow = backend.median_sq_dist(np.array([[0.0], [1e153], [1.25e154], [-1.3e154]]))
        assert np.geterr() == policy
    assert overflow == 1.5625e308 / 2 + 1.69e308 / 2


@pytest.mark.parametrize("m", [2, 3, 4, 5, 18, 19, 256, 258, 601, 602])
def test_median_sq_dist_has_the_bits_of_the_full_triangle(m):
    # odd and even pair counts, in one distance block up to m = 256 at d = 8
    # and in several above; any faster median must keep these bits
    rng = np.random.default_rng(m)
    continuous = rng.normal(size=(m, 8))
    lattice = np.round(continuous)
    repeated = continuous.copy()
    repeated[m // 4 :] = continuous[0]
    for name, X in (("continuous", continuous), ("lattice", lattice), ("repeated", repeated)):
        upper = backend.pairwise_sq_dists(X, X)[np.triu_indices(m, 1)]
        want = np.median(upper)
        got = backend.median_sq_dist(X)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), name
        if name == "lattice" and m >= 18:
            assert np.count_nonzero(upper == want) > 1  # ties at the median
        if name == "repeated":
            assert want == 0.0  # harness takes sigma 1.0 for it


def _points_case(d, m, scale_exp, layout, seed):
    """m points at dimension d and scale 10**scale_exp: continuous, on a
    lattice, which ties distances, or with duplicates."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, d))
    if layout == "lattice":
        x = np.round(x)
    elif layout == "duplicates":
        x = x[rng.integers(0, max(1, m // 3), size=m)]
    return x * 10.0**scale_exp


# below d = 8 np.sum adds a row's squares in order, as the kernels do, so
# that brute_sq_dists has their bits
points_cases = dict(
    d=st.integers(1, 7),
    scale_exp=st.integers(-160, 152),
    layout=st.sampled_from(("continuous", "lattice", "duplicates")),
    seed=st.integers(0, 2**32 - 1),
)


@given(nq=st.integers(1, 12), m=st.integers(1, 24), **points_cases)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_nearest_rows_is_the_argmin_of_the_brute_distances(nq, m, d, scale_exp, layout, seed):
    x = _points_case(d, nq + m, scale_exp, layout, seed)
    q, p = x[:nq], x[nq:]
    q[-1] = p[0]  # a query on a point
    np.testing.assert_array_equal(backend.nearest_rows(q, p), np.argmin(brute_sq_dists(q, p), axis=1))


@given(m=st.integers(2, 24), **points_cases)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_median_sq_dist_is_the_median_of_the_brute_triangle(m, d, scale_exp, layout, seed):
    x = _points_case(d, m, scale_exp, layout, seed)
    upper = brute_sq_dists(x, x)[np.triu_indices(m, 1)]
    # np.median averages the two middle values, whose sum may overflow
    middle = np.sort(upper)[[(upper.size - 1) // 2, upper.size // 2]]
    with np.errstate(over="ignore"):
        assume(np.isfinite(middle.sum()))
    want = np.median(upper)
    assert np.float64(backend.median_sq_dist(x)).view(np.int64) == np.float64(want).view(np.int64)


def test_median_sq_dist_below_two_points_is_nan():
    for m in (0, 1):
        assert np.isnan(backend.median_sq_dist(np.ones((m, 3))))


def test_kernel_memory_grows_with_the_block_not_the_query_count():
    rng = np.random.default_rng(2)
    q, p, v = rng.normal(size=(16 * 256, 2)), rng.normal(size=(1000, 2)), rng.normal(size=1000)
    full_matrix = q.shape[0] * p.shape[0] * 8
    # d=1 takes the sorted window, here once as wide as all m points
    q1, p1 = q[:, :1], p[:, :1]
    # d=8 preselects 2 max(ks) candidates, or takes the full path at K = m
    q8, p8 = rng.normal(size=(16 * 256, 8)), rng.normal(size=(1000, 8))
    # a tight cluster and one point at 1e8 send every row to the full path
    outlier = p8 * 1e-2
    outlier[7] = 1e8
    for run in (
        lambda: backend.knn_mean(q, p, v, (5,))[0],
        lambda: backend.knn_mean(q1, p1, v, (5, 500)),
        lambda: backend.knn_mean(q8, p8, v, (5, 20)),
        lambda: backend.knn_mean(q8, p8, v, (5, 500)),
        lambda: backend.knn_mean(q8 * 1e-2, outlier, v, (5, 20)),
        lambda: backend.gaussian_nw(q, p, v, (1.0,)),
        lambda: backend.gaussian_nw(q, p, v, tuple(10.0**j for j in range(-3, 4))),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 2


@pytest.mark.parametrize("rows", [16, 64, 256])
def test_nw_rows_are_the_bits_of_one_row_calls(rows):
    # m sets the distance blocks to `rows` queries, and the queries span
    # two blocks and part of a third; each row must keep the bits it has
    # when its query is scored alone
    m = {16: 4096, 64: 1024, 256: 256}[rows]
    assert backend._block_rows(m, backend._DIST_BUDGET) == rows
    rng = np.random.default_rng(rows)
    c, v = rng.normal(size=(m, 8)), rng.exponential(size=m)
    q = rng.normal(size=(2 * rows + 7, 8)) * 1.5
    sigmas = (0.5, 4.0)
    got = backend.gaussian_nw(q, c, v, sigmas)
    alone = np.stack([backend.gaussian_nw(row[None], c, v, sigmas)[:, 0] for row in q], axis=1)
    # compared as integers, so that equal estimates are equal bits
    np.testing.assert_array_equal(got.view(np.int64), alone.view(np.int64))


def test_knn_redone_rows_span_several_distance_blocks():
    # at m = 4096 the d = 8 candidate loop takes blocks of 128 queries and
    # redoes the rows it cannot settle in distance blocks of 16; the d = 1
    # window takes blocks of 256.  Rows to redo, more than one distance block
    # of them, sit in the second and later blocks: NaN and infinite
    # coordinates, and queries next to 101 copies of one point far from the
    # rest, which tie at both the kth and the 2k-th candidate.  Each must land
    # in its own row.
    rng = np.random.default_rng(9)
    m, ks = 4096, (1, 20)
    p, v = rng.normal(size=(m, 8)), rng.normal(size=m)
    p[0] = 4.0
    p[rng.choice(np.arange(1, m), 100, replace=False)] = p[0]
    q = rng.normal(size=(400, 8))
    q[150:175, 2] = np.nan
    q[200:215, 0] = np.inf
    q[215:225, 5] = -np.inf
    q[300:340] = p[0] + 1e-3 * rng.normal(size=(40, 8))
    rows = backend._block_rows(m, backend._CANDIDATE_BUDGET)
    assert (rows, backend._block_rows(m, backend._DIST_BUDGET)) == (128, 16)
    redone = [np.count_nonzero(_preselect(q[s : s + rows], p, max(ks))) for s in range(0, len(q), rows)]
    assert redone[0] == 0 and min(redone[1:3]) > 16
    # compared as integers, so that equal means are equal bits
    got = backend.knn_mean(q, p, v, ks)
    np.testing.assert_array_equal(got.view(np.int64), quiet_reference(q, p, v, ks, ())[0].view(np.int64))
    # on the rounded line nearly every row ties at its kth distance
    q1, p1 = np.round(q[:, 2:3], 1), np.round(p[:, 2:3], 1)
    got = backend.knn_mean(q1, p1, v, ks)
    np.testing.assert_array_equal(got.view(np.int64), quiet_reference(q1, p1, v, ks, ())[0].view(np.int64))


def test_kernels_on_concurrent_threads_give_the_sequential_bits():
    # each thread has a workspace of its own: three threads on two cores,
    # switching often, must each get the bits of a call made alone
    rng = np.random.default_rng(12)
    p, v = rng.normal(size=(3000, 8)), rng.normal(size=3000)
    inputs = [rng.normal(size=(300, 8)) * (1.0 + i) for i in range(3)]

    def score(q):
        return np.concatenate([backend.knn_mean(q, p, v, (1, 20)), backend.gaussian_nw(q, p[:1000], v[:1000], (0.5, 4.0))])

    expected = [score(q) for q in inputs]
    results = [[] for _ in inputs]
    start = threading.Barrier(len(inputs), timeout=60)

    def run(i):
        start.wait()
        for _ in range(4):
            results[i].append(score(inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(expected, results):
        assert len(got) == 4
        for out in got:
            np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))


def test_a_repeated_call_allocates_no_block_of_distances():
    # the first call sizes the workspace; a second identical one allocates
    # no block x m array, as each block at the parent did
    rng = np.random.default_rng(13)
    m = 8000
    q, p, v = rng.normal(size=(600, 8)), rng.normal(size=(m, 8)), rng.normal(size=m)
    for budget, run in (
        (backend._CANDIDATE_BUDGET, lambda: backend.knn_mean(q, p, v, (5, 20))),
        (backend._DIST_BUDGET, lambda: backend.gaussian_nw(q, p, v, (0.5, 4.0))),
    ):
        block = backend._block_rows(m, budget) * m * 8
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block / 8


def test_workspace_grows_with_the_block_not_the_query_count():
    # tracemalloc does not see the workspace's mmap buffers: a fresh thread,
    # whose workspace starts empty, reports their sizes itself
    rng = np.random.default_rng(14)
    q, p, v = rng.normal(size=(16 * 256, 8)), rng.normal(size=(1000, 8)), rng.normal(size=1000)
    sizes = []

    def run():
        backend.knn_mean(q, p, v, (5, 20))
        backend.knn_mean(q, p, v, (5, 500))
        backend.gaussian_nw(q, p, v, (1.0, 10.0))
        sizes.extend(buf.nbytes for buf in backend._WORK.buffers.values())

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and sizes
    assert sum(sizes) < q.shape[0] * p.shape[0] * 8 / 2


def test_window_leaves_only_unsettled_rows_to_the_full_path():
    # on continuous data the d=1 window settles every row but a NaN query,
    # queries beyond every point included; a start one position off keeps
    # the bits, as the full path takes its row, and only this count shows it
    def window_redo(q, x, k):
        order = np.argsort(x, kind="stable")
        sx = x[order]
        return backend._window_nearest(q, order, sx, sx[: len(x) - k] + sx[k:], k)[1]

    rng = np.random.default_rng(4)
    x = rng.normal(size=500)
    q = np.concatenate([rng.normal(size=200), [-50.0, 50.0, np.nan]])
    for k in (1, 30, 150, len(x) - 1):
        full = window_redo(q, x, k)
        assert not full[:-1].any() and full[-1]
    # the mirror tie from 0 at -1 (row 1) and +1 (row 0)
    assert window_redo(np.array([0.0, 4.0]), np.array([1.0, -1.0, 5.0]), 2).tolist() == [True, False]
    # at k = m no point lies outside the window: only the NaN kth distance
    # sends the NaN query to the full path
    assert window_redo(np.array([0.3, np.nan]), rng.normal(size=40), 40).tolist() == [False, True]


def _preselect(q, p, k):
    """The rows that the float32 candidate pass leaves to the full path when
    it runs on every row of q."""
    table = backend._point_table(p)
    return backend._candidate_nearest(q, table, *backend._centred_table(table), k)[1]


def test_preselection_leaves_only_unsettled_rows_to_the_full_path():
    # on continuous d=8 data the float32 candidates settle every row but a
    # NaN query, which no pass settles: normal data, and data drawn on
    # [-1, 1]^8 as score-knn-d8 draws it
    rng = np.random.default_rng(8)
    p, v = rng.normal(size=(2000, 8)), rng.normal(size=2000)
    q = np.concatenate([rng.normal(size=(200, 8)), np.full((1, 8), np.nan)])
    uniform = np.concatenate([rng.uniform(-1.0, 1.0, size=(200, 8)), q[-1:]]), rng.uniform(-1.0, 1.0, size=p.shape)
    for case in ((q, p), uniform):
        full = _preselect(*case, 20)
        assert not full[:-1].any() and full[-1]
    q = q[:-1]
    # an integer lattice ties more than 2k points at the kth distance from
    # some queries, so that rows reach the full path; at an offset of 1e8
    # the float64 expansion's error would be larger than the spacing of the
    # points, but centred, float32 sees their spread and not their offset,
    # and settles every row, as at an offset of 1e3
    lattice, offset = (np.round(q), np.round(p)), (q + 1e8, p + 1e8)
    assert _preselect(*lattice, 20).any()
    assert not _preselect(*offset, 20).any()
    assert not _preselect(q + 1e3, p + 1e3, 20).any()
    # a tight cluster and one far outlier, which puts the centre, and with it
    # the float32 error, far from the cluster: every row takes the full path
    cluster = rng.normal(size=(2000, 8)) * 1e-2
    q = rng.normal(size=(200, 8)) * 1e-2
    outliers = []
    for outlier in (1e3, 1e8):
        p = cluster.copy()
        p[7] = outlier
        assert _preselect(q, p, 20).all()
        outliers.append((q, p))
    # z-scored heavy-tailed data: the float32 pass leaves many rows
    z = rng.lognormal(sigma=2.0, size=(2200, 8))
    z = (z - z.mean(axis=0)) / z.std(axis=0)
    heavy = (z[2000:], z[:2000])
    assert _preselect(*heavy, 20).sum() >= 50
    # the result keeps the full path's bits
    for q, p in (lattice, offset, *outliers, heavy):
        got = backend.knn_mean(q, p, v, (1, 20))
        np.testing.assert_array_equal(got.view(np.int64), full_path_knn_mean(q, p, v, (1, 20)).view(np.int64))


@pytest.mark.parametrize("m", [2**13, 2**13 + 1, 2**17 + 1])
def test_preselection_keeps_the_full_path_bits_at_the_edges_of_the_index_bits(m):
    # a packed word keeps (m - 1).bit_length() index bits, 13 and then 14
    # here; past 2**16 points the words are partitioned in tiles of 2**16,
    # and at 2**17 + 1 the last tile is one point, the first query's nearest
    rng = np.random.default_rng(m)
    p, v = rng.uniform(-1.0, 1.0, size=(m, 8)), rng.normal(size=m)
    q = rng.uniform(-1.0, 1.0, size=(6, 8))
    q[0] = p[-1] + 1e-3
    assert not _preselect(q, p, 20).any()
    for ks in ((1, 20), (1,)):
        got = backend.knn_mean(q, p, v, ks)
        np.testing.assert_array_equal(got.view(np.int64), full_path_knn_mean(q, p, v, ks).view(np.int64))


def test_preselection_settles_a_row_that_ties_past_its_2k_candidates():
    # from the origin of {-1, 0, 1}^8, 16 points lie at squared distance 1
    # and 112 at 2.  At k = 10 the 2k-th smallest expansion, 2, ties 128
    # points at or below it, yet every point within the bound of the kth
    # distance, 1, is a candidate: the row settles.  Coordinates this small
    # make the float32 expansion exact, and the bounding box centres it at 0.
    p = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=8)))
    q = np.zeros((1, 8))
    d2 = np.sort(np.square(p).sum(axis=1))
    assert (d2[9], d2[19], np.count_nonzero(d2 <= d2[19])) == (1.0, 2.0, 129)
    assert not _preselect(q, p, 10).any()
    v = np.random.default_rng(16).normal(size=len(p))
    for ks in ((10,), (1, 10)):
        got = backend.knn_mean(q, p, v, ks)
        np.testing.assert_array_equal(got.view(np.int64), full_path_knn_mean(q, p, v, ks).view(np.int64))


def _settles(expansion, k, p2max=0.0):
    """Whether the candidate pass settles a row whose float32 expansion is
    ``expansion``, point by point: at d = 1, a query at the centre and
    centred coordinates of 0 make it the last row of the float32 table."""
    m = len(expansion)
    table = backend._point_table(np.zeros((m, 1)))
    table32 = np.array([np.ones(m), np.zeros(m), expansion], dtype=np.float32)
    return not backend._candidate_nearest(np.zeros((1, 1)), table, table32, np.zeros(1), np.float32(p2max), k)[1][0]


def test_preselection_settles_on_the_bucket_edges():
    # m = 10 leaves a word 4 index bits, so a bucket is 16 float32 steps;
    # at S = 0 the bound is a few subnormals.  At k = 2 the 2k-th expansion
    # (index 3) must lie in a later bucket than the kth: its floor is then
    # above the kth one's ceiling
    ulp, rest = float(np.finfo(np.float32).eps), [2.0] * 6
    assert not _settles([1.0, 1.0, 1.0, 1.0 + 2 * ulp] + rest, 2)
    assert not _settles([1.0, 1.0, 1.0, 1.0 + 15 * ulp] + rest, 2)
    assert _settles([1.0, 1.0, 1.0, 1.0 + 16 * ulp] + rest, 2)
    # a negative expansion bounds the kth from above by 0, not by its own
    # ceiling: at max |p'|^2 = 419 the bound delta is about 1e-3
    assert not _settles([-1.5e-3, -1.5e-3, 1.5e-3, 1.5e-3] + rest, 2, p2max=419.0)
    assert _settles([-1.5e-3, -1.5e-3, 2.5e-3, 2.5e-3] + rest, 2, p2max=419.0)


def test_preselection_redoes_a_row_at_the_top_of_float32s_range():
    # the points lie within 1 of the origin, and the queries at squared
    # distances in float32's last finite bucket, the top 2**-15 of its
    # largest value at m = 300, or just past it, where every expansion is
    # inf: the bucket edges of the kth word are the largest float and NaN,
    # and neither wraps to a value that settles the row
    rng = np.random.default_rng(17)
    big = float(np.finfo(np.float32).max)
    p, v = rng.uniform(-1.0, 1.0, size=(300, 8)), rng.normal(size=300)
    for ratio in (1.0 - 2.0**-16, 1.0 + 2.0**-16):
        q = np.full((2, 8), np.sqrt(big * ratio / 8.0))
        q[1] *= -1.0
        kth = np.sort(backend.pairwise_sq_dists(q, p), axis=1)[:, 19]
        assert np.all((kth > big * (1.0 - 2.0**-15)) & (kth < big * 1.001))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _preselect(q, p, 20).all()
            got = backend.knn_mean(q, p, v, (1, 20))
        np.testing.assert_array_equal(got.view(np.int64), full_path_knn_mean(q, p, v, (1, 20)).view(np.int64))


@given(
    d=st.sampled_from((1, 2, 8)),
    k=st.integers(1, 12),
    spare=st.integers(-12, 300),
    layout=st.sampled_from(("continuous", "lattice0", "lattice1", "duplicates")),
    outlier=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_knn_mean_keeps_the_full_path_bits(d, k, spare, layout, outlier, seed):
    # m = 2k + spare lies on either side of 2k, so d > 1 takes the candidate
    # pass or the full path; d = 1 takes the sorted window; up to 304
    # queries, some on points, span two blocks of 256 rows
    rng = np.random.default_rng(seed)
    m = max(k, 2 * k + spare)
    p = rng.normal(size=(m, d))
    q = np.concatenate([rng.normal(size=(int(rng.integers(1, 300)), d)) * 1.5, p[:5]])
    if layout.startswith("lattice"):  # ties at the kth distance
        p, q = np.round(p, int(layout[-1])), np.round(q, int(layout[-1]))
    elif layout == "duplicates":
        p = p[rng.integers(0, max(1, m // 4), size=m)]
    if outlier:
        p[rng.integers(m)] += 1e8
    v = rng.normal(size=m)
    ks = (k, *(int(j) for j in rng.integers(1, k + 1, size=2)))
    # compared as integers, so that equal means are equal bits
    np.testing.assert_array_equal(
        backend.knn_mean(q, p, v, ks).view(np.int64), full_path_knn_mean(q, p, v, ks).view(np.int64)
    )


def s_failing_queries(d, rows, bad_values, seed):
    """Queries on [-1, 1]^d over two blocks of ``rows``: every 5th row of the
    first and every row of the second, 40 long, have one coordinate from
    ``bad_values``, and a mask of those rows.  A NaN or infinite coordinate
    fails S, the test of the float32 expansion in kNN's candidate pass and
    nw_at_most's bracket; so does a finite 1e19, whose squared norm, 1e38,
    is finite in float32 but above a quarter of its largest value."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, size=(rows + 40, d))
    bad = np.zeros(len(q), dtype=bool)
    bad[:rows:5] = bad[rows:] = True
    at = np.flatnonzero(bad)
    q[at, rng.integers(d, size=at.size)] = np.resize(bad_values, at.size)
    return q, bad


@pytest.mark.parametrize("d", [3, 20])
def test_knn_mean_keeps_the_full_path_bits_on_blocks_that_fail_s(d):
    # the pass settles every row that passes S, in a block whose other rows
    # fail it and in one whose every row does; the full path takes the rest
    rng = np.random.default_rng(50 + d)
    m = 600
    p, v = rng.uniform(-1.0, 1.0, size=(m, d)), rng.normal(size=m)
    rows = backend._block_rows(m, backend._CANDIDATE_BUDGET)
    q, bad = s_failing_queries(d, rows, (np.nan, np.inf, -np.inf, 1e19), 60 + d)
    ks = (1, 7, 20)
    full = _preselect(q, p, max(ks))
    assert full[bad].all() and not full[~bad].any()
    np.testing.assert_array_equal(
        backend.knn_mean(q, p, v, ks).view(np.int64), full_path_knn_mean(q, p, v, ks).view(np.int64)
    )


def test_the_candidate_pass_keeps_no_block_but_its_expansion():
    # the candidates are picked in the expansion's own buffer, the float32
    # view of the distance blocks' diff: after a d = 8 call on data the pass
    # settles, the one block x m buffer of a fresh thread's workspace is the
    # expansion's, with no partition copy or mask
    rng = np.random.default_rng(18)
    m = 8000
    q, p, v = rng.uniform(-1.0, 1.0, size=(300, 8)), rng.uniform(-1.0, 1.0, size=(m, 8)), rng.normal(size=m)
    sizes = {}

    def run():
        backend.knn_mean(q, p, v, (5, 20))
        sizes.update((role, buf.nbytes) for role, buf in backend._WORK.buffers.items())

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and "part" not in sizes and "mask" not in sizes
    block = backend._block_rows(m, backend._CANDIDATE_BUDGET) * m * 4
    assert {role: size for role, size in sizes.items() if size >= block} == {"diff": block}


class TestDispatch:
    def test_active_backend_exports_kernels(self):
        import selreg.backend as b

        assert callable(b.pairwise_sq_dists) and callable(b.knn_mean) and callable(b.gaussian_nw)
        assert b.BACKEND == "numpy"


def _nw_case(d, scale_exp, n, m, layout, u_sigma, seed):
    """Queries, centres, nonnegative values and sigmas at scale 10**scale_exp:
    duplicate centres, or one far outlier, and the last query so far out
    that every weight underflows at the least sigma."""
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exp
    c = rng.normal(size=(m, d))
    if layout == "duplicates":
        c = c[rng.integers(0, max(1, m // 4), size=m)]
    elif layout == "outlier":
        c[rng.integers(m)] += 1e8
    sigmas = tuple(sorted(10.0 ** np.array(u_sigma)))
    q = rng.normal(size=(n, d)) * 1.5
    q[-1] = c.max(axis=0) + 40.0 * np.sqrt(sigmas[0])
    v = rng.exponential(size=m) * rng.choice([0.0, 1.0], size=m, p=[0.2, 0.8])
    return q * scale, c * scale, v, tuple(s * scale**2 for s in sigmas)


nw_cases = dict(
    d=st.sampled_from((1, 3)),
    scale_exp=st.integers(-150, 150),
    n=st.integers(1, 300),
    m=st.integers(1, 300),
    layout=st.sampled_from(("continuous", "duplicates", "outlier")),
    u_sigma=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)


@given(**nw_cases)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_nw_keeps_the_per_sigma_bits(d, scale_exp, n, m, layout, u_sigma, seed):
    q, c, v, sigmas = _nw_case(d, scale_exp, n, m, layout, u_sigma, seed)
    got = backend.gaussian_nw(q, c, v, sigmas)
    with np.errstate(over="ignore", under="ignore"):
        for row, sigma in zip(got, sigmas):
            # compared as integers, so that equal estimates are equal bits
            np.testing.assert_array_equal(row.view(np.int64), per_sigma_nw(q, c, v, sigma).view(np.int64))


@given(**dict(nw_cases, d=st.sampled_from((1, 2, 3, 8))), pick=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_nw_at_most_decides_as_the_clamped_estimate(d, scale_exp, n, m, layout, u_sigma, seed, pick):
    # c is one of the rows' own exact estimates, where the float32 bracket's
    # estimate may round to either side: only the bound's slack keeps those
    # rows right.  One more sigma puts the median lane at quotient -200, where
    # float32 weights underflow and float64 ones do not.
    q, c, v, sigmas = _nw_case(d, scale_exp, n, m, layout, u_sigma, seed)
    with np.errstate(over="ignore"):
        extra = float(np.median(backend.pairwise_sq_dists(q, c))) / 200.0
    sigmas += (extra,) if 0.0 < extra < np.inf else ()
    exact = np.maximum(backend.gaussian_nw(q, c, v, sigmas), 0.0)
    rng = np.random.default_rng(pick)
    for cost in (*rng.choice(exact.ravel(), size=3), 0.5 * float(v.mean())):
        np.testing.assert_array_equal(backend.nw_at_most(q, c, v, sigmas, cost), exact <= cost)


def test_nw_at_most_counts_the_mass_of_far_centres():
    # sigma 1 and a query at 0.  Row 0: the one centre near it has value 0,
    # but three beyond it, at quotients -70, -81 and -100, have value 1e30
    # and lift the estimate to about 0.4, above c = 0.2.  Row 1: the one
    # centre near it, at quotient -60, has value 1, but a hundred beyond it at
    # -65 with value 0 pull the estimate down to about 0.6, below c = 0.8.
    # Each is near c only through the far lanes, so the bracket must count
    # them.
    far = np.array([np.sqrt(70.0), 9.0, 10.0])
    cases = [
        (np.concatenate([[0.0], far]), np.array([0.0, 1e30, 1e30, 1e30]), 0.2),
        (np.concatenate([[np.sqrt(60.0)], np.full(100, -np.sqrt(65.0))]), np.concatenate([[1.0], np.zeros(100)]), 0.8),
    ]
    for centres, v, cost in cases:
        c = centres[:, None]
        exact = backend.gaussian_nw(np.zeros((1, 1)), c, v, (1.0,))[0, 0]
        assert abs(exact - cost) < 0.25 and abs(v[0] - cost) < 0.25 and (exact <= cost) != (v[0] <= cost)
        assert backend.nw_at_most(np.zeros((1, 1)), c, v, (1.0,), cost)[0, 0] == (exact <= cost)


@pytest.mark.parametrize("d", [2, 8])
def test_nw_at_most_decides_as_the_clamped_estimate_on_blocks_that_fail_s(d):
    # finite queries at 1e19 fail S: the bracket leaves them to gaussian_nw
    # at every sigma, in a block whose other rows it settles and in one
    # whose every row fails
    rng = np.random.default_rng(70 + d)
    m = 600
    c, v = rng.uniform(-1.0, 1.0, size=(m, d)), rng.exponential(size=m)
    q, bad = s_failing_queries(d, backend._block_rows(m, backend._DIST_BUDGET), (1e19,), 80 + d)
    sigmas = (0.1, 1.0)
    exact = np.maximum(backend.gaussian_nw(q, c, v, sigmas), 0.0)
    cost = float(np.median(exact[:, ~bad]))
    redo = backend._bracket_at_most(q, c, v, sigmas, cost)[1]
    assert redo[:, bad].all() and not redo[:, ~bad].any()
    np.testing.assert_array_equal(backend.nw_at_most(q, c, v, sigmas, cost), exact <= cost)


def _bracket_cases():
    """Fabricated rows, each with centres, values and a sigma, where the
    float32 estimate and the exact one may fall on either side of a c between
    them, each case only through one term of the bracket's bound:

    * ``expansion``: centres 30 from their box's centre at sigma 1, where the
      float32 quotients err by about 1e-4, which ``delta`` covers;
    * ``exp``: two centres 0.06 apart at sigma 1, where the quotients are
      above -0.004 and ``delta`` is below eps32 / 10, so that only ``np.exp``'s
      float32 error, up to 1.55 eps32 there, moves the estimate;
    * ``underflow``: a centre of value 0 at quotient about -80, and one of
      value 1 at about -95, whose float32 weight the bracket takes as e^-87
      rather than a subnormal: the estimate, about e^-15, is within the
      bracket only through the slack of 2^-125 per lane in its sums.
    """
    rng = np.random.default_rng(22)
    ends = np.array([[-30.0, 0.0], [30.0, 0.0]])
    near = np.array([-30.0, 0.0]) + rng.normal(size=(200, 2))
    h = 0.03
    zero_one = np.array([0.0, 1.0])
    return {
        "expansion": (
            near[:64] + rng.normal(size=(64, 2)), np.concatenate([near, ends]), rng.exponential(size=202), 1.0,
        ),
        "exp": (np.column_stack([np.linspace(-h, h, 64), np.zeros(64)]), np.array([[-h, 0.0], [h, 0.0]]), zero_one, 1.0),
        "underflow": (
            rng.normal(size=(64, 2)) * 0.01, np.array([[80.0**0.5, 0.0], [-(95.0**0.5), 0.0]]), zero_one, 1.0,
        ),
    }


@pytest.mark.parametrize("case", ["expansion", "exp", "underflow"])
def test_the_float32_bracket_holds_the_exact_estimate(case):
    # with c at a row's own exact estimate the bracket holds c, so the row is
    # left to gaussian_nw; with c on either side of it, the decision is the
    # exact one
    q, c, v, sigma = _bracket_cases()[case]
    exact = np.maximum(backend.gaussian_nw(q, c, v, (sigma,))[0], 0.0)
    for row, est in zip(q, exact):
        assert backend._bracket_at_most(row[None], c, v, (sigma,), est)[1].all()
        for cost in (est, np.nextafter(est, -np.inf), np.nextafter(est, np.inf)):
            assert backend.nw_at_most(row[None], c, v, (sigma,), cost)[0, 0] == (est <= cost)


def test_nw_at_most_asks_gaussian_nw_only_what_its_bracket_leaves(monkeypatch):
    calls = []

    def counted(q, c, v, sigmas):
        calls.append((len(q), tuple(sigmas)))
        return gaussian_nw(q, c, v, sigmas)

    def left_by_the_bracket(q, c, v, sigmas, cost):
        left = backend._bracket_at_most(q, c, v, sigmas, cost)[1]
        rows = int(left.any(axis=0).sum())
        return [(rows, tuple(s for s, some in zip(sigmas, left.any(axis=1)) if some))] if rows else []

    gaussian_nw = backend.gaussian_nw
    rng = np.random.default_rng(20)
    q, c, v = rng.uniform(-1.7, 1.7, size=(500, 1)), rng.uniform(-1.7, 1.7, size=(500, 1)), rng.exponential(size=500)
    q2, c2 = np.hstack([q, q[::-1]]), np.hstack([c, c[::-1]])
    monkeypatch.setattr(backend, "gaussian_nw", counted)
    # c is row 0's own exact estimate at sigma 1, so that the bracket leaves
    # that row to gaussian_nw, with the rows whose estimates lie within its
    # width of c: under a tenth of them, at d = 1 as at d = 2
    for args in ((q, c, v), (q2, c2, v)):
        cost = float(gaussian_nw(args[0][:1], *args[1:], (1.0,))[0, 0])
        sigmas = (1e-3, 1e-2, 1.0, 10.0)
        want = left_by_the_bracket(*args, sigmas, cost)
        assert want and want[0][0] < 50 and 1.0 in want[0][1]
        calls.clear()
        backend.nw_at_most(*args, sigmas, cost)
        assert calls == want
    # a negative value, a NaN query or an infinite cost: every sigma
    for args in ((q, c, -v), (np.concatenate([q, [[np.nan]]]), c, v), (q2, c2, -v)):
        calls.clear()
        backend.nw_at_most(*args, (1e-3, 1e-2), 0.5)
        assert calls == [(len(args[0]), (1e-3, 1e-2))]
    calls.clear()
    assert backend.nw_at_most(q2, c2, v, (1e-3,), np.inf).all() and calls == [(500, (1e-3,))]


def test_float32_exp_errs_as_the_bracket_assumes():
    # np.exp within 4 eps32 relatively, and tiny32 absolutely where it
    # underflows, over every float32 quotient a weight may take
    eps32, tiny32 = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).smallest_subnormal)
    x = np.linspace(-104.0, 1.0, 1_000_001, dtype=np.float32)
    x = np.concatenate([x, np.nextafter(x, np.float32(0.0))])
    ref = np.exp(x.astype(np.float64))
    err = np.abs(np.exp(x).astype(np.float64) - ref)
    assert np.all(err <= 4.0 * eps32 * ref + tiny32)


def test_float64_exp_errs_as_the_bracket_assumes():
    # np.exp within 2 eps64 relatively, and tiny64 absolutely where it
    # underflows, against mpmath at 120 bits on [-746, 1]
    mpmath = pytest.importorskip("mpmath")
    eps, tiny = float(np.finfo(np.float64).eps), float(np.finfo(np.float64).smallest_subnormal)
    x = np.concatenate([np.linspace(-746.0, 1.0, 4001), np.random.default_rng(23).uniform(-746.0, 1.0, 2000)])
    with mpmath.workprec(120):
        for xi, yi in zip(x.tolist(), np.exp(x).tolist()):
            ref = mpmath.exp(mpmath.mpf(xi))
            assert abs(mpmath.mpf(yi) - ref) <= 2 * eps * ref + tiny, xi


def test_the_d1_window_keeps_no_block_but_the_argsort():
    # a second identical call reuses the workspace: the only block x k array
    # it allocates is _nearest's stable argsort, which takes no out=, with
    # its merge buffer; the parent allocated about seven
    rng = np.random.default_rng(21)
    q, p, v = rng.uniform(-1.0, 1.0, size=(1000, 1)), rng.uniform(-1.0, 1.0, size=(3500, 1)), rng.normal(size=3500)
    ks = (5, 50, 150)
    backend.knn_mean(q, p, v, ks)
    tracemalloc.start()
    try:
        backend.knn_mean(q, p, v, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * backend._BLOCK * max(ks) * 8
