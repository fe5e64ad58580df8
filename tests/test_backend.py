"""Backend contract tests: the kernels must agree with a brute-force
reference, resolve ties to the lower index and stay bounded in memory."""

import tracemalloc

import numpy as np
import pytest

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
            np.array([[1.0]]), np.array([[0.0], [2.0]]), np.array([1.0, 9.0]), 1.0
        )
        assert got[0] == pytest.approx(5.0, abs=1e-12)

    def test_nw_underflow_nearest_fallback(self, name, impl):
        centers = np.array([[0.0], [100.0]])
        got = impl.gaussian_nw(np.array([[60.0]]), centers, np.array([1.0, 9.0]), 1e-6)
        assert got[0] == 9.0

    def test_nw_underflow_tie_takes_lower_index(self, name, impl):
        centers = np.array([[0.0], [120.0]])
        got = impl.gaussian_nw(np.array([[60.0]]), centers, np.array([1.0, 9.0]), 1e-6)
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
            impl.gaussian_nw(q, p, v, 1.0)

    @pytest.mark.parametrize("m_values", [2, 4])
    def test_values_length_mismatch_rejected(self, name, impl, m_values):
        q, p, v = np.zeros((2, 1)), np.zeros((3, 1)), np.zeros(m_values)
        with pytest.raises(ValueError, match="values length"):
            impl.knn_mean(q, p, v, (1,))
        with pytest.raises(ValueError, match="values length"):
            impl.gaussian_nw(q, p, v, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nw_rejects_nonpositive_sigma(self, name, impl, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            impl.gaussian_nw(np.zeros((1, 1)), np.ones((2, 1)), np.ones(2), sigma)

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
                    impl.gaussian_nw(q, p, np.abs(v), sigma), brute_nw(q, p, np.abs(v), sigma), rtol=1e-10
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
        np.testing.assert_allclose(impl.gaussian_nw(q, p, v + 1.0, 2.0), brute_nw(q, p, v + 1.0, 2.0), rtol=1e-12)

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


def test_kernel_memory_grows_with_the_block_not_the_query_count():
    rng = np.random.default_rng(2)
    q, p, v = rng.normal(size=(16 * 256, 2)), rng.normal(size=(1000, 2)), rng.normal(size=1000)
    full_matrix = q.shape[0] * p.shape[0] * 8
    for run in (lambda: backend.knn_mean(q, p, v, (5,))[0], lambda: backend.gaussian_nw(q, p, v, 1.0)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 2


class TestDispatch:
    def test_active_backend_exports_kernels(self):
        import selreg.backend as b

        assert callable(b.pairwise_sq_dists) and callable(b.knn_mean) and callable(b.gaussian_nw)
        assert b.BACKEND == "numpy"
