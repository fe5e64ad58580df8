"""Backend contract tests: both implementations must agree with a brute-force
reference and with each other."""

import numpy as np
import pytest

from selreg.backend import _numpy

try:
    from selreg.backend import _ckernels
except ImportError:
    _ckernels = None

BACKENDS = [("numpy", _numpy)] + ([("compiled", _ckernels)] if _ckernels else [])
needs_compiled = pytest.mark.skipif(_ckernels is None, reason="compiled kernels not built")


def brute_sq_dists(q, p):
    out = np.zeros((len(q), len(p)))
    for i, qi in enumerate(q):
        for j, pj in enumerate(p):
            out[i, j] = float(np.sum((qi - pj) ** 2))
    return out


@pytest.mark.parametrize("name,impl", BACKENDS)
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
        got = impl.knn_mean(np.array([[1.0]]), points, values, 2)
        assert got[0] == pytest.approx((99.0 + 10.0) / 2.0)

    def test_knn_k_equals_m_is_plain_mean(self, name, impl):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(9, 2))
        v = rng.normal(size=9)
        got = impl.knn_mean(rng.normal(size=(4, 2)), p, v, 9)
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
        with pytest.raises(ValueError):
            impl.knn_mean(np.zeros((1, 1)), np.zeros((3, 1)), np.zeros(3), 4)

    # a one-column operand broadcasts against any width, so a mismatch must
    # be caught explicitly rather than left to NumPy
    @pytest.mark.parametrize("dq,dp", [(2, 1), (1, 2), (2, 3)])
    def test_dimension_mismatch_rejected(self, name, impl, dq, dp):
        q, p, v = np.zeros((2, dq)), np.zeros((3, dp)), np.zeros(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            impl.pairwise_sq_dists(q, p)
        with pytest.raises(ValueError, match="dimension mismatch"):
            impl.knn_mean(q, p, v, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            impl.gaussian_nw(q, p, v, 1.0)

    @pytest.mark.parametrize("m_values", [2, 4])
    def test_values_length_mismatch_rejected(self, name, impl, m_values):
        q, p, v = np.zeros((2, 1)), np.zeros((3, 1)), np.zeros(m_values)
        with pytest.raises(ValueError, match="values length"):
            impl.knn_mean(q, p, v, 1)
        with pytest.raises(ValueError, match="values length"):
            impl.gaussian_nw(q, p, v, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nw_rejects_nonpositive_sigma(self, name, impl, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            impl.gaussian_nw(np.zeros((1, 1)), np.ones((2, 1)), np.ones(2), sigma)


@needs_compiled
class TestParity:
    def test_backends_agree_on_random_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = rng.normal(size=(40, 4))
            p = rng.normal(size=(60, 4))
            v = rng.normal(size=60)
            np.testing.assert_allclose(
                _ckernels.pairwise_sq_dists(q, p), _numpy.pairwise_sq_dists(q, p), rtol=1e-12
            )
            for k in (1, 5, 60):
                np.testing.assert_allclose(
                    _ckernels.knn_mean(q, p, v, k), _numpy.knn_mean(q, p, v, k), rtol=1e-12
                )
            for sigma in (1e-3, 1.0, 1e3):
                np.testing.assert_allclose(
                    _ckernels.gaussian_nw(q, p, np.abs(v), sigma),
                    _numpy.gaussian_nw(q, p, np.abs(v), sigma),
                    rtol=1e-10,
                )

    def test_duplicate_point_ties_identical(self):
        # duplicated training points produce exact distance ties; both
        # backends must resolve them to the same (lowest-index) rows
        points = np.array([[1.0], [1.0], [1.0], [2.0]])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        q = np.array([[1.0], [1.5]])
        for k in (1, 2, 3):
            np.testing.assert_array_equal(
                _ckernels.knn_mean(q, points, values, k), _numpy.knn_mean(q, points, values, k)
            )

    def test_integer_lattice_ties_identical(self):
        # small integer coordinates make exact ties pervasive; distinct
        # per-point values expose any tie-order mismatch in the mean
        rng = np.random.default_rng(123)
        for trial in range(20):
            m = int(rng.integers(3, 30))
            points = rng.integers(0, 3, size=(m, 2)).astype(float)
            queries = rng.integers(0, 3, size=(8, 2)).astype(float)
            values = rng.permutation(m).astype(float)  # all distinct
            for k in (1, 2, m // 2 + 1, m):
                np.testing.assert_array_equal(
                    _ckernels.knn_mean(queries, points, values, k),
                    _numpy.knn_mean(queries, points, values, k),
                )


class TestDispatch:
    def test_env_override_forces_numpy(self, monkeypatch):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import selreg

        # the child inherits the parent's environment and imports the same
        # source tree as the parent, whether that came from PYTHONPATH or an
        # installed package
        src_root = str(Path(selreg.__file__).parents[1])
        monkeypatch.setenv("SELREG_BACKEND", "numpy")
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
        )
        code = (
            "import selreg.backend as b; print(b.BACKEND)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numpy"

    def test_active_backend_exports_kernels(self):
        import selreg.backend as b

        assert callable(b.pairwise_sq_dists) and callable(b.knn_mean) and callable(b.gaussian_nw)
        assert b.BACKEND in ("numpy", "compiled")
