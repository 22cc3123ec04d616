"""The kernels against reference loops written here, and the numba paths against numpy."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import _kernels


def _random_csr(rng, rows, cols, density=0.3):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    dense[rows // 2, :] = 0.0
    data, indices, indptr = [], [], [0]
    for i in range(rows):
        nz = np.nonzero(dense[i])[0]
        indices.extend(nz.tolist())
        data.extend(dense[i, nz].tolist())
        indptr.append(len(indices))
    return (
        np.asarray(data, dtype=np.float64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        dense,
    )


class TestCsrMatvec:
    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        for rows, cols in [(1, 1), (5, 3), (17, 17), (40, 9)]:
            data, indices, indptr, dense = _random_csr(rng, rows, cols)
            x = rng.standard_normal(cols)
            out = _kernels.csr_matvec(data, indices, indptr, x)
            assert_allclose(out, dense @ x, rtol=1e-13, atol=1e-14)

    def test_empty_matrix(self):
        data = np.zeros(0)
        indices = np.zeros(0, dtype=np.int64)
        indptr = np.zeros(6, dtype=np.int64)
        out = _kernels.csr_matvec(data, indices, indptr, np.ones(4))
        assert out.shape == (5,)
        assert not out.any()

    def test_empty_rows_contribute_zero(self):
        # one entry in the last row, everything before it empty
        data = np.array([2.5])
        indices = np.array([1], dtype=np.int64)
        indptr = np.array([0, 0, 0, 1], dtype=np.int64)
        out = _kernels.csr_matvec(data, indices, indptr, np.array([10.0, 4.0]))
        assert_allclose(out, [0.0, 0.0, 10.0])


def _unit_rows(rng, m, n):
    vecs = rng.standard_normal((m, n))
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def _chain(vecs, x, adjoint):
    return _kernels.householder_chain(vecs, _kernels.householder_wy(vecs), x, adjoint)


def _reflector_loop(vecs, x, adjoint):
    """U x or U^T x for U = H_0 ... H_{m-1}, one reflector at a time."""
    y = x.copy()
    for v in vecs if adjoint else vecs[::-1]:
        y -= (2.0 * (v @ y)) * v
    return y


class TestHouseholderChain:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(1)
        vecs = _unit_rows(rng, 6, 20)
        x = rng.standard_normal(20)
        y = _chain(vecs, x, False)
        back = _chain(vecs, y, True)
        assert_allclose(back, x, rtol=1e-13, atol=1e-14)

    def test_preserves_norm(self):
        rng = np.random.default_rng(2)
        vecs = _unit_rows(rng, 4, 11)
        x = rng.standard_normal(11)
        y = _chain(vecs, x, True)
        assert_allclose(np.linalg.norm(y), np.linalg.norm(x), rtol=1e-13)

    def test_single_reflector_formula(self):
        v = np.zeros(3)
        v[0] = 1.0
        x = np.array([1.0, 2.0, 3.0])
        y = _chain(v[None, :], x, True)
        assert_allclose(y, [-1.0, 2.0, 3.0])

    # block edges at 64 rows, and more reflectors than dimensions
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("n", [13, 500])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 500])
    def test_compact_wy_matches_reflector_loop(self, m, n, adjoint):
        rng = np.random.default_rng([m, n])
        vecs = _unit_rows(rng, m, n)
        x = rng.standard_normal(n)
        expected = _reflector_loop(vecs, x, adjoint)
        got = _chain(vecs, x, adjoint)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_zero_reflectors_copy_exactly(self):
        x = np.random.default_rng(3).standard_normal(9)
        for adjoint in (False, True):
            y = _chain(np.zeros((0, 9)), x, adjoint)
            assert y is not x
            assert np.array_equal(y, x)

    def test_input_vector_is_not_modified(self):
        rng = np.random.default_rng(4)
        vecs = _unit_rows(rng, 70, 30)
        x = rng.standard_normal(30)
        before = x.copy()
        _chain(vecs, x, False)
        assert np.array_equal(x, before)

    def test_operator_keeps_its_reflector_stack(self):
        u = bk.HouseholderChainOperator.random(40, 100, seed=5)
        vecs = u.vecs.copy()
        x = np.random.default_rng(6).standard_normal(40)
        y = u.apply(x)
        assert_allclose(u.apply_adjoint(y), x, rtol=1e-13, atol=1e-14)
        assert u.vecs.shape == (100, 40)
        assert np.array_equal(u.vecs, vecs)


def _scalar_upper_solve(diag, sup1, sup2, rhs):
    k = diag.shape[0]
    x = np.empty(k)
    for i in range(k - 1, -1, -1):
        acc = rhs[i]
        if i + 1 < k:
            acc -= sup1[i] * x[i + 1]
        if i + 2 < k:
            acc -= sup2[i] * x[i + 2]
        x[i] = acc / diag[i]
    return x


def _scalar_upper_t_solve(diag, sup1, sup2, rhs):
    k = diag.shape[0]
    x = np.empty(k)
    for i in range(k):
        acc = rhs[i]
        if i >= 1:
            acc -= sup1[i - 1] * x[i - 1]
        if i >= 2:
            acc -= sup2[i - 2] * x[i - 2]
        x[i] = acc / diag[i]
    return x


class TestBandSolves:
    def _random_band(self, rng, k):
        diag = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        sup1 = rng.standard_normal(max(k - 1, 0))
        sup2 = rng.standard_normal(max(k - 2, 0))
        dense = np.diag(diag)
        for i in range(k - 1):
            dense[i, i + 1] = sup1[i]
        for i in range(k - 2):
            dense[i, i + 2] = sup2[i]
        return diag, sup1, sup2, dense

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
    def test_upper_solve_matches_dense(self, k):
        rng = np.random.default_rng(k)
        diag, sup1, sup2, dense = self._random_band(rng, k)
        rhs = rng.standard_normal(k)
        x = _kernels.band_solve_upper(diag, sup1, sup2, rhs)
        assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
    def test_transpose_solve_matches_dense(self, k):
        rng = np.random.default_rng(100 + k)
        diag, sup1, sup2, dense = self._random_band(rng, k)
        rhs = rng.standard_normal(k)
        x = _kernels.band_solve_upper_t(diag, sup1, sup2, rhs)
        assert_allclose(x, np.linalg.solve(dense.T, rhs), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 30, 300])
    def test_solves_match_scalar_loop_bitwise(self, k):
        rng = np.random.default_rng(200 + k)
        diag, sup1, sup2, _ = self._random_band(rng, k)
        rhs = rng.standard_normal(k)
        rhs[0] = rhs[-1] = -0.0  # the signed zero must survive the edge rows
        for name, reference in [
            ("band_solve_upper", _scalar_upper_solve),
            ("band_solve_upper_t", _scalar_upper_t_solve),
        ]:
            expected = reference(diag, sup1, sup2, rhs).tobytes()
            for impl in _kernels.IMPLEMENTATIONS[name]:
                if impl is not None:
                    x = impl(diag, sup1, sup2, rhs)
                    assert x.dtype == np.float64
                    assert x.tobytes() == expected


@pytest.mark.parametrize("name", sorted(_kernels.IMPLEMENTATIONS))
def test_numba_and_numpy_paths_agree(name):
    np_impl, nb_impl = _kernels.IMPLEMENTATIONS[name]
    if nb_impl is None:
        pytest.skip("numba path not compiled in this process")
    rng = np.random.default_rng(42)
    if name == "csr_matvec":
        data, indices, indptr, _ = _random_csr(rng, 23, 17)
        x = rng.standard_normal(17)
        args_a = (data, indices, indptr, x)
        args_b = (data.copy(), indices.copy(), indptr.copy(), x.copy())
    else:
        k = 19
        diag = rng.uniform(0.5, 2.0, size=k)
        sup1 = rng.standard_normal(k - 1)
        sup2 = rng.standard_normal(k - 2)
        rhs = rng.standard_normal(k)
        args_a = (diag, sup1, sup2, rhs)
        args_b = (diag.copy(), sup1.copy(), sup2.copy(), rhs.copy())
    assert_allclose(np_impl(*args_a), nb_impl(*args_b), rtol=1e-13, atol=1e-15)


def test_pure_numpy_env_flag_disables_numba():
    code = (
        "from berrkit import _kernels; "
        "print(_kernels.USING_NUMBA, _kernels.IMPLEMENTATIONS['csr_matvec'][1] is None)"
    )
    env = dict(os.environ, BERRKIT_PURE_NUMPY="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


def test_solvers_run_under_pure_numpy():
    code = (
        "import numpy as np, berrkit as bk; "
        "q = bk.ill_conditioned(50, 1e4); "
        "r = bk.minberr_solve(q.op, q.b, eps=1e-4); "
        "print(r.termination.value)"
    )
    env = dict(os.environ, BERRKIT_PURE_NUMPY="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "ToleranceReached"
