"""The kernels against dense products and the reference loops written here.

The band solves, on the float lists they take, match the scalar reference
loops bit for bit; the two-term (bidiagonal) loop also matches the
three-term one on a zero second superdiagonal, but for the sign of an exact
zero and the entries past a non-finite one. The CSR matvec and its
transpose are checked against a dense product on Hypothesis-drawn and
skewed inputs, and the length-bucketed layout against its stated bounds and
bucket rule. Both CSR products match
``bench_kernels.csr_order``, the sums in CSR order, to the bit up to zero
signs on buckets of every width from 1 to 64, on buckets of 1 to 1200 rows
with and without empty rows between them, and on the benchmarked matrices;
``tests/test_operators.py`` checks them against scalar loops on small
Hypothesis-drawn matrices.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import _kernels, factorize, minberr


def _dense_to_csr(dense):
    stored = dense != 0.0
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))]).astype(np.int64)
    return dense[stored], np.nonzero(stored)[1].astype(np.int64), indptr


def _random_csr(rng, rows, cols, density=0.3):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    dense[rows // 2, :] = 0.0
    return (*_dense_to_csr(dense), dense)


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


def _entries(rng, shape):
    """Zero (one in eight) or a log-uniform magnitude in [1e-6, 1e6], either sign.

    Products stay far from underflow, so the only error is summation rounding,
    bounded by n u (|a| @ |x|) for each side of the comparison.
    """
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    values[rng.random(shape) < 0.125] = 0.0
    return values


@st.composite
def _csr_and_vector(draw):
    """A CSR matrix (rectangular, often with empty rows or nnz = 0) and an x.

    Hypothesis draws the shape and one column bitmask per row (0 is an empty
    row); the values, stored zeros included, come from a drawn seed.
    """
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = np.array([[(m >> j) & 1 for j in range(cols)] for m in masks], dtype=bool)
    dense = np.where(stored, _entries(rng, (rows, cols)), 0.0)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))]).astype(np.int64)
    indices = np.nonzero(stored)[1].astype(np.int64)
    return (dense[stored], indices, indptr), dense, _entries(rng, cols)


def _check_layout(slots, data, indices, indptr):
    """csr_slots keeps every stored entry once, pads within its bounds, and
    fills each padded slot with 0.0 at the row's own last stored column. Each
    bucket is as wide as the longest row left by the buckets before it and
    takes, in ascending order, every row left that is longer than half that."""
    lengths = np.diff(indptr)
    nnz = data.shape[0]
    assert sum(val.size for _, _, val in slots) < max(2 * nnz, 1)
    if nnz:
        assert len(slots) <= int(np.log2(lengths.max())) + 1
    seen = np.concatenate([rows for rows, _, _ in slots] + [np.zeros(0, np.int64)])
    assert np.array_equal(np.sort(seen), np.flatnonzero(lengths))
    left = lengths.copy()
    for rows, idx, val in slots:
        width = idx.shape[0]
        assert idx.shape == val.shape == (width, rows.shape[0])
        assert width == left.max()
        assert np.array_equal(rows, np.flatnonzero(left > width / 2))
        left[rows] = 0
        for j, row in enumerate(rows):
            lo, hi = indptr[row], indptr[row + 1]
            n = hi - lo
            assert np.array_equal(idx[:n, j], indices[lo:hi])
            assert np.array_equal(val[:n, j], data[lo:hi])
            assert np.all(idx[n:, j] == indices[hi - 1])
            assert np.all(val[n:, j] == 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_csr_and_vector())
def test_csr_matvec_matches_dense_product(case):
    (data, indices, indptr), dense, x = case
    out = _kernels.csr_matvec(data, indices, indptr, x)
    assert out.shape == (dense.shape[0],)
    assert np.all(np.abs(out - dense @ x) <= 1e-13 * (np.abs(dense) @ np.abs(x)))
    y = np.cos(np.arange(dense.shape[0]))
    out_t = _kernels.csr_matvec_t(data, indices, indptr, y, dense.shape[1])
    assert out_t.dtype == np.float64 and out_t.shape == (dense.shape[1],)
    assert np.all(np.abs(out_t - dense.T @ y) <= 1e-13 * (np.abs(dense.T) @ np.abs(y)))
    slots = _kernels.csr_slots(data, indices, indptr)
    _check_layout(slots, data, indices, indptr)
    assert _kernels.csr_matvec(data, indices, indptr, x, slots).tobytes() == out.tobytes()


def _skewed_csr(rng, n):
    """n x n with one row holding half the nonzeros, every tenth row empty,
    and the other rows 1-6 long."""
    lengths = rng.integers(1, 7, size=n)
    lengths[::10] = 0
    lengths[3] = lengths.sum()
    dense = np.zeros((n, n))
    for i, length in enumerate(lengths):
        cols = rng.choice(n, size=min(length, n), replace=False)
        dense[i, cols] = rng.standard_normal(cols.size)
    return dense


@pytest.mark.parametrize("transpose", [False, True])
def test_csr_matvec_on_skewed_rows_matches_dense(transpose):
    # transposed, the long row becomes a heavy column and the empty rows
    # become empty columns
    rng = np.random.default_rng(7)
    dense = _skewed_csr(rng, 400)
    if transpose:
        dense = dense.T.copy()
    data, indices, indptr = _dense_to_csr(dense)
    slots = _kernels.csr_slots(data, indices, indptr)
    _check_layout(slots, data, indices, indptr)
    x = rng.standard_normal(dense.shape[1])
    out = _kernels.csr_matvec(data, indices, indptr, x, slots)
    assert np.all(np.abs(out - dense @ x) <= 1e-13 * (np.abs(dense) @ np.abs(x)))
    out_t = _kernels.csr_matvec_t(data, indices, indptr, x, dense.shape[1])
    assert np.all(np.abs(out_t - dense.T @ x) <= 1e-13 * (np.abs(dense.T) @ np.abs(x)))
    if not transpose:
        assert not out[::10].any()
    else:
        assert not out_t[::10].any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_x_reaches_only_rows_that_store_its_column():
    rng = np.random.default_rng(8)
    dense = _skewed_csr(rng, 120)
    data, indices, indptr = _dense_to_csr(dense)
    for j in (0, 3, 57, 119):
        for bad in (np.inf, np.nan):
            x = rng.standard_normal(120)
            x[j] = bad
            out = _kernels.csr_matvec(data, indices, indptr, x)
            assert np.array_equal(~np.isfinite(out), dense[:, j] != 0.0)


def test_csr_operator_builds_each_layout_once(monkeypatch):
    calls = []
    build = _kernels.csr_slots
    monkeypatch.setattr(_kernels, "csr_slots", lambda *a: calls.append(a) or build(*a))
    rng = np.random.default_rng(9)
    dense = _skewed_csr(rng, 50)
    rows, cols = np.nonzero(dense)
    op = bk.CsrOperator.from_coo(rows, cols, dense[rows, cols], dense.shape)
    assert calls == []
    x = rng.standard_normal(50)
    for _ in range(10):
        assert_allclose(op.apply(x), dense @ x, rtol=1e-13, atol=1e-13)
    assert len(calls) == 1 and calls[0][0] is op.data
    for _ in range(10):
        assert_allclose(op.apply_adjoint(x), dense.T @ x, rtol=1e-13, atol=1e-13)
    assert len(calls) == 1

    calls.clear()
    sym = dense + dense.T
    rows, cols = np.nonzero(sym)
    op = bk.CsrOperator.from_coo(rows, cols, sym[rows, cols], sym.shape, symmetric=True)
    for _ in range(10):
        op.apply(x)
        op.apply_adjoint(x)
    assert len(calls) == 1 and calls[0][0] is op.data


def _csr_of_lengths(rng, lengths, cols):
    """CSR arrays whose rows have the given lengths, at sorted random columns
    of range(cols), with values from _entries."""
    indices = np.concatenate([np.sort(rng.choice(cols, size=n, replace=False)) for n in lengths])
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return _entries(rng, indices.shape[0]), indices, indptr


def _assert_sums_in_csr_order(bench_kernels, rng, data, indices, indptr, cols):
    """csr_matvec and csr_matvec_t equal the CSR-order sums of
    ``bench_kernels.csr_order`` to the bit, zero signs aside, on x and y from
    _entries."""
    x, y = _entries(rng, cols), _entries(rng, indptr.shape[0] - 1)
    got = (_kernels.csr_matvec(data, indices, indptr, x),
           _kernels.csr_matvec_t(data, indices, indptr, y, cols))
    for g, want in zip(got, bench_kernels.csr_order(data, indices, indptr, x, y, cols)):
        assert g.dtype == np.float64 and g.shape == want.shape
        assert np.array_equal(g, want)


def _with_empty_rows(lengths):
    """lengths with an empty row before each row and one at the end."""
    gapped = np.zeros(2 * len(lengths) + 1, dtype=np.int64)
    gapped[1::2] = lengths
    return gapped


@pytest.mark.parametrize("width", range(1, 65))
def test_a_bucket_of_each_width_sums_in_csr_order(bench_kernels, width):
    # 11 rows that fill one bucket: it holds every row (no scatter), or, with
    # empty rows between them, every other row (scattered)
    rng = np.random.default_rng(width)
    lengths = rng.integers(width // 2 + 1, width + 1, size=11)
    lengths[5] = width
    for lens, cols in ((lengths, width + 3), (_with_empty_rows(lengths), 2 * width + 1)):
        data, indices, indptr = _csr_of_lengths(rng, lens, cols)
        slots = _kernels.csr_slots(data, indices, indptr)
        assert [(idx.shape[0], rows.shape[0]) for rows, idx, _ in slots] == [(width, 11)]
        _check_layout(slots, data, indices, indptr)
        _assert_sums_in_csr_order(bench_kernels, rng, data, indices, indptr, cols)


@pytest.mark.parametrize("gaps", [False, True])
def test_buckets_of_one_to_thousands_of_rows_sum_in_csr_order(bench_kernels, gaps):
    rng = np.random.default_rng(65)
    # buckets of width 40, 20, 10, 4, 2 and 1 holding 1, 2, 3, 1200, 2 and 1 rows
    lengths = rng.permutation(np.concatenate(
        [[40, 17, 20, 6, 10, 9], rng.integers(3, 5, size=1200), [2, 2, 1]]))
    if gaps:
        lengths = _with_empty_rows(lengths)
    for cols in (50, 3000):
        data, indices, indptr = _csr_of_lengths(rng, lengths, cols)
        slots = _kernels.csr_slots(data, indices, indptr)
        assert [(idx.shape[0], rows.shape[0]) for rows, idx, _ in slots] == [
            (40, 1), (20, 2), (10, 3), (4, 1200), (2, 2), (1, 1)]
        _check_layout(slots, data, indices, indptr)
        _assert_sums_in_csr_order(bench_kernels, rng, data, indices, indptr, cols)


def test_the_solved_csr_matrices_take_one_bucket(bench_kernels):
    # the Laplacian's rows of 3-5 entries, the random rows of about 9 and the
    # one entry a row of minberr_ne_perturbed's E (some rows empty when tall)
    rng = np.random.default_rng(66)
    lap = bench_kernels.laplacian_coo(120)
    rnd = bench_kernels.certify_random_coo(10_000, np.random.default_rng([1, 10]))
    ops = [(bk.CsrOperator.from_coo(*lap, (14_400, 14_400), symmetric=True), 14_400),
           (bk.CsrOperator.from_coo(*rnd, (10_000, 10_000)), 10_000),
           (minberr._perturbation(200, 300, 1e-3, 0), 200),
           (minberr._perturbation(300, 200, 1e-3, 0), 200)]
    for op, filled in ops:
        slots = _kernels.csr_slots(op.data, op.indices, op.indptr)
        assert len(slots) == 1 and slots[0][0].shape[0] == filled
        _check_layout(slots, op.data, op.indices, op.indptr)
        _assert_sums_in_csr_order(bench_kernels, rng, op.data, op.indices, op.indptr, op.cols)


def test_arrow_layout_keeps_its_bounds(bench_kernels):
    # a dense first row and column beside the diagonal: one row of n entries
    # and n - 1 rows of 2
    rng = np.random.default_rng(67)
    n = 300
    op = bk.CsrOperator.from_coo(*bench_kernels.arrow_coo(n, rng), (n, n))
    slots = _kernels.csr_slots(op.data, op.indices, op.indptr)
    assert [(idx.shape[0], rows.shape[0]) for rows, idx, _ in slots] == [(n, 1), (2, n - 1)]
    _check_layout(slots, op.data, op.indices, op.indptr)
    _assert_sums_in_csr_order(bench_kernels, rng, op.data, op.indices, op.indptr, n)


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


def _upper_lists(diag, sup1, sup2):
    """The band as band_solve_upper takes it: floats, zero padding at the
    end, sup2 None for a bidiagonal band."""
    return (diag.tolist(), sup1.tolist() + [0.0],
            None if sup2 is None else sup2.tolist() + [0.0, 0.0])


def _transposed_lists(diag, sup1, sup2):
    """As band_solve_upper_t takes it: the zero padding in front."""
    return (diag.tolist(), [0.0] + sup1.tolist(),
            None if sup2 is None else [0.0, 0.0] + sup2.tolist())


def _scalar_upper_solve(diag, sup1, sup2, rhs, scale=1.0):
    k = diag.shape[0]
    x = np.empty(k)
    for i in range(k - 1, -1, -1):
        acc = rhs[i] / scale
        if i + 1 < k:
            acc -= sup1[i] * x[i + 1]
        if i + 2 < k:
            acc -= sup2[i] * x[i + 2]
        x[i] = acc / diag[i]
    return x


def _scalar_upper_t_solve(diag, sup1, sup2, rhs, scale=1.0):
    k = diag.shape[0]
    x = np.empty(k)
    for i in range(k):
        acc = rhs[i] / scale
        if i >= 1:
            acc -= sup1[i - 1] * x[i - 1]
        if i >= 2:
            acc -= sup2[i - 2] * x[i - 2]
        x[i] = acc / diag[i]
    return x


def _scalar_bidiagonal_solve(diag, sup1, rhs, scale):
    k = diag.shape[0]
    x = np.empty(k)
    for i in range(k - 1, -1, -1):
        acc = rhs[i] / scale
        if i + 1 < k:
            acc -= sup1[i] * x[i + 1]
        x[i] = acc / diag[i]
    return x


def _scalar_bidiagonal_t_solve(diag, sup1, rhs, scale):
    k = diag.shape[0]
    x = np.empty(k)
    for i in range(k):
        acc = rhs[i] / scale
        if i >= 1:
            acc -= sup1[i - 1] * x[i - 1]
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
        x = _kernels.band_solve_upper(*_upper_lists(diag, sup1, sup2), rhs.tolist(), 1.0)
        assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
    def test_transpose_solve_matches_dense(self, k):
        rng = np.random.default_rng(100 + k)
        diag, sup1, sup2, dense = self._random_band(rng, k)
        rhs = rng.standard_normal(k)
        x = _kernels.band_solve_upper_t(*_transposed_lists(diag, sup1, sup2), rhs.tolist(), 1.0)
        assert_allclose(x, np.linalg.solve(dense.T, rhs), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 30, 300])
    def test_solves_match_scalar_loop_bitwise(self, k):
        rng = np.random.default_rng(200 + k)
        diag, sup1, sup2, _ = self._random_band(rng, k)
        rhs = rng.standard_normal(k)
        rhs[0] = rhs[-1] = -0.0  # the signed zero must survive the edge rows
        band = factorize.BandMatrix(diag, sup1, sup2)
        for (solve, lists, reference, band_solve), scale in itertools.product([
            (_kernels.band_solve_upper, _upper_lists, _scalar_upper_solve, band.solve),
            (_kernels.band_solve_upper_t, _transposed_lists, _scalar_upper_t_solve,
             band.solve_t),
        ], [1.0, 2.7]):
            x = solve(*lists(diag, sup1, sup2), rhs.tolist(), scale)
            assert type(x) is list and all(type(xi) is float for xi in x)
            assert np.array(x).tobytes() == reference(diag, sup1, sup2, rhs, scale).tobytes()
            # BandMatrix hands the kernels the same lists
            assert np.array(band_solve(rhs.tolist(), scale)).tobytes() == np.array(x).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 30, 300])
    def test_bidiagonal_solves_match_two_term_scalar_loop_bitwise(self, k):
        rng = np.random.default_rng(300 + k)
        diag, sup1, _, _ = self._random_band(rng, k)
        rhs = rng.standard_normal(k)
        rhs[0] = rhs[-1] = -0.0
        band = factorize.BandMatrix(diag, sup1)
        for (solve, lists, reference, band_solve), scale in itertools.product([
            (_kernels.band_solve_upper, _upper_lists, _scalar_bidiagonal_solve, band.solve),
            (_kernels.band_solve_upper_t, _transposed_lists, _scalar_bidiagonal_t_solve,
             band.solve_t),
        ], [1.0, 2.7]):
            x = solve(*lists(diag, sup1, None), rhs.tolist(), scale)
            assert type(x) is list and all(type(xi) is float for xi in x)
            assert np.array(x).tobytes() == reference(diag, sup1, rhs, scale).tobytes()
            assert np.array(band_solve(rhs.tolist(), scale)).tobytes() == np.array(x).tobytes()

    def test_two_terms_keep_the_zero_sign_three_terms_lose(self):
        # the three-term form on a zero sup2 computes a - 0.0 * x2, which is
        # +0.0 where a is -0.0 and x2 sign-negative: row 0 below reads
        # (-0.0 - 0.0 * 0.0) - 0.0 * (-1.0) = +0.0, the two-term row -0.0
        diag, sup1, sup2 = np.ones(3), np.zeros(2), np.zeros(1)
        for solve, lists, rhs, row in [
            (_kernels.band_solve_upper, _upper_lists, [-0.0, -0.0, -1.0], 0),
            (_kernels.band_solve_upper_t, _transposed_lists, [-1.0, -0.0, -0.0], 2),
        ]:
            three = solve(*lists(diag, sup1, sup2), rhs, 1.0)
            two = solve(*lists(diag, sup1, None), rhs, 1.0)
            assert three == two
            assert math.copysign(1.0, three[row]) == 1.0
            assert math.copysign(1.0, two[row]) == -1.0
            others = [i for i in range(3) if i != row]
            assert np.array(three)[others].tobytes() == np.array(two)[others].tobytes()

    def test_two_terms_match_three_wherever_three_stay_finite(self):
        # 0.0 * inf is NaN, so past a non-finite entry the three-term form
        # reads NaN; wherever it stays finite the two forms agree to the bit
        rng = np.random.default_rng(400)
        diag, sup1, _, _ = self._random_band(rng, 30)
        rhs = rng.standard_normal(30)
        rhs[12] = math.inf
        for solve, lists in [(_kernels.band_solve_upper, _upper_lists),
                             (_kernels.band_solve_upper_t, _transposed_lists)]:
            three = np.array(solve(*lists(diag, sup1, np.zeros(28)), rhs.tolist(), 2.7))
            two = np.array(solve(*lists(diag, sup1, None), rhs.tolist(), 2.7))
            finite = np.isfinite(three)
            assert 12 <= finite.sum() < 30
            assert two[finite].tobytes() == three[finite].tobytes()
