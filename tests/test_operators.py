import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import cli, mmio
from berrkit.operators import NORM_REL_TOL, estimate_spectral_norm, norm2

from _helpers import golub_kahan_problems
from golub_kahan_reference import golub_kahan_norm


def test_vector_primitives():
    assert norm2(np.array([3.0, 4.0])) == 5.0
    assert math.isnan(norm2([1.0, np.nan, 1e300]))
    assert norm2([1.0, -np.inf]) == math.inf
    assert norm2(np.full(4, 1.7e308)) == math.inf  # the norm itself overflows
    assert norm2(np.zeros(3)) == norm2(np.zeros(0)) == 0.0
    assert norm2([5e-324]) == 5e-324


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 400), st.integers(0, 2**32 - 1), st.floats(-150.0, 150.0))
def test_norm2_is_numpys_norm_while_the_squares_stay_normal(n, seed, log_scale):
    strided = (np.random.default_rng(seed).standard_normal((n, 3)) * 10.0**log_scale)[:, 1]
    assume(np.finfo(float).tiny <= strided @ strided < math.inf)
    for x in (strided, strided.copy()):
        assert norm2(x) == float(np.linalg.norm(x))


@pytest.mark.parametrize("shift", [-1000, -700, -560, 520, 700, 1000])
def test_norm2_past_the_square_root_of_the_float_range(shift):
    # a power of two scales x exactly, so ||x 2^shift|| = ||x|| 2^shift
    x = np.random.default_rng(1).standard_normal(300)
    assert_allclose(norm2(np.ldexp(x, shift)), math.ldexp(norm2(x), shift), rtol=1e-15)


class TestDenseOperator:
    def test_apply_and_adjoint(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        op = bk.DenseOperator(a)
        v = np.array([1.0, 0.5, -2.0, 3.0])
        w = np.array([2.0, 0.0, -1.0])
        assert_allclose(op.apply(v), a @ v)
        assert_allclose(op.apply_adjoint(w), a.T @ w)
        assert op.shape == (3, 4)
        assert not op.symmetric

    def test_symmetry_autodetect(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert bk.DenseOperator(a).symmetric
        assert not bk.DenseOperator(a + np.array([[0, 1e-8], [0, 0]])).symmetric
        # an explicit flag wins over detection
        assert not bk.DenseOperator(a, symmetric=False).symmetric

    def test_dimension_check(self):
        op = bk.DenseOperator(np.eye(3))
        with pytest.raises(bk.DimensionMismatchError):
            op.apply(np.ones(4))

    def test_to_dense_round_trip(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert_allclose(bk.DenseOperator(a).to_dense(), a)


class TestNormEstimation:
    def test_diagonal_norm_accuracy(self):
        d = np.array([0.3, -2.0, 1.4, 0.9])
        op = bk.DenseOperator(np.diag(d), symmetric=True)
        est = bk.estimate_spectral_norm(op)
        assert est.value <= 2.0 * (1 + 1e-12)
        assert est.value >= 2.0 * (1 - bk.operators.NORM_REL_TOL)
        assert est.relative_tolerance == bk.operators.NORM_REL_TOL
        assert 1 <= est.iterations_used <= bk.operators.NORM_MAX_ITER

    def test_estimate_never_exceeds_true_norm(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 30))
        op = bk.DenseOperator(a)
        est = bk.estimate_spectral_norm(op)
        assert est.value <= np.linalg.norm(a, 2) * (1 + 1e-12)

    def test_zero_operator_rejected(self):
        op = bk.DenseOperator(np.zeros((3, 3)))
        with pytest.raises(bk.ZeroOperatorError):
            bk.estimate_spectral_norm(op)

    def test_opnorm_is_cached(self):
        a = np.random.default_rng(4).standard_normal((10, 10))
        op = bk.DenseOperator(a)
        first = op.opnorm()
        second = op.opnorm()
        assert first == second

    def test_set_opnorm_pins_exact_value(self):
        op = bk.DenseOperator(np.eye(2))
        op.set_opnorm(1.0)
        assert op.opnorm() == 1.0
        assert op._opnorm_cache.relative_tolerance == 0.0
        assert op._opnorm_cache.iterations_used == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    extra_rows=st.integers(0, 5),
    log_kappa=st.floats(0.0, 14.0),
    cluster=st.integers(1, 6),
    log_width=st.floats(-14.0, -1.0),
    symmetric=st.booleans(),
)
def test_golub_kahan_norm_never_exceeds_the_norm(seed, n, extra_rows, log_kappa, cluster,
                                                 log_width, symmetric):
    """The estimate is a lower bound up to rounding, on dense A with a
    log-uniform spectrum down to 1/kappa and its top `cluster` singular
    values within a relative width 10^log_width; symmetric A is indefinite."""
    rng = np.random.default_rng(seed)
    d = 10.0 ** -rng.uniform(0.0, log_kappa, n)
    top = min(cluster, n)
    d[:top] = 1.0 - 10.0**log_width * rng.uniform(0.0, 1.0, top)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if symmetric:
        a = (q * (d * rng.choice([-1.0, 1.0], n))) @ q.T
        a = 0.5 * (a + a.T)
    else:
        p, _ = np.linalg.qr(rng.standard_normal((n + extra_rows, n)))
        a = (p * d) @ q.T
    est = estimate_spectral_norm(bk.DenseOperator(a, symmetric=symmetric))
    assert 1 <= est.iterations_used <= min(a.shape)
    assert est.value <= np.linalg.norm(a, 2) * (1.0 + 1e-13)


def _norm_outcome(estimate, op):
    try:
        return estimate(op)
    except bk.BerrkitError as exc:
        return type(exc), str(exc)


def _live_norm(op):
    est = estimate_spectral_norm(op)
    return est.value, est.iterations_used


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(golub_kahan_problems(), st.sampled_from([None, "zero", np.nan, np.inf]))
def test_golub_kahan_norm_matches_frozen_reference(problem, fault):
    """The same (value, steps) as the earlier two-vector estimator
    (``golub_kahan_reference``), or the same error, also on a zero A and on
    an A with one NaN or infinite entry, with no RuntimeWarning first."""
    op, _ = problem
    if fault is not None:
        a = op.to_dense()
        if fault == "zero":
            a[:] = 0.0
        else:
            a.flat[a.size // 2] = fault
        op = bk.DenseOperator(a, symmetric=False)
    live = _norm_outcome(_live_norm, op)
    assert live == _norm_outcome(lambda op: golub_kahan_norm(op, NORM_REL_TOL), op)


# (data, indices, indptr, shape) with one structural fault each
MALFORMED_CSR = {
    "negative-index": ([1.0, 2.0], [-1, 0], [0, 1, 2], (2, 3)),
    "index-past-cols": ([1.0, 2.0], [0, 3], [0, 1, 2], (2, 3)),
    "fewer-indices": ([1.0, 2.0], [0], [0, 1, 2], (2, 3)),
    "more-indices": ([1.0], [0, 1], [0, 1, 1], (2, 3)),
    "indptr-not-from-0": ([1.0, 2.0], [0, 1], [1, 1, 2], (2, 3)),
    "indptr-short-of-nnz": ([1.0, 2.0], [0, 1], [0, 1, 1], (2, 3)),
    "indptr-past-nnz": ([1.0, 2.0], [0, 1], [0, 1, 3], (2, 3)),
    "indptr-decreasing": ([1.0, 2.0], [0, 1], [0, 2, 1, 2], (3, 3)),
}


@pytest.mark.parametrize("fault", MALFORMED_CSR)
def test_malformed_csr_is_rejected_on_construction(fault):
    data, indices, indptr, shape = MALFORMED_CSR[fault]
    for symmetric in (False, True) if shape[0] == shape[1] else (False,):
        with pytest.raises(bk.DimensionMismatchError):
            bk.CsrOperator(data, indices, indptr, shape, symmetric=symmetric)


@pytest.mark.parametrize(
    "rows_idx, cols_idx",
    [([0, -1], [0, 1]), ([0, 2], [0, 1]), ([0, 1], [-1, 0]), ([0, 1], [0, 3]), ([0], [0, 1])],
)
def test_malformed_coo_is_rejected(rows_idx, cols_idx):
    with pytest.raises(bk.DimensionMismatchError):
        bk.CsrOperator.from_coo(rows_idx, cols_idx, np.ones(len(cols_idx)), (2, 3))


@pytest.mark.parametrize("bad", [1.5, 0.9999, np.nan, np.inf])
def test_fractional_indices_are_refused(bad):
    # the int64 cast would build another matrix (or, for NaN, fail unnamed)
    with pytest.raises(bk.DimensionMismatchError, match=f"^row index {bad} is not an integer"):
        bk.CsrOperator.from_coo([0, bad], [0, 1], [1.0, 2.0], (2, 2))
    with pytest.raises(bk.DimensionMismatchError, match=f"^column index {bad} is not"):
        bk.CsrOperator.from_coo([0, 1], [0, bad], [1.0, 2.0], (2, 2))
    with pytest.raises(bk.DimensionMismatchError, match=f"^column index {bad} is not"):
        bk.CsrOperator([1.0, 2.0], [0, bad], [0, 1, 2], (2, 2))
    with pytest.raises(bk.DimensionMismatchError, match=f"^indptr entry {bad} is not"):
        bk.CsrOperator([1.0, 2.0], [0, 1], [0, bad, 2], (2, 2))


def test_integral_float_indices_are_kept():
    op = bk.CsrOperator.from_coo([0.0, 1.0], [1.0, 0.0], [1.0, 2.0], (2, 2))
    assert op.indices.dtype == op.indptr.dtype == np.int64
    assert np.array_equal(op.to_dense(), [[0.0, 1.0], [2.0, 0.0]])


def test_from_coo_refuses_a_shape_beyond_its_sort_key():
    with pytest.raises(bk.DimensionMismatchError, match="int64 key"):
        bk.CsrOperator.from_coo([0], [0], [1.0], (3, 2**62))


def _lexsort_csr(rows_idx, cols_idx, values, rows):
    """from_coo's earlier build, the reference: the triplets ordered by
    np.lexsort on (cols, rows), duplicates summed in that order."""
    order = np.lexsort((cols_idx, rows_idx))
    r, c, v = rows_idx[order], cols_idx[order], values[order]
    if r.size:
        keep = np.ones(r.size, dtype=bool)
        keep[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        group = np.cumsum(keep) - 1
        data = np.zeros(int(group[-1]) + 1)
        np.add.at(data, group, v)
        r, c = r[keep], c[keep]
    else:
        data = v
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    return data, c, np.cumsum(indptr)


@st.composite
def _triplets(draw):
    """(rows, cols, values, shape, symmetric): up to 40 triplets on at most
    8 x 8, so duplicates and empty rows are common, with values whose sum
    depends on its order; a symmetric draw mirrors its lower triangle."""
    symmetric = draw(st.booleans())
    nrows = draw(st.integers(1, 8))
    ncols = nrows if symmetric else draw(st.integers(1, 8))
    n = draw(st.integers(0, 40))
    r = np.array(draw(st.lists(st.integers(0, nrows - 1), min_size=n, max_size=n)), np.int64)
    c = np.array(draw(st.lists(st.integers(0, ncols - 1), min_size=n, max_size=n)), np.int64)
    v = np.array(draw(st.lists(st.sampled_from([1.0, -1.0, 1e16, -1e16, 3.0 / 7.0, -0.0]),
                               min_size=n, max_size=n)), np.float64)
    if symmetric:
        r, c = np.maximum(r, c), np.minimum(r, c)
        off = r != c
        r, c, v = (np.concatenate([r, c[off]]), np.concatenate([c, r[off]]),
                   np.concatenate([v, v[off]]))
    return r, c, v, (nrows, ncols), symmetric


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_triplets())
def test_from_coo_builds_the_lexsort_arrays(triplets):
    # sorting by the key row * cols + col is the lexsort permutation, so
    # every CSR array is the same to the byte
    r, c, v, shape, symmetric = triplets
    op = bk.CsrOperator.from_coo(r, c, v, shape, symmetric=symmetric)
    expected = _lexsort_csr(r, c, v, shape[0])
    for ours, theirs in zip((op.data, op.indices, op.indptr), expected, strict=True):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def _csr_loops(op, x, y):
    """(A x, A^T y) by one scalar loop over the stored entries in CSR order."""
    ax, aty = np.zeros(op.rows), np.zeros(op.cols)
    for i in range(op.rows):
        for p in range(op.indptr[i], op.indptr[i + 1]):
            j = op.indices[p]
            ax[i] += op.data[p] * x[j]
            aty[j] += op.data[p] * y[i]
    return ax, aty


# one row whose pairwise sum (0.0) differs from its sum in slot order
# (-8014398509481984.0) at _PAIRWISE_X; as a 1 x 8 A it is alone in its
# bucket of apply, as an 8 x 1 A the one column of apply_adjoint
_PAIRWISE_ROW = np.array([1e16, 1e16, -2e16, 1e16, -1e16, -1e16, 3.0 / 7.0, -1.0])
_PAIRWISE_X = [1.0, -1.0, 0.5, 1e16, 1e16, -1.0, -1.0, -0.0]
_EIGHT = np.arange(8, dtype=np.int64)
_ZEROS = np.zeros(8, dtype=np.int64)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(_triplets(),
       st.lists(st.sampled_from([1.0, -1.0, 0.5, 1e16, -1e16, 0.0, -0.0, math.inf, -math.inf,
                                 math.nan, 3.0 / 7.0]), min_size=8, max_size=8))
@example((_ZEROS, _EIGHT, _PAIRWISE_ROW, (1, 8), False), _PAIRWISE_X)
@example((_EIGHT, _ZEROS, _PAIRWISE_ROW, (8, 1), False), _PAIRWISE_X)
def test_csr_products_sum_in_csr_order(triplets, xs):
    """apply and apply_adjoint are the scalar loops in CSR order, zero signs
    aside. apply has non-finite entries where the loop has, but may give NaN
    for inf: a padded slot multiplies 0.0 by an entry of x its row already
    reads. An unsymmetric adjoint, padded nowhere, matches NaN for NaN."""
    r, c, v, shape, symmetric = triplets
    op = bk.CsrOperator.from_coo(r, c, v, shape, symmetric=symmetric)
    x, y = np.array(xs[: shape[1]]), np.array(xs[: shape[0]])
    for got, want in zip((op.apply(x), op.apply_adjoint(y)), _csr_loops(op, x, y)):
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(got[finite], want[finite])
    if not symmetric:
        assert np.array_equal(got, want, equal_nan=True)


class TestCsrOperator:
    def test_from_coo_matches_dense(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((6, 4))
        dense[rng.random((6, 4)) > 0.4] = 0.0
        rows, cols = np.nonzero(dense)
        op = bk.CsrOperator.from_coo(rows, cols, dense[rows, cols], shape=(6, 4))
        assert_allclose(op.to_dense(), dense)
        v = rng.standard_normal(4)
        w = rng.standard_normal(6)
        assert_allclose(op.apply(v), dense @ v, rtol=1e-13)
        assert_allclose(op.apply_adjoint(w), dense.T @ w, rtol=1e-13)

    def test_from_coo_sums_duplicates(self):
        op = bk.CsrOperator.from_coo(
            np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 1.0]), shape=(2, 2)
        )
        assert_allclose(op.to_dense(), [[0.0, 5.0], [1.0, 0.0]])
        assert op.nnz == 2

    def test_all_zero_matrix_products_are_float_zeros(self):
        op = bk.CsrOperator([], [], np.zeros(4, dtype=np.int64), (3, 5))
        for out, n in ((op.apply(np.ones(5)), 3), (op.apply_adjoint(np.ones(3)), 5)):
            assert out.dtype == np.float64 and out.shape == (n,) and not out.any()

    def test_symmetric_flag(self):
        sym = np.array([[2.0, 1.0], [1.0, 3.0]])
        full_rows, full_cols = np.nonzero(sym)
        op = bk.CsrOperator.from_coo(full_rows, full_cols, sym[full_rows, full_cols],
                                     shape=(2, 2), symmetric=True)
        assert op.symmetric
        assert_allclose(op.apply(np.array([1.0, 1.0])), sym @ [1.0, 1.0])
        assert_allclose(op.apply_adjoint(np.array([1.0, 1.0])), sym @ [1.0, 1.0])


class TestDiagonalOperator:
    def test_pins_exact_opnorm(self):
        op = bk.DiagonalOperator(np.array([-3.0, 2.0, 0.5]))
        assert op.opnorm() == 3.0
        assert op.symmetric

    def test_apply(self):
        op = bk.DiagonalOperator(np.array([2.0, -1.0]))
        assert_allclose(op.apply(np.array([1.0, 4.0])), [2.0, -4.0])
        assert_allclose(op.apply_adjoint(np.array([1.0, 4.0])), [2.0, -4.0])


def test_shifted_operator():
    """A + shift I as regularized_solve builds it: a SumOperator with a
    constant diagonal, whose products are those of the plain axpy bit for bit."""
    a = np.array([[1.0, 2.0], [2.0, 5.0]])
    op = bk.SumOperator(bk.DenseOperator(a), bk.DiagonalOperator(np.full(2, 0.25)))
    v = np.array([1.0, -1.0])
    assert np.array_equal(op.apply(v), a @ v + 0.25 * v)
    assert np.array_equal(op.apply_adjoint(v), a.T @ v + 0.25 * v)
    assert op.symmetric


def test_gaussian_perturbed_operator():
    """A rectangular A plus a Gaussian perturbation: both products add, the
    sum is unsymmetric unless both terms are, and shapes must agree."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3))
    g = rng.standard_normal((4, 3))
    op = bk.SumOperator(bk.DenseOperator(a), bk.DenseOperator(0.01 * g))
    v = rng.standard_normal(3)
    w = rng.standard_normal(4)
    assert not op.symmetric
    assert np.array_equal(op.apply(v), a @ v + (0.01 * g) @ v)
    assert np.array_equal(op.apply_adjoint(w), a.T @ w + (0.01 * g).T @ w)
    with pytest.raises(bk.DimensionMismatchError):
        bk.SumOperator(bk.DenseOperator(a), bk.DenseOperator(g.T))
    square = bk.SumOperator(bk.DiagonalOperator(np.ones(3)), bk.DenseOperator(g[:3]))
    assert not square.symmetric


class TestHouseholderChainOperator:
    def test_orthogonality(self):
        u = bk.HouseholderChainOperator.random(15, 4, seed=0)
        x = np.random.default_rng(1).standard_normal(15)
        y = u.apply(x)
        assert_allclose(np.linalg.norm(y), np.linalg.norm(x), rtol=1e-13)
        assert_allclose(u.apply_adjoint(y), x, rtol=1e-12, atol=1e-13)

    def test_pinned_norm_and_determinism(self):
        u1 = bk.HouseholderChainOperator.random(8, 3, seed=5)
        u2 = bk.HouseholderChainOperator.random(8, 3, seed=5)
        assert u1.opnorm() == 1.0
        assert_allclose(u1.vecs, u2.vecs)

    def test_zero_reflectors_is_identity(self):
        u = bk.HouseholderChainOperator.random(5, 0, seed=0)
        x = np.arange(5, dtype=np.float64)
        assert_allclose(u.apply(x), x)


class TestConjugatedOperator:
    def test_one_sided_matches_dense(self):
        a = np.array([[2.0, 1.0], [1.0, 4.0]])
        u = bk.HouseholderChainOperator.random(2, 2, seed=7)
        base = bk.DenseOperator(a)
        base.set_opnorm(np.linalg.norm(a, 2))
        conj = bk.ConjugatedOperator(u, base)
        ud = np.column_stack([u.apply(e) for e in np.eye(2)])
        assert_allclose(conj.to_dense(), ud @ a @ ud.T, rtol=1e-12, atol=1e-13)
        assert conj.symmetric
        # exact pinned norms carry over, orthogonal conjugation preserves them
        assert conj.opnorm() == base.opnorm()

    def test_two_sided_drops_symmetry(self):
        a = np.array([[2.0, 1.0], [1.0, 4.0]])
        u = bk.HouseholderChainOperator.random(2, 1, seed=1)
        v = bk.HouseholderChainOperator.random(2, 1, seed=2)
        conj = bk.ConjugatedOperator(u, bk.DenseOperator(a), v)
        assert not conj.symmetric
        x = np.array([1.0, 2.0])
        ud = np.column_stack([u.apply(e) for e in np.eye(2)])
        vd = np.column_stack([v.apply(e) for e in np.eye(2)])
        assert_allclose(conj.apply(x), ud @ a @ vd.T @ x, rtol=1e-12)
        assert_allclose(conj.apply_adjoint(x), vd @ a.T @ ud.T @ x, rtol=1e-12)

    def test_estimated_norms_do_not_carry_over(self):
        a = np.random.default_rng(8).standard_normal((6, 6))
        base = bk.DenseOperator(a)
        base.opnorm()
        u = bk.HouseholderChainOperator.random(6, 2, seed=3)
        conj = bk.ConjugatedOperator(u, base)
        assert conj._opnorm_cache is None


class TestProductCount:
    def test_run_matvecs_leave_out_the_norm_estimate(self):
        # an unpinned operator counts its norm estimate among its products;
        # the run's matvecs count from after it
        a = np.diag(np.linspace(1.0, 0.01, 20))
        op, twin = bk.DenseOperator(a), bk.DenseOperator(a)
        twin.opnorm()
        r = bk.cg(op, np.ones(20), bk.SolverConfig(max_iterations=5))
        assert twin.products > 0 and r.matvecs > 0
        assert op.products == twin.products + r.matvecs
        again = bk.cg(op, np.ones(20), bk.SolverConfig(max_iterations=5))
        assert again.matvecs == r.matvecs
        assert op.products == twin.products + 2 * r.matvecs

    def test_summary_reports_the_run_matvecs(self, tmp_path, monkeypatch):
        matrix = tmp_path / "a.mtx"
        idx = np.arange(20)
        mmio.write_coordinate(matrix, idx, idx, np.linspace(1.0, 0.01, 20), (20, 20),
                              symmetric=True)
        runs = []
        run_solver = cli.run_solver

        def capture(spec, op, b):
            runs.append((op, run_solver(spec, op, b)))
            return runs[-1][1]

        monkeypatch.setattr(cli, "run_solver", capture)
        info = cli.run_one(cli.RunSpec(problem=str(matrix), solver="cg", tol=1e-3))
        ((op, result),) = runs
        # the twin makes what the operator made outside the run: the default
        # b and the file's norm estimate
        twin = cli.build_problem(str(matrix), 0).op
        twin.opnorm()
        assert info["total_matvecs"] == result.matvecs == op.products - twin.products > 0


_A = np.random.default_rng(9).standard_normal((6, 6))
_NONZERO = np.nonzero(np.abs(_A) > 0.5)
_DIAG = np.linspace(-1.0, 2.0, 6)
# each built-in operator kind, 6 x 6
FRESH_OUTPUT_OPERATORS = {
    "dense": lambda: bk.DenseOperator(_A),
    "csr": lambda: bk.CsrOperator.from_coo(*_NONZERO, _A[_NONZERO], (6, 6)),
    "diagonal": lambda: bk.DiagonalOperator(_DIAG),
    "sum": lambda: bk.SumOperator(bk.DenseOperator(_A), bk.DiagonalOperator(_DIAG)),
    "householder": lambda: bk.HouseholderChainOperator.random(6, 3, seed=1),
    "householder, no reflectors": lambda: bk.HouseholderChainOperator.random(6, 0, seed=1),
    "conjugated": lambda: bk.ConjugatedOperator(bk.HouseholderChainOperator.random(6, 2, seed=2),
                                                bk.DenseOperator(_A),
                                                bk.HouseholderChainOperator.random(6, 2, seed=3)),
}


def _owned_arrays(obj, seen=None):
    """Every array an operator holds, through its attributes, containers and
    inner operators."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, bk.LinearOperator):
        items = vars(obj).values()
    else:
        return []
    return [arr for item in items for arr in _owned_arrays(item, seen)]


@pytest.mark.parametrize("name", FRESH_OUTPUT_OPERATORS)
def test_products_count_each_apply(name):
    # one product on the operator counts once, in either direction, whatever
    # inner operators it runs
    op = FRESH_OUTPUT_OPERATORS[name]()
    v = np.random.default_rng(4).standard_normal(6)
    assert op.products == 0
    for count, product in enumerate((op.apply, op.apply_adjoint, op.apply_adjoint, op.apply), 1):
        product(v)
        assert op.products == count


@pytest.mark.parametrize("name", FRESH_OUTPUT_OPERATORS)
def test_products_are_fresh_arrays(name):
    # the Krylov loops overwrite what apply returns, so it may share memory
    # with neither the input nor the operator's own arrays
    op = FRESH_OUTPUT_OPERATORS[name]()
    v = np.random.default_rng(4).standard_normal(6)
    for product in (op.apply, op.apply_adjoint):
        product(v)  # builds any cached layout first
        owned = _owned_arrays(op)
        assert owned
        y = product(v)
        assert not np.shares_memory(y, v)
        assert not any(np.shares_memory(y, arr) for arr in owned)
