"""Band views, Lanczos, and Golub-Kahan bidiagonalization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import factorize
from berrkit._kernels import band_solve_upper, band_solve_upper_t
from berrkit.factorize import SOLVE_FLOOR, BandMatrix, BidiagState, LanczosState

from _helpers import dense_op, golub_kahan_problems, random_general, random_psd
from dense_oracle import band_dense, sigma_min_dense
from golub_kahan_reference import BidiagReference


class TestBandMatrix:
    def _band(self):
        return BandMatrix(
            np.array([2.0, 1.5, 3.0, 0.5]),
            np.array([0.3, -0.2, 0.7]),
            np.array([0.1, 0.4]),
        )

    def test_dense_layout(self):
        band = self._band()
        expected = np.array(
            [
                [2.0, 0.3, 0.1, 0.0],
                [0.0, 1.5, -0.2, 0.4],
                [0.0, 0.0, 3.0, 0.7],
                [0.0, 0.0, 0.0, 0.5],
            ]
        )
        assert_allclose(band_dense(band), expected)
        assert band.k == 4

    def test_matvec(self):
        band = self._band()
        d = band_dense(band)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert_allclose(band.matvec(v), d @ v, rtol=1e-14)

    def test_solves(self):
        band = self._band()
        d = band_dense(band)
        rhs = np.array([1.0, 2.0, -1.0, 0.5])
        assert_allclose(band.solve(rhs), np.linalg.solve(d, rhs), rtol=1e-12)
        assert_allclose(band.solve_t(rhs), np.linalg.solve(d.T, rhs), rtol=1e-12)

    def test_floored_solve_is_finite(self):
        band = BandMatrix(np.array([1.0, 0.0]), np.array([0.5]))
        for x in (band.solve(np.ones(2)), band.solve_t(np.ones(2))):
            assert np.all(np.isfinite(x))
            assert abs(x[1]) >= 1e29

    def test_is_a_snapshot_of_the_arrays_it_was_given(self):
        diag, sup1, sup2 = np.array([2.0, 1.5, 3.0]), np.array([0.3, -0.2]), np.array([0.1])
        band = BandMatrix(diag, sup1, sup2)
        ref = BandMatrix(diag.copy(), sup1.copy(), sup2.copy())
        v, rhs = np.array([1.0, -2.0, 0.5]), [1.0, 2.0, -1.0]
        diag[:], sup1[:], sup2[:] = 7.0, 5.0, 3.0
        assert band.matvec(v).tobytes() == ref.matvec(v).tobytes()
        assert band.solve(rhs) == ref.solve(rhs)
        assert band.solve_t(rhs) == ref.solve_t(rhs)
        with pytest.raises(TypeError):
            band.diag[0] = 1.0

    @pytest.mark.parametrize("tridiagonal", [False, True])
    @pytest.mark.parametrize("given", [np.array, np.ndarray.tolist, lambda a: tuple(a.tolist())],
                             ids=["array", "list", "tuple"])
    def test_matches_the_array_form_below_the_floor(self, given, tridiagonal):
        # diagonal entries below SOLVE_FLOOR of both signs and zeros of both
        # signs, given as an array, a list or a tuple: the band keeps Python
        # floats, and its matvec (of an array or a list) and solves match the
        # array form bit for bit; on the last k of nine rows, so the edge
        # rows meet each size, and a v ending in zeros makes both edge rows
        # of the product -0.0
        rng = np.random.default_rng(11)
        diag = rng.uniform(0.5, 2.0, 9) * rng.choice([-1.0, 1.0], 9)
        diag[[1, 3, 5, 7, 8]] = [1e-40, -1e-40, 0.0, -0.0, -5e-324]
        sup1 = rng.standard_normal(8)
        sup1[[2, 7]] = [-0.0, -1.0]
        sup2 = rng.standard_normal(7) if tridiagonal else np.zeros(7)
        for k in (1, 2, 3, 9):
            d, s1, s2 = diag[9 - k:], sup1[9 - k:], sup2[9 - k:]
            band = BandMatrix(given(d), given(s1), given(s2) if tridiagonal else None)
            ref = _ArrayBand(d, s1, s2)
            for values in (band.diag, band.sup1, band.sup2):
                assert type(values) is tuple and all(type(x) is float for x in values)
            vs = rng.standard_normal((4, k))
            vs[3, -2:] = 0.0
            for v in vs:
                y = ref.matvec(v)
                assert band.matvec(v).tobytes() == band.matvec(v.tolist()).tobytes() == y.tobytes()
                rhs = v.tolist()
                for solve, kernel, lists in [(band.solve, band_solve_upper, ref.upper),
                                             (band.solve_t, band_solve_upper_t, ref.upper_t)]:
                    assert np.array(solve(rhs)).tobytes() == np.array(kernel(*lists, rhs)).tobytes()
            assert np.signbit(y[-2:]).all()

    def test_sigma_min_dense(self):
        # the dense reference against the eigenvalues of the Gram matrix
        d = band_dense(self._band())
        lam = np.linalg.eigvalsh(d.T @ d)
        assert_allclose(sigma_min_dense(self._band()), np.sqrt(lam[0]), rtol=1e-12)

    def test_bidiagonal_form(self):
        band = BandMatrix(np.array([1.0, 2.0]), np.array([0.5]))
        assert_allclose(band_dense(band), [[1.0, 0.5], [0.0, 2.0]])


class _ArrayBand:
    """BandMatrix's earlier array form: float64 copies, the numpy matvec, and
    solve lists built from the diagonal floored by np.where."""

    def __init__(self, diag, sup1, sup2):
        self.diag, self.sup1, self.sup2 = (np.array(a, dtype=np.float64)
                                           for a in (diag, sup1, sup2))
        d, mag = self.diag, np.abs(self.diag)
        if mag.min(initial=SOLVE_FLOOR) < SOLVE_FLOOR:
            d = np.where(mag < SOLVE_FLOOR, np.where(d < 0.0, -SOLVE_FLOOR, SOLVE_FLOOR), d)
        s1, s2 = self.sup1.tolist(), self.sup2.tolist()
        self.upper = (d.tolist(), s1 + [0.0], s2 + [0.0, 0.0])
        self.upper_t = (d.tolist(), [0.0] + s1, [0.0, 0.0] + s2)

    def matvec(self, v):
        k = self.diag.shape[0]
        y = self.diag * v
        if k > 1:
            y[:-1] += self.sup1 * v[1:]
        if k > 2:
            y[:-2] += self.sup2 * v[2:]
        return y


@pytest.mark.parametrize("reorth", ["plain", "full"])
@pytest.mark.parametrize("disguised", [False, True])
@pytest.mark.parametrize("bidiagonal", [False, True])
def test_step_returns_the_last_band_column_as_floats(bidiagonal, disguised, reorth):
    # the column each step hands the O(1) test is the last column of the band
    # view recovery solves on, to the bit, as a tuple of Python floats
    rng = np.random.default_rng(12)
    if disguised:
        p = bk.disguise(bk.small_outlier(40, 1e6, 1e-3), two_sided=bidiagonal, seed=2)
        op, b = p.op, p.b
    else:
        op = dense_op(random_general(40, 13) if bidiagonal else random_psd(40, 14))
        b = rng.standard_normal(40)
    st = (BidiagState if bidiagonal else LanczosState)(op, b, reorth=reorth)
    for k in range(1, 26):
        col = st.step()
        band = st.btilde() if bidiagonal else st.ttilde()
        last = [band.sup1[k - 2] if k >= 2 else 0.0, band.diag[k - 1]]
        if not bidiagonal:
            last.insert(0, band.sup2[k - 3] if k >= 3 else 0.0)
        assert type(col) is tuple and all(type(x) is float for x in col)
        assert [x.hex() for x in col] == [x.hex() for x in last]


class TestLanczos:
    def test_two_by_two_by_hand(self):
        # A = diag(1, 2), b = (1, 1)/sqrt(2): alpha_1 = 3/2, beta_2 = 1/2,
        # alpha_2 = 3/2, beta_3 = 0 (the Krylov space is exhausted)
        op = bk.DiagonalOperator(np.array([1.0, 2.0]))
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        st = LanczosState(op, b, opnorm=2.0)
        col1 = st.step()
        assert_allclose(st.alphas, [1.5])
        assert_allclose(st.betas, [0.5])
        assert_allclose(col1, [0.0, 0.0, 0.25])
        col2 = st.step()
        assert_allclose(st.alphas, [1.5, 1.5])
        assert st.betas[1] <= st.breakdown_tol
        assert st.breakdown
        assert_allclose(col2, [0.0, 0.75, st.betas[1] / 2.0])

    def test_subspace_minimum_at_k_equals_one(self):
        # for the same instance the scaled Ttilde_1 is the 1 x 1 matrix
        # [beta_2 / opnorm] and its singular value, 1/4, is exactly the
        # minimal backward error over span{b} (minimized at x = (2/3) b)
        op = bk.DiagonalOperator(np.array([1.0, 2.0]))
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        st = LanczosState(op, b, opnorm=2.0)
        st.step()
        assert_allclose(band_dense(st.ttilde(1)), [[0.25]])
        x = (2.0 / 3.0) * b
        assert_allclose(bk.backward_error(op, b, x).value, 0.25, rtol=1e-14)

    def test_requires_symmetric(self):
        op = bk.DenseOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(bk.RequiresSymmetricError):
            LanczosState(op, np.ones(2))

    def test_breakdown_on_eigenvector(self):
        op = bk.DiagonalOperator(np.array([1.0, 2.0, 3.0]))
        st = LanczosState(op, np.array([0.0, 1.0, 0.0]))
        st.step()
        assert st.breakdown
        with pytest.raises(bk.PostBreakdownError):
            st.step()

    def test_tridiagonal_relation(self):
        """A Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_k^T with orthonormal Q."""
        a = random_psd(30, seed=0)
        op = dense_op(a)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(30)
        st = LanczosState(op, b, reorth="full")
        k = 12
        for _ in range(k):
            st.step()
        q = st.basis(k)
        t = np.diag(st.alphas[:k]) + np.diag(st.betas[: k - 1], 1) + np.diag(st.betas[: k - 1], -1)
        lhs = a @ q
        rhs = q @ t
        rhs[:, -1] += st.betas[k - 1] * st.basis(k + 1)[:, k]
        assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * np.linalg.norm(a, 2))

    def test_full_reorth_keeps_orthonormality(self):
        a = random_psd(50, seed=2, spread=8.0)
        op = dense_op(a)
        b = np.random.default_rng(3).standard_normal(50)
        st = LanczosState(op, b, reorth="full")
        for _ in range(40):
            st.step()
        q = st.basis(40)
        gram = q.T @ q
        assert np.abs(gram - np.eye(40)).max() <= 1e-10

    def test_ttilde_band_layout(self):
        a = random_psd(20, seed=4)
        op = dense_op(a)
        st = LanczosState(op, np.random.default_rng(5).standard_normal(20))
        for _ in range(6):
            st.step()
        band = st.ttilde(5)
        nb = np.array(st.betas) / st.opnorm
        na = np.array(st.alphas) / st.opnorm
        assert_allclose(band.diag, nb[:5])
        assert_allclose(band.sup1, na[1:5])
        assert_allclose(band.sup2, nb[1:4])

    def test_zero_rhs_rejected(self):
        op = bk.DiagonalOperator(np.ones(3))
        with pytest.raises(ValueError):
            LanczosState(op, np.zeros(3))

    def test_bad_reorth_policy(self):
        op = bk.DiagonalOperator(np.ones(3))
        with pytest.raises(ValueError):
            LanczosState(op, np.ones(3), reorth="selective")

    def test_basis_beyond_stored_vectors_raises(self):
        st = LanczosState(dense_op(random_psd(50, seed=9)), np.ones(50))
        for _ in range(3):
            st.step()
        assert st.basis(4).shape == (50, 4)
        with pytest.raises(ValueError, match="asked for 10 basis vectors, 4 stored"):
            st.basis(10)


class TestBidiag:
    def test_exact_solve_in_one_step(self):
        # b = e_1 is a left singular vector of diag(2, 1), so the first
        # Golub-Kahan direction already contains the solution
        op = bk.DiagonalOperator(np.array([2.0, 1.0]))
        st = BidiagState(op, np.array([1.0, 0.0]))
        assert_allclose(st.alphas, [2.0])
        st.step()
        assert st.breakdown

    def test_orthogonal_operator_one_step(self):
        p = bk.cyclic_shift(6)
        st = BidiagState(p.op, p.b)
        assert_allclose(st.alphas, [1.0])
        st.step()
        assert st.breakdown

    def test_orthogonal_rhs_rejected(self):
        # A^T b = 0 means no Golub-Kahan direction exists at all
        a = np.array([[0.0, 0.0], [0.0, 1.0]])
        op = bk.DenseOperator(a)
        op.set_opnorm(1.0)
        with pytest.raises(bk.OrthogonalRhsError):
            BidiagState(op, np.array([1.0, 0.0]))

    def test_recovers_lower_bidiagonal_coefficients(self):
        # Golub-Kahan applied to a lower bidiagonal matrix from e_1 reproduces
        # its diagonal as the alphas and its subdiagonal as the betas
        low = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.7, 2.0, 0.0, 0.0],
                [0.0, 0.4, 1.5, 0.0],
                [0.0, 0.0, 0.9, 0.8],
            ]
        )
        op = bk.DenseOperator(low)
        op.set_opnorm(np.linalg.norm(low, 2))
        st = BidiagState(op, np.array([1.0, 0.0, 0.0, 0.0]))
        for _ in range(3):
            st.step()
        assert_allclose(st.alphas, [1.0, 2.0, 1.5, 0.8], rtol=1e-13, atol=1e-14)
        assert_allclose(st.betas, [0.7, 0.4, 0.9], rtol=1e-13, atol=1e-14)

    def test_factorization_relation(self):
        """Under "full" both stored bases stay orthonormal and compress A to
        the raw bidiagonal."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((25, 25))
        op = dense_op(a)
        b = rng.standard_normal(25)
        st = BidiagState(op, b, reorth="full")
        k = 10
        for _ in range(k):
            st.step()
        q = st.basis_q(k)
        u = st._ucols.view(k)
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
        compressed = u.T @ a @ q
        expect = np.zeros((k, k))
        for j in range(k):
            expect[j, j] = st.alphas[j]
            if j + 1 < k:
                expect[j + 1, j] = st.betas[j]
        assert_allclose(compressed, expect, rtol=0, atol=1e-10 * op.opnorm())

    def test_basis_beyond_stored_vectors_raises(self):
        rng = np.random.default_rng(10)
        st = BidiagState(dense_op(rng.standard_normal((50, 50))), rng.standard_normal(50))
        for _ in range(3):
            st.step()
        assert st.basis_q(4).shape == (50, 4)
        with pytest.raises(ValueError, match="asked for 10 basis vectors, 4 stored"):
            st.basis_q(10)

    def test_btilde_band_layout(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 15))
        op = dense_op(a)
        st = BidiagState(op, rng.standard_normal(15))
        for _ in range(6):
            st.step()
        band = st.btilde(5)
        nb = np.array(st.betas) / st.opnorm
        na = np.array(st.alphas) / st.opnorm
        assert_allclose(band.diag, nb[:5])
        assert_allclose(band.sup1, na[1:5])
        assert not any(band.sup2)


class TestBasisStore:
    """The stored Krylov bases: one contiguous column per vector, read in
    place by recovery, and bitwise equal to what was pushed across every
    doubling of the buffer (16, 32, 64, 128 columns)."""

    CHECKPOINTS = (1, 16, 17, 40, 100)

    @staticmethod
    def _record_pushes(monkeypatch):
        pushed = {}
        push = factorize._GrowingColumns.push

        def spy(self, v):
            pushed.setdefault(id(self), []).append(np.array(v, copy=True))
            return push(self, v)

        monkeypatch.setattr(factorize._GrowingColumns, "push", spy)
        return pushed

    @staticmethod
    def _check(basis, store, pushed, k):
        assert basis.shape[1] == k
        assert all(basis[:, j].flags.c_contiguous for j in range(k))
        assert np.shares_memory(basis, store._buf)
        for j in range(k):
            assert np.array_equal(basis[:, j], pushed[id(store)][j])

    def test_lanczos_basis(self, monkeypatch):
        pushed = self._record_pushes(monkeypatch)
        rng = np.random.default_rng(11)
        op = bk.DiagonalOperator(np.linspace(1.0, 3.0, 200))
        st = LanczosState(op, rng.standard_normal(200))
        for k in range(1, max(self.CHECKPOINTS) + 1):
            st.step()
            if k in self.CHECKPOINTS:
                self._check(st.basis(k), st._q, pushed, k)

    def test_bidiag_bases(self, monkeypatch):
        # the left basis is stored only for "full" reorthogonalization
        pushed = self._record_pushes(monkeypatch)
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((160, 130)), rng.standard_normal(160)
        states = {reorth: BidiagState(dense_op(a), b, reorth=reorth)
                  for reorth in ("plain", "full")}
        for k in range(1, max(self.CHECKPOINTS) + 1):
            for state in states.values():
                state.step()
            if k in self.CHECKPOINTS:
                for state in states.values():
                    self._check(state.basis_q(k), state._qcols, pushed, k)
                full = states["full"]
                self._check(full._ucols.view(k), full._ucols, pushed, k)
        assert states["plain"]._ucols is None

    def test_plain_bidiag_peak_is_the_right_basis(self):
        # a left basis as long as the right one would take the peak past
        # twice the right basis buffer; the buffer's last doubling alone
        # reaches 1.5 times it
        n = 20_000
        op = bk.DiagonalOperator(np.linspace(1.0, 2.0, n))
        tracemalloc.start()
        try:
            state = BidiagState(op, np.ones(n))
            for _ in range(40):
                state.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not state.breakdown
        assert peak < 2 * state._qcols._buf.nbytes


def _bidiag_outcome(state_type, op, b, reorth, steps):
    """Every output of up to `steps` steps of a bidiagonalization as bytes
    (the stored left basis under "full" included), or the error it raised."""
    try:
        state = state_type(op, b, reorth=reorth)
    except bk.BerrkitError as exc:
        return type(exc), str(exc)
    cols = []
    while state.k < steps and not state.breakdown:
        cols.append(state.step())
    left = None
    if reorth == "full":
        left = (state._ucols if state_type is BidiagState else state._u).view().tobytes()
    return (np.array(state.alphas).tobytes(), np.array(state.betas).tobytes(),
            np.array(cols).tobytes(), state.breakdown, state._qcols.view().tobytes(), left)


class TestBidiagMatchesFrozenReference:
    """BidiagState against its earlier code, which stored both bases under
    either policy (``golub_kahan_reference``), to the byte."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(golub_kahan_problems(), st.sampled_from(["plain", "full"]), st.integers(1, 60))
    def test_bitwise(self, problem, reorth, steps):
        op, b = problem
        live = _bidiag_outcome(BidiagState, op, b, reorth, steps)
        assert live == _bidiag_outcome(BidiagReference, op, b, reorth, steps)

    # 6 x 5 of rank 3: the Krylov spaces close after three steps, on beta
    # when b lies in the range of A and on alpha when it does not
    RANK_DEFICIENT = np.diag([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])[:, :5]

    @pytest.mark.parametrize("reorth", ["plain", "full"])
    @pytest.mark.parametrize("b, alphas", [([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 3),
                                           ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 4)])
    def test_breakdown(self, b, alphas, reorth):
        op = bk.DenseOperator(self.RANK_DEFICIENT)
        live = _bidiag_outcome(BidiagState, op, np.array(b), reorth, 50)
        assert live == _bidiag_outcome(BidiagReference, op, np.array(b), reorth, 50)
        # three steps each, ending on beta_4 (3 alphas) or alpha_4 (4 alphas)
        assert len(live[1]) == 3 * 8 and len(live[0]) == alphas * 8 and live[3]
