"""Band views, Lanczos, and Golub-Kahan bidiagonalization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import factorize
from berrkit.factorize import BandMatrix, BidiagState, LanczosState

from _helpers import dense_op, random_psd


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
        assert_allclose(band.dense(), expected)
        assert band.k == 4

    def test_matvec(self):
        band = self._band()
        d = band.dense()
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert_allclose(band.matvec(v), d @ v, rtol=1e-14)

    def test_solves(self):
        band = self._band()
        d = band.dense()
        rhs = np.array([1.0, 2.0, -1.0, 0.5])
        assert_allclose(band.solve(rhs), np.linalg.solve(d, rhs), rtol=1e-12)
        assert_allclose(band.solve_t(rhs), np.linalg.solve(d.T, rhs), rtol=1e-12)

    def test_zero_diagonal_raises_without_floor(self):
        band = BandMatrix(np.array([1.0, 0.0]), np.array([0.5]))
        with pytest.raises(bk.SingularBandError):
            band.solve(np.ones(2))

    def test_floored_solve_is_finite(self):
        band = BandMatrix(np.array([1.0, 0.0]), np.array([0.5]))
        x = band.solve(np.ones(2), floor=1e-30)
        assert np.all(np.isfinite(x))
        assert abs(x[1]) >= 1e29

    def test_sigma_min_dense(self):
        band = self._band()
        sv = np.linalg.svd(band.dense(), compute_uv=False)
        assert_allclose(band.sigma_min_dense(), sv[-1], rtol=1e-13)

    def test_bidiagonal_form(self):
        band = BandMatrix(np.array([1.0, 2.0]), np.array([0.5]))
        assert_allclose(band.dense(), [[1.0, 0.5], [0.0, 2.0]])


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
        assert_allclose(st.ttilde(1).dense(), [[0.25]])
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
        """Both bases stay orthonormal and compress A to the raw bidiagonal."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((25, 25))
        op = dense_op(a)
        b = rng.standard_normal(25)
        st = BidiagState(op, b, reorth="full")
        k = 10
        for _ in range(k):
            st.step()
        q = st.basis_q(k)
        u = st.basis_u(k)
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
        compressed = u.T @ a @ q
        expect = np.zeros((k, k))
        for j in range(k):
            expect[j, j] = st.alphas[j]
            if j + 1 < k:
                expect[j + 1, j] = st.betas[j]
        assert_allclose(compressed, expect, rtol=0, atol=1e-10 * op.opnorm())

    @pytest.mark.parametrize("accessor", ["basis_q", "basis_u"])
    def test_basis_beyond_stored_vectors_raises(self, accessor):
        rng = np.random.default_rng(10)
        st = BidiagState(dense_op(rng.standard_normal((50, 50))), rng.standard_normal(50))
        for _ in range(3):
            st.step()
        assert getattr(st, accessor)(4).shape == (50, 4)
        with pytest.raises(ValueError, match="asked for 10 basis vectors, 4 stored"):
            getattr(st, accessor)(10)

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
        assert not band.sup2.any()


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
        pushed = self._record_pushes(monkeypatch)
        rng = np.random.default_rng(12)
        st = BidiagState(dense_op(rng.standard_normal((160, 130))), rng.standard_normal(160))
        for k in range(1, max(self.CHECKPOINTS) + 1):
            st.step()
            if k in self.CHECKPOINTS:
                self._check(st.basis_q(k), st._qcols, pushed, k)
                self._check(st.basis_u(k), st._u, pushed, k)
