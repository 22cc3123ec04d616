"""Synthetic instance generators, disguise transforms, and file ingestion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import mmio
from berrkit.factorize import LanczosState


class TestIllConditioned:
    def test_three_by_three_spectrum_is_exact(self):
        p = bk.ill_conditioned(3, 100.0)
        assert_allclose(p.op.d, [1.0, 0.1, 0.01], rtol=1e-15)
        assert p.op.d[0] == 1.0
        assert p.op.d[-1] == 0.01

    def test_endpoints_written_exactly(self):
        p = bk.ill_conditioned(137, 1e8)
        assert p.op.d[0] == 1.0
        assert p.op.d[-1] == 1e-8
        assert p.kappa == 1e8

    def test_rhs_loads_weakest_direction(self):
        p = bk.ill_conditioned(10, 50.0)
        assert_allclose(p.b[:-1], np.ones(9))
        assert p.b[-1] == 50.0

    def test_operator_properties(self):
        p = bk.ill_conditioned(10, 50.0)
        assert p.op.symmetric
        assert p.op.opnorm() == 1.0
        assert p.name == "ill-conditioned(n=10,kappa=50)"

    def test_validation(self):
        with pytest.raises(ValueError):
            bk.ill_conditioned(1, 10.0)
        with pytest.raises(ValueError):
            bk.ill_conditioned(5, 1.0)
        for kappa in (np.nan, np.inf):
            with pytest.raises(ValueError, match="kappa"):
                bk.ill_conditioned(5, kappa)
        for n in (2.5, 10.0, np.nan):
            with pytest.raises(ValueError, match="^n must be an integer"):
                bk.ill_conditioned(n, 10)


class TestSmallOutlier:
    def test_spectrum_structure(self):
        p = bk.small_outlier(6, 1e10, 1e-3)
        d = p.op.d
        assert d[0] == 1.0
        assert d[-2] == 1e-3
        assert d[-1] == 1e-10
        assert np.all(np.diff(d[:-1]) < 0)

    def test_rhs(self):
        p = bk.small_outlier(9, 1e8, 1e-2)
        assert_allclose(p.b[:-1], np.ones(8))
        assert p.b[-1] == 3.0
        assert p.kappa == 1e8

    def test_validation(self):
        with pytest.raises(ValueError):
            bk.small_outlier(2, 1e8, 1e-2)
        with pytest.raises(ValueError):
            bk.small_outlier(5, 1e8, 1.5)
        with pytest.raises(ValueError):
            bk.small_outlier(5, 10.0, 1e-3)
        for kappa in (np.nan, 0.0, -1e8):
            with pytest.raises(ValueError, match="kappa"):
                bk.small_outlier(5, kappa, 1e-3)
        for n in (3.5, 10.0):
            with pytest.raises(ValueError, match="^n must be an integer"):
                bk.small_outlier(n, 1e4, 1e-2)


class TestCyclicShift:
    def test_is_the_shift_permutation(self):
        p = bk.cyclic_shift(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            out = p.op.apply(e)
            expect = np.zeros(5)
            expect[(i + 1) % 5] = 1.0
            assert_allclose(out, expect)

    def test_solution_and_stagnation(self):
        """The solution is reachable only by the last Krylov vector: every
        earlier power of A applied to b stays orthogonal to it."""
        n = 7
        p = bk.cyclic_shift(n)
        x_star = np.zeros(n)
        x_star[-2] = 1.0
        assert_allclose(p.op.apply(x_star), p.b)
        v = p.b.copy()
        for _ in range(n - 2):
            assert abs(v @ x_star) == 0.0
            v = p.op.apply(v)

    def test_metadata(self):
        p = bk.cyclic_shift(4)
        assert not p.op.symmetric
        assert p.op.opnorm() == 1.0
        assert p.kappa == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bk.cyclic_shift(1)
        for n in (2.5, 9.0):
            with pytest.raises(ValueError, match="^n must be an integer"):
                bk.cyclic_shift(n)


class TestDisguise:
    def test_singular_values_unchanged(self):
        p = bk.ill_conditioned(12, 1e4)
        for two_sided in (False, True):
            dp = bk.disguise(p, two_sided=two_sided, seed=5)
            sv = np.linalg.svd(dp.op.to_dense(), compute_uv=False)
            assert_allclose(np.sort(sv), np.sort(p.op.d), rtol=1e-12)

    def test_symmetry_flags(self):
        p = bk.ill_conditioned(8, 100.0)
        assert bk.disguise(p).op.symmetric
        assert not bk.disguise(p, two_sided=True).op.symmetric

    def test_zero_reflectors_is_identity(self):
        p = bk.ill_conditioned(8, 100.0)
        u = bk.HouseholderChainOperator(np.empty((0, 8)))
        op = bk.ConjugatedOperator(u, p.op)
        assert np.array_equal(u.apply(p.b), p.b)
        x = np.random.default_rng(0).standard_normal(8)
        assert np.array_equal(op.apply(x), p.op.apply(x))

    def test_transformed_solution_solves_transformed_system(self):
        p = bk.ill_conditioned(20, 1e6)
        x_star = p.b / p.op.d
        dp = bk.disguise(p, seed=3)
        assert_allclose(dp.op.apply(dp.op.u.apply(x_star)), dp.b, atol=1e-9 * p.kappa)

    def test_opnorm_carries_over_exactly(self):
        p = bk.ill_conditioned(10, 100.0)
        dp = bk.disguise(p, seed=1)
        assert dp.op.opnorm() == 1.0

    def test_lanczos_coefficients_invariant(self):
        """Under the symmetric conjugation the Krylov recurrence coefficients,
        and with them every trace, must be reproduced."""
        p = bk.ill_conditioned(30, 1e5)
        dp = bk.disguise(p, seed=11)
        s1 = LanczosState(p.op, p.b, opnorm=1.0, reorth="full")
        s2 = LanczosState(dp.op, dp.b, opnorm=1.0, reorth="full")
        for _ in range(12):
            s1.step()
            s2.step()
        assert_allclose(s1.alphas[:12], s2.alphas[:12], rtol=1e-8)
        assert_allclose(s1.betas[:11], s2.betas[:11], rtol=1e-8)

    def test_name_is_tagged(self):
        p = bk.ill_conditioned(8, 100.0)
        assert bk.disguise(p).name.endswith("+disguise")
        assert bk.disguise(p, two_sided=True).name.endswith("+disguise2")
        assert bk.disguise(p, two_sided=True).kappa == p.kappa


class TestRhsSmallestLeftSingular:
    def test_diagonal_picks_weakest_axis(self):
        p = bk.ill_conditioned(9, 1e4)
        e = bk.rhs_smallest_left_singular(p)
        expect = np.zeros(9)
        expect[-1] = 1.0
        assert_allclose(e, expect)

    def test_disguised_diagonal_rotates_that_axis(self):
        p = bk.small_outlier(11, 1e8, 1e-2)
        dp = bk.disguise(p, seed=4)
        got = bk.rhs_smallest_left_singular(dp)
        u, _, _ = np.linalg.svd(dp.op.to_dense())
        assert abs(got @ u[:, -1]) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(got) == pytest.approx(1.0, rel=1e-14)

    def test_dense_fallback(self):
        p = bk.cyclic_shift(6)
        got = bk.rhs_smallest_left_singular(p)
        assert np.linalg.norm(got) == pytest.approx(1.0, rel=1e-12)

    def test_fallback_refused_above_limit(self):
        n = bk.problems.DENSE_SVD_LIMIT + 1
        idx = np.arange(n)
        op = bk.CsrOperator.from_coo(idx, idx, np.ones(n), (n, n))
        inst = bk.ProblemInstance(op, np.ones(n), "big")
        with pytest.raises(bk.DimensionMismatchError):
            bk.rhs_smallest_left_singular(inst)


class TestReadMatrixMarket:
    def test_default_rhs_is_normalized_row_sums(self, tmp_path):
        a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
        r, c = np.nonzero(a)
        path = tmp_path / "t.mtx"
        mmio.write_coordinate(path, r, c, a[r, c], a.shape)
        p = bk.read_matrix_market(path)
        expect = a @ np.ones(3)
        expect /= np.linalg.norm(expect)
        assert_allclose(p.b, expect, rtol=1e-15)
        assert p.kappa is None
        assert not p.op.symmetric

    def test_symmetric_storage_expands(self, tmp_path):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        path = tmp_path / "s.mtx"
        mmio.write_coordinate(
            path, [0, 1, 1], [0, 0, 1], [4.0, 1.0, 3.0], (2, 2), symmetric=True
        )
        p = bk.read_matrix_market(path)
        assert p.op.symmetric
        x = np.array([1.0, -2.0])
        assert_allclose(p.op.apply(x), a @ x)

    def test_explicit_rhs_and_validation(self, tmp_path):
        path = tmp_path / "t.mtx"
        mmio.write_coordinate(path, [0, 1], [0, 1], [1.0, 1.0], (2, 2))
        p = bk.read_matrix_market(path, b=[3.0, 4.0])
        assert_allclose(p.b, [3.0, 4.0])
        assert p.name == str(path)
        with pytest.raises(bk.DimensionMismatchError):
            bk.read_matrix_market(path, b=[1.0, 2.0, 3.0])

    def test_complex_rhs_is_refused_by_name(self, tmp_path):
        # the cast would keep the real part only
        path = tmp_path / "t.mtx"
        mmio.write_coordinate(path, [0, 1], [0, 1], [1.0, 1.0], (2, 2))
        with pytest.raises(TypeError, match="^b is complex"):
            bk.read_matrix_market(path, b=[1.0, 2.0 + 1.0j])

    def test_zero_row_sums_need_explicit_rhs(self, tmp_path):
        path = tmp_path / "z.mtx"
        mmio.write_coordinate(path, [0, 0], [0, 1], [1.0, -1.0], (2, 2))
        with pytest.raises(ValueError):
            bk.read_matrix_market(path)
