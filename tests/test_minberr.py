"""Backward-error-minimizing solvers, their certificates, and the dense oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit.factorize import BidiagState, LanczosState
from berrkit.minberr import _recover_ne

from _helpers import capture_row_iterates, dense_op, measured_berr, random_psd


def sigma_min(band):
    return float(np.linalg.svd(band.dense(), compute_uv=False)[-1])


class TestCertificateIsSubspaceMinimum:
    """sigma_min of the scaled band equals the dense-oracle backward-error
    minimum over the same Krylov subspace, for both factorizations."""

    def test_psd_band_matches_oracle(self):
        a = random_psd(12, seed=21, spread=3.0)
        b = np.random.default_rng(22).standard_normal(12)
        s = float(np.linalg.norm(a, 2))
        state = LanczosState(dense_op(a), b, opnorm=s, reorth="full")
        for k in range(1, 9):
            state.step()
            ref = bk.dense_minberr_oracle(a, b, state.basis(k), opnorm=s)
            assert_allclose(sigma_min(state.ttilde()), np.sqrt(ref.lambda_min), rtol=1e-10)

    def test_ne_band_matches_oracle(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        s = float(np.linalg.norm(a, 2))
        state = BidiagState(dense_op(a), b, opnorm=s, reorth="full", store_basis=True)
        for k in range(1, 9):
            state.step()
            ref = bk.dense_minberr_oracle(a, b, state.basis_q(k), opnorm=s)
            assert_allclose(sigma_min(state.btilde()), np.sqrt(ref.lambda_min), rtol=1e-10)

    def test_recovered_iterate_is_near_optimal(self):
        a = random_psd(12, seed=24, spread=2.0)
        op = dense_op(a)
        b = np.random.default_rng(25).standard_normal(12)
        r = bk.minberr_solve(op, b, eps=1e-4, delta=0.1, seed=3)
        state = LanczosState(op, b, opnorm=op.opnorm(), reorth="full")
        for _ in range(r.iterations):
            state.step()
        ref = bk.dense_minberr_oracle(a, b, state.basis(r.iterations), opnorm=op.opnorm())
        assert measured_berr(op, b, r.x) <= 1.5 * np.sqrt(ref.lambda_min)


class TestMinberrSolve:
    def test_certificates_match_measured_berr(self):
        p = bk.ill_conditioned(60, 1e6)
        r = bk.minberr_solve(p.op, p.b, eps=1e-7, reorth="full", trace=True)
        assert len(r.certificates) == len(r.trace)
        for cert, berr in zip(r.certificates, r.trace.berr):
            assert abs(cert - berr) <= 1e-8 * berr + 1e-15

    def test_certificate_envelope_and_monotonicity(self):
        a = random_psd(60, seed=26, spread=5.0)
        op = dense_op(a)
        b = np.random.default_rng(27).standard_normal(60)
        r = bk.minberr_solve(op, b, eps=1e-7, k_max=40, trace=True)
        cs = np.array(r.certificates)
        ks = np.array(r.trace.iterations, dtype=np.float64)
        past_first = ks >= 2
        assert np.all(cs[past_first] <= 3.0 / (ks[past_first] ** 2 - 1.0) + 1e-10)
        assert np.all(np.diff(cs) <= 1e-8 * cs[:-1] + 1e-12)

    def test_final_row_recorded_without_trace(self):
        p = bk.ill_conditioned(40, 1e4)
        r = bk.minberr_solve(p.op, p.b, eps=1e-6)
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert r.sigma_min_certificate < 1e-6
        assert len(r.trace) == 1
        assert r.trace.iterations == [r.iterations]
        assert len(r.certificates) == 1

    def test_trace_every_keeps_multiples_plus_final(self):
        p = bk.ill_conditioned(60, 1e6)
        r = bk.minberr_solve(p.op, p.b, eps=1e-7, trace=True, trace_every=3)
        ks = r.trace.iterations
        assert all(k % 3 == 0 for k in ks[:-1])
        assert ks[-1] == r.iterations

    def test_max_iterations_termination(self):
        a = random_psd(100, seed=40, spread=4.0)
        b = np.random.default_rng(41).standard_normal(100)
        r = bk.minberr_solve(dense_op(a), b, eps=1e-6, k_max=5)
        assert r.termination == bk.Termination.MAX_ITERATIONS
        assert r.iterations == 5

    def test_requires_symmetric(self):
        p = bk.cyclic_shift(6)
        with pytest.raises(bk.RequiresSymmetricError):
            bk.minberr_solve(p.op, p.b)

    def test_degenerate_rhs_in_null_space(self):
        op = bk.DiagonalOperator(np.array([1.0, 0.0]))
        with pytest.raises(bk.DegenerateAlphaError):
            bk.minberr_solve(op, np.array([0.0, 1.0]), eps=0.5)

    @pytest.mark.parametrize(
        "kw",
        [
            {"eps": 0.0},
            {"eps": 1.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"seed": -1},
            {"k_max": 0},
        ],
    )
    def test_validation(self, kw):
        p = bk.ill_conditioned(10, 10.0)
        with pytest.raises(ValueError):
            bk.minberr_solve(p.op, p.b, **kw)

    def test_tiny_eps_warns_and_still_solves(self):
        a = random_psd(30, seed=28, spread=0.5)
        op = dense_op(a)
        b = np.random.default_rng(29).standard_normal(30)
        with pytest.warns(RuntimeWarning, match="machine epsilon"):
            r = bk.minberr_solve(op, b, eps=1e-9)
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert r.sigma_min_certificate < 1e-9


class TestMinberrNeSolve:
    def test_exact_solution_through_orthogonal_operator(self):
        p = bk.cyclic_shift(8)
        r = bk.minberr_ne_solve(p.op, p.b, eps=1e-6)
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert r.iterations == 1
        assert r.sigma_min_certificate == 0.0
        assert_allclose(p.op.apply(r.x), p.b, atol=1e-14)

    def test_square_general_reaches_tolerance(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((10, 10)) + 4.0 * np.eye(10)
        op = dense_op(a)
        b = rng.standard_normal(10)
        r = bk.minberr_ne_solve(op, b, eps=1e-7, reorth="full")
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert measured_berr(op, b, r.x) <= 1e-7

    def test_rectangular_breakdown_keeps_certificate_honest(self):
        """An inconsistent least-squares system exhausts its subspace; the
        certificate still equals the measured backward error of the iterate."""
        rng = np.random.default_rng(31)
        a = rng.standard_normal((15, 6))
        op = dense_op(a)
        b = rng.standard_normal(15)
        r = bk.minberr_ne_solve(op, b, eps=1e-6, k_max=50, reorth="full")
        assert r.termination == bk.Termination.BREAKDOWN
        assert r.iterations == 6
        assert_allclose(r.sigma_min_certificate, measured_berr(op, b, r.x), rtol=1e-10)

    def test_certificates_match_measured_berr(self):
        p = bk.ill_conditioned(50, 1e6)
        r = bk.minberr_ne_solve(p.op, p.b, eps=1e-4, k_max=200, reorth="full", trace=True)
        for cert, berr in zip(r.certificates, r.trace.berr):
            assert abs(cert - berr) <= 1e-8 * berr + 1e-15


class TestMinberrNePerturbed:
    def test_zero_perturbation_delegates(self):
        p = bk.ill_conditioned(60, 1e6)
        plain = bk.minberr_ne_solve(p.op, p.b, eps=1e-4)
        wrapped = bk.minberr_ne_perturbed(p.op, p.b, 0.0, eps=1e-4)
        assert np.array_equal(wrapped.x, plain.x)
        assert wrapped.certified_berr_bound == wrapped.sigma_min_certificate

    def test_certified_bound_structure_and_validity(self):
        p = bk.ill_conditioned(80, 1e8)
        pe = 1e-2
        r = bk.minberr_ne_perturbed(p.op, p.b, pe, eps=1e-3, k_max=300, trace=True)
        assert r.certified_berr_bound == bk.composition_bound(r.sigma_min_certificate, pe)
        berr_original = measured_berr(p.op, p.b, r.x, opnorm=1.0)
        assert berr_original <= r.certified_berr_bound
        assert_allclose(r.trace.berr[-1], berr_original, rtol=1e-10)

    def test_every_row_is_measured_against_original_operator(self, monkeypatch):
        p = bk.ill_conditioned(80, 1e8)
        rows = capture_row_iterates(monkeypatch)
        r = bk.minberr_ne_perturbed(p.op, p.b, 1e-2, eps=1e-3, k_max=60, trace=True)
        assert r.opnorm_used == r.trace.opnorm == p.op.opnorm() == 1.0
        assert [k for k, _ in rows] == r.trace.iterations
        assert len(rows) > 10
        for (_, x), berr in zip(rows, r.trace.berr):
            assert_allclose(berr, measured_berr(p.op, p.b, x, opnorm=1.0), rtol=1e-10)

    def test_perturbation_is_seeded(self):
        p = bk.ill_conditioned(40, 1e6)
        r1 = bk.minberr_ne_perturbed(p.op, p.b, 1e-2, eps=1e-3, seed=7)
        r2 = bk.minberr_ne_perturbed(p.op, p.b, 1e-2, eps=1e-3, seed=7)
        assert np.array_equal(r1.x, r2.x)

    @pytest.mark.parametrize("pe", [-0.1, 1.0, 1.5])
    def test_perturbation_size_validation(self, pe):
        p = bk.ill_conditioned(10, 10.0)
        with pytest.raises(ValueError):
            bk.minberr_ne_perturbed(p.op, p.b, pe)


class TestNoFiniteMinimizer:
    def test_vanishing_leading_coefficient(self):
        """A band whose smallest singular vector has no component on the first
        coordinate admits no finite minimizer; the recovery must refuse."""

        class StubState:
            k = 2
            nalphas = np.array([0.9])
            alphas = np.array([0.9])
            norm_b = 1.0

            def btilde(self, k=None):
                return bk.BandMatrix([0.9, 1e-16], [0.0])

        with pytest.raises(bk.NoFiniteMinimizerError):
            _recover_ne(StubState(), 0.1, 0, 1)


class TestDenseOracle:
    def test_exact_solution_carries_minimizer(self):
        with pytest.raises(bk.ExactSolutionInSubspaceError) as info:
            bk.dense_minberr_oracle(np.eye(3), np.array([1.0, 0.0, 0.0]), np.eye(3)[:, :1])
        assert_allclose(info.value.x, [1.0, 0.0, 0.0])

    def test_rank_deficiency_without_solution(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 1.0])
        basis = np.array([[0.0], [1.0]])
        with pytest.raises(bk.ExactSolutionInSubspaceError) as info:
            bk.dense_minberr_oracle(a, b, basis)
        assert info.value.x is None

    def test_minimizer_coefficients_reproduce_lambda_min(self):
        a = random_psd(9, seed=32, spread=2.0)
        b = np.random.default_rng(33).standard_normal(9)
        s = float(np.linalg.norm(a, 2))
        q, _ = np.linalg.qr(np.random.default_rng(34).standard_normal((9, 4)))
        ref = bk.dense_minberr_oracle(a, b, q, opnorm=s)
        x = q @ ref.y
        assert_allclose(
            np.linalg.norm(a @ x - b) / (s * np.linalg.norm(x)),
            np.sqrt(ref.lambda_min),
            rtol=1e-10,
        )

    def test_basis_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            bk.dense_minberr_oracle(np.eye(2), np.ones(2), np.ones(2))
