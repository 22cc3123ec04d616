"""Incremental convergence tests and inverse iteration on the band views."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit.factorize import BandMatrix
from berrkit.smallband import (
    CholTestState,
    DqdsState,
    inverse_iteration,
    inverse_iteration_steps,
    rayleigh_certificate,
)


def push_tridiag_columns(state, diag, sup1, sup2):
    """Feed the columns of a 3-band matrix until the test signals."""
    for j in range(1, len(diag) + 1):
        col = np.zeros(3)
        col[2] = diag[j - 1]
        if j >= 2:
            col[1] = sup1[j - 2]
        if j >= 3:
            col[0] = sup2[j - 3]
        if state.push_column(col):
            return j
    return None


def push_bidiag_columns(state, diag, sup1):
    for j in range(1, len(diag) + 1):
        col = np.array([sup1[j - 2] if j >= 2 else 0.0, diag[j - 1]])
        if state.push(col):
            return j
    return None


def leading_block(diag, sup1, sup2, j):
    if sup2 is None:
        return BandMatrix(diag[:j], sup1[: j - 1])
    return BandMatrix(diag[:j], sup1[: j - 1], sup2[: max(j - 2, 0)])


class TestCholState:
    def test_decisions_match_dense_svd(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            k = int(rng.integers(2, 25))
            diag = np.abs(rng.standard_normal(k)) + 0.05
            sup1 = rng.standard_normal(k - 1)
            sup2 = rng.standard_normal(max(k - 2, 0))
            eps = 10.0 ** rng.uniform(-5, -0.3)
            state = CholTestState(eps)
            signalled = push_tridiag_columns(state, diag, sup1, sup2)
            for j in range(1, k + 1):
                s = leading_block(diag, sup1, sup2, j).sigma_min_dense()
                if abs(s - eps) / eps <= 1e-8:
                    continue
                decided = signalled is not None and j >= signalled
                assert decided == (s <= eps), (trial, j, s, eps)

    def test_rejects_pushes_after_convergence(self):
        state = CholTestState(10.0)
        assert state.push_column(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(RuntimeError):
            state.push_column(np.array([0.0, 0.0, 1.0]))

    def test_eps_zero_never_signals_on_nonsingular(self):
        state = CholTestState(0.0)
        diag = np.array([1.0, 2.0, 0.5])
        assert push_tridiag_columns(state, diag, np.array([0.1, -0.2]), np.array([0.3])) is None

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            CholTestState(-1.0)


class TestDqdsState:
    def test_decisions_match_dense_svd(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            k = int(rng.integers(2, 25))
            diag = np.abs(rng.standard_normal(k)) + 0.05
            sup1 = rng.standard_normal(k - 1)
            eps = 10.0 ** rng.uniform(-5, -0.3)
            state = DqdsState(eps)
            signalled = push_bidiag_columns(state, diag, sup1)
            for j in range(1, k + 1):
                s = leading_block(diag, sup1, None, j).sigma_min_dense()
                if abs(s - eps) / eps <= 1e-8:
                    continue
                decided = signalled is not None and j >= signalled
                assert decided == (s <= eps), (trial, j, s, eps)

    def test_rejects_pushes_after_convergence(self):
        state = DqdsState(2.0)
        assert state.push([0.0, 1.0])
        with pytest.raises(RuntimeError):
            state.push([1.0, 1.0])


class TestExactArithmeticAgreement:
    """Both incremental tests decide sign(sigma_min - eps) exactly like a
    rational LDL^T factorization of Gram - eps^2 I when the inputs are
    dyadic rationals, so float roundoff is the only possible divergence and
    these small cases have none."""

    @staticmethod
    def _rational_psd_decision(gram, shift, k):
        """All leading pivots of gram - shift*I positive, in exact arithmetic."""
        m = [[gram[i][j] - (shift if i == j else Fraction(0)) for j in range(k)] for i in range(k)]
        for j in range(k):
            piv = m[j][j]
            if piv <= 0:
                return j + 1
            for r in range(j + 1, k):
                factor = m[r][j] / piv
                for c in range(j, k):
                    m[r][c] -= factor * m[j][c]
        return None

    def _check_case(self, diag, sup1, sup2, eps):
        k = len(diag)
        dense = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            dense[i][i] = diag[i]
        for i in range(k - 1):
            dense[i][i + 1] = sup1[i]
        if sup2 is not None:
            for i in range(k - 2):
                dense[i][i + 2] = sup2[i]
        gram = [
            [sum(dense[r][i] * dense[r][j] for r in range(k)) for j in range(k)]
            for i in range(k)
        ]
        exact_at = self._rational_psd_decision(gram, eps * eps, k)

        fd = np.array([float(v) for v in diag])
        fs1 = np.array([float(v) for v in sup1])
        if sup2 is None:
            state = DqdsState(float(eps))
            got = push_bidiag_columns(state, fd, fs1)
        else:
            fs2 = np.array([float(v) for v in sup2])
            state = CholTestState(float(eps))
            got = push_tridiag_columns(state, fd, fs1, fs2)
        assert got == exact_at, (diag, sup1, sup2, eps, got, exact_at)

    def test_small_dyadic_cases(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            k = int(rng.integers(2, 9))
            # entries are small dyadic rationals, exactly representable
            diag = [Fraction(int(rng.integers(1, 64)), 32) for _ in range(k)]
            sup1 = [Fraction(int(rng.integers(-32, 33)), 32) for _ in range(k - 1)]
            eps = Fraction(int(rng.integers(1, 48)), 64)
            if trial % 2 == 0:
                sup2 = [Fraction(int(rng.integers(-32, 33)), 32) for _ in range(k - 2)]
                self._check_case(diag, sup1, sup2, eps)
            else:
                self._check_case(diag, sup1, None, eps)


class TestInverseIteration:
    def test_step_budget_formula(self):
        assert inverse_iteration_steps(10, 0.1) == max(1, math.ceil(2.23 * math.log(10 / 0.01)))
        assert inverse_iteration_steps(1, 0.9) == max(1, math.ceil(2.23 * math.log(1 / 0.81)))
        with pytest.raises(ValueError):
            inverse_iteration_steps(5, 0.0)
        with pytest.raises(ValueError):
            inverse_iteration_steps(5, 1.0)

    def test_diagonal_band_is_exact(self):
        band = BandMatrix(np.array([2.0, 0.25, 1.0]), np.zeros(2), np.zeros(1))
        v, rq, steps = inverse_iteration(band, delta=0.1, seed=0)
        # the quotient stabilizes to machine level well before the stray
        # components of v fully decay, hence the looser tolerance on v
        assert_allclose(abs(v), [0.0, 1.0, 0.0], atol=1e-6)
        assert_allclose(rq, 0.0625, rtol=1e-12)

    def test_respects_step_budget(self):
        rng = np.random.default_rng(3)
        band = BandMatrix(np.abs(rng.standard_normal(12)) + 0.1, rng.standard_normal(11))
        v, rq, steps = inverse_iteration(band, delta=0.5, seed=1, max_steps=2)
        assert steps <= 2

    def test_probabilistic_guarantee_smoke(self):
        rng = np.random.default_rng(4)
        hits = 0
        for trial in range(60):
            k = int(rng.integers(2, 20))
            band = BandMatrix(
                np.abs(rng.standard_normal(k)) + 0.02,
                rng.standard_normal(k - 1),
                rng.standard_normal(max(k - 2, 0)),
            )
            v, rq, _ = inverse_iteration(band, delta=0.1, seed=[4, trial])
            lam = band.sigma_min_dense() ** 2
            if rq <= 1.5 * lam * (1 + 1e-12):
                hits += 1
        assert hits >= 50

    def test_exactly_singular_band(self):
        # a zero diagonal entry puts sigma_min at 0; the floored retry must
        # land on the null direction and report an essentially zero quotient
        band = BandMatrix(np.array([1.0, 0.0, 2.0]), np.array([0.5, -0.3]), np.array([0.2]))
        v, rq, steps = inverse_iteration(band, delta=0.1, seed=2)
        assert rq <= 1e-25
        assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)

    def test_rayleigh_certificate_value(self):
        band = BandMatrix(np.array([3.0, 1.0]), np.array([0.0]))
        assert_allclose(rayleigh_certificate(band, np.array([0.0, 2.0])), 1.0)
        assert_allclose(rayleigh_certificate(band, np.array([1.0, 0.0])), 3.0)

    def test_certificate_upper_bounds_sigma_min(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            k = int(rng.integers(2, 15))
            band = BandMatrix(np.abs(rng.standard_normal(k)) + 0.05, rng.standard_normal(k - 1))
            v, _, _ = inverse_iteration(band, delta=0.2, seed=trial)
            cert = rayleigh_certificate(band, v)
            assert cert >= band.sigma_min_dense() * (1 - 1e-10)
