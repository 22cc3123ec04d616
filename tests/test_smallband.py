"""Incremental convergence tests and inverse iteration on the band views."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import factorize
from berrkit.factorize import SOLVE_FLOOR, BandMatrix
from berrkit.operators import norm2
from berrkit.smallband import (
    CholTestState,
    DqdsState,
    inverse_iteration,
    inverse_iteration_steps,
)

from dense_oracle import band_dense, sigma_min_dense


def rayleigh_certificate(band, v):
    """||band v||_2 / ||v||_2, measured afresh (the reference for recovery's certificate)."""
    return norm2(band.matvec(v)) / norm2(v)


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
                s = sigma_min_dense(leading_block(diag, sup1, sup2, j))
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
                s = sigma_min_dense(leading_block(diag, sup1, None, j))
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
        # delta^2 underflows to 0 here; the budget is 2.23 (ln 10 + 400 ln 10)
        assert inverse_iteration_steps(10, 1e-200) == math.ceil(2.23 * 401 * math.log(10))
        with pytest.raises(ValueError):
            inverse_iteration_steps(5, 0.0)
        with pytest.raises(ValueError):
            inverse_iteration_steps(5, 1.0)

    def test_diagonal_band_is_exact(self):
        band = BandMatrix(np.array([2.0, 0.25, 1.0]), np.zeros(2), np.zeros(1))
        v, cert, steps = inverse_iteration(band, inverse_iteration_steps(band.k, 0.1), seed=0)
        # the certificate stabilizes to machine level well before the stray
        # components of v fully decay, hence the looser tolerance on v
        assert_allclose(abs(v), [0.0, 1.0, 0.0], atol=1e-6)
        assert_allclose(cert, 0.25, rtol=1e-12)

    def test_respects_step_budget(self):
        rng = np.random.default_rng(3)
        band = BandMatrix(np.abs(rng.standard_normal(12)) + 0.1, rng.standard_normal(11))
        _, _, steps = inverse_iteration(band, 2, seed=1)
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
            _, cert, _ = inverse_iteration(band, inverse_iteration_steps(k, 0.1), seed=[4, trial])
            if cert <= math.sqrt(1.5) * sigma_min_dense(band) * (1 + 1e-12):
                hits += 1
        assert hits >= 50

    def test_exactly_singular_band(self):
        # a zero diagonal entry puts sigma_min at 0; the floored solves must
        # land on the null direction and report an essentially zero certificate
        band = BandMatrix(np.array([1.0, 0.0, 2.0]), np.array([0.5, -0.3]), np.array([0.2]))
        v, cert, _ = inverse_iteration(band, inverse_iteration_steps(band.k, 0.1), seed=2)
        assert cert <= 3e-13
        assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)

    def test_rayleigh_certificate_value(self):
        band = BandMatrix(np.array([3.0, 1.0]), np.array([0.0]))
        assert_allclose(rayleigh_certificate(band, np.array([0.0, 2.0])), 1.0)
        assert_allclose(rayleigh_certificate(band, np.array([1.0, 0.0])), 3.0)
        v, cert, _ = inverse_iteration(band, inverse_iteration_steps(band.k, 0.1), seed=0)
        assert cert == rayleigh_certificate(band, v)
        assert_allclose(cert, 1.0, rtol=1e-12)

    def test_certificate_upper_bounds_sigma_min(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            k = int(rng.integers(2, 15))
            band = BandMatrix(np.abs(rng.standard_normal(k)) + 0.05, rng.standard_normal(k - 1))
            _, cert, _ = inverse_iteration(band, inverse_iteration_steps(k, 0.2), seed=trial)
            assert cert >= sigma_min_dense(band) * (1 - 1e-10)

    def test_solve_growth_past_the_square_root_of_the_float_range(self):
        # sigma_min is about 1e-180 and the solves reach entries near 1e180,
        # whose squares overflow: the norm must still come out finite
        band = BandMatrix(1e-9 * np.ones(20), np.ones(19))
        _, cert, steps = inverse_iteration(band, inverse_iteration_steps(band.k, 1e-6), seed=[0, 20])
        assert steps >= 1
        assert cert < 1e-40


# The recovery path as it was before inverse iteration stopped at the noise
# floor, frozen here as the reference whose certificates the live path must
# keep: an array iterate, a matvec per step to measure ||band v||^2, and an
# early exit once that moved by at most 1e-14 (relative). It also predates
# BandMatrix keeping its solve form: it tries each solve on the exact
# diagonal first and retries on the diagonal floored at SOLVE_FLOOR when that
# meets a zero or gives a zero or non-finite result. It norms with the live
# norm2, which matches numpy's norm to the bit wherever the sum of squares
# stays in the normal range (tests/test_operators.py); beyond it the frozen
# path's numpy norm overflowed to inf and gave up.

_FROZEN_RQ_STABILIZED_RTOL = 1e-14


class _FrozenSingularBand(Exception):
    """The frozen path's signal for a zero diagonal entry."""


def _frozen_band_solve_upper(diag, sup1, sup2, rhs):
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(
        reversed(diag.tolist()),
        reversed(sup1.tolist() + [0.0]),
        reversed(sup2.tolist() + [0.0, 0.0]),
        reversed(rhs.tolist()),
    ):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    x.reverse()
    return np.array(x)


def _frozen_band_solve_upper_t(diag, sup1, sup2, rhs):
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(
        diag.tolist(), [0.0] + sup1.tolist(), [0.0, 0.0] + sup2.tolist(), rhs.tolist()
    ):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    return np.array(x)


def _frozen_solver(band, kernel):
    def solve(rhs, floor=0.0):
        d = np.asarray(band.diag)
        if floor > 0.0:
            small = np.abs(d) < floor
            if np.any(small):
                d = d.copy()
                d[small] = np.where(d[small] < 0.0, -floor, floor)
        elif np.any(d == 0.0):
            raise _FrozenSingularBand("zero diagonal entry in banded solve")
        return kernel(d, np.asarray(band.sup1), np.asarray(band.sup2), np.asarray(rhs, float))

    return solve


def _frozen_solve_normalized(solve, rhs):
    try:
        w = solve(rhs, 0.0)
        nw = norm2(w)
    except _FrozenSingularBand:
        nw = np.inf
    if not np.isfinite(nw) or nw == 0.0:
        w = solve(rhs, SOLVE_FLOOR)
        nw = norm2(w)
        if not np.isfinite(nw) or nw == 0.0:
            return None
    return w / nw


def _frozen_inverse_iteration(band, delta, seed):
    solve = _frozen_solver(band, _frozen_band_solve_upper)
    solve_t = _frozen_solver(band, _frozen_band_solve_upper_t)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(band.k)
    v /= norm2(v)
    rq = float(band.matvec(v) @ band.matvec(v))
    steps = 0
    for _ in range(inverse_iteration_steps(band.k, delta)):
        z = _frozen_solve_normalized(solve_t, v)
        w = None if z is None else _frozen_solve_normalized(solve, z)
        if w is None:
            break
        v = w
        steps += 1
        mv = band.matvec(v)
        rq_new = float(mv @ mv)
        if abs(rq_new - rq) <= _FROZEN_RQ_STABILIZED_RTOL * rq_new:
            rq = rq_new
            break
        rq = rq_new
    return v, rq, steps


@st.composite
def _bands(draw):
    """Tridiagonal-band (Ttilde-shaped) or bidiagonal bands, k up to 300,
    mixed signs and magnitudes, with no, some or only zero diagonal entries."""
    k = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    diag = scale * rng.uniform(0.05, 2.0, k) * rng.choice([-1.0, 1.0], k)
    zeros = draw(st.sampled_from(["none", "none", "some", "some", "all"]))
    if zeros == "some":
        picked = rng.choice(k, size=int(rng.integers(1, min(k, 4) + 1)), replace=False)
        diag[picked] = rng.choice([0.0, -0.0], picked.size)
    elif zeros == "all":
        diag[:] = 0.0
    sup1 = scale * rng.standard_normal(k - 1)
    if draw(st.booleans()):
        return BandMatrix(diag, sup1, scale * rng.standard_normal(max(k - 2, 0)))
    return BandMatrix(diag, sup1)


@st.composite
def _clustered_bands(draw):
    """Bands, k up to 60, whose singular values are a cluster of relative
    width 1e-6 above one smaller singular value: the spectra on which the
    early exit has the least to go on. A bidiagonal band is the Cholesky
    factor of a symmetric tridiagonal T with the squared spectrum; a
    tridiagonal-band one is the R of T = QR with the spectrum itself. T comes
    from the dense Hessenberg (here tridiagonal) form of Q diag Q^T."""
    k = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = 1.0 + 10.0 ** rng.uniform(-4.0, 1.0)
    sigma = 10.0 ** rng.uniform(-3.0, 3.0) * np.concatenate(
        [[1.0], gap * (1.0 + 1e-6 * rng.uniform(0.0, 1.0, k - 1))])
    bidiagonal = draw(st.booleans())
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    t = scipy.linalg.hessenberg((q * (sigma**2 if bidiagonal else sigma)) @ q.T)
    t = np.triu(np.tril(t, 1), -1)
    t = (t + t.T) / 2.0
    if bidiagonal:
        r = np.linalg.cholesky(t).T
        return BandMatrix(np.diag(r), np.diag(r, 1))
    r = np.linalg.qr(t)[1]
    return BandMatrix(np.diag(r), np.diag(r, 1), np.diag(r, 2))


@settings(max_examples=160, deadline=None, derandomize=True)
@given(st.one_of(_bands(), _clustered_bands()), st.integers(0, 1000))
def test_inverse_iteration_keeps_the_frozen_paths_certificate(band, seed):
    v, cert, steps = inverse_iteration(band, inverse_iteration_steps(band.k, 1e-6),
                                      seed=[seed, band.k])
    v0, _, _ = _frozen_inverse_iteration(band, 1e-6, [seed, band.k])
    svd = np.linalg.svd(band_dense(band), compute_uv=False)
    sigma = float(svd[-1])
    # the dense SVD knows sigma_min only to k u ||band|| (Weyl), which is all
    # it says of a band holding a zero pivot
    noise = band.k * np.finfo(float).eps * svd[0]
    cert0 = rayleigh_certificate(band, v0)
    if cert0 <= math.sqrt(1.5) * sigma:
        assert cert <= math.sqrt(1.5) * sigma
        if sigma > noise:
            # the clustered bands' gaps keep rho^4 below 1 - 4e-4, where the
            # early stop leaves an excess of at most about 2.5e-7 in
            # ||band v||^2 (see inverse_iteration)
            assert cert <= cert0 * (1.0 + 1e-6)
    assert cert >= (sigma - noise) * (1.0 - 1e-10)
    assert steps <= inverse_iteration_steps(band.k, 1e-6)
    assert np.float64(cert).tobytes() == np.float64(rayleigh_certificate(band, v)).tobytes()


# Recovery as it was before bidiagonal bands solved with two terms and the
# solves divided by the last norm as they read the right-hand side, frozen
# here as the bit oracle of the live path: the same list iterate and stop
# rule, a normalized copy of the iterate before each solve, and every band
# solved by the three-term recurrence on BandMatrix's earlier solve lists,
# an all-zero second superdiagonal included.


def _frozen_three_term_upper(diag, sup1, sup2, rhs):
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(reversed(diag), reversed(sup1), reversed(sup2), reversed(rhs)):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    x.reverse()
    return x


def _frozen_three_term_upper_t(diag, sup1, sup2, rhs):
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(diag, sup1, sup2, rhs):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    return x


def _frozen_three_term_solvers(band):
    """The band's (solve, solve_t) on its floored diagonal and zero-padded
    superdiagonals, sup2 all zeros for a band built without one."""
    floored = band.diag
    if min(floored, default=SOLVE_FLOOR) < SOLVE_FLOOR:
        floored = [(-SOLVE_FLOOR if d < 0.0 else SOLVE_FLOOR) if abs(d) < SOLVE_FLOOR else d
                   for d in floored]
    upper = (floored, band.sup1 + (0.0,), band.sup2 + (0.0, 0.0))
    upper_t = (floored, (0.0,) + band.sup1, (0.0, 0.0) + band.sup2)
    return (lambda rhs: _frozen_three_term_upper(*upper, rhs),
            lambda rhs: _frozen_three_term_upper_t(*upper_t, rhs))


def _frozen_normalized_solve(solve, rhs):
    w = solve(rhs)
    nw = math.hypot(*w)
    if not 0.0 < nw < math.inf:
        return None
    return [x / nw for x in w], nw


def _frozen_list_inverse_iteration(band, delta, seed, max_steps=None):
    k = band.k
    if max_steps is None:
        max_steps = inverse_iteration_steps(k, delta)
    start = np.random.default_rng(seed).standard_normal(k).tolist()
    norm = math.hypot(*start)
    v = [x / norm for x in start]
    solve, solve_t = _frozen_three_term_solvers(band)
    growth = 0.0
    steps = 0
    for _ in range(max_steps):
        y = _frozen_normalized_solve(solve_t, v)
        z = None if y is None else _frozen_normalized_solve(solve, y[0])
        if z is None:
            break
        v, grown = z
        steps += 1
        if abs(1.0 - (growth / grown) ** 2) <= 1e-10:
            break
        growth = grown
    measured = band.matvec(v)
    v = np.array(v)
    return v, norm2(measured) / norm2(v), steps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_bands(), _clustered_bands()), st.integers(0, 1000),
       st.sampled_from([None, 1, 3]))
def test_inverse_iteration_matches_the_three_term_oracle(band, seed, max_steps):
    # steps and certificate to the bit; v to the bit but for the sign of an
    # exact zero, which only a two-term (bidiagonal) solve can move
    budget = inverse_iteration_steps(band.k, 1e-6) if max_steps is None else max_steps
    v, cert, steps = inverse_iteration(band, budget, [seed, band.k])
    v0, cert0, steps0 = _frozen_list_inverse_iteration(band, 1e-6, [seed, band.k], max_steps)
    assert steps == steps0
    assert np.float64(cert).tobytes() == np.float64(cert0).tobytes()
    assert np.array_equal(v, v0)
    nonzero = v0 != 0.0
    assert v[nonzero].tobytes() == v0[nonzero].tobytes()
    if any(band.sup2):
        # only a band with a second superdiagonal runs the three-term loop
        assert v.tobytes() == v0.tobytes()


@pytest.mark.parametrize("zero_diagonal", [False, True])
def test_band_builds_its_solve_lists_once_per_band(zero_diagonal, monkeypatch):
    # every solve of a band hands the kernels what its constructor built
    received = {"band_solve_upper": [], "band_solve_upper_t": []}
    for name, calls in received.items():
        def spy(diag, sup1, sup2, rhs, scale, kernel=getattr(factorize, name), calls=calls):
            calls.append((diag, sup1, sup2))
            return kernel(diag, sup1, sup2, rhs, scale)

        monkeypatch.setattr(factorize, name, spy)
    rng = np.random.default_rng(6)
    diag = np.abs(rng.standard_normal(40)) + 0.1
    if zero_diagonal:
        diag[7] = 0.0
    sup1, sup2 = rng.standard_normal(39), rng.standard_normal(38)
    for tridiagonal in (True, False):
        for calls in received.values():
            calls.clear()
        band = BandMatrix(diag, sup1, sup2) if tridiagonal else BandMatrix(diag, sup1)
        _, _, steps = inverse_iteration(band, 12, seed=3)
        for rhs in rng.standard_normal((5, 40)):
            band.solve_t(rhs)
            band.solve(rhs)
        assert steps >= 1
        for calls in received.values():
            assert len(calls) == steps + 5
            assert all(got is first for call in calls for got, first in zip(call, calls[0]))
            # a band built without sup2 hands the kernels None for it: two terms a row
            assert (calls[0][2] is None) == (not tridiagonal)
        # one floored diagonal serves both directions
        floored = received["band_solve_upper"][0][0]
        assert floored is received["band_solve_upper_t"][0][0]
        assert floored[7] == (SOLVE_FLOOR if zero_diagonal else diag[7])


@pytest.mark.parametrize(
    "entry, floored",
    [
        (1e-40, SOLVE_FLOOR),
        (-1e-40, -SOLVE_FLOOR),
        (5e-324, SOLVE_FLOOR),
        (0.0, SOLVE_FLOOR),
        (-0.0, SOLVE_FLOOR),
    ],
)
def test_diagonal_below_the_floor_solves_as_the_floor(entry, floored):
    # the one input whose bits the single floored path moved: an entry
    # strictly between 0 and SOLVE_FLOOR in magnitude used to be solved
    # unfloored unless that overflowed; zeros of either sign solve as
    # +SOLVE_FLOOR, as before
    rng = np.random.default_rng(7)
    diag = rng.uniform(0.5, 2.0, 6)
    sup1, sup2 = rng.standard_normal(5), rng.standard_normal(4)
    diag[3] = entry
    band = BandMatrix(diag.copy(), sup1, sup2)
    diag[3] = floored
    ref = BandMatrix(diag, sup1, sup2)
    rhs = rng.standard_normal(6).tolist()
    for solve, ref_solve in [(band.solve, ref.solve), (band.solve_t, ref.solve_t)]:
        assert np.array(solve(rhs)).tobytes() == np.array(ref_solve(rhs)).tobytes()
