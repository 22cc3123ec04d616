"""Backward-error-minimizing solvers, their certificates, and the dense oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit.factorize import BandMatrix, BidiagState, LanczosState
from berrkit import minberr
from berrkit.minberr import _perturbation, _recover_ne
from berrkit.operators import norm2

from _helpers import capture_monitors, capture_row_iterates, dense_op, measured_berr, random_psd
from dense_oracle import ExactSolutionInSubspaceError, dense_minberr_oracle, sigma_min_dense


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
            ref = dense_minberr_oracle(a, b, state.basis(k), opnorm=s)
            assert_allclose(sigma_min_dense(state.ttilde()), np.sqrt(ref.lambda_min), rtol=1e-10)

    def test_ne_band_matches_oracle(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        s = float(np.linalg.norm(a, 2))
        state = BidiagState(dense_op(a), b, opnorm=s, reorth="full")
        for k in range(1, 9):
            state.step()
            ref = dense_minberr_oracle(a, b, state.basis_q(k), opnorm=s)
            assert_allclose(sigma_min_dense(state.btilde()), np.sqrt(ref.lambda_min), rtol=1e-10)

    def test_recovered_iterate_is_near_optimal(self):
        a = random_psd(12, seed=24, spread=2.0)
        op = dense_op(a)
        b = np.random.default_rng(25).standard_normal(12)
        r = bk.minberr_solve(op, b, eps=1e-4, delta=0.1, seed=3)
        state = LanczosState(op, b, opnorm=op.opnorm(), reorth="full")
        for _ in range(r.iterations):
            state.step()
        ref = dense_minberr_oracle(a, b, state.basis(r.iterations), opnorm=op.opnorm())
        assert measured_berr(op, b, r.x, op.opnorm()) <= 1.5 * np.sqrt(ref.lambda_min)


def _assert_certificate_within_oracle(result, a, b, basis, s):
    """sigma_min_certificate^2 lies in [1, 1.5] x the oracle's lambda_min over
    the solver's own basis (up to rounding in the last digits), and every
    trace row's berr is rn / (s xn) exactly as stored."""
    try:
        ref = dense_minberr_oracle(a, b, basis, opnorm=s)
    except ExactSolutionInSubspaceError:
        assume(False)
    sigma = math.sqrt(ref.lambda_min)
    cert = result.sigma_min_certificate
    assert sigma * (1.0 - 1e-9) - 1e-14 <= cert <= math.sqrt(1.5) * sigma * (1.0 + 1e-9) + 1e-14
    t = result.trace
    assert len(t) == result.iterations
    for rn, xn, berr in zip(t.residual_norm, t.x_norm, t.berr):
        assert berr == rn / (t.opnorm * xn)


@st.composite
def _problem(draw, square):
    n = draw(st.integers(2, 12))
    m = n if square else draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    eps = 10.0 ** draw(st.floats(-6.0, -1.0))
    return m, n, seed, eps


class TestCertificateProperty:
    """Hypothesis: the certificate of a full-reorthogonalization solve agrees
    with the dense oracle on the basis the solver built."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_problem(square=True), st.floats(0.5, 6.0))
    def test_minberr_solve(self, problem, spread):
        _, n, seed, eps = problem
        a = random_psd(n, seed=seed, spread=spread)
        b = np.random.default_rng([seed, 1]).standard_normal(n)
        op = dense_op(a)
        r = bk.minberr_solve(op, b, eps=eps, k_max=n - 1, reorth="full", seed=seed, trace_every=1)
        assume(r.termination != bk.Termination.BREAKDOWN)
        state = LanczosState(op, b, opnorm=op.opnorm(), reorth="full")
        for _ in range(r.iterations):
            state.step()
        _assert_certificate_within_oracle(r, a, b, state.basis(r.iterations), op.opnorm())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_problem(square=False))
    def test_minberr_ne_solve(self, problem):
        m, n, seed, eps = problem
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        op = dense_op(a)
        r = bk.minberr_ne_solve(op, b, eps=eps, k_max=min(m, n) - 1, reorth="full",
                                seed=seed, trace_every=1)
        assume(r.termination != bk.Termination.BREAKDOWN)
        state = BidiagState(op, b, opnorm=op.opnorm(), reorth="full")
        for _ in range(r.iterations):
            state.step()
        _assert_certificate_within_oracle(r, a, b, state.basis_q(r.iterations), op.opnorm())


class TestMinberrSolve:
    def test_certificates_match_measured_berr(self):
        p = bk.ill_conditioned(60, 1e6)
        r = bk.minberr_solve(p.op, p.b, eps=1e-7, reorth="full", trace_every=1)
        assert len(r.certificates) == len(r.trace)
        for cert, berr in zip(r.certificates, r.trace.berr):
            assert abs(cert - berr) <= 1e-8 * berr + 1e-15

    def test_certificate_envelope_and_monotonicity(self):
        a = random_psd(60, seed=26, spread=5.0)
        op = dense_op(a)
        b = np.random.default_rng(27).standard_normal(60)
        r = bk.minberr_solve(op, b, eps=1e-7, k_max=40, trace_every=1)
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
        r = bk.minberr_solve(p.op, p.b, eps=1e-7, trace_every=3)
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
            {"reorth": "partial"},
            {"trace_every": 0},
            {"trace_every": -3},
            {"seed": 2.5},
            {"seed": math.nan},
        ],
    )
    def test_validation(self, kw):
        p = bk.ill_conditioned(10, 10.0)
        with pytest.raises(ValueError):
            bk.minberr_solve(p.op, p.b, **kw)


ENTRIES = {
    "minberr": (bk.minberr_solve, ()),
    "minberr-ne": (bk.minberr_ne_solve, ()),
    "minberr-ne-perturbed": (bk.minberr_ne_perturbed, (1e-2,)),
}


@pytest.mark.parametrize("name", ENTRIES)
def test_trace_every_below_one_is_rejected(name):
    solver, extra = ENTRIES[name]
    p = bk.ill_conditioned(10, 10.0)
    with pytest.raises(ValueError, match="trace_every"):
        solver(p.op, p.b, *extra, trace_every=0)


SQRT_U = math.sqrt(np.finfo(float).eps)


def per_iteration_reference(state, recover, eps, k_max, b, seed=0, delta=1e-6):
    """Recover at every step and stop at the first certificate below eps whose
    measured backward error is below eps too, at breakdown or at the cap: the
    loop that the O(1) test gated below 2 sqrt(u) must reproduce bit for bit.
    A breakdown whose measured residual is at most 1e-15 ||b|| is an exact
    solution. Returns (termination, k, certificate, x)."""
    for k in range(1, k_max + 1):
        state.step()
        x, cert = recover(state, k, delta, seed)
        if cert >= eps and state.breakdown:
            x, cert = recover(state, k, delta, seed, step_factor=4)
        rn = norm2(state.op.apply(x) - b)
        if state.breakdown and rn <= 1e-15 * norm2(b):
            return bk.Termination.EXACT_SOLUTION, k, cert, x
        if cert < eps and rn / (state.opnorm * norm2(x)) < eps:
            return bk.Termination.TOLERANCE_REACHED, k, cert, x
        if state.breakdown:
            return bk.Termination.BREAKDOWN, k, cert, x
    return bk.Termination.MAX_ITERATIONS, k_max, cert, x


def _disguised_spectrum(seed, n, spread, normal_equations):
    """(op, b): singular values 10^-uniform(0, spread) behind random orthogonal
    factors, Q D Q^T (symmetric PSD) or Q D P^T, and a Gaussian b."""
    rng = np.random.default_rng(seed)
    d = 10.0 ** -np.sort(rng.uniform(0.0, spread, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    if normal_equations:
        p, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return dense_op((q * d) @ p.T), b
    a = (q * d) @ q.T
    return dense_op(0.5 * (a + a.T)), b


def _assert_same_run(r, reference):
    termination, k, cert, x = reference
    assert (r.termination, r.iterations) == (termination, k)
    assert r.sigma_min_certificate == cert
    assert r.x.tobytes() == x.tobytes()


class TestGateBelowSqrtU:
    """Below 2 sqrt(u) the O(1) test runs at the shift 2 sqrt(u): it fires
    before any certificate can drop below eps, so the run stops where
    recovering at every step would, with the same x, at a fraction of the
    recoveries."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(4, 60),
        spread=st.floats(2.0, 14.0),
        log_eps=st.floats(-13.0, math.log10(2.0 * SQRT_U), exclude_max=True),
        normal_equations=st.booleans(),
        reorth=st.sampled_from(["plain", "full"]),
        trace_every=st.sampled_from([None, 1, 5]),
    )
    def test_equals_per_iteration_reference(self, seed, n, spread, log_eps, normal_equations,
                                            reorth, trace_every):
        eps = 10.0 ** log_eps
        assume(eps < 2.0 * SQRT_U)
        op, b = _disguised_spectrum(seed, n, spread, normal_equations)
        if normal_equations:
            solver, factorization, recover = bk.minberr_ne_solve, BidiagState, _recover_ne
        else:
            solver, factorization, recover = bk.minberr_solve, LanczosState, minberr._recover_psd
        r = solver(op, b, eps=eps, reorth=reorth, seed=seed, trace_every=trace_every)
        state = factorization(op, b, opnorm=op.opnorm(), reorth=reorth)
        _assert_same_run(r, per_iteration_reference(state, recover, eps, n, b, seed))

    @pytest.mark.parametrize("eps", [1.48e-8, math.nextafter(SQRT_U, 0.0)])
    def test_equals_per_iteration_reference_just_below_sqrt_u(self, eps):
        # a test gated at sqrt(u) itself fires at k = 74, one step after the
        # certificate drops below these eps
        p = bk.small_outlier(500, 1e12, 1e-2)
        r = bk.minberr_solve(p.op, p.b, eps=eps)
        state = LanczosState(p.op, p.b, opnorm=p.op.opnorm())
        _assert_same_run(r, per_iteration_reference(state, minberr._recover_psd, eps, 500,
                                                    p.b))
        assert r.iterations == 73

    @pytest.mark.parametrize("eps, k", [(1.5e-8, 194), (1.7e-8, 192), (1.8e-8, 191),
                                        (2.5e-8, 186), (2.7e-8, 185)])
    def test_equals_per_iteration_reference_between_sqrt_u_and_twice_it(self, eps, k):
        # a test at eps itself, as run between sqrt(u) and 2 sqrt(u) before,
        # fired one step after the certificate crossed eps on these runs
        p = bk.small_outlier(2000, 1e10, 1e-3)
        r = bk.minberr_solve(p.op, p.b, eps=eps)
        state = LanczosState(p.op, p.b, opnorm=p.op.opnorm())
        _assert_same_run(r, per_iteration_reference(state, minberr._recover_psd, eps, 2000,
                                                    p.b))
        assert r.iterations == k

    @pytest.mark.parametrize("name", ["minberr", "minberr-ne"])
    def test_one_recovery_for_an_untraced_run_to_the_cap(self, name, monkeypatch):
        # recovering at every step took 100 here
        calls = []
        inverse_iteration = minberr.inverse_iteration

        def counting(*args, **kwargs):
            calls.append(1)
            return inverse_iteration(*args, **kwargs)

        monkeypatch.setattr(minberr, "inverse_iteration", counting)
        solver, extra = ENTRIES[name]
        p = bk.ill_conditioned(300, 1e10)
        r = solver(p.op, np.ones(300), *extra, eps=1e-9, k_max=100)
        assert r.termination == bk.Termination.MAX_ITERATIONS
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["minberr", "minberr-ne"])
    def test_retry_starts_from_a_fresh_vector(self, name, monkeypatch):
        # first attempts return their start vector, so the step at which the
        # test fires must retry; a retry from the same seed would only rerun
        # the first attempt's steps
        calls = []
        inverse_iteration = minberr.inverse_iteration

        def spy(band, max_steps, seed):
            # the solvers' default delta is 1e-6
            first = max_steps == minberr.inverse_iteration_steps(band.k, 1e-6)
            calls.append((band.k, seed, first))
            return inverse_iteration(band, 0 if first else max_steps, seed)

        monkeypatch.setattr(minberr, "inverse_iteration", spy)
        solver, extra = ENTRIES[name]
        p = bk.ill_conditioned(100, 1e4)
        solver(p.op, np.ones(100), *extra, eps=1e-2, k_max=60, seed=5)
        retries = [i for i, (_, _, first) in enumerate(calls) if not first]
        assert len(retries) == 1
        (k, first_seed, _), (retry_k, retry_seed, _) = calls[retries[0] - 1 : retries[0] + 1]
        assert retry_k == k
        assert retry_seed != first_seed
        assert (first_seed, retry_seed) == ([5, k], [5, k, 1])

    @pytest.mark.parametrize("name", ["minberr", "minberr-ne"])
    def test_tiny_eps_solves_without_a_warning(self, name):
        solver, extra = ENTRIES[name]
        a = random_psd(30, seed=28, spread=0.5)
        b = np.random.default_rng(29).standard_normal(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solver(dense_op(a), b, *extra, eps=1e-9)
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert r.sigma_min_certificate < 1e-9


# name: (solver, whether it runs on a general A rather than a symmetric PSD one)
CLAIMING_SOLVERS = {
    "richardson": (bk.richardson, False),
    "richardson-ne": (bk.richardson_ne, True),
    "cg": (bk.cg, False),
    "minres": (bk.minres, False),
    "lsqr": (bk.lsqr, True),
    "minberr": (bk.minberr_solve, False),
    "minberr-ne": (bk.minberr_ne_solve, True),
}


class TestMeasuredClaim:
    """On A itself a claim, a certificate or a residual recurrence below eps,
    ends the run only when the row measured at that step is below eps too."""

    @pytest.mark.parametrize("problem, eps, outcome", [
        ("disguised", 1e-15, ("ToleranceReached", 681)),
        ("disguised", 5e-16, ("ToleranceReached", 704)),
        ("disguised", 3e-16, ("ToleranceReached", 732)),
        ("disguised", 2e-16, ("MaxIterations", 1500)),
        ("outlier", 2e-16, ("ToleranceReached", 474)),
    ])
    def test_no_claim_above_the_measured_row(self, problem, eps, outcome):
        # the certificate alone ended these runs at k = 679, 702, 717, 732
        # and 473, at a measured berr of 1.03e-15, 5.73e-16, 4.61e-16,
        # 2.92e-16 and 2.01e-16
        if problem == "disguised":
            p = bk.disguise(bk.ill_conditioned(300, 1e4), False, 2)
        else:
            p = bk.small_outlier(2000, 1e10, 1e-3)
        r = bk.minberr_solve(p.op, p.b, eps=eps, k_max=1500)
        assert (r.termination.value, r.iterations) == outcome
        measured = bk.backward_error(p.op, p.b, r.x).value
        assert r.trace.final_berr == measured
        if r.termination == bk.Termination.TOLERANCE_REACHED:
            assert measured < eps
        else:
            assert r.sigma_min_certificate < eps <= measured

    @pytest.mark.parametrize("seed, k", [(0, 892), (1, 879), (2, 885)])
    def test_no_claim_above_the_measured_row_for_minres(self, seed, k):
        # the MINRES residual recurrence alone ended these runs at k = 887,
        # 873 and 878, at a measured berr of 1.04, 1.09 and 1.12 x tol
        p = bk.disguise(bk.ill_conditioned(300, 1e4), False, seed)
        b = np.random.default_rng(seed).standard_normal(300)
        cfg = bk.SolverConfig(max_iterations=3000, berr_tolerance=3e-15)
        r = bk.minres(p.op, b, cfg)
        assert (r.termination, r.iterations) == (bk.Termination.TOLERANCE_REACHED, k)
        assert r.trace.final_berr == bk.backward_error(p.op, b, r.x).value < 3e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 60),
        spread=st.floats(0.0, 14.0),
        log_eps=st.floats(math.log10(2e-16), -2.0),
        solver=st.sampled_from(sorted(CLAIMING_SOLVERS)),
        reorth=st.sampled_from(["plain", "full"]),
    )
    # the certificate alone claimed the first run, the residual recurrence
    # the second (at a measured berr of 1.006 x eps)
    @example(seed=0, n=47, spread=1.0, log_eps=-15.6875, solver="minberr", reorth="plain")
    @example(seed=244, n=57, spread=0.0, log_eps=-15.6953125, solver="minres", reorth="plain")
    def test_every_claim_is_measured_below_eps(self, seed, n, spread, log_eps, solver,
                                               reorth):
        eps = 10.0 ** log_eps
        solve, normal_equations = CLAIMING_SOLVERS[solver]
        op, b = _disguised_spectrum(seed, n, spread, normal_equations)
        if solver.startswith("minberr"):
            r = solve(op, b, eps=eps, reorth=reorth, seed=seed)
        else:
            r = solve(op, b, bk.SolverConfig(max_iterations=500, berr_tolerance=eps))
        # every stopping row is measured, with or without a claim
        measured = bk.backward_error(op, b, r.x).value
        assert r.trace.final_berr == measured
        if r.termination == bk.Termination.TOLERANCE_REACHED:
            assert measured < eps


class TestPrefixRecovery:
    """Recovery reads only the first k steps of the factorization, so
    recovering at a prefix j after more steps gives bit for bit the x and
    certificate of recovering when the state stood at j."""

    @pytest.mark.parametrize("reorth", ["plain", "full"])
    @pytest.mark.parametrize("j", [1, 2, 9, 16])
    def test_lanczos(self, reorth, j):
        a = random_psd(60, seed=44, spread=4.0)
        b = np.random.default_rng(45).standard_normal(60)
        state = LanczosState(dense_op(a), b, reorth=reorth)
        for _ in range(j):
            state.step()
        x_then, cert_then = minberr._recover_psd(state, j, 1e-6, 3)
        # past one doubling of the basis buffer (16 -> 32 -> 64 columns)
        for _ in range(40 - j):
            state.step()
        x_now, cert_now = minberr._recover_psd(state, j, 1e-6, 3)
        assert np.array_equal(x_now, x_then)
        assert cert_now == cert_then

    @pytest.mark.parametrize("reorth", ["plain", "full"])
    @pytest.mark.parametrize("j", [1, 2, 9, 16])
    def test_golub_kahan(self, reorth, j):
        a = np.random.default_rng(46).standard_normal((70, 60))
        b = np.random.default_rng(47).standard_normal(70)
        state = BidiagState(dense_op(a), b, reorth=reorth)
        for _ in range(j):
            state.step()
        x_then, cert_then = minberr._recover_ne(state, j, 1e-6, 3)
        for _ in range(40 - j):
            state.step()
        x_now, cert_now = minberr._recover_ne(state, j, 1e-6, 3)
        assert np.array_equal(x_now, x_then)
        assert cert_now == cert_then


def _recording(state_type, built, drop_cap=False):
    """state_type whose instances go to built; with drop_cap it ignores the
    step cap it is given, so its stores grow from 16 columns as they did
    before the reservation."""

    class Recording(state_type):
        def __init__(self, *args, k_max=None, **kwargs):
            super().__init__(*args, k_max=None if drop_cap else k_max, **kwargs)
            built.append(self)

    return Recording


def _run_bytes(r):
    """A MINBERR result's outcome, x, certificates and trace rows (wall time
    aside) as bytes."""
    rows = [row[:4] for row in r.trace.rows()]
    return (r.termination, r.iterations, r.x.tobytes(),
            np.array(r.certificates + [r.sigma_min_certificate]).tobytes(),
            np.array(rows).tobytes())


class TestReservedStores:
    """minberr_solve and minberr_ne_solve reserve their stores for k_max + 1
    vectors; states whose stores grow instead give the same run to the
    byte."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(4, 60),
        spread=st.floats(2.0, 14.0),
        log_eps=st.floats(-13.0, -3.0),
        normal_equations=st.booleans(),
        reorth=st.sampled_from(["plain", "full"]),
        trace_every=st.sampled_from([None, 1, 5]),
        k_max=st.sampled_from([None, 3, 17]),
    )
    def test_bitwise_equal_to_growing_stores(self, seed, n, spread, log_eps, normal_equations,
                                             reorth, trace_every, k_max):
        op, b = _disguised_spectrum(seed, n, spread, normal_equations)
        solver = bk.minberr_ne_solve if normal_equations else bk.minberr_solve

        def run():
            return solver(op, b, eps=10.0**log_eps, k_max=k_max, reorth=reorth, seed=seed,
                          trace_every=trace_every)

        reserved = run()
        grown = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("LanczosState", "BidiagState"):
                mp.setattr(minberr, name, _recording(getattr(minberr, name), grown, True))
            growing = run()
        [state] = grown
        assert state.k == growing.iterations
        assert _run_bytes(reserved) == _run_bytes(growing)

    @pytest.mark.parametrize("normal_equations", [False, True])
    def test_solvers_reserve_k_max_plus_one(self, normal_equations, monkeypatch):
        built = []
        for name in ("LanczosState", "BidiagState"):
            monkeypatch.setattr(minberr, name, _recording(getattr(minberr, name), built))
        op, b = _disguised_spectrum(5, 30, 4.0, normal_equations)
        solver = bk.minberr_ne_solve if normal_equations else bk.minberr_solve
        solver(op, b, eps=1e-6, k_max=20, reorth="full")
        [state] = built
        stores = [state._qcols, state._ucols] if normal_equations else [state._q]
        assert [store._buf.shape[1] for store in stores] == [21] * len(stores)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    two_sided=st.booleans(),
    normal_equations=st.booleans(),
    n=st.integers(41, 60),
    log_kappa=st.integers(4, 12),
)
def test_disguise_invariance_across_seeds(seed, two_sided, normal_equations, n, log_kappa):
    """Orthogonal conjugation by any seeded Householder chain leaves the
    minberr and minberr-ne traces unchanged to the A11 bound, 1e-6, over 40
    steps. A two-sided disguise makes a symmetric A unsymmetric, so it is
    drawn for minberr-ne only."""
    two_sided = two_sided and normal_equations
    solver = bk.minberr_ne_solve if normal_equations else bk.minberr_solve
    plain = bk.small_outlier(n, 10.0 ** log_kappa, 1e-3)
    hidden = bk.disguise(plain, two_sided=two_sided, seed=seed)
    runs = [solver(q.op, q.b, eps=1e-7, k_max=40, reorth="full", trace_every=1)
            for q in (plain, hidden)]
    assert runs[0].trace.iterations == runs[1].trace.iterations
    diff = np.abs(np.asarray(runs[0].trace.berr) - np.asarray(runs[1].trace.berr))
    assert float(np.max(diff)) <= 1e-6


def _exact_input(problem):
    """(A, b) whose Krylov space breaks down at an exact solution at k = 1."""
    if problem == "cyclic-shift":
        # A^T b = b and A b = b: the normal-equations space holds x = b
        return bk.cyclic_shift(64).op, np.ones(64)
    # b is the left singular vector of sigma_min, so x = b / sigma_min
    p = bk.ill_conditioned(400, 1e8)
    return p.op, bk.rhs_smallest_left_singular(p)


EXACT_SOLVERS = {
    "cg": bk.cg,
    "minres": bk.minres,
    "lsqr": bk.lsqr,
    "minberr": bk.minberr_solve,
    "minberr-ne": bk.minberr_ne_solve,
}


@pytest.mark.parametrize("problem, solver", [
    *(("smallest-singular-rhs", solver) for solver in EXACT_SOLVERS),
    # cg, minres and minberr need a symmetric operator
    ("cyclic-shift", "lsqr"),
    ("cyclic-shift", "minberr-ne"),
])
def test_exact_solution_gets_one_label_from_every_solver(problem, solver):
    """A Krylov space that breaks down at an exact solution ends ExactSolution,
    by the monitor's one rule, whichever solver built it."""
    op, b = _exact_input(problem)
    r = EXACT_SOLVERS[solver](op, b)
    assert (r.termination, r.iterations) == (bk.Termination.EXACT_SOLUTION, 1)
    assert r.trace.final_berr <= 1e-15


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("solve, symmetric", [(bk.minberr_solve, True),
                                              (bk.minberr_ne_solve, False)])
def test_certificates_line_up_with_the_trace(solve, symmetric, every):
    """One certificate for each row the monitor records, the last row's
    certificate being the run's."""
    if symmetric:
        op, b = dense_op(random_psd(60, seed=26, spread=5.0)), np.ones(60)
    else:
        p = bk.disguise(bk.ill_conditioned(60, 1e6), two_sided=True, seed=0)
        op, b = p.op, p.b
    # each run stops between two rows at 7: ToleranceReached at k = 32 and 15
    r = solve(op, b, eps=1e-4 if symmetric else 1e-3, k_max=45, trace_every=every)
    assert r.termination == bk.Termination.TOLERANCE_REACHED
    assert len(r.certificates) == len(r.trace)
    assert r.certificates[-1] == r.sigma_min_certificate


class TestMinberrNeSolve:
    def test_exact_solution_through_orthogonal_operator(self):
        p = bk.cyclic_shift(8)
        r = bk.minberr_ne_solve(p.op, p.b, eps=1e-6)
        assert r.termination == bk.Termination.EXACT_SOLUTION
        assert r.iterations == 1
        assert r.sigma_min_certificate == 0.0
        assert_allclose(p.op.apply(r.x), p.b, atol=1e-14)

    def test_square_general_reaches_tolerance(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((10, 10)) + 4.0 * np.eye(10)
        op = dense_op(a)
        b = rng.standard_normal(10)
        r = bk.minberr_ne_solve(op, b, eps=1e-7, reorth="full")
        # the space is exhausted at k = 10, where x solves the system
        assert (r.termination, r.iterations) == (bk.Termination.EXACT_SOLUTION, 10)
        assert measured_berr(op, b, r.x, op.opnorm()) <= 1e-7

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
        assert_allclose(r.sigma_min_certificate, measured_berr(op, b, r.x, op.opnorm()), rtol=1e-10)

    def test_certificates_match_measured_berr(self):
        p = bk.ill_conditioned(50, 1e6)
        r = bk.minberr_ne_solve(p.op, p.b, eps=1e-4, k_max=200, reorth="full", trace_every=1)
        for cert, berr in zip(r.certificates, r.trace.berr):
            assert abs(cert - berr) <= 1e-8 * berr + 1e-15


class TestMinberrNePerturbed:
    def test_zero_perturbation_delegates(self):
        p = bk.ill_conditioned(60, 1e6)
        plain = bk.minberr_ne_solve(p.op, p.b, eps=1e-4)
        wrapped = bk.minberr_ne_perturbed(p.op, p.b, 0.0, eps=1e-4)
        assert np.array_equal(wrapped.x, plain.x)
        assert wrapped.certified_berr_bound == wrapped.sigma_min_certificate

    @pytest.mark.parametrize("pe, eps", [(1e-3, 1e-3), (1e-2, 1e-3), (1e-3, 1e-4)])
    def test_uncertifiable_spec_warns_once_at_the_caller(self, pe, eps):
        # the bound (1 + pe) berr + pe stays at or above pe >= eps
        p = bk.ill_conditioned(20, 10.0)
        with pytest.warns(RuntimeWarning, match="cannot fall below eps") as record:
            r = bk.minberr_ne_perturbed(p.op, p.b, pe, eps=eps, k_max=5)
        assert r.certified_berr_bound >= eps
        assert [w.filename for w in record] == [__file__]
        # perfbench counts warnings naming sqrt(machine epsilon) as runs in
        # per-iteration certificate mode
        assert "sqrt(machine epsilon)" not in str(record[0].message)

    def test_certifiable_spec_does_not_warn(self):
        p = bk.ill_conditioned(20, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bk.minberr_ne_perturbed(p.op, p.b, 1e-4, eps=1e-3, k_max=5)

    def test_certified_bound_structure_and_validity(self):
        p = bk.ill_conditioned(80, 1e8)
        pe = 1e-2
        r = bk.minberr_ne_perturbed(p.op, p.b, pe, eps=1e-3, k_max=300, trace_every=1)
        assert r.certified_berr_bound == bk.composition_bound(r.sigma_min_certificate, pe)
        berr_original = measured_berr(p.op, p.b, r.x, 1.0)
        assert berr_original <= r.certified_berr_bound
        assert_allclose(r.trace.berr[-1], berr_original, rtol=1e-10)

    def test_every_row_is_measured_against_original_operator(self, monkeypatch):
        p = bk.ill_conditioned(80, 1e8)
        rows = capture_row_iterates(monkeypatch)
        r = bk.minberr_ne_perturbed(p.op, p.b, 1e-2, eps=1e-3, k_max=60, trace_every=1)
        assert r.opnorm_used == r.trace.opnorm == p.op.opnorm() == 1.0
        assert [k for k, _ in rows] == r.trace.iterations
        assert len(rows) > 10
        for (_, x), berr in zip(rows, r.trace.berr):
            assert_allclose(berr, measured_berr(p.op, p.b, x, 1.0), rtol=1e-10)

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

    @pytest.mark.parametrize("bad", [
        {"k_max": 0},
        {"reorth": "partial"},
        {"trace_every": 0},
        {"eps": 0.0},
        {"delta": 1.0},
        {"seed": -1},
    ])
    def test_bad_arguments_raise_before_the_dense_set_up(self, monkeypatch, bad):
        """A bad argument raises before A + E is set up: neither the sparse
        E nor the sum operator is built."""
        def refuse(*args, **kwargs):
            raise AssertionError("the perturbed operator was set up")

        monkeypatch.setattr(minberr, "_perturbation", refuse)
        monkeypatch.setattr(minberr, "SumOperator", refuse)
        p = bk.ill_conditioned(10, 10.0)
        with pytest.raises(ValueError):
            bk.minberr_ne_perturbed(p.op, p.b, 1e-2, **bad)

    def test_perturbation_norm_and_solver_norm(self, monkeypatch):
        """||E|| = perturb_eps ||A|| (the premise of the composition bound),
        E is the seeded draw, and the solver runs on the proven lower bound
        (1 - perturb_eps) ||A|| <= ||A + E|| without estimating a norm of A,
        E or A + E. The run's one monitor measures every row against A at
        ||A||."""
        built = []

        def spy_perturbation(*args):
            built.append((args, _perturbation(*args)))
            return built[-1][1]

        def no_norm_estimate(op, *args, **kwargs):
            raise AssertionError(f"norm estimate of {type(op).__name__}")

        monkeypatch.setattr(minberr, "_perturbation", spy_perturbation)
        monkeypatch.setattr(bk.operators, "estimate_spectral_norm", no_norm_estimate)
        monitors = capture_monitors(monkeypatch, minberr)
        rows = capture_row_iterates(monkeypatch)
        a = np.random.default_rng(5).standard_normal((40, 30))
        s = float(np.linalg.norm(a, 2))
        b = np.random.default_rng(6).standard_normal(40)
        pe = 1e-2
        op = dense_op(a, s)
        r = bk.minberr_ne_perturbed(op, b, pe, eps=1e-3, k_max=20, seed=3, trace_every=4)
        ((args, e),), (mon,) = built, monitors
        assert args == (40, 30, pe * s, 3)
        rng = np.random.default_rng([3, 1])
        e_rows, e_cols = rng.permutation(40)[:30], rng.permutation(30)
        g = rng.standard_normal(30)
        want = np.zeros((40, 30))
        want[e_rows, e_cols] = g / np.max(np.abs(g)) * (pe * s)
        assert np.array_equal(e.to_dense(), want)
        assert e.opnorm() == pe * s
        assert_allclose(np.linalg.norm(want, 2), pe * s, rtol=1e-15)
        assert mon.s == (1 - pe) * s
        assert mon.s <= np.linalg.norm(a + want, 2)
        assert r.opnorm_used == r.trace.opnorm == s
        assert [k for k, _ in rows] == r.trace.iterations and len(rows) >= 2
        for (_, x), rn, xn, berr in zip(rows, r.trace.residual_norm, r.trace.x_norm,
                                        r.trace.berr):
            assert rn == bk.operators.norm2(op.apply(x) - b)
            assert berr == rn / (s * xn)

    def test_matvecs_on_a_match_the_unperturbed_solve(self):
        """The set-up costs no matvec on A: the perturbed solve uses exactly
        the solve's 1 + 2k plus one measuring matvec per trace row."""
        p = bk.ill_conditioned(80, 1e8)
        for name, solver in (("plain", bk.minberr_ne_solve), ("perturbed", bk.minberr_ne_perturbed)):
            op = bk.DiagonalOperator(p.op.d)  # pinned to 1, so nothing estimates it
            extra = (1e-2,) if name == "perturbed" else ()
            r = solver(op, p.b, *extra, eps=1e-6, k_max=60, trace_every=1)
            # the perturbed run certifies eps against A + E at k = 46
            assert r.iterations == (60 if name == "plain" else 46) == len(r.trace)
            assert r.matvecs == op.products == 1 + 2 * r.iterations + len(r.trace)

    def test_scales_to_a_dimension_a_dense_perturbation_cannot_reach(self):
        """At n = 200 000 a dense E would take 298 GiB; the sparse one holds
        n entries, and the run certifies against A as at small n."""
        p = bk.ill_conditioned(200000, 1e8)
        b = np.ones(200000)
        r = bk.minberr_ne_perturbed(p.op, b, 1e-3, eps=1e-2, k_max=20)
        assert (r.termination, r.iterations) == (bk.Termination.MAX_ITERATIONS, 20)
        assert measured_berr(p.op, b, r.x, 1.0) <= r.certified_berr_bound


@st.composite
def _perturbed_problem(draw):
    """(A, ||A||, b, perturb_eps, eps, k_max, seed): a tall, wide or square A
    with singular values log-spaced from 1 down to 10^-log_kappa."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    small = draw(st.integers(1, 59 if shape != "square" else 60))
    big = small if shape == "square" else draw(st.integers(small + 1, 60))
    m, n = (big, small) if shape == "tall" else (small, big)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, small)))
    v, _ = np.linalg.qr(rng.standard_normal((n, small)))
    d = 10.0 ** np.linspace(0.0, -draw(st.floats(0.0, 12.0)), small)
    a = (u * d) @ v.T
    log_pe = draw(st.floats(-6.0, -2.0))
    # eps above perturb_eps: a spec that cannot certify eps warns
    eps = 10.0 ** (log_pe + draw(st.floats(0.3, 2.0)))
    k_max = draw(st.integers(1, 60))
    return a, float(np.linalg.norm(a, 2)), rng.standard_normal(m), 10.0**log_pe, eps, k_max, seed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_perturbed_problem())
def test_perturbation_is_a_weighted_partial_permutation_of_exact_norm(problem):
    """E has at most one nonzero per row and per column, its largest entry is
    perturb_eps ||A|| to the bit and so, up to rounding, is its dense 2-norm;
    one seed gives the same bytes every time. Under full reorthogonalization
    the certificate is the dense oracle's subspace minimum over A + E at the
    solver norm (1 - perturb_eps) ||A||, and whatever the termination the
    backward error measured against A is within the certified bound, up to
    rounding."""
    a, s, b, pe, eps, k_max, seed = problem
    built = []

    def spy_perturbation(*args):
        built.append(_perturbation(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minberr, "_perturbation", spy_perturbation)
        r = bk.minberr_ne_perturbed(dense_op(a, s), b, pe, eps=eps, k_max=k_max,
                                    reorth="full", seed=seed, trace_every=1)
    (e,) = built
    dense = e.to_dense()
    assert np.count_nonzero(dense) == min(a.shape)
    assert np.all(np.count_nonzero(dense, axis=0) <= 1)
    assert np.all(np.count_nonzero(dense, axis=1) <= 1)
    assert np.max(np.abs(dense)) == e.opnorm() == pe * s
    assert abs(np.linalg.norm(dense, 2) - pe * s) <= 1e-15 * pe * s
    again = _perturbation(*a.shape, pe * s, seed)
    for name in ("data", "indices", "indptr"):
        assert getattr(again, name).tobytes() == getattr(e, name).tobytes()

    # the bound is attained when all of E acts on x (a 1 x 1 A solved
    # exactly on A + E); then only the measured residual's rounding, of
    # order u in berr units, lies between them
    measured = measured_berr(dense_op(a, s), b, r.x, s)
    assert measured <= r.certified_berr_bound + 4.0 * np.finfo(float).eps
    if r.termination in (bk.Termination.BREAKDOWN, bk.Termination.EXACT_SOLUTION):
        return
    solver_s = (1.0 - pe) * s
    state = BidiagState(bk.SumOperator(dense_op(a, s), e), b, opnorm=solver_s, reorth="full")
    for _ in range(r.iterations):
        state.step()
    try:
        ref = dense_minberr_oracle(a + dense, b, state.basis_q(r.iterations), opnorm=solver_s)
    except ExactSolutionInSubspaceError:
        return
    sigma = math.sqrt(ref.lambda_min)
    cert = r.sigma_min_certificate
    assert sigma * (1.0 - 1e-9) - 1e-14 <= cert <= math.sqrt(1.5) * sigma * (1.0 + 1e-9) + 1e-14


class TestDenseNorm:
    """Norms checked against a dense SVD: the pinned norm of the perturbation
    E, on the shapes and seeds that once checked an estimate of a dense
    Gaussian's norm, and the norm estimate on a rank-one matrix."""

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 4), (4, 1), (2, 2), (5, 5), (50, 50), (200, 300), (300, 200),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_svd(self, shape, seed):
        e = _perturbation(*shape, 0.3, seed)
        assert e.nnz == min(shape)
        assert e.opnorm() == 0.3
        assert_allclose(np.linalg.norm(e.to_dense(), 2), 0.3, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_svd_at_n_1000(self, seed):
        e = _perturbation(1000, 1000, 7.5e-3, seed)
        assert e.opnorm() == 7.5e-3
        assert_allclose(np.linalg.norm(e.to_dense(), 2), 7.5e-3, rtol=1e-15)

    def test_rank_one_is_exact_from_step_one(self):
        # the first step's value is ||A^T u_1||, which is ||A|| for rank one;
        # later steps add only rounding, so the growth rule stops by step 4
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(30), rng.standard_normal(20)
        est = bk.estimate_spectral_norm(bk.DenseOperator(np.outer(x, y)))
        assert est.iterations_used <= 4
        assert_allclose(est.value, np.linalg.norm(x) * np.linalg.norm(y), rtol=1e-15)


class TestNoFiniteMinimizer:
    def test_vanishing_leading_coefficient(self):
        """A band whose smallest singular vector has no component on the first
        coordinate admits no finite minimizer; the recovery must refuse."""

        class StubState:
            k = 2
            alphas = np.array([0.9])
            opnorm = 1.0
            norm_b = 1.0

            def btilde(self, k=None):
                return BandMatrix([0.9, 1e-16], [0.0])

        with pytest.raises(bk.NoFiniteMinimizerError):
            _recover_ne(StubState(), 2, 0.1, 0)


class TestDenseOracle:
    def test_exact_solution_carries_minimizer(self):
        with pytest.raises(ExactSolutionInSubspaceError) as info:
            dense_minberr_oracle(np.eye(3), np.array([1.0, 0.0, 0.0]), np.eye(3)[:, :1])
        assert_allclose(info.value.x, [1.0, 0.0, 0.0])

    def test_rank_deficiency_without_solution(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 1.0])
        basis = np.array([[0.0], [1.0]])
        with pytest.raises(ExactSolutionInSubspaceError) as info:
            dense_minberr_oracle(a, b, basis)
        assert info.value.x is None

    def test_minimizer_coefficients_reproduce_lambda_min(self):
        a = random_psd(9, seed=32, spread=2.0)
        b = np.random.default_rng(33).standard_normal(9)
        s = float(np.linalg.norm(a, 2))
        q, _ = np.linalg.qr(np.random.default_rng(34).standard_normal((9, 4)))
        ref = dense_minberr_oracle(a, b, q, opnorm=s)
        x = q @ ref.y
        assert_allclose(
            np.linalg.norm(a @ x - b) / (s * np.linalg.norm(x)),
            np.sqrt(ref.lambda_min),
            rtol=1e-10,
        )

    def test_basis_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            dense_minberr_oracle(np.eye(2), np.ones(2), np.ones(2))
