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
from berrkit.minberr import _G_NORM_GROW_TOL, _recover_ne
from berrkit.operators import _golub_kahan_norm, norm2

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

        def spy(band, delta, seed, max_steps=None):
            first = max_steps == minberr.inverse_iteration_steps(band.k, delta)
            calls.append((band.k, seed, first))
            return inverse_iteration(band, delta, seed, max_steps=0 if first else max_steps)

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


class TestMeasuredClaim:
    """On A itself a certificate below eps ends the run only when the row
    measured at that step is below eps too."""

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 60),
        spread=st.floats(0.0, 14.0),
        log_eps=st.floats(math.log10(2e-16), -2.0),
        normal_equations=st.booleans(),
        reorth=st.sampled_from(["plain", "full"]),
    )
    # the certificate alone claimed this run
    @example(seed=0, n=47, spread=1.0, log_eps=-15.6875, normal_equations=False,
             reorth="plain")
    def test_every_claim_is_measured_below_eps(self, seed, n, spread, log_eps,
                                               normal_equations, reorth):
        eps = 10.0 ** log_eps
        op, b = _disguised_spectrum(seed, n, spread, normal_equations)
        solver = bk.minberr_ne_solve if normal_equations else bk.minberr_solve
        r = solver(op, b, eps=eps, reorth=reorth, seed=seed)
        if r.termination == bk.Termination.TOLERANCE_REACHED:
            assert bk.backward_error(op, b, r.x).value < eps


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
        def refuse(*args, **kwargs):
            raise AssertionError("the dense perturbation was set up")

        monkeypatch.setattr(minberr, "GaussianPerturbedOperator", refuse)
        monkeypatch.setattr(minberr, "_golub_kahan_norm", refuse)
        p = bk.ill_conditioned(10, 10.0)
        with pytest.raises(ValueError):
            bk.minberr_ne_perturbed(p.op, p.b, 1e-2, **bad)

    def test_perturbation_norm_and_solver_norm(self, monkeypatch):
        """||E|| <= perturb_eps ||A|| (the premise of the composition bound),
        G is the seeded draw, and the solver runs on the proven lower bound
        (1 - perturb_eps) ||A|| <= ||A + E|| without estimating a norm of A
        or A + E. The run's one monitor measures every row against A at
        ||A||."""
        built = []
        make_op = minberr.GaussianPerturbedOperator

        def spy_op(*args):
            built.append(make_op(*args))
            return built[-1]

        def no_norm_estimate(op, *args, **kwargs):
            raise AssertionError(f"norm estimate of {type(op).__name__}")

        monkeypatch.setattr(minberr, "GaussianPerturbedOperator", spy_op)
        monkeypatch.setattr(bk.operators, "estimate_spectral_norm", no_norm_estimate)
        monitors = capture_monitors(monkeypatch, minberr)
        rows = capture_row_iterates(monkeypatch)
        a = np.random.default_rng(5).standard_normal((40, 30))
        s = float(np.linalg.norm(a, 2))
        b = np.random.default_rng(6).standard_normal(40)
        pe = 1e-2
        op = dense_op(a, s)
        r = bk.minberr_ne_perturbed(op, b, pe, eps=1e-3, k_max=20, seed=3, trace_every=4)
        (perturbed,), (mon,) = built, monitors
        g = np.random.default_rng([3, 1]).standard_normal((40, 30))
        assert np.array_equal(perturbed.g, g)
        assert np.linalg.norm(perturbed.coeff * g, 2) <= pe * s * (1 + 1e-13)
        assert mon.s == (1 - pe) * s
        assert mon.s <= np.linalg.norm(perturbed.to_dense(), 2)
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
        counts = {}
        for name, solver in (("plain", bk.minberr_ne_solve), ("perturbed", bk.minberr_ne_perturbed)):
            op = bk.CountingOperator(p.op).set_opnorm(1.0)
            extra = (1e-2,) if name == "perturbed" else ()
            r = solver(op, p.b, *extra, eps=1e-6, k_max=60, trace_every=1)
            assert r.iterations == 60
            counts[name] = op.matvecs
        assert counts["perturbed"] == counts["plain"] == 1 + 2 * 60 + 60


def _g_norm(g):
    """||G||_2 as minberr_ne_perturbed estimates it, and the step count."""
    return _golub_kahan_norm(bk.DenseOperator(g, symmetric=False), _G_NORM_GROW_TOL)


class TestDenseNorm:
    """The Golub-Kahan ||G||_2 that scales the Gaussian perturbation: the
    shared norm estimator run until three steps add at most 4u."""

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 4), (4, 1), (2, 2), (5, 5), (50, 50), (200, 300), (300, 200),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_svd(self, shape, seed):
        g = np.random.default_rng([seed, 1]).standard_normal(shape)
        norm, steps = _g_norm(g)
        assert 1 <= steps <= min(shape)
        assert_allclose(norm, np.linalg.norm(g, 2), rtol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_svd_at_n_1000(self, seed):
        g = np.random.default_rng([seed, 1]).standard_normal((1000, 1000))
        norm, steps = _g_norm(g)
        assert steps < 100
        assert_allclose(norm, np.linalg.norm(g, 2), rtol=1e-13)

    def test_rank_one_is_exact_from_step_one(self):
        # the first step's value is ||A^T u_1||, which is ||G|| for rank one;
        # later steps add only rounding, so the growth rule stops at step 4
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(30), rng.standard_normal(20)
        norm, steps = _g_norm(np.outer(x, y))
        assert steps <= 4
        assert_allclose(norm, np.linalg.norm(x) * np.linalg.norm(y), rtol=1e-15)


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
