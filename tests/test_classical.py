"""Classical iterative solvers and the regularized wrapper."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import berrkit as bk
from berrkit import classical
from berrkit.classical import RECOMPUTE_EVERY
from berrkit.factorize import BREAKDOWN_TOL_FACTOR, BidiagState
from berrkit.operators import norm2

from _helpers import (
    capture_monitors,
    capture_row_iterates,
    dense_op,
    forward_to_backward_bound,
    golub_kahan_problems as _lsqr_problems,
    measured_berr,
    random_psd,
)


def tight(max_iterations, **kw):
    kw.setdefault("berr_tolerance", 1e-15)
    return bk.SolverConfig(max_iterations=max_iterations, **kw)


class TestSolverConfig:
    def test_defaults_are_valid(self):
        cfg = bk.SolverConfig()
        assert cfg.step_constant >= 1.0
        assert 0.0 < cfg.berr_tolerance < 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"step_constant": 0.5},
            {"max_iterations": 0},
            {"berr_tolerance": 0.0},
            {"berr_tolerance": 1.0},
            {"trace_every": 0},
            {"seed": -1},
            {"step_constant": math.inf},
            {"step_constant": math.nan},
            {"max_iterations": math.nan},
            {"trace_every": math.nan},
            {"seed": 1.5},
            {"seed": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            bk.SolverConfig(**kw)


class TestTrace:
    def test_rows_and_final_berr(self):
        trace = bk.SolveTrace(opnorm=2.0)
        trace.record(1, 1.0, 0.5, 0)
        trace.record(3, 0.5, 1.0, 0)
        rows = trace.rows()
        assert len(rows) == 2
        assert rows[0][0] == 1
        assert rows[0][1] == 1.0
        assert rows[1][1] == 0.25
        assert trace.final_berr == 0.25

    def test_iterations_must_increase(self):
        trace = bk.SolveTrace(opnorm=1.0)
        trace.record(2, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            trace.record(2, 1.0, 1.0, 0)

    def test_empty_final_berr_is_nan(self):
        assert np.isnan(bk.SolveTrace(opnorm=1.0).final_berr)


class TestRichardson:
    def test_berr_envelope(self):
        """berr after k steps is at most C/k on a PSD system."""
        p = bk.ill_conditioned(200, 1e4)
        r = bk.richardson(p.op, p.b, tight(500))
        ks = np.array(r.trace.iterations, dtype=np.float64)
        berr = np.array(r.trace.berr)
        assert np.all(berr <= 1.0 / ks + 1e-12)

    def test_iterate_norms_grow_monotonically(self):
        p = bk.ill_conditioned(100, 1e3)
        r = bk.richardson(p.op, p.b, tight(200))
        xn = np.array(r.trace.x_norm)
        assert np.all(np.diff(xn) >= -1e-12 * xn[:-1])

    def test_exact_solution_detected(self):
        op = bk.DiagonalOperator(np.ones(4))
        r = bk.richardson(op, np.array([1.0, 2.0, 3.0, 4.0]), tight(10))
        assert r.termination == bk.Termination.EXACT_SOLUTION
        assert_allclose(r.x, [1.0, 2.0, 3.0, 4.0])

    def test_requires_symmetric(self):
        p = bk.cyclic_shift(5)
        with pytest.raises(bk.RequiresSymmetricError):
            bk.richardson(p.op, p.b)

    def test_tolerance_termination(self):
        p = bk.ill_conditioned(50, 100.0)
        r = bk.richardson(p.op, p.b, bk.SolverConfig(max_iterations=10_000, berr_tolerance=1e-3))
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert r.trace.final_berr < 1e-3
        assert measured_berr(p.op, p.b, r.x, 1.0) < 1e-3 * (1 + 1e-8)

    def test_larger_step_constant_still_bounded(self):
        p = bk.ill_conditioned(80, 1e3)
        r = bk.richardson(p.op, p.b, tight(300, step_constant=2.0))
        ks = np.array(r.trace.iterations, dtype=np.float64)
        assert np.all(np.array(r.trace.berr) <= 2.0 / ks + 1e-12)


# c of the property below, fixed before its first run: evaluating berr costs a
# few u at any k, and each step's rounding adds at most about u to k berr
RICHARDSON_ROUNDING_C = 4.0


@st.composite
def _psd_spectra(draw):
    """(A, b): A = Q diag(d) Q^T of order 2 to 60 with d log-uniform in
    [1/kappa, 1], kappa up to 1e14, d[0] = 1 and the last z entries exactly
    0; b random, in the range of A, or a combination of the null columns of Q
    (an approximate null vector of the rounded A)."""
    kind = draw(st.sampled_from(["random", "range", "null"]))
    n = draw(st.integers(2, 60))
    zeros = draw(st.integers(1 if kind == "null" else 0, n - 1))
    log_kappa = draw(st.floats(0.0, 14.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 10.0 ** -rng.uniform(0.0, log_kappa, n)
    d[0] = 1.0
    d[n - zeros:] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * d) @ q.T
    if kind == "random":
        b = rng.standard_normal(n)
    elif kind == "range":
        b = q[:, :n - zeros] @ rng.standard_normal(n - zeros)
    else:
        b = q[:, n - zeros:] @ rng.standard_normal(zeros)
    return dense_op(0.5 * (a + a.T)), b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=_psd_spectra())
def test_richardson_berr_is_at_most_one_over_k(problem):
    """The paper's universal rate: with eta = 1/||A||_2 every Richardson
    iterate on PSD A has berr(x_k) <= 1/k, whatever the spectrum and b, up to
    rounding that grows linearly in k. Each row's x is the iterate the
    monitor was handed."""
    op, b = problem
    u = np.finfo(float).eps / 2
    with pytest.MonkeyPatch.context() as mp:
        rows = capture_row_iterates(mp)
        r = bk.richardson(op, b, tight(200, berr_tolerance=1e-300))
    assert [k for k, _ in rows] == r.trace.iterations
    for k, x in rows:
        assert bk.backward_error(op, b, x).value <= (1.0 + RICHARDSON_ROUNDING_C * k * u) / k


class TestRichardsonNe:
    def test_runs_on_nonsymmetric(self):
        p = bk.cyclic_shift(7)
        r = bk.richardson_ne(p.op, p.b, tight(40))
        assert r.trace.final_berr <= 1.0

    def test_scaled_residual_envelope(self):
        """||r_k|| / (||A|| ||x*||) <= sqrt(C / 2k) on a small diagonal system."""
        op = bk.DiagonalOperator(np.array([1.0, 0.05]))
        b = np.array([0.3, 1.0])
        x_star = np.array([0.3, 20.0])
        r = bk.richardson_ne(op, b, tight(400))
        ks = np.array(r.trace.iterations, dtype=np.float64)
        rn = np.array(r.trace.residual_norm)
        assert np.all(rn / np.linalg.norm(x_star) <= np.sqrt(1.0 / (2.0 * ks)) + 1e-10)

    def test_converges_on_general_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        op = dense_op(a)
        b = rng.standard_normal(20)
        r = bk.richardson_ne(op, b, bk.SolverConfig(max_iterations=50_000, berr_tolerance=1e-6))
        assert r.termination == bk.Termination.TOLERANCE_REACHED
        assert measured_berr(op, b, r.x, op.opnorm()) <= 1e-6 * (1 + 1e-6)


class TestCg:
    def test_textbook_a_norm_convergence(self):
        a = random_psd(60, seed=1, spread=3.0)
        op = dense_op(a)
        b = np.random.default_rng(2).standard_normal(60)
        x_star = np.linalg.solve(a, b)
        kappa = np.linalg.cond(a)
        rho = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)

        def a_norm(v):
            return np.sqrt(v @ (a @ v))

        prev = None
        for k, x in self._iterates(op, b, 60):
            err = a_norm(x - x_star) / a_norm(x_star)
            assert err <= 2.0 * rho**k * (1 + 1e-8) + 1e-13
            if prev is not None:
                assert err <= prev * (1 + 1e-10)
            prev = err

    @staticmethod
    def _iterates(op, b, kmax):
        """Yield (k, x_k) by running cg to each depth with a huge tolerance off."""
        for k in range(1, kmax + 1, 7):
            r = bk.cg(op, b, tight(k))
            yield r.iterations, r.x

    def test_berr_bounded_by_forward_error_lemma(self):
        a = random_psd(40, seed=3, spread=2.0)
        op = dense_op(a)
        b = np.random.default_rng(4).standard_normal(40)
        x_star = np.linalg.solve(a, b)

        def a_norm(v):
            return np.sqrt(v @ (a @ v))

        for k in (1, 3, 7, 15, 25):
            r = bk.cg(op, b, tight(k))
            eps = a_norm(r.x - x_star) / a_norm(x_star)
            if eps >= 1.0:
                continue
            bound = forward_to_backward_bound(eps)
            assert measured_berr(op, b, r.x, op.opnorm()) <= bound * (1 + 1e-8) + 1e-14

    def test_exact_after_n_iterations(self):
        a = random_psd(12, seed=5, spread=1.0)
        op = dense_op(a)
        b = np.random.default_rng(6).standard_normal(12)
        r = bk.cg(op, b, bk.SolverConfig(max_iterations=40, berr_tolerance=1e-14))
        assert r.termination in (bk.Termination.TOLERANCE_REACHED, bk.Termination.EXACT_SOLUTION)
        assert_allclose(r.x, np.linalg.solve(a, b), rtol=1e-8)

    def test_requires_symmetric(self):
        p = bk.cyclic_shift(5)
        with pytest.raises(bk.RequiresSymmetricError):
            bk.cg(p.op, p.b)


class TestMinres:
    def test_residual_norms_never_increase(self):
        a = random_psd(50, seed=7, spread=4.0)
        op = dense_op(a)
        b = np.random.default_rng(8).standard_normal(50)
        r = bk.minres(op, b, tight(50))
        rn = np.array(r.trace.residual_norm)
        assert np.all(np.diff(rn) <= 1e-10 * rn[:-1] + 1e-14)

    def test_matches_scipy_iterates(self):
        """Both implementations minimize the residual over the same Krylov
        spaces, so scipy's k-step residual must land between our k+1 and k-1
        step residuals regardless of how each library counts iterations."""
        scipy_sparse = pytest.importorskip("scipy.sparse.linalg")
        a = random_psd(80, seed=9, spread=5.0)
        op = dense_op(a)
        b = np.random.default_rng(10).standard_normal(80)
        k = 30
        ours = bk.minres(op, b, tight(k + 2))
        try:
            theirs, _ = scipy_sparse.minres(a, b, rtol=1e-300, maxiter=k)
        except TypeError:
            theirs, _ = scipy_sparse.minres(a, b, tol=1e-300, maxiter=k)
        rn_scipy = np.linalg.norm(a @ theirs - b)
        rn = dict(zip(ours.trace.iterations, ours.trace.residual_norm))
        assert rn[k + 1] * (1 - 1e-8) <= rn_scipy <= rn[k - 1] * (1 + 1e-8)

    def test_trace_matches_recomputed_berr(self):
        a = random_psd(30, seed=11)
        op = dense_op(a)
        b = np.random.default_rng(12).standard_normal(30)
        r = bk.minres(op, b, tight(25))
        assert_allclose(r.trace.final_berr, measured_berr(op, b, r.x, op.opnorm()), rtol=1e-8)


class TestLsqr:
    def test_square_system_reference(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((10, 10)) + 4.0 * np.eye(10)
        op = dense_op(a)
        b = rng.standard_normal(10)
        r = bk.lsqr(op, b, bk.SolverConfig(max_iterations=300, berr_tolerance=1e-12))
        assert_allclose(r.x, np.linalg.solve(a, b), rtol=1e-7, atol=1e-9)

    def test_least_squares_problem(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((15, 6))
        op = dense_op(a)
        b = rng.standard_normal(15)
        r = bk.lsqr(op, b, tight(200))
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert_allclose(r.x, x_ref, rtol=1e-8, atol=1e-10)
        assert r.termination == bk.Termination.BREAKDOWN

    def test_one_step_on_orthogonal_operator(self):
        p = bk.cyclic_shift(8)
        r = bk.lsqr(p.op, p.b, tight(10))
        assert r.iterations == 1
        assert r.termination == bk.Termination.EXACT_SOLUTION
        assert_allclose(p.op.apply(r.x), p.b, atol=1e-14)


# lsqr as it ran on BidiagState's former two-vector storage mode, frozen here
# as the reference the live two-vector recurrence must match bit for bit. The
# frozen state drops only the scaled Btilde column that step() returned and
# lsqr never read. Both run under the live _Monitor.


class _FrozenTwoVectorBidiag:
    def __init__(self, op, b, opnorm):
        b = np.asarray(b, dtype=np.float64)
        self.op = op
        self.opnorm = float(opnorm)
        self.breakdown_tol = BREAKDOWN_TOL_FACTOR * self.opnorm
        self.norm_b = norm2(b)
        u = b / self.norm_b
        z = op.apply_adjoint(u)
        alpha1 = norm2(z)
        if alpha1 <= self.breakdown_tol:
            raise bk.OrthogonalRhsError("A^T b = 0: the left Krylov space is empty")
        self._last_u = u
        self._last_q = z / alpha1
        self.alphas = [alpha1]
        self.betas = []
        self.k = 0
        self.breakdown = False

    def step(self):
        k = self.k + 1
        u_k, q_k = self._last_u, self._last_q
        w = self.op.apply(q_k) - self.alphas[k - 1] * u_k
        beta_next = norm2(w)
        self.betas.append(beta_next)
        self.k = k
        if beta_next <= self.breakdown_tol:
            self.breakdown = True
            return
        u_next = w / beta_next
        z = self.op.apply_adjoint(u_next) - beta_next * q_k
        alpha_next = norm2(z)
        self.alphas.append(alpha_next)
        self.breakdown = alpha_next <= self.breakdown_tol
        self._last_u = u_next
        if not self.breakdown:
            self._last_q = z / alpha_next


def _frozen_lsqr(op, b, config=None):
    mon = classical._Monitor(op, b, config)
    b = mon.b
    state = _FrozenTwoVectorBidiag(op, b, mon.s)
    x = np.zeros(op.cols)
    w = state._last_q.copy()
    phibar = state.norm_b
    rhobar = state.alphas[0]
    for k in range(1, mon.cfg.max_iterations + 1):
        state.step()
        beta_next = state.betas[k - 1]
        alpha_next = state.alphas[k] if len(state.alphas) > k else 0.0
        rho = max(math.hypot(rhobar, beta_next), np.finfo(float).tiny)
        c = rhobar / rho
        sn = beta_next / rho
        theta = sn * alpha_next
        rhobar = -c * alpha_next
        phi = c * phibar
        phibar = sn * phibar
        x = x + (phi / rho) * w
        if not state.breakdown:
            w = state._last_q - (theta / rho) * w
        stop = mon.check(k, x, phibar, breakdown=state.breakdown)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def _outcome(solver, op, b, config):
    """Every deterministic output of a run (all but wall_nanos), as bytes,
    or the type and message of the error it raised."""
    try:
        r = solver(op, b, config)
    except bk.BerrkitError as exc:
        return type(exc), str(exc)
    t = r.trace
    columns = (t.iterations, t.berr, t.residual_norm, t.x_norm)
    return (r.x.tobytes(), r.termination, r.iterations, r.opnorm_used,
            tuple(np.array(c).tobytes() for c in columns))


def _assert_lsqr_matches_frozen(op, b, config):
    live = _outcome(bk.lsqr, op, b, config)
    assert live == _outcome(_frozen_lsqr, op, b, config)
    return live


class TestLsqrMatchesFrozenPath:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_lsqr_problems(), st.sampled_from([1, 7]), st.integers(1, 80),
           st.sampled_from([1e-15, 1e-8, 1e-3]))
    def test_bitwise(self, problem, trace_every, max_iterations, tol):
        op, b = problem
        cfg = bk.SolverConfig(max_iterations=max_iterations, berr_tolerance=tol,
                              trace_every=trace_every)
        _assert_lsqr_matches_frozen(op, b, cfg)

    # 6 x 5 of rank 3: the Krylov spaces close after three steps, on beta
    # when b lies in the range of A and on alpha when it does not
    RANK_DEFICIENT = np.diag([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])[:, :5]

    @staticmethod
    def _breaks_down_on(op, b):
        """Which Golub-Kahan coefficient vanishes first: "beta" or "alpha"."""
        state = BidiagState(op, b)
        while not state.breakdown:
            state.step()
        return "beta" if len(state.alphas) == state.k else "alpha"

    @pytest.mark.parametrize("trace_every", [1, 7])
    @pytest.mark.parametrize("b, kind", [
        ([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], "beta"),
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], "alpha"),
    ])
    def test_breakdown(self, b, kind, trace_every):
        op = bk.DenseOperator(self.RANK_DEFICIENT)
        b = np.array(b)
        assert self._breaks_down_on(op, b) == kind
        # a tolerance no residual meets: only the breakdown can end the run
        cfg = tight(50, berr_tolerance=1e-300, trace_every=trace_every)
        out = _assert_lsqr_matches_frozen(op, b, cfg)
        assert out[1] in (bk.Termination.BREAKDOWN, bk.Termination.EXACT_SOLUTION)
        assert out[2] == 3

    @pytest.mark.parametrize("trace_every", [1, 8])
    def test_run_past_the_residual_refresh(self, trace_every):
        # both schedules record the row at RECOMPUTE_EVERY, where lsqr keeps
        # its recursive estimate: only cg and the Richardson loops refresh
        p = bk.disguise(bk.ill_conditioned(200, 1e6), two_sided=True, seed=4)
        cfg = tight(RECOMPUTE_EVERY + 100, trace_every=trace_every)
        out = _assert_lsqr_matches_frozen(p.op, p.b, cfg)
        assert out[1] == bk.Termination.MAX_ITERATIONS
        assert out[2] == RECOMPUTE_EVERY + 100
        assert RECOMPUTE_EVERY in np.frombuffer(out[4][0], dtype=int)

    def test_orthogonal_rhs_raises(self):
        op = dense_op(np.array([[0.0, 0.0], [0.0, 1.0]]), 1.0)
        b = np.array([1.0, 0.0])
        out = _assert_lsqr_matches_frozen(op, b, tight(10))
        assert out[0] is bk.OrthogonalRhsError


class TestRegularized:
    def test_certified_bound_holds_for_both_inners(self):
        p = bk.ill_conditioned(200, 1e8)
        for inner in ("cg", "minres"):
            for k in (9, 40):
                r = bk.regularized_solve(p.op, p.b, k, inner=inner)
                bound = 5.0 * (np.log(k) / k) ** 2
                assert r.certified_berr_bound == pytest.approx(bound)
                assert measured_berr(p.op, p.b, r.x, 1.0) <= bound
                assert r.trace.final_berr <= bound

    def test_trace_is_measured_against_original_operator(self, monkeypatch):
        p = bk.ill_conditioned(100, 1e6)
        rows = capture_row_iterates(monkeypatch)
        for inner in ("cg", "minres"):
            rows.clear()
            r = bk.regularized_solve(p.op, p.b, 20, inner=inner, trace_every=3)
            assert_allclose(
                r.trace.final_berr, measured_berr(p.op, p.b, r.x, 1.0), rtol=1e-10
            )
            assert r.opnorm_used == r.trace.opnorm == 1.0
            assert [k for k, _ in rows] == r.trace.iterations == [3, 6, 9, 12, 15, 18, 20]
            for (_, x), berr in zip(rows, r.trace.berr):
                assert_allclose(berr, measured_berr(p.op, p.b, x, 1.0), rtol=1e-10)

    def test_one_monitor_on_a_with_the_shifted_norm(self, monkeypatch):
        """The solver norm is exactly ||A|| + shift, handed to the run's one
        monitor on A: opnorm() is never called on the shifted operator, and
        every row is measured against A at ||A||."""

        def no_opnorm(self):
            raise AssertionError("opnorm() called on the shifted operator")

        monkeypatch.setattr(bk.SumOperator, "opnorm", no_opnorm)
        monitors = capture_monitors(monkeypatch, classical)
        rows = capture_row_iterates(monkeypatch)
        a = 3.0 * random_psd(30, seed=41)
        s = float(np.linalg.norm(a, 2))
        op = dense_op(a, s)
        b = np.random.default_rng(42).standard_normal(30)
        k = 20
        for inner in ("cg", "minres"):
            monitors.clear()
            rows.clear()
            r = bk.regularized_solve(op, b, k, inner=inner, trace_every=3)
            (mon,) = monitors
            assert mon.s == s + 2.0 * (math.log(k) / k) ** 2 * s
            assert r.opnorm_used == r.trace.opnorm == s
            assert [j for j, _ in rows] == r.trace.iterations == [3, 6, 9, 12, 15, 18, 20]
            for (_, x), rn, xn, berr in zip(rows, r.trace.residual_norm, r.trace.x_norm,
                                            r.trace.berr):
                assert rn == norm2(op.apply(x) - b)
                assert berr == rn / (s * xn)

    def test_exact_shifted_residual_ends_breakdown(self):
        """On the identity the shifted system is solved exactly at k = 1, but
        the row on A is not exact: the inner Krylov space is exhausted, so the
        run ends Breakdown with the berr measured on A."""
        for inner in ("cg", "minres"):
            r = bk.regularized_solve(bk.DiagonalOperator(np.ones(4)), [1.0, 2.0, 3.0, 4.0], 20,
                                     inner=inner)
            assert r.termination == bk.Termination.BREAKDOWN
            assert r.iterations == 1
            assert r.trace.final_berr == 0.044872059274064825

    def test_validation(self):
        p = bk.ill_conditioned(20, 10.0)
        with pytest.raises(ValueError):
            bk.regularized_solve(p.op, p.b, 8)
        with pytest.raises(ValueError):
            bk.regularized_solve(p.op, p.b, 20, inner="gmres")
        with pytest.raises(bk.RequiresSymmetricError):
            bk.regularized_solve(bk.cyclic_shift(9).op, bk.cyclic_shift(9).b, 9)
        for k in (9.5, math.nan, 20.0):
            with pytest.raises(ValueError, match="^k must be an integer"):
                bk.regularized_solve(p.op, p.b, k)


def _config(tol, k_max, every):
    return bk.SolverConfig(max_iterations=k_max, berr_tolerance=tol, trace_every=every)


# (symmetric A, run(op, b, tol, k_max, trace_every)) for every solver
SCHEDULED = {
    "richardson": (True, lambda op, b, tol, k, t: bk.richardson(op, b, _config(tol, k, t))),
    "richardson-ne": (False,
                      lambda op, b, tol, k, t: bk.richardson_ne(op, b, _config(tol, k, t))),
    "cg": (True, lambda op, b, tol, k, t: bk.cg(op, b, _config(tol, k, t))),
    "minres": (True, lambda op, b, tol, k, t: bk.minres(op, b, _config(tol, k, t))),
    "lsqr": (False, lambda op, b, tol, k, t: bk.lsqr(op, b, _config(tol, k, t))),
    "regularized-cg": (True, lambda op, b, tol, k, t: bk.regularized_solve(
        op, b, k, inner="cg", trace_every=t)),
    "regularized-minres": (True, lambda op, b, tol, k, t: bk.regularized_solve(
        op, b, k, inner="minres", trace_every=t)),
    "minberr": (True, lambda op, b, tol, k, t: bk.minberr_solve(
        op, b, eps=tol, k_max=min(k, op.cols), trace_every=t)),
    "minberr-ne": (False, lambda op, b, tol, k, t: bk.minberr_ne_solve(
        op, b, eps=tol, k_max=min(k, op.cols), trace_every=t)),
}


class TestTraceConsistency:
    @pytest.mark.parametrize("solver", ["richardson", "cg", "minres"])
    def test_final_trace_row_matches_returned_x(self, solver):
        p = bk.ill_conditioned(150, 1e5)
        r = getattr(bk, solver)(p.op, p.b, tight(120))
        last = r.trace.rows()[-1]
        assert last[0] == r.iterations
        assert_allclose(last[1], measured_berr(p.op, p.b, r.x, 1.0), rtol=1e-8)

    @pytest.mark.parametrize("solver", ["richardson", "richardson-ne", "cg", "minres", "lsqr"])
    @pytest.mark.parametrize("every", [1, 7])
    def test_last_row_of_a_run_without_a_claim_is_measured(self, solver, every):
        # its residual recurrence gave minres a final berr of
        # 2.1338545364040329e-07 here, against a measured 2.1338545365177065e-07
        symmetric, run = SCHEDULED[solver]
        p = bk.ill_conditioned(400, 1e8 if symmetric else 1e6)
        if not symmetric:
            p = bk.disguise(p, two_sided=True, seed=0)
        b = np.ones(400)
        r = run(p.op, b, 1e-15, 1100, every)
        assert (r.termination, r.iterations) == (bk.Termination.MAX_ITERATIONS, 1100)
        assert r.trace.iterations[-1] == 1100
        assert r.trace.final_berr == bk.backward_error(p.op, b, r.x).value

    @pytest.mark.parametrize("every", [1, 4])
    def test_cg_breakdown_row_is_measured(self, every):
        # p^T A p <= 0 at k = 7 ends the run at x_6, whose row (due at
        # trace_every 1, so recorded from the recurrence first) read
        # 0.033251843718704426 from the recurrence, 0.03325184371870442 measured
        rng = np.random.default_rng(2)
        op = bk.DiagonalOperator(np.append(rng.uniform(1.0, 10.0, 29), -rng.uniform(1e-3, 0.1)))
        b = rng.standard_normal(30)
        r = bk.cg(op, b, tight(200, trace_every=every))
        assert (r.termination, r.iterations) == (bk.Termination.BREAKDOWN, 6)
        assert r.trace.iterations[-2:] == ([5, 6] if every == 1 else [4, 6])
        assert r.trace.final_berr == bk.backward_error(op, b, r.x).value

    def test_trace_every_thins_rows(self):
        p = bk.ill_conditioned(60, 1e4)
        r = bk.richardson(p.op, p.b, tight(100, trace_every=10))
        assert np.all(np.array(r.trace.iterations) % 10 == 0)

    def test_row_schedule_does_not_move_the_stop(self):
        # the decision used to run only on recorded rows: at trace_every 7
        # this run stopped at k = 98, the first multiple of 7 past 97
        p = bk.ill_conditioned(400, 1e8)
        one, seven = (bk.richardson(p.op, np.ones(400), bk.SolverConfig(berr_tolerance=1e-2,
                                                                         trace_every=t))
                      for t in (1, 7))
        assert one.iterations == seven.iterations == 97
        assert seven.x.tobytes() == one.x.tobytes()
        assert seven.trace.iterations[-2:] == [91, 97]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        solver=st.sampled_from(sorted(SCHEDULED)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        spread=st.floats(0.0, 8.0),
        log_tol=st.floats(-12.0, -1.0),
        k_max=st.integers(9, 150),
        every=st.integers(2, 9),
    )
    # p^T A p <= 0 at k = 20 ends this run at x_19, which is not a row at 2
    @example(solver="regularized-cg", seed=5, n=2, spread=2.494140625, log_tol=-1.0,
             k_max=20, every=2)
    def test_trace_every_only_picks_rows(self, solver, seed, n, spread, log_tol, k_max,
                                         every):
        """A run at trace_every t stops where the run at 1 stops, with the same
        x, and its rows are that run's rows at every multiple of t and the
        last."""
        symmetric, run = SCHEDULED[solver]
        rng = np.random.default_rng(seed)
        d = 10.0 ** -np.sort(rng.uniform(0.0, spread, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if symmetric:
            a = (q * d) @ q.T
            a = 0.5 * (a + a.T)
        else:
            a = (q * d) @ np.linalg.qr(rng.standard_normal((n, n)))[0].T
        op = dense_op(a)
        b = rng.standard_normal(n)
        tol = 10.0 ** log_tol
        one, some = (run(op, b, tol, k_max, t) for t in (1, every))
        assert (some.termination, some.iterations) == (one.termination, one.iterations)
        assert some.x.tobytes() == one.x.tobytes()
        rows = {row[0]: row[1:4] for row in one.trace.rows()}
        assert all(rows[row[0]] == row[1:4] for row in some.trace.rows())
        assert set(range(every, some.iterations + 1, every)) <= set(some.trace.iterations)
        assert some.trace.iterations[-1] == some.iterations

    def test_wall_nanos_nondecreasing(self):
        p = bk.ill_conditioned(60, 1e4)
        r = bk.cg(p.op, p.b, tight(30))
        w = np.array(r.trace.wall_nanos)
        assert np.all(np.diff(w) >= 0)


def capture_stops(monkeypatch):
    """List that fills with every Termination ``_Monitor.check`` returns."""
    stops = []
    check = classical._Monitor.check

    def spy(self, *args, **kwargs):
        stop = check(self, *args, **kwargs)
        if stop is not None:
            stops.append(stop)
        return stop

    monkeypatch.setattr(classical._Monitor, "check", spy)
    return stops


class TestEveryStopComesFromCheck:
    """Every run's termination is the one Termination ``_Monitor.check``
    returned: no solver names one itself."""

    @pytest.mark.parametrize("solver", sorted(SCHEDULED))
    @pytest.mark.parametrize("tol, k_max", [(1e-2, 300), (1e-15, 30)])
    def test_scheduled_solvers(self, monkeypatch, solver, tol, k_max):
        symmetric, run = SCHEDULED[solver]
        p = bk.ill_conditioned(60, 1e4)
        if not symmetric:
            p = bk.disguise(p, two_sided=True, seed=0)
        stops = capture_stops(monkeypatch)
        r = run(p.op, p.b, tol, k_max, 7)
        assert stops == [r.termination]

    @pytest.mark.parametrize("every", [1, 4])
    def test_cg_indefinite_breakdown(self, monkeypatch, every):
        # test_cg_breakdown_row_is_measured's problem: p^T A p <= 0 at k = 7
        rng = np.random.default_rng(2)
        op = bk.DiagonalOperator(np.append(rng.uniform(1.0, 10.0, 29), -rng.uniform(1e-3, 0.1)))
        b = rng.standard_normal(30)
        stops = capture_stops(monkeypatch)
        r = bk.cg(op, b, tight(200, trace_every=every))
        assert stops == [r.termination] == [bk.Termination.BREAKDOWN]

    def test_cg_breakdown_at_x0(self, monkeypatch):
        # b^T A b < 0 ends the run at x_0 = 0, whose residual is b: no row
        # and no measuring matvec, only the one A p
        op = bk.DiagonalOperator(np.array([1.0, -1.0]))
        stops = capture_stops(monkeypatch)
        r = bk.cg(op, np.array([1.0, 2.0]), tight(10))
        assert stops == [r.termination] == [bk.Termination.BREAKDOWN]
        assert (r.iterations, len(r.trace), r.matvecs, op.products) == (0, 0, 1, 1)
        assert not np.any(r.x)

    @pytest.mark.parametrize("solver", ["lsqr", "minberr-ne"])
    def test_krylov_breakdown(self, monkeypatch, solver):
        p = bk.cyclic_shift(16)
        stops = capture_stops(monkeypatch)
        r = SCHEDULED[solver][1](p.op, p.b, 1e-6, 50, 1)
        assert stops == [r.termination] == [bk.Termination.EXACT_SOLUTION]
