"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package at its stated
tolerance and registers a single PASS/FAIL line, echoed as a checklist after
the run. Two tests are marked strict-xfail on purpose: they assert claims
that measurement shows this implementation family does not exhibit, and the
suite documents that honestly instead of loosening the thresholds. Their
docstrings carry the measured numbers.
"""

import math
import time

import numpy as np
import pytest

import berrkit as bk
from berrkit.factorize import BandMatrix, BidiagState, LanczosState
from berrkit.minberr import _recover_ne, _recover_psd
from berrkit.smallband import CholTestState, DqdsState, inverse_iteration

from _helpers import dense_op, measured_berr, random_general, random_psd
from chebbound import ChebEval
from conftest import acceptance_lines


def report(label, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{label}] {status}  {detail}"
    print(line)
    acceptance_lines.append(line)


def tight(max_iterations, **kw):
    kw.setdefault("berr_tolerance", 1e-15)
    return bk.SolverConfig(max_iterations=max_iterations, **kw)


def svd_min(band):
    return float(np.linalg.svd(band.dense(), compute_uv=False)[-1])


def test_richardson_backward_error_envelope():
    """berr(x_k) <= C/k on the hard diagonal instance, every k up to 10^4."""
    t0 = time.perf_counter()
    p = bk.ill_conditioned(2000, 1e8)
    r = bk.richardson(p.op, p.b, tight(10_000))
    ks = np.asarray(r.trace.iterations, dtype=float)
    berr = np.asarray(r.trace.berr)
    assert len(ks) == 10_000 and ks[0] == 1.0
    excess = float(np.max(berr - (1.0 / ks + 1e-12)))
    elapsed = time.perf_counter() - t0
    ok = excess <= 0.0 and elapsed < 60.0
    report("A01 richardson berr <= C/k", ok,
           f"10000 iterations, max excess {excess:+.2e}, {elapsed:.1f}s")
    assert excess <= 0.0
    assert elapsed < 60.0


def test_subspace_minimum_rate_bound():
    """sigma_min(Ttilde_k) <= 3/(k^2 - 1) on 11 symmetric instances, k to 200."""
    runs = []
    p = bk.ill_conditioned(2000, 1e8)
    runs.append((p.op, p.b))
    for seed in range(10):
        a = random_psd(300, seed=[2, seed])
        b = np.random.default_rng([2, seed, 1]).standard_normal(300)
        runs.append((dense_op(a), b))
    excess = -np.inf
    for op, b in runs:
        state = LanczosState(op, b, reorth="full")
        for k in range(1, 201):
            state.step()
            if k >= 2:
                s = svd_min(state.ttilde(k))
                excess = max(excess, s - (3.0 / (k * k - 1) + 1e-10))
    ok = excess <= 0.0
    report("A02 certificate rate 3/(k^2-1)", ok,
           f"11 instances, k = 2..200, max excess {excess:+.2e}")
    assert excess <= 0.0


def test_certificate_matches_dense_oracle_and_recovery():
    """sigma_min of the band view squared equals the dense subspace optimum,
    and the recovered iterate lands within 1.5x of it at delta = 0.1."""
    worst = 0.0
    for seed in range(5):
        a = random_psd(12, seed=[3, seed])
        op = dense_op(a)
        b = np.random.default_rng([3, seed, 1]).standard_normal(12)
        state = LanczosState(op, b, reorth="full")
        for k in range(1, 9):
            state.step()
            lam = bk.dense_minberr_oracle(a, b, state.basis(k), opnorm=op.opnorm()).lambda_min
            worst = max(worst, abs(svd_min(state.ttilde(k)) ** 2 - lam) / lam)
        g = random_general(12, seed=[3, 50 + seed])
        gop = dense_op(g)
        ne = BidiagState(gop, b, reorth="full")
        for k in range(1, 9):
            ne.step()
            lam = bk.dense_minberr_oracle(g, b, ne.basis_q(k), opnorm=gop.opnorm()).lambda_min
            worst = max(worst, abs(svd_min(ne.btilde(k)) ** 2 - lam) / lam)

    hits = 0
    for t in range(100):
        a = random_psd(12, seed=[33, t])
        op = dense_op(a)
        b = np.random.default_rng([33, t, 1]).standard_normal(12)
        state = LanczosState(op, b, reorth="full")
        for _ in range(8):
            state.step()
        x, _ = _recover_psd(state, 8, 0.1, t)
        if measured_berr(op, b, x, op.opnorm()) <= 1.5 * svd_min(state.ttilde(8)):
            hits += 1
    for t in range(100):
        g = random_general(12, seed=[34, t])
        op = dense_op(g)
        b = np.random.default_rng([34, t, 1]).standard_normal(12)
        state = BidiagState(op, b, reorth="full")
        for _ in range(8):
            state.step()
        x, _ = _recover_ne(state, 8, 0.1, t)
        if measured_berr(op, b, x, op.opnorm()) <= 1.5 * svd_min(state.btilde(8)):
            hits += 1

    ok = worst <= 1e-10 and hits >= 180
    report("A03 dense oracle equivalence", ok,
           f"worst relative gap {worst:.2e}, recovery within 1.5x in {hits}/200 trials")
    assert worst <= 1e-10
    assert hits >= 180


def test_chebyshev_grid_attains_bound():
    """The clustered-grid sup of the approximation error equals 3/(l^2 - 1)."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    overshoot = -np.inf
    for ell in range(2, 41, 2):
        ev = ChebEval(ell)
        sup, bound = ev.sup(), ev.bound()
        worst_rel = max(worst_rel, abs(sup - bound) / bound)
        overshoot = max(overshoot, sup - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-3 and overshoot <= 1e-8 and elapsed < 10.0
    report("A04 chebyshev certificate", ok,
           f"l = 2..40 even, worst rel gap {worst_rel:.1e}, "
           f"overshoot {overshoot:+.1e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-3
    assert overshoot <= 1e-8
    assert elapsed < 10.0


def test_normal_equations_two_sided_envelope():
    """On diag(1, 1/100) with b = e_2 the backward error stays above
    kappa/(e k) while the scaled residual obeys the sqrt(C/2k) bound."""
    op = bk.DiagonalOperator(np.array([1.0, 0.01]))
    b = np.array([0.0, 1.0])
    r = bk.richardson_ne(op, b, tight(9999))
    ks = np.asarray(r.trace.iterations, dtype=float)
    berr = np.asarray(r.trace.berr)
    scaled = np.asarray(r.trace.residual_norm) / 100.0
    assert len(ks) == 9999
    lower_slack = float(np.min(berr - (100.0 / (math.e * ks) - 1e-10)))
    upper_excess = float(np.max(scaled - (np.sqrt(1.0 / (2.0 * ks)) + 1e-10)))
    ok = lower_slack >= 0.0 and upper_excess <= 0.0
    report("A05 richardson-ne two-sided bounds", ok,
           f"9999 iterations, lower slack {lower_slack:+.2e}, "
           f"residual excess {upper_excess:+.2e}")
    assert lower_slack >= 0.0
    assert upper_excess <= 0.0


def test_regularized_solver_certified_bound():
    """Measured berr of the shifted solve stays under 5 (ln k / k)^2."""
    p = bk.ill_conditioned(500, 1e8)
    worst_ratio = 0.0
    for inner in ("cg", "minres"):
        for k in (9, 50, 100):
            r = bk.regularized_solve(p.op, p.b, k, inner=inner)
            bound = 5.0 * (math.log(k) / k) ** 2
            assert r.certified_berr_bound == bound
            worst_ratio = max(worst_ratio, measured_berr(p.op, p.b, r.x, 1.0) / bound)
    ok = worst_ratio <= 1.0
    report("A06 regularized 5(ln k/k)^2", ok,
           f"cg and minres at k in (9, 50, 100), worst berr/bound {worst_ratio:.3f}")
    assert worst_ratio <= 1.0


def _push_tridiag(state, diag, sup1, sup2):
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


def _push_bidiag(state, diag, sup1):
    for j in range(1, len(diag) + 1):
        col = np.array([sup1[j - 2] if j >= 2 else 0.0, diag[j - 1]])
        if state.push(col):
            return j
    return None


def _band_trial(stream, t, bidiagonal):
    """Random band plus threshold: 800 graded generic draws, then 200
    well-conditioned draws with the threshold planted next to the smallest
    singular value of a random leading block (relative gap 1e-7 .. 1e-2)."""
    rng = np.random.default_rng([7, stream, t])
    k = int(rng.integers(2, 31))
    if t < 800:
        scale = 10.0 ** rng.uniform(-1.5, 0.0, size=k)
        diag = (np.abs(rng.standard_normal(k)) + 0.1) * scale
        sup1 = rng.standard_normal(k - 1) * scale[1:]
        sup2 = None if bidiagonal else rng.standard_normal(max(k - 2, 0)) * scale[2:]
        eps = 10.0 ** rng.uniform(-5.0, -0.3)
        return diag, sup1, sup2, eps
    diag = np.abs(rng.standard_normal(k)) + 0.5
    sup1 = 0.3 * rng.standard_normal(k - 1)
    sup2 = None if bidiagonal else 0.3 * rng.standard_normal(max(k - 2, 0))
    j = int(rng.integers(1, k + 1))
    block = _leading_block(diag, sup1, sup2, j)
    gap = 10.0 ** rng.uniform(-7.0, -2.0)
    s = svd_min(block)
    eps = s * (1.0 + gap) if rng.integers(2) else s * (1.0 - gap)
    return diag, sup1, sup2, eps


def _leading_block(diag, sup1, sup2, j):
    if sup2 is None:
        return BandMatrix(diag[:j], sup1[: j - 1])
    return BandMatrix(diag[:j], sup1[: j - 1], sup2[: max(j - 2, 0)])


def test_incremental_tests_match_dense_decisions():
    """Signal positions of both incremental tests agree with dense SVD
    threshold comparisons on every leading block, outside a 1e-8 window."""
    mismatches = 0
    checked = 0
    for t in range(1000):
        diag, sup1, sup2, eps = _band_trial(0, t, bidiagonal=False)
        signalled = _push_tridiag(CholTestState(eps), diag, sup1, sup2)
        for j in range(1, len(diag) + 1):
            s = svd_min(_leading_block(diag, sup1, sup2, j))
            if abs(s - eps) / eps <= 1e-8:
                continue
            checked += 1
            if ((signalled is not None and j >= signalled)) != (s <= eps):
                mismatches += 1
    for t in range(1000):
        diag, sup1, sup2, eps = _band_trial(1, t, bidiagonal=True)
        signalled = _push_bidiag(DqdsState(eps), diag, sup1)
        for j in range(1, len(diag) + 1):
            s = svd_min(_leading_block(diag, sup1, None, j))
            if abs(s - eps) / eps <= 1e-8:
                continue
            checked += 1
            if ((signalled is not None and j >= signalled)) != (s <= eps):
                mismatches += 1
    ok = mismatches == 0
    report("A07 convergence-test decisions", ok,
           f"2000 bands, {checked} block decisions, {mismatches} mismatches")
    assert mismatches == 0


def test_inverse_iteration_success_rate():
    """Rayleigh quotient within 1.5x of the true smallest eigenvalue of
    band^T band in at least 450 of 500 seeded trials at delta = 0.1."""
    wins = 0
    for t in range(500):
        rng = np.random.default_rng([8, t])
        k = int(rng.integers(2, 31))
        diag = np.abs(rng.standard_normal(k)) + 0.02
        sup1 = rng.standard_normal(k - 1)
        if t % 2:
            band = BandMatrix(diag, sup1)
        else:
            band = BandMatrix(diag, sup1, rng.standard_normal(max(k - 2, 0)))
        lam = svd_min(band) ** 2
        _, rq, _ = inverse_iteration(band, 0.1, seed=[8, t, 1])
        if rq <= 1.5 * lam * (1.0 + 1e-12):
            wins += 1
    ok = wins >= 450
    report("A08 inverse iteration 1-delta rate", ok, f"{wins}/500 trials within 1.5x")
    assert wins >= 450


def test_certificates_track_measured_backward_error():
    """Every traced certificate agrees with the directly recomputed backward
    error to 1e-8 relative under full reorthogonalization."""
    runs = []
    p = bk.small_outlier(300, 1e8, 1e-3)
    runs.append(bk.minberr_solve(p.op, p.b, eps=1e-7, k_max=100, reorth="full", trace_every=1))
    a = random_psd(200, seed=[9, 0], spread=6.0)
    b = np.random.default_rng([9, 0, 1]).standard_normal(200)
    runs.append(bk.minberr_solve(dense_op(a), b, eps=1e-5, k_max=150, reorth="full", trace_every=1))
    g = random_general(150, seed=[9, 1])
    bg = np.random.default_rng([9, 1, 1]).standard_normal(150)
    runs.append(bk.minberr_ne_solve(dense_op(g), bg, eps=1e-5, k_max=100, reorth="full",
                                    trace_every=1))
    rows = 0
    worst = 0.0
    for r in runs:
        certs = np.asarray(r.certificates)
        berr = np.asarray(r.trace.berr)
        assert len(certs) == len(berr) >= 10
        rows += len(certs)
        worst = max(worst, float(np.max(np.abs(certs - berr) / berr)))
    ok = worst <= 1e-8
    report("A09 certificate vs measured berr", ok,
           f"{rows} trace rows over 3 solves, worst relative gap {worst:.2e}")
    assert worst <= 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "minres does not stall on this family: measured berr at k = 50 is about "
    "7.5e-4 on small_outlier(2000, 1e10, 1e-3), under the asserted 1/(2k) "
    "floor, and stays under it for every rhs direction tried"))
def test_minres_floor_on_small_outlier():
    """Asserts berr(x_50) >= 1/100 for minres on the outlier family.

    The claim does not hold here: with the outlier at 1e-3 the minres
    polynomial damps the residual to about 7.5e-4 by k = 50 (the floor would
    need a condition number near 1e50 to survive that many iterations), so
    this test fails by design and is kept as the honest record.
    """
    p = bk.small_outlier(2000, 1e10, 1e-3)
    r = bk.minres(p.op, p.b, tight(50))
    assert r.trace.iterations[-1] == 50
    b50 = r.trace.berr[-1]
    ok = b50 >= 1.0 / 100.0
    report("A10a minres floor at k=50", ok, f"berr {b50:.3e} vs floor 1.0e-02")
    assert b50 >= 1.0 / 100.0


def test_minberr_beats_rate_where_minres_is_slow():
    p = bk.small_outlier(2000, 1e10, 1e-3)
    r = bk.minberr_solve(p.op, p.b, eps=1e-5, k_max=50, reorth="full", trace_every=1)
    assert r.termination is bk.Termination.MAX_ITERATIONS
    assert r.trace.iterations[-1] == 50
    b50 = r.trace.berr[-1]
    bound = 3.0 / (50 ** 2 - 1)
    ok = b50 <= bound
    report("A10a minberr rate at k=50", ok, f"berr {b50:.3e} <= {bound:.3e}")
    assert b50 <= bound


def test_initial_normal_equations_berr_blowup():
    """One normal-equations step on the ill-conditioned family lands on an
    iterate whose backward error exceeds 1e2."""
    p = bk.ill_conditioned(2000, 1e6)
    values = {}
    for name, solver in (("richardson-ne", bk.richardson_ne), ("lsqr", bk.lsqr)):
        r = solver(p.op, p.b, tight(1))
        assert r.trace.iterations[0] == 1
        values[name] = r.trace.berr[0]
    ok = all(v > 1e2 for v in values.values())
    report("A10b first-step berr blowup", ok,
           "berr(x_1) " + ", ".join(f"{k} {v:.1e}" for k, v in values.items()))
    assert all(v > 1e2 for v in values.values())


def test_perturbed_solver_escapes_stagnation():
    """The Gaussian-perturbed variant reaches berr <= 1e-2 within 300
    iterations across three condition numbers of the outlier family."""
    firsts = []
    for kappa in (1e6, 1e10, 1e14):
        p = bk.small_outlier(500, kappa, 1e-3)
        r = bk.minberr_ne_perturbed(p.op, p.b, perturb_eps=1e-3, eps=3e-3,
                                    k_max=300, seed=0, trace_every=1)
        berr = np.asarray(r.trace.berr)
        ks = np.asarray(r.trace.iterations)
        idx = np.nonzero(berr <= 1e-2)[0]
        assert idx.size > 0 and ks[idx[0]] <= 300
        firsts.append(int(ks[idx[0]]))
    ok = len(firsts) == 3
    report("A10c perturbed escape", ok,
           f"berr <= 1e-2 first reached at k = {firsts} for kappa 1e6/1e10/1e14")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "the unperturbed normal-equations run is not still above 1e-2 at k = 300 "
    "on small_outlier(500, 1e14, 1e-3): measured berr is about 3.1e-3, on a "
    "plateau set by the second-smallest singular value (1e-3), not by kappa"))
def test_unperturbed_stalls_at_extreme_kappa():
    """Asserts berr(x_300) > 1e-2 for the unperturbed solver at kappa = 1e14.

    A stall above that floor does not materialize: by k = 300 the run sits
    near 3.1e-3 (1.1e-3 under full reorthogonalization, which a dense
    subspace-optimum cross-check confirms is the best the Krylov space
    admits). The plateau level tracks the second-smallest singular value,
    here 1e-3, so the asserted 1e-2 floor is never the resting point. Kept
    failing by design as the honest record of that measurement.
    """
    p = bk.small_outlier(500, 1e14, 1e-3)
    r = bk.minberr_ne_solve(p.op, p.b, eps=1e-4, k_max=300, trace_every=1)
    assert r.trace.iterations[-1] == 300
    b300 = r.trace.berr[-1]
    ok = b300 > 1e-2
    report("A10c unperturbed stall at k=300", ok, f"berr {b300:.3e} vs 1.0e-02")
    assert b300 > 1e-2


def test_backward_error_traces_are_disguise_invariant():
    """Orthogonal conjugation leaves both solvers' berr traces unchanged
    pointwise to 1e-6 over 100 iterations."""
    plain = bk.small_outlier(300, 1e8, 1e-3)
    hidden = bk.disguise(plain, seed=11)
    rp = bk.richardson(plain.op, plain.b, tight(100))
    rd = bk.richardson(hidden.op, hidden.b, tight(100))
    assert rp.trace.iterations == rd.trace.iterations
    diff_rich = float(np.max(np.abs(np.asarray(rp.trace.berr) - np.asarray(rd.trace.berr))))
    mp = bk.minberr_solve(plain.op, plain.b, eps=1e-7, k_max=100, reorth="full", trace_every=1)
    md = bk.minberr_solve(hidden.op, hidden.b, eps=1e-7, k_max=100, reorth="full", trace_every=1)
    assert mp.trace.iterations == md.trace.iterations
    diff_mb = float(np.max(np.abs(np.asarray(mp.trace.berr) - np.asarray(md.trace.berr))))
    ok = diff_rich <= 1e-6 and diff_mb <= 1e-6
    report("A11 disguise invariance", ok,
           f"100 iterations, max diff richardson {diff_rich:.1e}, minberr {diff_mb:.1e}")
    assert diff_rich <= 1e-6
    assert diff_mb <= 1e-6
