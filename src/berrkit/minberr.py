"""Krylov solvers that directly minimize the relative backward error.

``minberr_solve`` (symmetric PSD A) grows a Lanczos factorization and stops as
soon as sigma_min of the scaled band matrix Ttilde_k, which equals the minimal
backward error over the Krylov subspace, drops below eps; the iterate is then
recovered from the smallest singular pair by seeded inverse iteration. The
guarantee is berr <= 3/(k^2 - 1) after k iterations, squaring the 1/k rate of
Richardson at the same per-iteration cost.

``minberr_ne_solve`` is the same construction over the Golub-Kahan
bidiagonalization (Krylov space of A^T A), for general square or rectangular
A. ``minberr_ne_perturbed`` runs it against a Gaussian perturbation of A and
certifies backward error against the original A by the composition bound.

The per-step convergence decision costs O(1) (incremental Cholesky for the
tridiagonal case, shifted dqds for the bidiagonal case); recovery costs
O(k ln(k/delta^2)) plus the O(nk) basis combination.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .berr import composition_bound
from .classical import (
    SolverConfig,
    SolveTrace,
    Termination,
    _check_rhs,
    _Monitor,
    _resolve_opnorm,
)
from .errors import (
    DegenerateAlphaError,
    NoFiniteMinimizerError,
    NonFiniteError,
    RequiresSymmetricError,
    ExactSolutionInSubspaceError,
)
from .factorize import BidiagState, LanczosState
from .operators import GaussianPerturbedOperator, norm2
from .smallband import (
    CholTestState,
    DqdsState,
    inverse_iteration,
    inverse_iteration_steps,
    rayleigh_certificate,
)

__all__ = [
    "MinberrResult",
    "minberr_solve",
    "minberr_ne_solve",
    "minberr_ne_perturbed",
    "dense_minberr_oracle",
    "OracleResult",
    "DEGENERATE_ALPHA_TOL",
]

# dimensionless threshold for a vanishing recovery scalar (scaled units)
DEGENERATE_ALPHA_TOL = 1e-14


@dataclass
class MinberrResult:
    """Outcome of a minimum-backward-error solve.

    ``sigma_min_certificate`` is ||Ttilde v||/||v|| (scaled units) for the
    recovered v, which equals berr(x) up to rounding and orthogonality loss.
    ``certificates`` holds that value for every recorded trace row. The trace
    rows themselves carry directly measured residual and solution norms.
    """

    x: np.ndarray
    trace: SolveTrace
    termination: Termination
    sigma_min_certificate: float
    alpha: float
    opnorm_used: float
    iterations: int
    certificates: list = field(default_factory=list)
    certified_berr_bound: float = None


def _validate_common(eps, delta, seed):
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sqrt_u = math.sqrt(np.finfo(float).eps)
    if eps < sqrt_u:
        warnings.warn(
            "eps below sqrt(machine epsilon): the incremental convergence test "
            "is unreliable at this scale; switching to per-iteration inverse-"
            "iteration certificates",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    return True


def _recover_psd(state, delta, seed, k_iter, step_factor=1):
    """Smallest singular pair of Ttilde_k, recovery scalar, and iterate."""
    k = state.k
    band = state.ttilde()
    budget = step_factor * inverse_iteration_steps(k, delta)
    v, _, _ = inverse_iteration(band, delta, seed=[seed, k_iter], max_steps=budget)
    cert = rayleigh_certificate(band, v)
    scaled_alpha = state.nalphas[0] * v[0]
    if k >= 2:
        scaled_alpha += state.nbetas[0] * v[1]
    if abs(scaled_alpha) < DEGENERATE_ALPHA_TOL:
        raise DegenerateAlphaError(
            "recovery scalar vanished: b lies (numerically) in the null space of A"
        )
    alpha = state.alphas[0] * v[0]
    if k >= 2:
        alpha += state.betas[0] * v[1]
    alpha /= state.norm_b
    x = state.basis(k) @ (v / alpha)
    return x, cert, alpha


def _recover_ne(state, delta, seed, k_iter, step_factor=1):
    k = state.k
    band = state.btilde()
    budget = step_factor * inverse_iteration_steps(k, delta)
    v, _, _ = inverse_iteration(band, delta, seed=[seed, k_iter], max_steps=budget)
    cert = rayleigh_certificate(band, v)
    if abs(state.nalphas[0] * v[0]) < DEGENERATE_ALPHA_TOL:
        raise NoFiniteMinimizerError(
            "the backward-error infimum over this subspace is approached only "
            "in the limit of unbounded iterates"
        )
    alpha = state.alphas[0] * v[0] / state.norm_b
    x = state.basis_q(k) @ (v / alpha)
    return x, cert, alpha


def _monitor(op, b, eps, k_max, opnorm, trace, trace_every, measure=None):
    """The run's monitor; untraced runs record only the final row."""
    k_max = min(op.cols, 20000) if k_max is None else k_max
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cfg = SolverConfig(
        max_iterations=k_max,
        berr_tolerance=eps,
        trace_every=trace_every if trace else k_max,
    )
    return _Monitor(op, b, cfg, opnorm, measure)


def _minberr_loop(state, push_test, recover, mon, use_incremental):
    """Shared driver for the PSD and normal-equations variants: the
    certificate decides termination, the monitor records measured rows, and
    a non-finite band column stops the run at its step."""
    k_max = mon.cfg.max_iterations
    eps = mon.cfg.berr_tolerance
    certificates = []
    incremental_live = use_incremental
    certificate_mode = not use_incremental
    x = cert = alpha = None
    termination = None
    k = 0
    while k < k_max:
        k += 1
        col = state.step()
        if not all(map(math.isfinite, col.tolist())):
            raise NonFiniteError(f"iteration {k}: band column {col.tolist()}")
        signalled = False
        if incremental_live and push_test(col):
            signalled = True
            incremental_live = False
        check_now = signalled or state.breakdown or k == k_max or certificate_mode
        record_now = mon.due(k)
        if not (check_now or record_now):
            continue
        x, cert, alpha = recover(state, k)
        if check_now:
            if cert >= eps and (signalled or state.breakdown):
                # the test certified sigma_min < eps (or the subspace became
                # invariant) but the recovered pair sits above tolerance:
                # retry once with a quadrupled step budget
                x, cert, alpha = recover(state, k, step_factor=4)
            if cert < eps:
                termination = Termination.TOLERANCE_REACHED
            elif state.breakdown:
                termination = Termination.BREAKDOWN
            elif k == k_max:
                termination = Termination.MAX_ITERATIONS
            elif signalled:
                # stay on per-iteration certificates from here on
                certificate_mode = True
        if record_now or termination is not None:
            mon.record(k, x)
            certificates.append(cert)
        if termination is not None:
            break

    return MinberrResult(
        x=x,
        trace=mon.trace,
        termination=termination,
        sigma_min_certificate=cert,
        alpha=alpha,
        opnorm_used=mon.trace.opnorm,
        iterations=k,
        certificates=certificates,
    )


def minberr_solve(op, b, eps=1e-6, delta=1e-6, k_max=None, reorth="plain",
                  opnorm=None, seed=0, trace=False, trace_every=1):
    """Minimum-backward-error Krylov solve for symmetric PSD A.

    Parameters
    ----------
    op : LinearOperator
        Symmetric PSD operator.
    b : ndarray
        Nonzero right-hand side.
    eps : float
        Backward-error tolerance in (0, 1). After k iterations the subspace
        minimum obeys berr <= 3/(k^2 - 1), so termination needs at most about
        sqrt(3/eps) iterations.
    delta : float
        Inverse-iteration failure probability; the recovered iterate exceeds
        the subspace minimum by at most a factor sqrt(1.5) with probability
        1 - delta.
    k_max : int, optional
        Iteration cap; defaults to min(n, 20000).
    reorth : {"plain", "full"}
        Lanczos reorthogonalization policy.
    opnorm : float, optional
        Spectral norm of op (cached estimate used when omitted).
    seed : int
        Seeds the inverse-iteration starts (sub-seeded per iteration).
    trace : bool
        Record a trace row every trace_every iterations; each row costs a
        recovery plus one measuring matvec.

    Returns
    -------
    MinberrResult
    """
    if not op.symmetric:
        raise RequiresSymmetricError("minberr_solve expects a symmetric PSD operator")
    use_incremental = _validate_common(eps, delta, seed)
    mon = _monitor(op, b, eps, k_max, opnorm, trace, trace_every)
    state = LanczosState(op, mon.b, opnorm=mon.s, reorth=reorth)
    chol = CholTestState(eps)

    def recover(st, k_iter, step_factor=1):
        return _recover_psd(st, delta, seed, k_iter, step_factor=step_factor)

    return _minberr_loop(state, chol.push_column, recover, mon, use_incremental)


def minberr_ne_solve(op, b, eps=1e-6, delta=1e-6, k_max=None, reorth="plain",
                     opnorm=None, seed=0, trace=False, trace_every=1):
    """Minimum-backward-error solve over the normal-equations Krylov space.

    Same contract as minberr_solve but for general A (square or rectangular),
    built on the Golub-Kahan bidiagonalization with the shifted dqds test.
    """
    use_incremental = _validate_common(eps, delta, seed)
    mon = _monitor(op, b, eps, k_max, opnorm, trace, trace_every)
    return _minberr_ne(op, mon, delta, reorth, seed, use_incremental)


def _minberr_ne(op, mon, delta, reorth, seed, use_incremental):
    state = BidiagState(op, mon.b, opnorm=mon.s, reorth=reorth, store_basis=True)
    dqds = DqdsState(mon.cfg.berr_tolerance)

    def push(col):
        if dqds.k == 0:
            return dqds.push(col[1] * col[1])
        return dqds.push(col[1] * col[1], col[0] * col[0])

    def recover(st, k_iter, step_factor=1):
        return _recover_ne(st, delta, seed, k_iter, step_factor=step_factor)

    return _minberr_loop(state, push, recover, mon, use_incremental)


def minberr_ne_perturbed(op, b, perturb_eps, eps=1e-6, delta=1e-6, k_max=None,
                         reorth="plain", opnorm=None, seed=0, trace=False,
                         trace_every=1):
    """minberr_ne_solve against A + perturb_eps (||A||_2/||G||_2) G.

    G is a seeded dense Gaussian matrix, so the perturbed operator differs
    from A by exactly perturb_eps ||A||_2 in spectral norm. A spectrally well
    behaved perturbation removes the tiny singular values that stall the
    unperturbed iteration; the trace still reports backward error measured
    against the original A (and opnorm_used is ||A||_2), and the result
    carries the certified bound (1 + perturb_eps) berr_perturbed + perturb_eps.
    """
    if not (0.0 <= perturb_eps < 1.0):
        raise ValueError("perturb_eps must lie in [0, 1)")
    s = _resolve_opnorm(op, opnorm)
    b = _check_rhs(op, b)  # before the O(n^2) set-up of G
    if perturb_eps == 0.0:
        res = minberr_ne_solve(
            op, b, eps=eps, delta=delta, k_max=k_max, reorth=reorth,
            opnorm=s, seed=seed, trace=trace, trace_every=trace_every,
        )
        res.certified_berr_bound = composition_bound(res.sigma_min_certificate, 0.0)
        return res
    use_incremental = _validate_common(eps, delta, seed)
    rng = np.random.default_rng([seed, 1])
    g = rng.standard_normal((op.rows, op.cols))
    g_norm = float(np.linalg.norm(g, 2))
    perturbed = GaussianPerturbedOperator(op, g, perturb_eps * s / g_norm)
    # power iteration underestimates, which errs on the safe side: a smaller
    # norm inflates the reported berr and therefore the certified bound
    s_pert = perturbed.opnorm(rel_tol=1e-4, max_iter=300, seed=[seed, 2])
    mon = _monitor(perturbed, b, eps, k_max, s_pert, trace, trace_every, measure=(op, s))
    res = _minberr_ne(perturbed, mon, delta, reorth, seed, use_incremental)
    res.certified_berr_bound = composition_bound(res.sigma_min_certificate, perturb_eps)
    return res


@dataclass(frozen=True)
class OracleResult:
    """Dense reference for the subspace backward-error minimum.

    lambda_min is the squared minimal berr over the subspace; y the coefficient
    vector of the minimizer in the given basis (None when the infimum is not
    attained); sigma the smallest singular value of the deflated block.
    """

    lambda_min: float
    y: np.ndarray
    sigma: float


def dense_minberr_oracle(a, b, basis, opnorm=1.0):
    """Reference computation of min ||A x - b||^2 / (opnorm ||x||)^2 over a
    subspace, via the deflated generalized eigenproblem rather than any band
    structure (shares no code with the factorization path).

    Parameters
    ----------
    a : ndarray
        Dense matrix (small n only).
    b : ndarray
        Nonzero right-hand side.
    basis : ndarray
        Orthonormal columns spanning the subspace; [b, A basis] must have full
        column rank.
    opnorm : float
        Norm used in the backward-error denominator.

    Returns
    -------
    OracleResult
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise ValueError("basis must have columns")
    aq = a @ basis
    stacked = np.column_stack([b, aq])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        y, *_ = np.linalg.lstsq(aq, b, rcond=None)
        resid = norm2(aq @ y - b)
        x = basis @ y if resid <= 1e-10 * norm2(b) else None
        raise ExactSolutionInSubspaceError(
            "[b, A basis] is rank deficient: the subspace minimum is 0", x=x
        )
    bb = float(b @ b)
    # deflate the b-coordinate: the minimum over the subspace is the smallest
    # singular value of A basis projected off b
    c = aq - np.outer(b, b @ aq) / bb
    _, svals, vt = np.linalg.svd(c)
    sigma = float(svals[-1])
    v = vt[-1]
    lam = (sigma / opnorm) ** 2
    alpha_c = float(b @ (aq @ v)) / bb
    y = v / alpha_c if abs(alpha_c) > 1e-12 else None
    return OracleResult(lambda_min=lam, y=y, sigma=sigma)
