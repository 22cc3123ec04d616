"""Krylov solvers that directly minimize the relative backward error.

``minberr_solve`` (symmetric PSD A) grows a Lanczos factorization and stops as
soon as sigma_min of the scaled band matrix Ttilde_k, which equals the minimal
backward error over the Krylov subspace, drops below eps; the iterate is then
recovered from the smallest singular pair by seeded inverse iteration. The
guarantee is berr <= 3/(k^2 - 1) after k iterations, squaring the 1/k rate of
Richardson at the same per-iteration cost.

``minberr_ne_solve`` is the same construction over the Golub-Kahan
bidiagonalization (Krylov space of A^T A), for general square or rectangular
A. ``minberr_ne_perturbed`` runs it against A + E for a seeded sparse E of
exactly known norm and certifies backward error against the original A by the
composition bound.

The per-step convergence decision costs O(1) (incremental Cholesky for the
tridiagonal case, shifted dqds for the bidiagonal case) at the shift
max(eps, 2 sqrt(u)); once it fires, every step recovers. A certificate below
eps is the run's claim, which ``classical._Monitor.check`` decides by the rule
all seven solvers share: on A itself the run stops only once the row measured
at that step (one matvec) is below eps too, so a claim that keeps failing
measures at every step. Recovery costs O(k ln(k/delta^2)) plus the O(nk)
basis combination.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .berr import composition_bound
from .classical import SolverConfig, SolveResult, _Monitor
from .errors import (
    DegenerateAlphaError,
    NoFiniteMinimizerError,
    NonFiniteError,
    RequiresSymmetricError,
)
from .factorize import BidiagState, LanczosState, _check_reorth
from .operators import CsrOperator, SumOperator, _count
from .smallband import CholTestState, DqdsState, inverse_iteration, inverse_iteration_steps

__all__ = [
    "MinberrResult",
    "minberr_solve",
    "minberr_ne_solve",
    "minberr_ne_perturbed",
    "DEGENERATE_ALPHA_TOL",
]

# a recovery scalar below this multiple of ||A||_2 has vanished
DEGENERATE_ALPHA_TOL = 1e-14


@dataclass
class MinberrResult(SolveResult):
    """Outcome of a minimum-backward-error solve.

    ``sigma_min_certificate`` is ||Ttilde v||/||v|| (scaled units) for the
    recovered v, which equals berr(x) up to rounding and orthogonality loss.
    ``certificates`` holds that value for every recorded trace row. The trace
    rows themselves carry directly measured residual and solution norms.
    """

    sigma_min_certificate: float = None
    certificates: list = field(default_factory=list)


def _setup(op, b, eps, delta, seed, reorth, k_max, trace_every, perturb_eps=0.0):
    """Check the run's arguments before any work, then return its monitor and
    the O(1) test's shift max(eps, 2 sqrt(u)): below 2 sqrt(u) rounding of
    order u in the Cholesky pivots can fire a test at eps a step late. No
    certificate, being >= sigma_min, can drop below eps before the gate
    fires, so the run stops where recovering at every step would. A perturbed
    run solves on (1 - perturb_eps) ||A||_2 and measures its rows against A."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    _count(seed, "seed", least=0)
    _check_reorth(reorth)
    k_max = min(op.cols, 20000) if k_max is None else _count(k_max, "k_max")
    # untraced runs record only the final row; SolverConfig checks trace_every
    cfg = SolverConfig(
        max_iterations=k_max,
        berr_tolerance=eps,
        trace_every=k_max if trace_every is None else trace_every,
    )
    mon = _Monitor(op, b, cfg)
    if perturb_eps:
        mon.solve_on((1.0 - perturb_eps) * mon.s)
    return mon, max(eps, 2.0 * math.sqrt(np.finfo(float).eps))


def _smallest_pair(band, k, delta, seed, step_factor):
    """The recovered pair; a retry (step_factor > 1) starts from a fresh
    seeded vector, so it does not repeat the first attempt step for step."""
    budget = step_factor * inverse_iteration_steps(k, delta)
    start = [seed, k] if step_factor == 1 else [seed, k, 1]
    v, cert, _ = inverse_iteration(band, budget, seed=start)
    return v, cert


def _recover_psd(state, k, delta, seed, step_factor=1):
    """x and certificate from Ttilde_k and the first k Lanczos vectors only."""
    v, cert = _smallest_pair(state.ttilde(k), k, delta, seed, step_factor)
    first = state.alphas[0] * v[0]
    if k >= 2:
        first += state.betas[0] * v[1]
    if abs(first) < DEGENERATE_ALPHA_TOL * state.opnorm:
        raise DegenerateAlphaError(
            "recovery scalar vanished: b lies (numerically) in the null space of A"
        )
    return state.basis(k) @ (v / (first / state.norm_b)), cert


def _recover_ne(state, k, delta, seed, step_factor=1):
    """As _recover_psd, from Btilde_k and the first k right vectors."""
    v, cert = _smallest_pair(state.btilde(k), k, delta, seed, step_factor)
    first = state.alphas[0] * v[0]
    if abs(first) < DEGENERATE_ALPHA_TOL * state.opnorm:
        raise NoFiniteMinimizerError(
            "the backward-error infimum over this subspace is approached only "
            "in the limit of unbounded iterates"
        )
    return state.basis_q(k) @ (v / (first / state.norm_b)), cert


def _minberr_loop(state, push_test, shift, recover, mon, delta, seed):
    """Shared driver for the PSD and normal-equations variants: a certificate
    below eps is the claim ``_Monitor.check`` confirms or lets stand, and a
    non-finite band column stops the run at its step. While ``testing``,
    only the O(1) test at ``shift``, breakdown, the cap and trace rows
    trigger a recovery; once the test fires every step does. A recovery made
    for a trace row alone claims nothing, so the row schedule moves no
    decision. A certificate is kept for each row ``check`` records."""
    k_max = mon.cfg.max_iterations
    eps = mon.cfg.berr_tolerance
    certificates = []
    testing = True
    for k in range(1, k_max + 1):
        col = state.step()
        if not all(map(math.isfinite, col)):
            raise NonFiniteError(f"iteration {k}: band column {col}")
        signalled = testing and push_test(col)
        if signalled:
            testing = False
        rows_only = testing and not (state.breakdown or k == k_max)
        if rows_only and not mon.due(k):
            continue
        x, cert = recover(state, k, delta, seed)
        if cert >= eps and (state.breakdown or (signalled and cert >= shift)):
            # the test certified sigma_min < shift (or the subspace became
            # invariant) but the recovered pair misses that promise:
            # retry once with a quadrupled step budget
            x, cert = recover(state, k, delta, seed, step_factor=4)
        stop = mon.check(k, x, breakdown=state.breakdown, claim=cert < eps and not rows_only)
        if mon.trace.iterations[-1:] == [k]:
            certificates.append(cert)
        if stop is not None:
            break
    return mon.result(x, k, stop, MinberrResult,
                      sigma_min_certificate=cert, certificates=certificates)


def minberr_solve(op, b, eps=1e-6, delta=1e-6, k_max=None, reorth="plain",
                  seed=0, trace_every=None):
    """Minimum-backward-error Krylov solve for symmetric PSD A.

    Parameters
    ----------
    op : LinearOperator
        Symmetric PSD operator. ||A||_2 is ``op.opnorm()``: pin a known value
        with ``op.set_opnorm``, else it is estimated once from below by
        ``estimate_spectral_norm``.
    b : ndarray
        Nonzero right-hand side.
    eps : float
        Backward-error tolerance in (0, 1). After k iterations the subspace
        minimum obeys berr <= 3/(k^2 - 1), so termination needs at most about
        sqrt(3/eps) iterations, and ToleranceReached a measured berr < eps.
    delta : float
        Inverse-iteration failure probability; the recovered iterate exceeds
        the subspace minimum by at most a factor sqrt(1.5) with probability
        1 - delta.
    k_max : int, optional
        Iteration cap; defaults to min(n, 20000).
    reorth : {"plain", "full"}
        Lanczos reorthogonalization policy.
    seed : int
        Seeds the inverse-iteration starts (sub-seeded per iteration).
    trace_every : int, optional
        Record a trace row every trace_every iterations and at the last; each
        row costs a recovery plus one measuring matvec. None: the last only.
        The schedule moves no stop and no x.

    Returns
    -------
    MinberrResult
    """
    if not op.symmetric:
        raise RequiresSymmetricError("minberr_solve expects a symmetric PSD operator")
    mon, shift = _setup(op, b, eps, delta, seed, reorth, k_max, trace_every)
    state = LanczosState(op, mon.b, opnorm=mon.s, reorth=reorth, k_max=mon.cfg.max_iterations)
    return _minberr_loop(state, CholTestState(shift).push_column, shift, _recover_psd,
                         mon, delta, seed)


def minberr_ne_solve(op, b, eps=1e-6, delta=1e-6, k_max=None, reorth="plain",
                     seed=0, trace_every=None):
    """Minimum-backward-error solve over the normal-equations Krylov space.

    Same contract as minberr_solve, ||A||_2 from ``op.opnorm()`` included,
    but for general A (square or rectangular), built on the Golub-Kahan
    bidiagonalization with the shifted dqds test.
    """
    mon, shift = _setup(op, b, eps, delta, seed, reorth, k_max, trace_every)
    return _minberr_ne(op, mon, shift, 0.0, delta, reorth, seed)


def minberr_ne_perturbed(op, b, perturb_eps, eps=1e-6, delta=1e-6, k_max=None,
                         reorth="plain", seed=0, trace_every=None):
    """minberr_ne_solve against A + E with ||E||_2 = perturb_eps ||A||_2.

    E is ``_perturbation``'s seeded sparse matrix, whose norm is exact, so
    nothing estimates it. A perturbation of that size removes the tiny
    singular values that stall the unperturbed iteration; the trace still
    reports backward error measured against the original A (and opnorm_used
    is ||A||_2), and the result carries the certified bound
    (1 + perturb_eps) berr_perturbed + perturb_eps.

    ||A||_2 is ``op.opnorm()``. The solver's own norm is the lower bound
    (1 - perturb_eps) ||A||_2 <= ||A||_2 - ||E||_2 <= ||A + E||_2, which errs
    on the safe side: a smaller norm inflates the certificate and therefore
    the certified bound. Arguments are checked before E is built; at
    perturb_eps = 0 no E is built and the run is minberr_ne_solve's. The
    certified bound never falls below perturb_eps, so with perturb_eps >= eps
    no run can certify eps against A, and a RuntimeWarning says so. The bound
    holds in exact arithmetic; where E acts fully on x the berr measured
    against A may exceed it by the residual's rounding, about u.
    """
    if not (0.0 <= perturb_eps < 1.0):
        raise ValueError("perturb_eps must lie in [0, 1)")
    mon, shift = _setup(op, b, eps, delta, seed, reorth, k_max, trace_every, perturb_eps)
    if perturb_eps >= eps:
        warnings.warn(f"perturb_eps = {perturb_eps:g} >= eps = {eps:g}: the certified bound "
                      "(1 + perturb_eps) berr + perturb_eps cannot fall below eps",
                      RuntimeWarning, stacklevel=2)
    res = _minberr_ne(op, mon, shift, perturb_eps, delta, reorth, seed)
    res.certified_berr_bound = composition_bound(res.sigma_min_certificate, perturb_eps)
    return res


def _perturbation(rows, cols, size, seed):
    """The seeded rows x cols E of ``minberr_ne_perturbed``, norm pinned to size.

    From ``default_rng([seed, 1])``: the first k = min(rows, cols) entries of
    a row and of a column permutation place k Gaussians, divided by their
    largest magnitude and times size. One nonzero per row and column makes
    ||E||_2 the largest |entry|, which the division leaves at size exactly.
    """
    rng = np.random.default_rng([seed, 1])
    k = min(rows, cols)
    r, c = rng.permutation(rows)[:k], rng.permutation(cols)[:k]
    g = rng.standard_normal(k)
    return CsrOperator.from_coo(r, c, g / np.max(np.abs(g)) * size, (rows, cols)).set_opnorm(size)


def _minberr_ne(op, mon, shift, perturb_eps, delta, reorth, seed):
    """Golub-Kahan run on A, or on A + E with ||E||_2 = perturb_eps ||A||_2
    (the monitor's trace norm, against which every row is measured)."""
    if perturb_eps:
        op = SumOperator(op, _perturbation(op.rows, op.cols, perturb_eps * mon.trace.opnorm, seed))
    state = BidiagState(op, mon.b, opnorm=mon.s, reorth=reorth, k_max=mon.cfg.max_iterations)
    return _minberr_loop(state, DqdsState(shift).push, shift, _recover_ne, mon, delta, seed)
