"""Classical iterative solvers instrumented with backward-error traces.

Every solver loop, the minimum-backward-error ones in ``minberr`` included,
runs under one ``_Monitor`` built on the problem's (A, b). It checks the entry
data (a finite, nonzero b of the right shape whose 2-norm is a normal float64,
and a finite positive ``op.opnorm()``, the run's only source of ||A||_2),
rescales b by a power of two when its entries are far from unit size, and
owns the trace and its rows (every ``trace_every`` iterations and the last).
``_Monitor.check``, run at every iteration, is the only place that measures a
deciding row, picks a Termination and records a row, so the row schedule
never moves a stop. On A itself a claim of convergence (a residual
recurrence, or MINBERR's certificate), a breakdown and the cap are decided on
the row measured at that step (one matvec): a claim stops the run only if
that row confirms it, and a breakdown or cap row whose measured residual is
exact ends ExactSolution. So ``final_berr`` is the backward error of the
returned x, measured against A also for a solver on a nearby operator, and
only a row measured on A is labelled ExactSolution: a nearby operator's
exact residual ends Breakdown unless A's row is exact too.
RECOMPUTE_EVERY serves only cg and the Richardson loops. Every solver starts
from x_0 = 0; a non-finite residual or iterate norm raises NonFiniteError at
its iteration, row or not. Identical config and seed give bitwise-identical
numeric trace columns. LSQR runs ``operators._golub_kahan_step`` on two vectors.
Each loop allocates its work vectors once per run and updates them in place
(``out=`` ufuncs, the same operands in the same order), so the only n-vector
a step allocates is the operator's own output.
"""

import math
import operator
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NonFiniteError, RequiresSymmetricError, UnrepresentableNormError
from .factorize import BREAKDOWN_TOL_FACTOR
from .operators import (
    _NORMAL_MIN,
    DiagonalOperator,
    SumOperator,
    _as_vector,
    _check_norm,
    _golub_kahan_start,
    _golub_kahan_step,
    norm2,
)

__all__ = [
    "Termination",
    "SolverConfig",
    "SolveTrace",
    "SolveResult",
    "richardson",
    "richardson_ne",
    "cg",
    "minres",
    "lsqr",
    "regularized_solve",
    "RECOMPUTE_EVERY",
]

# every RECOMPUTE_EVERY iterations cg and the Richardson loops restart their
# residual recurrence from the exact residual
RECOMPUTE_EVERY = 1000


class Termination(str, Enum):
    TOLERANCE_REACHED = "ToleranceReached"
    MAX_ITERATIONS = "MaxIterations"
    BREAKDOWN = "Breakdown"
    EXACT_SOLUTION = "ExactSolution"


@dataclass
class SolverConfig:
    """Knobs shared by the classical solvers.

    step_constant is the C in the Richardson step sizes 1/(C ||A||_2) and
    1/(C ||A||_2^2); it must be finite and at least 1 for the convergence
    guarantees. seed is accepted and checked (a nonnegative integer) for
    callers that pass it, but no solver reads it.
    """

    step_constant: float = 1.0
    max_iterations: int = 1000
    berr_tolerance: float = 1e-6
    trace_every: int = 1
    seed: int = 0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 1.0 <= self.step_constant < math.inf:
            raise ValueError("step_constant must be finite and at least 1")
        self.max_iterations = _count(self.max_iterations, "max_iterations")
        if not (0.0 < self.berr_tolerance < 1.0):
            raise ValueError("berr_tolerance must be in (0, 1)")
        self.trace_every = _count(self.trace_every, "trace_every")
        self.seed = _count(self.seed, "seed", least=0)


def _count(value, what, least=1):
    """value as an int if it is an integer (``operator.index``) >= least,
    else ValueError naming ``what``: a float such as 10.5 or inf is refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


@dataclass
class SolveTrace:
    """Per-iteration history; berr[i] == residual_norm[i] / (opnorm * x_norm[i])
    exactly as stored."""

    opnorm: float
    iterations: list = field(default_factory=list)
    berr: list = field(default_factory=list)
    residual_norm: list = field(default_factory=list)
    x_norm: list = field(default_factory=list)
    wall_nanos: list = field(default_factory=list)

    def record(self, k, residual_norm, x_norm, t0):
        if self.iterations and k <= self.iterations[-1]:
            raise ValueError("trace iterations must be strictly increasing")
        self.iterations.append(int(k))
        self.berr.append(residual_norm / (self.opnorm * x_norm))
        self.residual_norm.append(float(residual_norm))
        self.x_norm.append(float(x_norm))
        self.wall_nanos.append(time.perf_counter_ns() - t0)

    def __len__(self):
        return len(self.iterations)

    @property
    def final_berr(self):
        return self.berr[-1] if self.berr else math.nan

    def rows(self):
        return list(
            zip(self.iterations, self.berr, self.residual_norm, self.x_norm, self.wall_nanos)
        )


@dataclass
class SolveResult:
    """A run's iterate x, its trace and how it ended after ``iterations``
    steps. ``matvecs`` counts the products with A the run made, measuring
    matvecs included and the norm estimate behind ``opnorm_used`` excluded."""

    x: np.ndarray
    trace: SolveTrace
    termination: Termination
    opnorm_used: float
    iterations: int
    matvecs: int
    certified_berr_bound: float = None


# b is solved at its own scale while its largest entry lies in
# [1/_RHS_SAFE, _RHS_SAFE], where no dot product of b leaves the normal range
_RHS_SAFE = 2.0**100


def _is_normal(t):
    return _NORMAL_MIN <= t < math.inf


def _check_rhs(op, b):
    """The entry check on b; returns (b to solve with, unscale).

    Backward error does not change when b is scaled, and scaling by a power
    of two rounds no operation differently unless something underflows. So a
    b whose largest entry lies outside [1/_RHS_SAFE, _RHS_SAFE] is solved as
    b 2^-e with that entry in [1, 2), and unscale = 2^e maps the iterates
    and norms back. A b whose 2-norm is no normal float64 raises
    UnrepresentableNormError, since no trace row could store its residual,
    a complex b TypeError, since the solve would keep its real part only, and
    a b of another shape than (op.rows,) DimensionMismatchError.
    """
    b = _as_vector(b, op.rows, "b")
    if not np.all(np.isfinite(b)):
        raise NonFiniteError("b holds NaN or infinite entries")
    if not np.any(b):
        raise ValueError("b must be nonzero")
    big = float(np.max(np.abs(b)))
    if 1.0 / _RHS_SAFE <= big <= _RHS_SAFE:
        return b, 1.0
    e = math.frexp(big)[1] - 1
    b = np.ldexp(b, -e)
    unscale = math.ldexp(1.0, e)
    norm_b = norm2(b) * unscale
    if not _is_normal(norm_b):
        raise UnrepresentableNormError(f"||b||_2 = {norm_b} is not a normal float64")
    return b, unscale


class _Monitor:
    """Bookkeeping shared by every solver loop (see the module docstring).

    Built once per run on the problem's (A, b). ``s`` is ||A||_2 until a
    solver on a nearby operator hands that operator's norm to ``solve_on``.
    """

    def __init__(self, op, b, config=None):
        self.cfg = config or SolverConfig()
        self.op = op
        self.b, self.unscale = _check_rhs(op, b)
        self.s = _check_norm(op.opnorm())
        self.start_products = op.products  # the run's matvecs count from here
        self.norm_b = norm2(self.b)
        self.measured = False
        self.trace = SolveTrace(opnorm=self.s)
        self.t0 = time.perf_counter_ns()

    def solve_on(self, s):
        """The solver runs on a nearby operator of norm s: s takes over the
        stopping decision, and every row is measured against A (one matvec
        a row) and reported at ||A||_2."""
        self.s = s
        self.measured = True

    def due(self, k):
        """Whether iteration k gets a trace row."""
        return k % self.cfg.trace_every == 0 or k == self.cfg.max_iterations

    @staticmethod
    def refresh(k):
        """Whether iteration k recomputes the residual from scratch."""
        return k % RECOMPUTE_EVERY == 0

    def measure(self, k, x, rn=None):
        """Residual and iterate norms of iterate x at iteration k, at the scale
        of ``self.b``. rn is the solver's own residual norm; without one the
        residual against A is measured with one matvec (none at x = 0, whose
        residual is b). A norm that is not finite raises NonFiniteError."""
        xn = norm2(x)
        if rn is None:
            if xn:
                r = self.op.apply(x)
                r -= self.b
                rn = norm2(r)
            else:
                rn = self.norm_b
        if not (math.isfinite(rn) and math.isfinite(xn)):
            raise NonFiniteError(
                f"iteration {k}: residual norm {rn}, iterate norm {xn}"
            )
        return rn, xn

    def record(self, k, rn, xn):
        """Append the row of the norms ``check`` took at iteration k, at the
        scale of the b given; a row at the last row's k takes its place."""
        if self.unscale != 1.0:
            rn, xn = rn * self.unscale, xn * self.unscale
            if not (_is_normal(xn) and (rn == 0.0 or _is_normal(rn))):
                raise UnrepresentableNormError(
                    f"iteration {k}: at the scale of b, residual norm {rn} and "
                    f"iterate norm {xn} leave the normal float64 range"
                )
        trace = self.trace
        if trace.iterations[-1:] == [k]:
            del (trace.iterations[-1], trace.berr[-1], trace.residual_norm[-1],
                 trace.x_norm[-1], trace.wall_nanos[-1])
        trace.record(k, rn, xn, self.t0)

    def exact(self, rn, breakdown):
        """Whether residual norm rn, at the scale of ``self.b``, marks an
        exact solution: rn is 0, or the Krylov space broke down with
        rn <= 1e-15 ||b||. Every solver labels ExactSolution by this rule."""
        return rn == 0.0 or (breakdown and rn <= 1e-15 * self.norm_b)

    def check(self, k, x, rn=None, breakdown=False, claim=False):
        """The stopping decision at iteration k: the only place that measures
        a deciding row, picks a Termination and records a row. A solver
        claims convergence by its own residual norm rn (exact, or
        rn < tol s ||x||) or, passing no rn, by ``claim``; a claim, a
        breakdown and the cap decide. On A itself the deciding row is
        measured (one matvec) first and every label is read from it: a claim
        stands only if that row is exact or has berr below tol, and a
        breakdown or cap row that is exact ends ExactSolution. On a nearby
        operator (``solve_on``) the solver's norms decide and its claim
        stands, but every row is measured against A before it is labelled and
        only that row can be exact: a step at which the solver's own residual
        is exact is a breakdown (its Krylov space is exhausted), which ends
        ExactSolution only if the row on A is exact too. Without rn only a
        deciding or due step is measured. A row is recorded when one is due
        or the run stops (x = 0 gets none). Returns the Termination, or None.
        """
        tol = self.cfg.berr_tolerance
        cap = k == self.cfg.max_iterations
        if rn is not None:
            rn, xn = self.measure(k, x, rn)
            if not self.exact(rn, breakdown):
                claim = xn > 0.0 and rn < tol * self.s * xn
            elif self.measured:
                breakdown = True  # the nearby operator's Krylov space is exhausted
            else:
                claim = True
        decides = claim or breakdown or cap
        if not (decides or self.due(k)):
            return None
        if rn is None or decides or self.measured:
            rn, xn = self.measure(k, x)
        stop = None
        if decides:
            if self.exact(rn, breakdown):
                stop = Termination.EXACT_SOLUTION
            elif claim and (self.measured or rn / (self.s * xn) < tol):
                stop = Termination.TOLERANCE_REACHED
            elif breakdown:
                stop = Termination.BREAKDOWN
            elif cap:
                stop = Termination.MAX_ITERATIONS
        if xn != 0.0 and (stop is not None or self.due(k)):
            self.record(k, rn, xn)
        return stop

    def unscaled(self, x):
        """Iterate x at the scale of the b given (see _check_rhs)."""
        return x if self.unscale == 1.0 else x * self.unscale

    def result(self, x, k, termination, kind=SolveResult, **fields):
        """The result (a SolveResult, or the subclass ``kind`` with its extra
        ``fields``) after k iterations."""
        return kind(self.unscaled(x), self.trace, termination, self.trace.opnorm, k,
                    self.op.products - self.start_products, **fields)


def richardson(op, b, config=None):
    """Richardson iteration x_{k+1} = x_k - eta (A x_k - b) on symmetric PSD A.

    With eta = 1/(C ||A||_2) the backward error after k iterations is at most
    C/k, which is what the default per-iteration trace shows.
    """
    if not op.symmetric:
        raise RequiresSymmetricError("richardson expects a symmetric PSD operator")
    mon = _Monitor(op, b, config)
    return _richardson(op, mon, 1.0 / (mon.cfg.step_constant * mon.s), lambda r: r)


def richardson_ne(op, b, config=None):
    """Richardson on the normal equations: x_{k+1} = x_k - eta A^T (A x_k - b),
    eta = 1/(C ||A||_2^2). Works for any (possibly rectangular) A."""
    mon = _Monitor(op, b, config)
    return _richardson(op, mon, 1.0 / (mon.cfg.step_constant * mon.s * mon.s),
                       op.apply_adjoint)


def _richardson(op, mon, eta, gradient):
    """x_{k+1} = x_k - eta g_k with g_k = gradient(A x_k - b)."""
    b = mon.b
    x = np.zeros(op.cols)
    step = np.empty(op.cols)
    r = -b  # r tracks A x - b
    for k in range(1, mon.cfg.max_iterations + 1):
        g = gradient(r)
        np.multiply(g, eta, out=step)
        x -= step
        if mon.refresh(k):
            r = op.apply(x)
            r -= b
        else:
            ag = op.apply(g)
            ag *= eta
            r -= ag
        stop = mon.check(k, x, norm2(r))
        if stop is not None:
            break
    return mon.result(x, k, stop)


def cg(op, b, config=None):
    """Conjugate gradients on symmetric PSD A, traced in backward error."""
    if not op.symmetric:
        raise RequiresSymmetricError("cg expects a symmetric PSD operator")
    return _cg(op, _Monitor(op, b, config))


def _cg(op, mon):
    b = mon.b
    x = np.zeros(op.cols)
    step = np.empty(op.cols)
    r = b.copy()  # r tracks b - A x
    p = r.copy()
    rs = float(r @ r)
    for k in range(1, mon.cfg.max_iterations + 1):
        ap = op.apply(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            # A is not positive definite on the Krylov space: x_{k-1} ends the
            # run at a breakdown, whose row check measures, in place of the
            # recurrence row its step recorded if one was due
            return mon.result(x, k - 1, mon.check(k - 1, x, breakdown=True))
        gamma = rs / pap
        np.multiply(p, gamma, out=step)
        x += step
        if mon.refresh(k):
            np.subtract(b, op.apply(x), out=r)
        else:
            ap *= gamma
            r -= ap
        rs_new = float(r @ r)
        stop = mon.check(k, x, math.sqrt(rs_new), breakdown=rs_new == 0.0)
        if stop is not None:
            break
        p *= rs_new / rs
        p += r
        rs = rs_new
    return mon.result(x, k, stop)


def minres(op, b, config=None):
    """MINRES on symmetric A (Paige-Saunders recurrences, no preconditioner).

    The residual norm comes from the QR recurrence, which claims convergence;
    the row measured at the claim decides it.
    """
    if not op.symmetric:
        raise RequiresSymmetricError("minres expects a symmetric operator")
    return _minres(op, _Monitor(op, b, config))


def _minres(op, mon):
    b = mon.b
    n = op.cols
    beta1 = mon.norm_b
    y = b.copy()
    r1 = b.copy()
    r2 = b.copy()
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    v, scaled = np.empty(n), np.empty(n)
    x = np.zeros(n)
    for k in range(1, mon.cfg.max_iterations + 1):
        np.divide(y, beta, out=v)
        y = op.apply(v)
        if k >= 2:
            r1 *= beta / oldb  # r1 is read no more
            y -= r1
        alfa = float(v @ y)
        np.multiply(r2, alfa / beta, out=scaled)
        y -= scaled
        r1 = r2
        r2 = y
        oldb = beta
        beta = norm2(y)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), _NORMAL_MIN)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        # w = (v - oldeps w1 - delta w2) / gamma, formed in w1, read no more
        w1 *= oldeps
        np.subtract(v, w1, out=w1)
        np.multiply(w2, delta, out=scaled)
        w1 -= scaled
        w1 /= gamma
        w = w1
        np.multiply(w, phi, out=scaled)
        x += scaled
        stop = mon.check(k, x, phibar, breakdown=beta == 0.0)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def lsqr(op, b, config=None):
    """LSQR (Paige & Saunders 1982) on the Golub-Kahan step of ``BidiagState``,
    whose breakdown ends the run with a row; a non-finite beta raises
    NonFiniteError at its step. The recursive residual-norm estimate claims
    convergence, as in ``minres``."""
    mon = _Monitor(op, b, config)
    b = mon.b
    breakdown_tol = BREAKDOWN_TOL_FACTOR * mon.s
    _, u, alpha, q = _golub_kahan_start(op, b, breakdown_tol)
    x = np.zeros(op.cols)
    step = np.empty(op.cols)
    w = q.copy()
    phibar = mon.norm_b
    rhobar = alpha
    for k in range(1, mon.cfg.max_iterations + 1):
        beta, u, alpha, q_next = _golub_kahan_step(op, u, q, alpha, breakdown_tol)
        breakdown = q_next is None
        rho = max(math.hypot(rhobar, beta), _NORMAL_MIN)
        c = rhobar / rho
        sn = beta / rho
        theta = sn * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = sn * phibar
        np.multiply(w, phi / rho, out=step)
        x += step
        if not breakdown:
            q = q_next
            w *= theta / rho
            np.subtract(q, w, out=w)
        stop = mon.check(k, x, phibar, breakdown=breakdown)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def regularized_solve(op, b, k, inner="cg", trace_every=1, seed=0):
    """Solve (A + delta I) x = b with delta = 2 (ln k / k)^2 ||A||_2 for k
    inner CG or MINRES steps; the shift makes the inner system well enough
    conditioned that the returned x carries the certified backward-error bound
    5 (ln k / k)^2 against the original A.

    Requires symmetric PSD A and k >= 9. The trace reports berr against the
    original operator (one extra matvec per recorded row). seed is accepted
    and passed to SolverConfig, but no solver reads it.
    """
    if k < 9:
        raise ValueError("the shift schedule needs k >= 9")
    if not op.symmetric:
        raise RequiresSymmetricError("regularized_solve expects symmetric PSD A")
    if inner not in ("cg", "minres"):
        raise ValueError(f"unknown inner solver {inner!r}")
    cfg = SolverConfig(
        step_constant=1.0,
        max_iterations=k,
        berr_tolerance=1e-300,  # run all k steps unless the residual hits 0
        trace_every=trace_every,
        seed=seed,
    )
    mon = _Monitor(op, b, cfg)
    ratio_sq = (math.log(k) / k) ** 2
    shift = 2.0 * ratio_sq * mon.s
    mon.solve_on(mon.s + shift)  # ||A + shift I||_2, exact for PSD A
    shifted = SumOperator(op, DiagonalOperator(np.full(op.rows, shift)))
    res = (_cg if inner == "cg" else _minres)(shifted, mon)
    res.certified_berr_bound = 5.0 * ratio_sq
    return res
