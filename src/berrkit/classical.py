"""Classical iterative solvers instrumented with backward-error traces.

Every solver loop, the minimum-backward-error ones in ``minberr`` included,
runs under one ``_Monitor``. The monitor checks the entry data (a finite,
nonzero right-hand side of the right shape and a finite positive operator
norm), owns the trace and its row schedule (every ``trace_every`` iterations
and at the last one), the RECOMPUTE_EVERY residual refresh that caps
recurrence drift, the single stopping decision of the classical solvers, and
the operator rows are measured against. Every solver starts from x_0 = 0 and
records its first row at iteration 1; a recorded row with a non-finite
residual or iterate norm raises NonFiniteError. Identical config and seed
give bitwise-identical numeric trace columns.
"""

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NonFiniteError, RequiresSymmetricError
from .factorize import BidiagState
from .operators import ShiftedOperator, norm2

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

# residual refresh period (iterations) for drift control
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
    1/(C ||A||_2^2); it must be at least 1 for the convergence guarantees.
    """

    step_constant: float = 1.0
    max_iterations: int = 1000
    berr_tolerance: float = 1e-6
    trace_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.step_constant < 1.0:
            raise ValueError("step_constant must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.berr_tolerance < 1.0):
            raise ValueError("berr_tolerance must be in (0, 1)")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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
    x: np.ndarray
    trace: SolveTrace
    termination: Termination
    opnorm_used: float
    iterations: int
    certified_berr_bound: float = None


def _check_rhs(op, b):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.rows,):
        raise ValueError(f"b has shape {b.shape}, expected ({op.rows},)")
    if not np.all(np.isfinite(b)):
        raise NonFiniteError("b holds NaN or infinite entries")
    if not np.any(b):
        raise ValueError("b must be nonzero")
    return b


def _resolve_opnorm(op, opnorm):
    """The given spectral norm of op, else its cached estimate; finite and > 0."""
    s = float(op.opnorm() if opnorm is None else opnorm)
    if not math.isfinite(s):
        raise NonFiniteError(f"operator norm is {s}")
    if s <= 0.0:
        raise ValueError("operator norm must be positive")
    return s


class _Monitor:
    """Bookkeeping shared by every solver loop (see the module docstring).

    ``s`` is the solver's own operator norm. ``measure``, if given, is an
    (operator, opnorm) pair that rows are measured against instead (one extra
    matvec per row); the stopping decision still uses the solver's own
    residual and norm, and the result reports the measuring norm.
    """

    def __init__(self, op, b, config=None, opnorm=None, measure=None):
        self.cfg = config or SolverConfig()
        self.b = _check_rhs(op, b)
        self.s = _resolve_opnorm(op, opnorm)
        self.norm_b = norm2(self.b)
        self.measured = measure is not None
        self.measure_op, measure_s = measure if self.measured else (op, self.s)
        self.trace = SolveTrace(opnorm=measure_s)
        self.t0 = time.perf_counter_ns()

    def due(self, k):
        """Whether iteration k gets a trace row."""
        return k % self.cfg.trace_every == 0 or k == self.cfg.max_iterations

    @staticmethod
    def refresh(k):
        """Whether iteration k recomputes the residual from scratch."""
        return k % RECOMPUTE_EVERY == 0

    def record(self, k, x, rn=None, xn=None):
        """Append the row for iterate x. rn is the solver's own residual norm;
        without one, or when measuring against another operator, the residual
        is measured with one matvec."""
        if xn is None:
            xn = norm2(x)
        if rn is None or self.measured:
            rn = norm2(self.measure_op.apply(x) - self.b)
        if not (math.isfinite(rn) and math.isfinite(xn)):
            raise NonFiniteError(
                f"iteration {k}: residual norm {rn}, iterate norm {xn}"
            )
        self.trace.record(k, rn, xn, self.t0)

    def check(self, k, x, rn, breakdown=False):
        """Stopping decision at iteration k, recording a row when one is due.

        rn is the solver's own residual norm, or its residual vector (normed
        only when a row is due). A breakdown forces a row and ends the run.
        Returns the Termination, or None to go on.
        """
        if not (breakdown or self.due(k)):
            return None
        if isinstance(rn, np.ndarray):
            rn = norm2(rn)
        xn = norm2(x)
        stop = Termination.BREAKDOWN if breakdown else None
        if rn == 0.0 or (breakdown and rn <= 1e-15 * self.norm_b):
            stop = Termination.EXACT_SOLUTION
        elif xn > 0.0 and rn < self.cfg.berr_tolerance * self.s * xn:
            stop = Termination.TOLERANCE_REACHED
        if xn != 0.0:
            self.record(k, x, rn, xn)
        return stop

    def result(self, x, k, termination=None):
        """SolveResult after k iterations; no termination means the budget ran out."""
        return SolveResult(
            x, self.trace, termination or Termination.MAX_ITERATIONS, self.trace.opnorm, k
        )


def richardson(op, b, config=None, opnorm=None):
    """Richardson iteration x_{k+1} = x_k - eta (A x_k - b) on symmetric PSD A.

    With eta = 1/(C ||A||_2) the backward error after k iterations is at most
    C/k, which is what the default per-iteration trace shows.
    """
    if not op.symmetric:
        raise RequiresSymmetricError("richardson expects a symmetric PSD operator")
    mon = _Monitor(op, b, config, opnorm)
    b = mon.b
    eta = 1.0 / (mon.cfg.step_constant * mon.s)
    x = np.zeros(op.cols)
    r = -b  # r tracks A x - b
    for k in range(1, mon.cfg.max_iterations + 1):
        x = x - eta * r
        r = op.apply(x) - b if mon.refresh(k) else r - eta * op.apply(r)
        stop = mon.check(k, x, r)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def richardson_ne(op, b, config=None, opnorm=None):
    """Richardson on the normal equations: x_{k+1} = x_k - eta A^T (A x_k - b),
    eta = 1/(C ||A||_2^2). Works for any (possibly rectangular) A."""
    mon = _Monitor(op, b, config, opnorm)
    b = mon.b
    eta = 1.0 / (mon.cfg.step_constant * mon.s * mon.s)
    x = np.zeros(op.cols)
    r = -b
    for k in range(1, mon.cfg.max_iterations + 1):
        g = op.apply_adjoint(r)
        x = x - eta * g
        r = op.apply(x) - b if mon.refresh(k) else r - eta * op.apply(g)
        stop = mon.check(k, x, r)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def cg(op, b, config=None, opnorm=None):
    """Conjugate gradients on symmetric PSD A, traced in backward error."""
    if not op.symmetric:
        raise RequiresSymmetricError("cg expects a symmetric PSD operator")
    return _cg(op, _Monitor(op, b, config, opnorm))


def _cg(op, mon):
    b = mon.b
    x = np.zeros(op.cols)
    r = b.copy()  # r tracks b - A x
    p = r.copy()
    rs = float(r @ r)
    for k in range(1, mon.cfg.max_iterations + 1):
        ap = op.apply(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            return mon.result(x, k - 1, Termination.BREAKDOWN)
        gamma = rs / pap
        x = x + gamma * p
        r = b - op.apply(x) if mon.refresh(k) else r - gamma * ap
        rs_new = float(r @ r)
        stop = mon.check(k, x, math.sqrt(rs_new), breakdown=rs_new == 0.0)
        if stop is not None:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return mon.result(x, k, stop)


def minres(op, b, config=None, opnorm=None):
    """MINRES on symmetric A (Paige-Saunders recurrences, no preconditioner).

    The residual norm comes from the QR recurrence and is refreshed with an
    exact matvec every RECOMPUTE_EVERY iterations.
    """
    if not op.symmetric:
        raise RequiresSymmetricError("minres expects a symmetric operator")
    return _minres(op, _Monitor(op, b, config, opnorm))


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
    x = np.zeros(n)
    for k in range(1, mon.cfg.max_iterations + 1):
        v = y / beta
        y = op.apply(v)
        if k >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        oldb = beta
        beta = norm2(y)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        rn = norm2(b - op.apply(x)) if mon.refresh(k) else phibar
        stop = mon.check(k, x, rn, breakdown=beta == 0.0)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def lsqr(op, b, config=None, opnorm=None):
    """LSQR over the shared bidiagonalization (plain recurrence, no stored
    bases). Traces berr with the recursive residual-norm estimate, refreshed
    exactly every RECOMPUTE_EVERY iterations."""
    mon = _Monitor(op, b, config, opnorm)
    b = mon.b
    state = BidiagState(op, b, opnorm=mon.s, reorth="plain", store_basis=False)
    x = np.zeros(op.cols)
    w = state.q_latest().copy()
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
            w = state.q_latest() - (theta / rho) * w
        rn = norm2(op.apply(x) - b) if mon.refresh(k) else phibar
        stop = mon.check(k, x, rn, breakdown=state.breakdown)
        if stop is not None:
            break
    return mon.result(x, k, stop)


def regularized_solve(op, b, k, inner="cg", opnorm=None, trace_every=1, seed=0):
    """Solve (A + delta I) x = b with delta = 2 (ln k / k)^2 ||A||_2 for k
    inner CG or MINRES steps; the shift makes the inner system well enough
    conditioned that the returned x carries the certified backward-error bound
    5 (ln k / k)^2 against the original A.

    Requires symmetric PSD A and k >= 9. The trace reports berr against the
    original operator (one extra matvec per recorded row).
    """
    if k < 9:
        raise ValueError("the shift schedule needs k >= 9")
    if not op.symmetric:
        raise RequiresSymmetricError("regularized_solve expects symmetric PSD A")
    if inner not in ("cg", "minres"):
        raise ValueError(f"unknown inner solver {inner!r}")
    b = _check_rhs(op, b)  # before ||A||_2 is estimated
    s = _resolve_opnorm(op, opnorm)
    ratio_sq = (math.log(k) / k) ** 2
    shift = 2.0 * ratio_sq * s
    shifted = ShiftedOperator(op, shift)
    shifted.set_opnorm(s + shift)  # exact for PSD A
    cfg = SolverConfig(
        step_constant=1.0,
        max_iterations=k,
        berr_tolerance=1e-300,  # run all k steps unless the residual hits 0
        trace_every=trace_every,
        seed=seed,
    )
    mon = _Monitor(shifted, b, cfg, measure=(op, s))
    res = (_cg if inner == "cg" else _minres)(shifted, mon)
    res.certified_berr_bound = 5.0 * ratio_sq
    return res
