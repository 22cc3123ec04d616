"""O(1)-per-step convergence tests on the band matrices, plus inverse iteration.

Both tests decide whether sigma_min of the growing band matrix has dropped
below a tolerance eps, consuming one new column per factorization step:

* ``CholTestState`` runs an incremental Cholesky of Gram(Ttilde) - eps^2 I.
  Because Ttilde is upper triangular, its leading k x k block is exactly the
  Gram matrix of the first k columns, so a nonpositive pivot at column k means
  sigma_min(Ttilde_k) <= eps, and conversely.
* ``DqdsState`` runs the shifted dqds recurrence on the upper-bidiagonal
  Btilde; it takes the same band column the factorization step returns and
  squares its entries (diagonal p, superdiagonal e) itself. The carry d_k
  going nonpositive is the same criterion.

Appending a column never changes earlier pivots or carries, which is what
makes the one-step updates valid.
"""

import math

import numpy as np

from .operators import norm2

__all__ = [
    "CholTestState",
    "DqdsState",
    "inverse_iteration",
    "inverse_iteration_steps",
    "rayleigh_certificate",
    "RQ_STABILIZED_RTOL",
]

# early-exit threshold for Rayleigh-quotient stabilization in inverse iteration
RQ_STABILIZED_RTOL = 1e-14


class CholTestState:
    """Incremental Cholesky test for sigma_min(Ttilde_k) < eps.

    Feed ``push_column`` the scaled Ttilde column as a padded 3-vector
    ``(entry at row k-3, entry at row k-2, entry at row k-1)`` in 0-based rows
    (zeros where the band has no entry). Returns True once converged; the
    state then rejects further columns.
    """

    def __init__(self, eps):
        if not eps >= 0.0:
            raise ValueError("eps must be nonnegative")
        self.eps = float(eps)
        self._shift = self.eps * self.eps
        self._col_prev = np.zeros(3)
        self._col_prev2 = np.zeros(3)
        self._r_prev = np.zeros(3)
        self._r_prev2 = np.zeros(3)
        self.k = 0
        self.converged = False
        self.last_pivot_squared = None

    def push_column(self, col):
        if self.converged:
            raise RuntimeError("convergence test already signalled")
        col = np.asarray(col, dtype=np.float64)
        self.k += 1
        k = self.k
        g_kk = float(col @ col)
        g_km1 = float(self._col_prev[1] * col[0] + self._col_prev[2] * col[1])
        g_km2 = float(self._col_prev2[2] * col[0])
        r0 = g_km2 / self._r_prev2[2] if k >= 3 else 0.0
        r1 = (g_km1 - self._r_prev[1] * r0) / self._r_prev[2] if k >= 2 else 0.0
        pivot_sq = g_kk - self._shift - r0 * r0 - r1 * r1
        self.last_pivot_squared = pivot_sq
        if pivot_sq <= 0.0:
            self.converged = True
            return True
        self._col_prev2 = self._col_prev
        self._col_prev = col
        self._r_prev2 = self._r_prev
        self._r_prev = np.array([r0, r1, math.sqrt(pivot_sq)])
        return False


class DqdsState:
    """Shifted dqds test for sigma_min(Btilde_k) < eps.

    Feed ``push`` the scaled Btilde column ``(alpha_k, beta_{k+1})`` (the
    first column's alpha entry is ignored); p_k = beta_{k+1}^2 is the squared
    diagonal entry and e_{k-1} = alpha_k^2 the squared superdiagonal entry.
    Returns True once the carry goes nonpositive; the state then rejects
    further columns.
    """

    def __init__(self, eps):
        if not eps >= 0.0:
            raise ValueError("eps must be nonnegative")
        self.eps = float(eps)
        self._shift = self.eps * self.eps
        self.d = None
        self.k = 0
        self.converged = False

    def push(self, col):
        if self.converged:
            raise RuntimeError("convergence test already signalled")
        p_k = float(col[1] * col[1])
        self.k += 1
        if self.k == 1:
            self.d = p_k - self._shift
        else:
            p_hat = self.d + float(col[0] * col[0])
            self.d = self.d * (p_k / p_hat) - self._shift
        if self.d <= 0.0:
            self.converged = True
        return self.converged


def _solve_normalized(solve, rhs):
    """``solve(rhs)`` scaled to a unit vector, or None when its result has a
    non-finite entry or is zero.

    The band solves floor the diagonal at SOLVE_FLOOR, so a singular band
    solves like any other. Inverse iteration needs only directions, and
    normalizing after each solve stops the growth of the iterate from
    compounding over the two solves of a step and over steps.
    """
    w = solve(rhs)
    nw = norm2(w)
    if not 0.0 < nw < math.inf:
        return None
    return w / nw


def inverse_iteration_steps(k, delta):
    """Step budget ceil(2.23 ln(k / delta^2)) for failure probability delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    return max(1, math.ceil(2.23 * math.log(k / (delta * delta))))


def inverse_iteration(band, delta, seed, max_steps=None):
    """Smallest-singular-pair estimate for a BandMatrix via inverse iteration.

    Runs inverse power steps on band^T band from a seeded Gaussian start. With
    the default budget of ceil(2.23 ln(k/delta^2)) steps, the returned unit
    vector v satisfies ||band v||^2 <= 1.5 sigma_min(band)^2 with probability
    at least 1 - delta; exits early once the Rayleigh quotient stabilizes to
    RQ_STABILIZED_RTOL between steps. The band solves floor the diagonal at
    SOLVE_FLOOR, so on a band with a zero diagonal entry the first step lands
    on the null direction. A solve whose result is zero or not finite ends
    the iteration with the last unit iterate.

    Returns
    -------
    (v, rq, steps) : unit vector, its Rayleigh quotient ||band v||^2, and the
    number of steps taken.
    """
    k = band.k
    if max_steps is None:
        max_steps = inverse_iteration_steps(k, delta)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(k)
    v /= norm2(v)
    mv = band.matvec(v)
    rq = float(mv @ mv)
    solve, solve_t = band.solve, band.solve_t
    steps = 0
    for _ in range(max_steps):
        # one inverse power step on band^T band
        w = _solve_normalized(solve_t, v)
        if w is not None:
            w = _solve_normalized(solve, w)
        if w is None:
            # degenerate iterate; keep the current v
            break
        v = w
        steps += 1
        mv = band.matvec(v)
        rq_new = float(mv @ mv)
        if abs(rq_new - rq) <= RQ_STABILIZED_RTOL * rq_new:
            rq = rq_new
            break
        rq = rq_new
    return v, rq, steps


def rayleigh_certificate(band, v):
    """||band v||_2 / ||v||_2; equals the backward error of the recovered x."""
    return norm2(band.matvec(v)) / norm2(v)
