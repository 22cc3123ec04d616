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
    "RQ_STABILIZED_RTOL",
]

# inverse iteration stops once its estimate of ||band v||^2 moves by at most
# this much (relative) between steps; inverse_iteration argues the value
RQ_STABILIZED_RTOL = 1e-10


class CholTestState:
    """Incremental Cholesky test for sigma_min(Ttilde_k) < eps.

    Feed ``push_column`` the scaled Ttilde column as a tuple of three Python
    floats ``(entry at row k-3, entry at row k-2, entry at row k-1)`` in
    0-based rows (0.0 where the band has no entry), as ``LanczosState.step``
    returns it. Returns True once converged; the state then rejects further
    columns.
    """

    def __init__(self, eps):
        if not eps >= 0.0:
            raise ValueError("eps must be nonnegative")
        self.eps = float(eps)
        self._shift = self.eps * self.eps
        self._col_prev = self._col_prev2 = (0.0, 0.0, 0.0)
        self._r_prev = self._r_prev2 = (0.0, 0.0, 0.0)
        self.k = 0
        self.converged = False
        self.last_pivot_squared = None

    def push_column(self, col):
        if self.converged:
            raise RuntimeError("convergence test already signalled")
        c0, c1, c2 = col
        self.k += 1
        k = self.k
        g_kk = c0 * c0 + c1 * c1 + c2 * c2
        g_km1 = self._col_prev[1] * c0 + self._col_prev[2] * c1
        g_km2 = self._col_prev2[2] * c0
        r0 = g_km2 / self._r_prev2[2] if k >= 3 else 0.0
        r1 = (g_km1 - self._r_prev[1] * r0) / self._r_prev[2] if k >= 2 else 0.0
        pivot_sq = g_kk - self._shift - r0 * r0 - r1 * r1
        self.last_pivot_squared = pivot_sq
        if pivot_sq <= 0.0:
            self.converged = True
            return True
        self._col_prev2, self._col_prev = self._col_prev, col
        self._r_prev2, self._r_prev = self._r_prev, (r0, r1, math.sqrt(pivot_sq))
        return False


class DqdsState:
    """Shifted dqds test for sigma_min(Btilde_k) < eps.

    Feed ``push`` the scaled Btilde column as a tuple of two Python floats
    ``(alpha_k, beta_{k+1})``, as ``BidiagState.step`` returns it (the first
    column's alpha entry is ignored); p_k = beta_{k+1}^2 is the squared
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
        alpha, beta = col
        p_k = beta * beta
        self.k += 1
        if self.k == 1:
            self.d = p_k - self._shift
        else:
            p_hat = self.d + alpha * alpha
            self.d = self.d * (p_k / p_hat) - self._shift
        if self.d <= 0.0:
            self.converged = True
        return self.converged


def inverse_iteration_steps(k, delta):
    """Step budget ceil(2.23 ln(k / delta^2)) for failure probability delta,
    with ln(delta^2) taken as 2 ln(delta): delta^2 underflows to 0 for delta
    below about 1e-154. With this budget, ``inverse_iteration`` on a k x k
    band returns a unit v with ||band v||^2 <= 1.5 sigma_min(band)^2 with
    probability at least 1 - delta (Kuczynski & Wozniakowski 1992, SIAM J.
    Matrix Anal. Appl. 13)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    return max(1, math.ceil(2.23 * (math.log(k) - 2.0 * math.log(delta))))


def inverse_iteration(band, max_steps, seed):
    """Smallest-singular-pair estimate for a BandMatrix via inverse iteration.

    Runs at most max_steps inverse power steps on band^T band from a seeded
    Gaussian start. With max_steps = inverse_iteration_steps(k, delta), the
    returned unit vector v satisfies ||band v||^2 <= 1.5 sigma_min(band)^2
    with probability at least 1 - delta. The band solves floor the diagonal
    at SOLVE_FLOOR, so on a band with a zero diagonal entry the first step
    lands on the null direction. A solve whose result is zero or not finite
    ends the iteration with the last iterate. Dividing each solve's result
    by its norm stops the growth of the iterate from compounding over the two
    solves of a step and over steps; ``math.hypot`` scales internally, so a
    norm is finite wherever the entries are.

    The iterate is held as the pair (w, ||w||), w a list of Python floats,
    the band solves' own type, and the unit vector it stands for is
    w / ||w||. A solve divides each entry of its right-hand side by the
    norm as it reads it (see ``_kernels``), which rounds as dividing w out
    first would, so no normalized copy is built; v = w / ||w|| is formed
    once, at the end, and becomes an array. A step solves band^T y = v and
    band z = y / ||y||, and takes v = z / ||z||; then band v = (y / ||y||) /
    ||z||, so ||band v||^2 = 1 / ||z||^2 without a matvec. The iteration
    stops early once that estimate moves by at most RQ_STABILIZED_RTOL
    (relative) between steps. The value 1e-10 is a multiple of the rounding
    noise in the estimate: ||z||^2 is a sum of k squares, with relative error
    up to gamma_k = k u / (1 - k u) (Higham 2002, "Accuracy and Stability of
    Numerical Algorithms", sec. 3.1), and each solve is exact only for a band
    perturbed by gamma_3 entrywise (ibid., Thm. 8.5). At berrkit's default
    k_max of 20000, k u is 2.2e-12, so 1e-10 stays 45 times above the noise at
    every k a run reaches. What an early stop leaves: with rho < 1 the ratio
    of the two smallest singular values, the excess
    ||band v||^2 - sigma_min^2 shrinks by about rho^4 per step, so a step
    that moved the estimate by at most 1e-10 leaves an excess of at most
    about 1e-10 rho^4 / (1 - rho^4) relative. That passes the guarantee's
    factor 1.5 only when 1 - rho^4 < 2e-10, where the two smallest singular
    values agree to 1e-10 and either one serves. The stop rule decides only
    when to stop, not what is certified: the returned certificate is
    measured, by one ``band.matvec`` of the returned v.

    Returns
    -------
    (v, cert, steps) : unit vector, its certificate ||band v||_2 / ||v||_2
    (which equals the backward error of the x recovered from v), and the
    number of steps taken.
    """
    w = np.random.default_rng(seed).standard_normal(band.k).tolist()
    nw = math.hypot(*w)
    solve, solve_t = band.solve, band.solve_t
    growth = 0.0  # ||z|| of the last step, so ||band v||^2 = 1 / growth^2
    steps = 0
    for _ in range(max_steps):
        # one inverse power step on band^T band
        y = solve_t(w, nw)
        ny = math.hypot(*y)
        if not 0.0 < ny < math.inf:
            # degenerate iterate; keep the current one
            break
        z = solve(y, ny)
        nz = math.hypot(*z)
        if not 0.0 < nz < math.inf:
            break
        w, nw = z, nz
        steps += 1
        # the estimate moved from 1 / growth^2 to 1 / nz^2
        if abs(1.0 - (growth / nz) ** 2) <= RQ_STABILIZED_RTOL:
            break
        growth = nz
    v = [x / nw for x in w]
    measured = band.matvec(v)
    v = np.array(v)
    return v, norm2(measured) / norm2(v), steps
