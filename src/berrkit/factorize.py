"""Lanczos tridiagonalization and Golub-Kahan bidiagonalization.

Both factorizations are driven one step at a time and keep only the raw
recurrence coefficients; the step column and the banded upper-triangular view
divide them by the operator norm when they are built:

* Lanczos: T_k is the (k+1) x k tridiagonal; dropping its first row leaves the
  k x k upper-triangular ``Ttilde`` with bandwidth 3, whose smallest singular
  value (in the norm-scaled units used here) equals the minimal backward error
  over the Krylov subspace.
* Bidiagonalization: B_k is the (k+1) x k lower bidiagonal; dropping its first
  row leaves the upper-bidiagonal ``Btilde`` with the same property for the
  normal-equations Krylov subspace.

Scaling the coefficients by 1/||A||_2 is what makes sigma_min comparable to a
backward-error tolerance directly; the recovery scalars downstream are computed
from the raw coefficients and are invariant under this scaling. The band
problem stays in Python floats from the step column through the O(1) tests
and the band solves to ``BandMatrix.matvec``, which measures the
certificate and returns the one array; the Krylov bases are numpy.
"""

import numpy as np

from ._kernels import band_solve_upper, band_solve_upper_t
from .errors import DimensionMismatchError, PostBreakdownError, RequiresSymmetricError
from .operators import _golub_kahan_start, _golub_kahan_step, _reorthogonalize, norm2

__all__ = ["BandMatrix", "LanczosState", "BidiagState", "BREAKDOWN_TOL_FACTOR", "SOLVE_FLOOR"]

# floor (in norm-scaled units) under the diagonal entries of the band solves
SOLVE_FLOOR = 1e-30
# breakdown threshold, as a multiple of ||A||_2
BREAKDOWN_TOL_FACTOR = 1e-14

# reorthogonalization policies: "plain" runs the short recurrence alone,
# "full" also orthogonalizes each new vector against the stored basis
_REORTH_POLICIES = ("plain", "full")


class BandMatrix:
    """Upper-triangular matrix with up to two superdiagonals.

    ``diag`` has length k, ``sup1`` length k-1, ``sup2`` length k-2 (``sup2``
    is all zeros for bidiagonal views). The three are kept as tuples, an
    array's entries as Python floats, so a band is a snapshot: a later edit
    of the caller's lists or arrays reaches neither ``matvec`` nor the
    solves.

    The solves run on the diagonal floored at SOLVE_FLOOR: an entry below it
    in magnitude is solved as -SOLVE_FLOOR when negative and +SOLVE_FLOOR
    otherwise, so a zero of either sign becomes +SOLVE_FLOOR. A zero pivot so
    replaced by a tiny one is harmless to inverse iteration, the solves' one
    use (Peters & Wilkinson 1979, "Inverse iteration, ill-conditioned
    equations and Newton's method", SIAM Rev. 21): the solve then grows along
    the null direction, which is the direction sought. The constructor builds
    what the solves take once: that diagonal and each direction's
    zero-padded superdiagonals (see ``_kernels``).
    """

    def __init__(self, diag, sup1, sup2=None):
        self.diag, self.sup1 = _floats(diag), _floats(sup1)
        k = len(self.diag)
        self.sup2 = (0.0,) * max(k - 2, 0) if sup2 is None else _floats(sup2)
        if len(self.sup1) != max(k - 1, 0) or len(self.sup2) != max(k - 2, 0):
            raise DimensionMismatchError("band arrays have inconsistent lengths")
        floored = self.diag
        if min(floored, default=SOLVE_FLOOR) < SOLVE_FLOOR:
            floored = [(-SOLVE_FLOOR if d < 0.0 else SOLVE_FLOOR) if abs(d) < SOLVE_FLOOR else d
                       for d in floored]
        self._upper = (floored, self.sup1 + (0.0,), self.sup2 + (0.0, 0.0))
        self._upper_t = (floored, (0.0,) + self.sup1, (0.0, 0.0) + self.sup2)

    @property
    def k(self):
        return len(self.diag)

    def matvec(self, v):
        """self @ v as a float64 array, for v a list of Python floats or an
        array. Row i is (diag_i v_i + sup1_i v_{i+1}) + sup2_i v_{i+2} on
        Python floats, in that order; the last two rows carry only the terms
        they have, so a signed zero there stays signed."""
        if isinstance(v, np.ndarray):
            v = v.tolist()
        diag, sup1, k = self.diag, self.sup1, self.k
        y = [d * x + s1 * x1 + s2 * x2
             for d, s1, s2, x, x1, x2 in zip(diag, sup1, self.sup2, v, v[1:], v[2:])]
        if k > 1:
            y.append(diag[k - 2] * v[k - 2] + sup1[k - 2] * v[k - 1])
        if k > 0:
            y.append(diag[k - 1] * v[k - 1])
        return np.array(y)

    def solve(self, rhs):
        """Back substitution for self @ x = rhs, on the floored diagonal; rhs
        and x are lists of Python floats."""
        return band_solve_upper(*self._upper, rhs)

    def solve_t(self, rhs):
        """Forward substitution for self.T @ x = rhs, as ``solve``."""
        return band_solve_upper_t(*self._upper_t, rhs)


def _floats(values):
    """values as a tuple; an array's entries become Python floats."""
    return tuple(values.tolist() if isinstance(values, np.ndarray) else values)


class _GrowingColumns:
    """Column store with geometric growth.

    The buffer is Fortran-ordered, so each stored vector is one contiguous
    column: the per-step reads and writes touch n consecutive floats instead
    of one cache line per entry, and ``view(k)`` is an F-contiguous slice.
    """

    def __init__(self, n, capacity=16):
        self._buf = np.empty((n, capacity), order="F")
        self.count = 0

    def push(self, v):
        if self.count == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], 2 * self._buf.shape[1]), order="F")
            grown[:, : self.count] = self._buf
            self._buf = grown
        self._buf[:, self.count] = v
        self.count += 1

    def view(self, k=None):
        """The first k stored columns (default: all), without a copy."""
        if k is None:
            k = self.count
        elif not (0 <= k <= self.count):
            raise ValueError(f"asked for {k} basis vectors, {self.count} stored")
        return self._buf[:, :k]


def _check_reorth(reorth):
    if reorth not in _REORTH_POLICIES:
        raise ValueError(f"unknown reorthogonalization policy {reorth!r}")


class LanczosState:
    """Symmetric Lanczos with stored basis and the scaled Ttilde view.

    Raw coefficients: ``alphas[i]`` is alpha_{i+1}, ``betas[i]`` is beta_{i+2}
    (the beta produced at step i+1). ``norm_b`` is ||b||. The step column and
    ``ttilde`` divide them by opnorm.

    Parameters
    ----------
    op : LinearOperator
        Must carry symmetric=True.
    b : ndarray
        Nonzero starting vector.
    opnorm : float, optional
        Spectral norm of op; defaults to op.opnorm().
    reorth : {"plain", "full"}
        "plain" is the two-term recurrence; "full" re-projects each new vector
        against every stored basis column (two sweeps).
    """

    def __init__(self, op, b, opnorm=None, reorth="plain"):
        if not op.symmetric:
            raise RequiresSymmetricError("Lanczos needs a symmetric operator")
        _check_reorth(reorth)
        b = np.asarray(b, dtype=np.float64)
        self.norm_b = norm2(b)
        if self.norm_b == 0.0:
            raise ValueError("b must be nonzero")
        self.op = op
        self.reorth = reorth
        self.opnorm = float(op.opnorm() if opnorm is None else opnorm)
        self.breakdown_tol = BREAKDOWN_TOL_FACTOR * self.opnorm
        self._q = _GrowingColumns(op.rows)
        self._q.push(b / self.norm_b)
        self.alphas = []
        self.betas = []
        self.k = 0
        self.breakdown = False

    def step(self):
        """One Lanczos step; returns the new scaled Ttilde column.

        The column is a tuple of three Python floats ``(row k-3, row k-2,
        row k-1)`` in 0-based rows, i.e. ``(beta_k, alpha_k, beta_{k+1})``
        scaled, with 0.0 where the matrix has no entry yet.
        """
        if self.breakdown:
            raise PostBreakdownError("Lanczos stepped after breakdown")
        k = self.k + 1
        q_k = self._q.view()[:, k - 1]
        w = self.op.apply(q_k)
        if k >= 2:
            w -= self.betas[k - 2] * self._q.view()[:, k - 2]
        alpha_k = float(w @ q_k)
        w -= alpha_k * q_k
        if self.reorth == "full":
            w = _reorthogonalize(w, self._q.view())
        beta_next = norm2(w)
        self.alphas.append(alpha_k)
        self.betas.append(beta_next)
        self.breakdown = beta_next <= self.breakdown_tol
        if not self.breakdown:
            self._q.push(w / beta_next)
        self.k = k
        s = self.opnorm
        return (self.betas[k - 2] / s if k >= 3 else 0.0, alpha_k / s if k >= 2 else 0.0,
                beta_next / s)

    def basis(self, k=None):
        """First k Lanczos vectors as columns (default: all completed steps)."""
        return self._q.view(min(self.k, self._q.count) if k is None else k)

    def ttilde(self, k=None):
        """Scaled Ttilde_k as a BandMatrix (default: current k)."""
        return _scaled_band(self, k, tridiagonal=True)


class BidiagState:
    """Golub-Kahan bidiagonalization with the right basis and the scaled Btilde view.

    Raw coefficients: ``norm_b`` is beta_1 = ||b||, ``alphas[i]`` is
    alpha_{i+1} (so alpha_1 is computed at construction), ``betas[i]`` is
    beta_{i+2}. The Btilde view is upper bidiagonal with diagonal
    (beta_2, ..., beta_{k+1}) and superdiagonal (alpha_2, ..., alpha_k),
    scaled by 1/opnorm. Each step is ``operators._golub_kahan_step``, the one
    ``classical.lsqr`` and the norm estimate run too. The right basis is
    stored for recovery; the left one only under "full" reorthogonalization,
    which reads it, while "plain" keeps the last left vector alone.
    """

    def __init__(self, op, b, opnorm=None, reorth="plain"):
        _check_reorth(reorth)
        self.op = op
        self.reorth = reorth
        self.opnorm = float(op.opnorm() if opnorm is None else opnorm)
        self.breakdown_tol = BREAKDOWN_TOL_FACTOR * self.opnorm
        self.norm_b, self._u, alpha1, q1 = _golub_kahan_start(
            op, np.asarray(b, dtype=np.float64), self.breakdown_tol)
        self._qcols = _GrowingColumns(op.cols)
        self._qcols.push(q1)
        self._ucols = None
        if reorth == "full":
            self._ucols = _GrowingColumns(op.rows)
            self._ucols.push(self._u)
        self.alphas = [alpha1]
        self.betas = []
        self.k = 0
        self.breakdown = False

    def step(self):
        """One bidiagonalization step; returns the new scaled Btilde column.

        A tuple of two Python floats ``(alpha_k, beta_{k+1})`` scaled, 0.0
        where the matrix has no superdiagonal entry yet. After the step,
        ``alphas`` also holds alpha_{k+1} unless the step broke down, which
        a non-finite beta_{k+1}, carried by the column, also counts as.
        """
        if self.breakdown:
            raise PostBreakdownError("bidiagonalization stepped after breakdown")
        k = self.k + 1
        bases = None if self._ucols is None else (self._ucols.view(), self._qcols.view())
        beta, u, alpha, q = _golub_kahan_step(
            self.op, self._u, self._qcols.view()[:, -1], self.alphas[-1], self.breakdown_tol, bases)
        self.betas.append(beta)
        self.k = k
        s = self.opnorm
        col = (self.alphas[k - 1] / s if k >= 2 else 0.0, beta / s)
        self.breakdown = q is None
        if u is not None:
            self._u = u
            if self._ucols is not None:
                self._ucols.push(u)
            self.alphas.append(alpha)
        if q is not None:
            self._qcols.push(q)
        return col

    def basis_q(self, k=None):
        return self._qcols.view(min(self.k, self._qcols.count) if k is None else k)

    def btilde(self, k=None):
        """Scaled Btilde_k as a BandMatrix (default: current k)."""
        return _scaled_band(self, k, tridiagonal=False)


def _scaled_band(state, k, tridiagonal):
    """Ttilde_k (tridiagonal) or Btilde_k, the raw coefficients divided by
    opnorm: diagonal (beta_2, ..., beta_{k+1}), superdiagonal (alpha_2, ...,
    alpha_k) and, for Ttilde, second superdiagonal (beta_3, ..., beta_k)."""
    k = state.k if k is None else k
    if not (1 <= k <= state.k):
        raise ValueError(f"no {'Ttilde' if tridiagonal else 'Btilde'}_{k} after {state.k} steps")
    s = state.opnorm
    diag = [beta / s for beta in state.betas[:k]]
    sup1 = [alpha / s for alpha in state.alphas[1:k]]
    return BandMatrix(diag, sup1, diag[1 : k - 1] if tridiagonal else None)
