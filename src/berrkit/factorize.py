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
from the raw coefficients and are invariant under this scaling.
"""

import numpy as np

from ._kernels import band_solve_upper, band_solve_upper_t
from .errors import (
    DimensionMismatchError,
    OrthogonalRhsError,
    PostBreakdownError,
    RequiresSymmetricError,
    SingularBandError,
)
from .operators import norm2

__all__ = ["BandMatrix", "LanczosState", "BidiagState", "BREAKDOWN_TOL_FACTOR"]

# breakdown threshold, as a multiple of ||A||_2
BREAKDOWN_TOL_FACTOR = 1e-14

# reorthogonalization policies: "plain" runs the short recurrence alone,
# "full" also orthogonalizes each new vector against the stored basis
_REORTH_POLICIES = ("plain", "full")


class BandMatrix:
    """Upper-triangular matrix with up to two superdiagonals.

    ``diag`` has length k, ``sup1`` length k-1, ``sup2`` length k-2 (``sup2``
    is all zeros for bidiagonal views). Snapshot semantics: instances are
    detached from the factorization state that produced them.
    """

    def __init__(self, diag, sup1, sup2=None):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.sup1 = np.asarray(sup1, dtype=np.float64)
        k = self.diag.shape[0]
        if sup2 is None:
            sup2 = np.zeros(max(k - 2, 0))
        self.sup2 = np.asarray(sup2, dtype=np.float64)
        if self.sup1.shape[0] != max(k - 1, 0) or self.sup2.shape[0] != max(k - 2, 0):
            raise DimensionMismatchError("band arrays have inconsistent lengths")

    @property
    def k(self):
        return self.diag.shape[0]

    def dense(self):
        k = self.k
        a = np.zeros((k, k))
        a[np.arange(k), np.arange(k)] = self.diag
        if k > 1:
            a[np.arange(k - 1), np.arange(1, k)] = self.sup1
        if k > 2:
            a[np.arange(k - 2), np.arange(2, k)] = self.sup2
        return a

    def matvec(self, v):
        k = self.k
        y = self.diag * v
        if k > 1:
            y[:-1] += self.sup1 * v[1:]
        if k > 2:
            y[:-2] += self.sup2 * v[2:]
        return y

    def _solve_diag(self, floor):
        d = self.diag
        if floor > 0.0:
            small = np.abs(d) < floor
            if np.any(small):
                d = d.copy()
                d[small] = np.where(d[small] < 0.0, -floor, floor)
        elif np.any(d == 0.0):
            raise SingularBandError("zero diagonal entry in banded solve")
        return d

    def solve(self, rhs, floor=0.0):
        """Back substitution for self @ x = rhs."""
        d = self._solve_diag(floor)
        return band_solve_upper(d, self.sup1, self.sup2, np.asarray(rhs, float))

    def solve_t(self, rhs, floor=0.0):
        """Forward substitution for self.T @ x = rhs."""
        d = self._solve_diag(floor)
        return band_solve_upper_t(d, self.sup1, self.sup2, np.asarray(rhs, float))

    def sigma_min_dense(self):
        """Smallest singular value via dense SVD (reference path for tests)."""
        return float(np.linalg.svd(self.dense(), compute_uv=False)[-1])


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


def _reorthogonalize(w, basis):
    """Two classical Gram-Schmidt sweeps of w against the stored columns."""
    for _ in range(2):
        w = w - basis @ (basis.T @ w)
    return w


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

        The column is padded to three entries ``(row k-3, row k-2, row k-1)``
        in 0-based rows, i.e. ``(beta_k, alpha_k, beta_{k+1})`` scaled, with
        zeros where the matrix has no entry yet.
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
        col = np.zeros(3)
        col[2] = beta_next / self.opnorm
        if k >= 2:
            col[1] = alpha_k / self.opnorm
        if k >= 3:
            col[0] = self.betas[k - 2] / self.opnorm
        return col

    def basis(self, k=None):
        """First k Lanczos vectors as columns (default: all completed steps)."""
        return self._q.view(min(self.k, self._q.count) if k is None else k)

    def ttilde(self, k=None):
        """Scaled Ttilde_k as a BandMatrix (default: current k)."""
        k = self.k if k is None else k
        if not (1 <= k <= self.k):
            raise ValueError(f"no Ttilde_{k} after {self.k} steps")
        nb = np.asarray(self.betas[:k]) / self.opnorm
        na = np.asarray(self.alphas[1:k]) / self.opnorm
        return BandMatrix(nb, na, nb[1 : k - 1])


class BidiagState:
    """Golub-Kahan bidiagonalization with the scaled Btilde view.

    Raw coefficients: ``norm_b`` is beta_1 = ||b||, ``alphas[i]`` is
    alpha_{i+1} (so alpha_1 is computed at construction), ``betas[i]`` is
    beta_{i+2}. The Btilde view is upper bidiagonal with diagonal
    (beta_2, ..., beta_{k+1}) and superdiagonal (alpha_2, ..., alpha_k),
    scaled by 1/opnorm.

    ``store_basis=False`` keeps only the two live vectors (the plain LSQR
    recurrence); recovery then becomes unavailable.
    """

    def __init__(self, op, b, opnorm=None, reorth="plain", store_basis=True):
        _check_reorth(reorth)
        if reorth == "full" and not store_basis:
            raise ValueError("full reorthogonalization requires stored bases")
        b = np.asarray(b, dtype=np.float64)
        self.op = op
        self.reorth = reorth
        self.store_basis = store_basis
        self.opnorm = float(op.opnorm() if opnorm is None else opnorm)
        self.breakdown_tol = BREAKDOWN_TOL_FACTOR * self.opnorm
        self.norm_b = norm2(b)
        if self.norm_b == 0.0:
            raise ValueError("b must be nonzero")
        u = b / self.norm_b
        z = op.apply_adjoint(u)
        alpha1 = norm2(z)
        if alpha1 <= self.breakdown_tol:
            raise OrthogonalRhsError("A^T b = 0: the left Krylov space is empty")
        q = z / alpha1
        if store_basis:
            self._u = _GrowingColumns(op.rows)
            self._qcols = _GrowingColumns(op.cols)
            self._u.push(u)
            self._qcols.push(q)
        else:
            self._last_u = u
            self._last_q = q
        self.alphas = [alpha1]
        self.betas = []
        self.k = 0
        self.breakdown = False

    def _u_k(self):
        return self._u.view()[:, -1] if self.store_basis else self._last_u

    def step(self):
        """One bidiagonalization step; returns the new scaled Btilde column.

        Padded to two entries ``(alpha_k, beta_{k+1})`` scaled, zero where the
        matrix has no superdiagonal entry yet. After the step, ``alphas`` also
        holds alpha_{k+1} unless the step broke down.
        """
        if self.breakdown:
            raise PostBreakdownError("bidiagonalization stepped after breakdown")
        k = self.k + 1
        u_k = self._u_k()
        q_k = self.q_latest()
        w = self.op.apply(q_k) - self.alphas[k - 1] * u_k
        if self.reorth == "full":
            w = _reorthogonalize(w, self._u.view())
        beta_next = norm2(w)
        self.betas.append(beta_next)
        self.k = k
        col = np.zeros(2)
        col[1] = beta_next / self.opnorm
        if k >= 2:
            col[0] = self.alphas[k - 1] / self.opnorm
        if beta_next <= self.breakdown_tol:
            self.breakdown = True
            return col
        u_next = w / beta_next
        z = self.op.apply_adjoint(u_next) - beta_next * q_k
        if self.reorth == "full":
            z = _reorthogonalize(z, self._qcols.view())
        alpha_next = norm2(z)
        self.alphas.append(alpha_next)
        self.breakdown = alpha_next <= self.breakdown_tol
        if self.store_basis:
            self._u.push(u_next)
            if not self.breakdown:
                self._qcols.push(z / alpha_next)
        else:
            self._last_u = u_next
            if not self.breakdown:
                self._last_q = z / alpha_next
        return col

    def q_latest(self):
        """Most recent right vector q (available in both storage modes)."""
        return self._qcols.view()[:, -1] if self.store_basis else self._last_q

    def basis_q(self, k=None):
        if not self.store_basis:
            raise ValueError("bases were not stored")
        return self._qcols.view(min(self.k, self._qcols.count) if k is None else k)

    def basis_u(self, k=None):
        if not self.store_basis:
            raise ValueError("bases were not stored")
        return self._u.view(min(self.k + 1, self._u.count) if k is None else k)

    def btilde(self, k=None):
        """Scaled Btilde_k as a BandMatrix (default: current k)."""
        k = self.k if k is None else k
        if not (1 <= k <= self.k):
            raise ValueError(f"no Btilde_{k} after {self.k} steps")
        nb = np.asarray(self.betas[:k]) / self.opnorm
        na = np.asarray(self.alphas[1:k]) / self.opnorm
        return BandMatrix(nb, na)
