"""Matrix-free linear operators and the spectral-norm estimator.

Operators expose ``apply`` / ``apply_adjoint`` plus a cached 2-norm value.
They are immutable after construction with two exceptions: the ``products``
count, which each ``apply`` and ``apply_adjoint`` raises by one, and the norm
cache, which is filled on first use (or pinned via
:meth:`LinearOperator.set_opnorm` when the exact value is known, e.g. for
diagonal test problems). Solvers and
``backward_error`` read ||A||_2 only from here, through ``_check_norm``.
The one norm estimator, ``estimate_spectral_norm``, fills that cache; its
step, ``_golub_kahan_step``, is the one ``BidiagState`` and ``lsqr`` run.
``SumOperator`` adds ``regularized_solve``'s shift and
``minberr_ne_perturbed``'s perturbation, both of known norm. ``CsrOperator``
stores one copy of A, in CSR; its adjoint reads the same arrays. Complex
data given to a constructor or a product raises TypeError by name.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, NonFiniteError, OrthogonalRhsError, ZeroOperatorError

__all__ = [
    "NormEstimate",
    "LinearOperator",
    "DenseOperator",
    "CsrOperator",
    "DiagonalOperator",
    "SumOperator",
    "HouseholderChainOperator",
    "ConjugatedOperator",
    "estimate_spectral_norm",
    "norm2",
]


_FLOAT64 = np.dtype(np.float64)


def _real_array(a, what):
    """a as a float64 array; TypeError naming ``what`` for complex data, which
    the cast would cut to its real part."""
    a = np.asarray(a)
    # numpy shares one float64 dtype object, so an array that needs no cast
    # (every product in a solve) costs one identity test
    if a.dtype is not _FLOAT64:
        if a.dtype.kind == "c":
            raise TypeError(f"{what} is complex: berrkit solves real systems only")
        a = a.astype(np.float64, copy=False)
    return a


def _as_vector(v, n, what="vector"):
    """v as a float64 vector of shape (n,): TypeError naming ``what`` for
    complex data, DimensionMismatchError for another shape."""
    v = _real_array(v, what)
    if v.ndim != 1 or v.shape[0] != n:
        raise DimensionMismatchError(
            f"{what} has shape {v.shape}, expected ({n},)"
        )
    return v


# smallest positive normal float64
_NORMAL_MIN = float(np.finfo(np.float64).tiny)

# estimate_spectral_norm's stop tolerance, and the norm estimate's step cap
# and start seed
NORM_REL_TOL = 1e-3
NORM_MAX_ITER = 300
NORM_SEED = 0


def norm2(v):
    """Euclidean norm, safe from overflow and underflow.

    numpy computes the norm as sqrt(v @ v), which overflows to inf once
    ||v|| passes about 1.3e154 and loses digits, down to 0, below about
    1.5e-154. That sum is kept whenever it lands in the normal range, so the
    result there is numpy's to the bit; otherwise v is first divided by its
    largest magnitude, the scaling Blue (1978, "A portable Fortran program to
    find the Euclidean norm of a vector", ACM TOMS 4) uses to keep the squares
    in range. NaN entries give NaN and infinite ones inf, as in numpy.
    """
    x = np.asarray(v, dtype=np.float64).ravel(order="K")
    # vdot runs the same BLAS dot as numpy's norm without raising an overflow warning
    sq = float(np.vdot(x, x))
    if _NORMAL_MIN <= sq < math.inf:
        return math.sqrt(sq)
    big = float(np.max(np.abs(x))) if x.size else 0.0
    if not 0.0 < big < math.inf:
        return math.sqrt(sq)
    y = x / big
    return big * math.sqrt(float(np.vdot(y, y)))


@dataclass(frozen=True)
class NormEstimate:
    """Result of ``estimate_spectral_norm``: value <= ||A||_2, the tolerance of
    its stop rule and its step count (0 for a pinned norm)."""

    value: float
    relative_tolerance: float
    iterations_used: int


class LinearOperator:
    """Base class. Subclasses implement _apply (and _apply_adjoint if unsymmetric).

    ``_apply`` and ``_apply_adjoint`` return a fresh array: it shares no
    memory with the input or with the operator's own arrays, so the caller
    may overwrite it. The Krylov loops update that output in place (a
    subtracted term, a division by a norm) instead of allocating another
    vector for each step.

    ``products`` counts every ``apply`` and ``apply_adjoint`` on this
    operator, norm estimates included; a solve reports its own share as
    ``SolveResult.matvecs``.
    """

    def __init__(self, rows, cols, symmetric):
        self.rows = int(rows)
        self.cols = int(cols)
        self.symmetric = bool(symmetric)
        if self.symmetric and self.rows != self.cols:
            raise DimensionMismatchError("symmetric operator must be square")
        self._opnorm_cache = None
        self.products = 0

    def _apply(self, v):
        raise NotImplementedError

    def _apply_adjoint(self, v):
        raise NotImplementedError

    def apply(self, v):
        v = _as_vector(v, self.cols)
        self.products += 1
        return self._apply(v)

    def apply_adjoint(self, v):
        v = _as_vector(v, self.rows)
        self.products += 1
        if self.symmetric:
            return self._apply(v)
        return self._apply_adjoint(v)

    def set_opnorm(self, value):
        """Pin the cached spectral norm to a known exact value.

        The pin is recorded as exact (``ConjugatedOperator`` carries it over),
        so pass ||A||_2 itself, not a bound. A NaN or infinite value raises
        NonFiniteError and one <= 0 ValueError.
        """
        self._opnorm_cache = NormEstimate(_check_norm(value), 0.0, 0)
        return self

    def opnorm(self):
        """||A||_2 as every solver and ``backward_error`` use it: the pinned
        value, else an estimate made on first use by ``estimate_spectral_norm``
        and cached."""
        if self._opnorm_cache is None:
            self._opnorm_cache = estimate_spectral_norm(self)
        return self._opnorm_cache.value

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_dense(self):
        """Materialize as a dense array (tests and small oracles only)."""
        cols = []
        e = np.zeros(self.cols)
        for j in range(self.cols):
            e[j] = 1.0
            cols.append(self.apply(e))
            e[j] = 0.0
        return np.stack(cols, axis=1)


def _check_norm(s):
    """s as a float if it can stand for ||A||_2: NonFiniteError for NaN or
    infinity, ValueError for s <= 0."""
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteError(f"operator norm is {s}")
    if s <= 0.0:
        raise ValueError("operator norm must be positive")
    return s


def _reorthogonalize(w, basis):
    """Two classical Gram-Schmidt sweeps of w, in place, against the stored
    columns."""
    for _ in range(2):
        w -= basis @ (basis.T @ w)


def _golub_kahan_start(op, b, tol):
    """(||b||, u_1, alpha_1, q_1) with u_1 = b / ||b|| and alpha_1 q_1 = A^T u_1;
    ValueError for b = 0, OrthogonalRhsError for alpha_1 <= tol."""
    norm_b = norm2(b)
    if norm_b == 0.0:
        raise ValueError("b must be nonzero")
    u = b / norm_b
    z = op.apply_adjoint(u)
    alpha = norm2(z)
    if alpha <= tol:
        raise OrthogonalRhsError("A^T b = 0: the left Krylov space is empty")
    return norm_b, u, alpha, z / alpha


def _golub_kahan_step(op, u, q, alpha, tol, bases=None):
    """One Golub-Kahan step: beta u' = A q - alpha u, alpha' q' = A^T u' - beta q,
    each new vector reorthogonalized against its side of bases = (left, right)
    when given. Returns (beta, u', alpha', q'): (beta, None, 0.0, None) unless
    tol < beta < inf, and q' is None when alpha' <= tol. u' and q' are
    formed in place of u and q, the caller's last vectors, which it reads no
    more; each apply output is used once and dropped."""
    u *= alpha
    np.subtract(op.apply(q), u, out=u)
    if bases is not None:
        _reorthogonalize(u, bases[0])
    beta = norm2(u)
    if not tol < beta < math.inf:
        return beta, None, 0.0, None
    u /= beta
    q *= beta
    np.subtract(op.apply_adjoint(u), q, out=q)
    if bases is not None:
        _reorthogonalize(q, bases[1])
    alpha = norm2(q)
    if alpha <= tol:
        return beta, u, alpha, None
    q /= alpha
    return beta, u, alpha, q


def estimate_spectral_norm(op):
    """Estimate of ||A||_2 from below by Golub-Kahan bidiagonalization.

    Runs A v_k = alpha_k u_k + beta_{k-1} u_{k-1} and A^T u_k = alpha_k v_k +
    beta_k v_{k+1} (Golub & Kahan 1965) by ``_golub_kahan_step`` at tol 0,
    from u_0 = 0 and a Gaussian v_1 seeded with NORM_SEED. After step k the
    value is the top singular value of the k x (k+1) upper bidiagonal
    [B_k | beta_k e_k], which is U_k^T A V_{k+1}: a lower bound on ||A||_2, up
    to rounding, that cannot shrink as k grows. The Krylov space holds the
    power iterate, so the value converges faster than power iteration from
    the same start (Kuczynski & Wozniakowski 1992, SIAM J. Matrix Anal. Appl. 13).

    The run stops once the value has grown by at most NORM_REL_TOL (relative)
    over three steps, at a breakdown (alpha or beta exactly 0), or after
    min(m, n, NORM_MAX_ITER) steps for an m x n A; in exact arithmetic the
    value is ||A||_2 by step min(m, n). A zero first product raises
    ZeroOperatorError and a non-finite product NonFiniteError. The stop rule
    bounds the progress still being made, not the distance to ||A||_2;
    ``benchmarks/bench_kernels.py``'s opnorm table measured 1.7e-3 (relative)
    below it on 2-D Laplacians, 3.3e-4 on random sparse matrices and 4e-6 on
    a dense disguised diagonal, in 12 to 21 steps. Returns a NormEstimate.
    """
    v = np.random.default_rng(NORM_SEED).standard_normal(op.cols)
    v /= norm2(v)
    u = np.zeros(op.rows)
    max_steps = min(op.rows, op.cols, NORM_MAX_ITER)
    band = np.zeros((max_steps, max_steps + 1))  # [B_k | beta_k e_k], row by row
    tops = []
    beta = 0.0
    for k in range(1, max_steps + 1):
        # the step's (beta, alpha') are this bidiagonal's (alpha_k, beta_k)
        alpha, u, beta, v = _golub_kahan_step(op, u, v, beta, 0.0)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise NonFiniteError(f"norm estimate, step {k}: a product with A is not finite")
        if alpha == 0.0:
            if k == 1:
                raise ZeroOperatorError("norm estimate: A v = 0 for a random v")
            break
        band[k - 1, k - 1 : k + 1] = alpha, beta
        tops.append(float(np.linalg.svd(band[:k, : k + 1], compute_uv=False)[0]))
        if beta == 0.0 or (k > 3 and tops[-1] - tops[-4] <= NORM_REL_TOL * tops[-1]):
            break
    return NormEstimate(tops[-1], NORM_REL_TOL, len(tops))


class DenseOperator(LinearOperator):
    """Operator backed by a dense 2-D array."""

    def __init__(self, a, symmetric=None):
        a = _real_array(a, "dense operator data")
        if a.ndim != 2:
            raise DimensionMismatchError("dense backing must be 2-D")
        if symmetric is None:
            symmetric = a.shape[0] == a.shape[1] and np.array_equal(a, a.T)
        super().__init__(a.shape[0], a.shape[1], symmetric)
        self.a = a

    def _apply(self, v):
        return self.a @ v

    def _apply_adjoint(self, v):
        return self.a.T @ v

    def to_dense(self):
        return self.a.copy()


class CsrOperator(LinearOperator):
    """Compressed-sparse-row operator.

    The structure is checked on construction. The matvec layout
    (``_kernels.csr_slots``) is built on the first apply and cached; A^T x is
    one scatter-add over the CSR arrays (``_kernels.csr_matvec_t``), so no
    transposed copy is kept.
    """

    def __init__(self, data, indices, indptr, shape, symmetric=False):
        rows, cols = shape
        super().__init__(rows, cols, symmetric)
        self.data = _real_array(data, "CSR data")
        self.indices = _index_array(indices, "column index")
        self.indptr = _index_array(indptr, "indptr entry")
        _check_csr(self.data, self.indices, self.indptr, rows, cols)
        self._slots = None

    @classmethod
    def from_coo(cls, rows_idx, cols_idx, values, shape, symmetric=False):
        """Build from triplets; duplicate entries are summed, in the order
        given. The triplets are sorted by the int64 key row * cols + col, so
        rows * cols may not exceed 2**63."""
        rows, cols = shape
        rows_idx = _index_array(rows_idx, "row index")
        cols_idx = _index_array(cols_idx, "column index")
        values = _real_array(values, "triplet values")
        if not (rows_idx.ndim == 1 and rows_idx.shape == cols_idx.shape == values.shape):
            raise DimensionMismatchError(
                f"triplets need three 1-D arrays of one length, got shapes "
                f"{rows_idx.shape}, {cols_idx.shape} and {values.shape}"
            )
        if rows * cols > 2**63:
            raise DimensionMismatchError(
                f"shape {rows} x {cols} has more entries than an int64 key can order"
            )
        _check_index_range(rows_idx, rows, "row")
        # one stable sort: row-major order, duplicates kept in input order
        # (a column out of range is refused by the constructor)
        order = np.argsort(rows_idx * cols + cols_idx, kind="stable")
        r, c, v = rows_idx[order], cols_idx[order], values[order]
        keep = np.ones(r.size, dtype=bool)
        keep[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        # bincount adds in input order, here the sorted one
        data = np.bincount(np.cumsum(keep) - 1, weights=v)
        r, c = r[keep], c[keep]
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=rows), out=indptr[1:])
        return cls(data, c, indptr, shape, symmetric=symmetric)

    def _apply(self, v):
        if self._slots is None:
            self._slots = _kernels.csr_slots(self.data, self.indices, self.indptr)
        return _kernels.csr_matvec(self.data, self.indices, self.indptr, v, self._slots)

    def _apply_adjoint(self, v):
        return _kernels.csr_matvec_t(self.data, self.indices, self.indptr, v, self.cols)

    @property
    def nnz(self):
        return int(self.data.shape[0])


def _index_array(idx, what):
    """idx as an int64 array; DimensionMismatchError naming the first float
    entry that the cast would change (a fraction, NaN or infinity)."""
    idx = np.asarray(idx)
    if idx.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            bad = idx[idx.astype(np.int64) != idx]
        if bad.size:
            raise DimensionMismatchError(f"{what} {bad[0]} is not an integer")
    return np.asarray(idx, dtype=np.int64)


def _check_index_range(idx, bound, what):
    bad = idx[(idx < 0) | (idx >= bound)]
    if bad.size:
        raise DimensionMismatchError(f"{what} index {bad[0]} outside [0, {bound})")


def _check_csr(data, indices, indptr, rows, cols):
    """Raise DimensionMismatchError naming the first structural fault."""
    if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
        raise DimensionMismatchError("data, indices and indptr must be 1-D")
    nnz = data.shape[0]
    if indices.shape[0] != nnz:
        raise DimensionMismatchError(
            f"{nnz} values but {indices.shape[0]} column indices"
        )
    if indptr.shape[0] != rows + 1:
        raise DimensionMismatchError("indptr length must be rows + 1")
    if indptr[0] != 0:
        raise DimensionMismatchError(f"indptr starts at {indptr[0]}, not 0")
    if indptr[-1] != nnz:
        raise DimensionMismatchError(f"indptr ends at {indptr[-1]}, not nnz = {nnz}")
    if np.any(np.diff(indptr) < 0):
        raise DimensionMismatchError("indptr decreases")
    _check_index_range(indices, cols, "column")


class DiagonalOperator(LinearOperator):
    """diag(d); the exact norm max|d_i| is pinned on construction when it is
    finite and positive (else the estimator runs, and raises by name)."""

    def __init__(self, d):
        d = _real_array(d, "diagonal")
        if d.ndim != 1:
            raise DimensionMismatchError("diagonal backing must be 1-D")
        super().__init__(d.shape[0], d.shape[0], symmetric=True)
        self.d = d
        top = float(np.max(np.abs(d))) if d.size else 0.0
        if 0.0 < top < math.inf:
            self.set_opnorm(top)

    def _apply(self, v):
        return self.d * v


class SumOperator(LinearOperator):
    """a + e for two operators of one shape; symmetric when both are."""

    def __init__(self, a, e):
        if a.shape != e.shape:
            raise DimensionMismatchError(f"cannot add operators of shapes {a.shape} and {e.shape}")
        super().__init__(a.rows, a.cols, a.symmetric and e.symmetric)
        self.a = a
        self.e = e

    # a + e, added into a's output. e's output is made first and dropped:
    # freed below the live output, it does not join a freed vector at the
    # top of the heap, which the allocator would give back to the system
    # (to fault it in again at the next product)
    def _apply(self, v):
        e = self.e.apply(v)
        y = self.a.apply(v)
        y += e
        return y

    def _apply_adjoint(self, v):
        e = self.e.apply_adjoint(v)
        y = self.a.apply_adjoint(v)
        y += e
        return y


class HouseholderChainOperator(LinearOperator):
    """Orthogonal U = H_0 H_1 ... H_{m-1}, each H_i = I - 2 v_i v_i^T.

    Reflector vectors are unit-norm rows of ``vecs``. Exactly orthogonal up to
    rounding, so the cached norm is pinned to 1. Applies use the compact WY
    factors of ``vecs``, built on the first apply and cached.
    """

    def __init__(self, vecs):
        vecs = _real_array(vecs, "reflector vectors")
        if vecs.ndim != 2:
            raise DimensionMismatchError("reflector stack must be 2-D")
        n = vecs.shape[1]
        super().__init__(n, n, symmetric=False)
        self.vecs = np.ascontiguousarray(vecs)
        self._tfactors = None
        self.set_opnorm(1.0)

    @classmethod
    def random(cls, n, num_reflectors, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((num_reflectors, n))
        if num_reflectors:
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        return cls(vecs)

    def _chain(self, v, adjoint):
        if self._tfactors is None:
            self._tfactors = _kernels.householder_wy(self.vecs)
        return _kernels.householder_chain(self.vecs, self._tfactors, v, adjoint)

    def _apply(self, v):
        return self._chain(v, False)

    def _apply_adjoint(self, v):
        return self._chain(v, True)


class ConjugatedOperator(LinearOperator):
    """U A V^T for orthogonal U, V (V = U gives the symmetric conjugation)."""

    def __init__(self, u, base, v=None):
        same = v is None
        v = u if same else v
        if u.cols != base.rows or v.cols != base.cols:
            raise DimensionMismatchError("conjugation shapes do not match")
        super().__init__(u.rows, v.rows, symmetric=base.symmetric and same)
        self.u = u
        self.base = base
        self.v = v
        if base._opnorm_cache is not None and base._opnorm_cache.relative_tolerance == 0.0:
            # orthogonal conjugation preserves the spectral norm exactly
            self.set_opnorm(base._opnorm_cache.value)

    def _apply(self, w):
        return self.u.apply(self.base.apply(self.v.apply_adjoint(w)))

    def _apply_adjoint(self, w):
        return self.v.apply(self.base.apply_adjoint(self.u.apply_adjoint(w)))

