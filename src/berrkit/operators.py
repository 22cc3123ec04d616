"""Matrix-free linear operators and the spectral-norm estimator.

Operators expose ``apply`` / ``apply_adjoint`` plus a cached 2-norm value.
They are immutable after construction with one exception: the norm cache,
which is filled on first use (or pinned via :meth:`LinearOperator.set_opnorm`
when the exact value is known, e.g. for diagonal test problems). Solvers and
``backward_error`` read ||A||_2 only from here, through ``_check_norm``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, NonFiniteError, ZeroOperatorError

__all__ = [
    "NormEstimate",
    "LinearOperator",
    "DenseOperator",
    "CsrOperator",
    "DiagonalOperator",
    "ShiftedOperator",
    "GaussianPerturbedOperator",
    "HouseholderChainOperator",
    "ConjugatedOperator",
    "CountingOperator",
    "estimate_spectral_norm",
    "norm2",
]


def _as_vector(v, n, what="vector"):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != n:
        raise DimensionMismatchError(
            f"{what} has shape {v.shape}, expected ({n},)"
        )
    return v


# smallest positive normal float64
_NORMAL_MIN = float(np.finfo(np.float64).tiny)

# estimate_spectral_norm's relative tolerance, step cap and start seed
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
    """Result of power iteration: value <= ||A||_2, with the tolerance asked for."""

    value: float
    relative_tolerance: float
    iterations_used: int


class LinearOperator:
    """Base class. Subclasses implement _apply (and _apply_adjoint if unsymmetric)."""

    def __init__(self, rows, cols, symmetric):
        self.rows = int(rows)
        self.cols = int(cols)
        self.symmetric = bool(symmetric)
        if self.symmetric and self.rows != self.cols:
            raise DimensionMismatchError("symmetric operator must be square")
        self._opnorm_cache = None

    def _apply(self, v):
        raise NotImplementedError

    def _apply_adjoint(self, v):
        raise NotImplementedError

    def apply(self, v):
        v = _as_vector(v, self.cols)
        return self._apply(v)

    def apply_adjoint(self, v):
        v = _as_vector(v, self.rows)
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


def _power_step_norm(w):
    """norm2(w), checked before power iteration divides by it."""
    nw = norm2(w)
    if nw == 0.0:
        raise ZeroOperatorError("power iteration produced a zero vector")
    if not math.isfinite(nw):
        raise NonFiniteError("power iteration produced a non-finite vector")
    return nw


def estimate_spectral_norm(op):
    """Power-iteration estimate of ||A||_2.

    Iterates v <- A v for symmetric operators and v <- A^T A v otherwise,
    from a Gaussian start seeded with NORM_SEED. The per-step estimate is a
    Rayleigh-type quotient, so it never exceeds the true norm and is
    non-decreasing across iterations. Stops once the relative gain stays
    below NORM_REL_TOL/2 for three consecutive steps, or after NORM_MAX_ITER
    steps; the value is then >= (1 - NORM_REL_TOL) ||A||_2 with high
    probability over the start. A zero operator raises ZeroOperatorError and
    a non-finite product NonFiniteError.

    Returns
    -------
    NormEstimate
    """
    v = np.random.default_rng(NORM_SEED).standard_normal(op.cols)
    v /= norm2(v)
    est = 0.0
    flat = 0
    used = 0
    for it in range(1, NORM_MAX_ITER + 1):
        used = it
        w = op.apply(v)
        nw = _power_step_norm(w)
        if op.symmetric:
            new_est = nw
            v = w / nw
        else:
            z = op.apply_adjoint(w)
            nz = _power_step_norm(z)
            new_est = np.sqrt(nz)
            v = z / nz
        if new_est - est <= 0.5 * NORM_REL_TOL * new_est:
            flat += 1
            if flat >= 3:
                est = max(est, new_est)
                break
        else:
            flat = 0
        est = max(est, new_est)
    return NormEstimate(est, NORM_REL_TOL, used)


class DenseOperator(LinearOperator):
    """Operator backed by a dense 2-D array."""

    def __init__(self, a, symmetric=None):
        a = np.asarray(a, dtype=np.float64)
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
    """Compressed-sparse-row operator; stores the transpose layout as well.

    The structure is checked on construction. Each direction's matvec layout
    (``_kernels.csr_slots``) is built on its first apply and cached.
    """

    def __init__(self, data, indices, indptr, shape, symmetric=False):
        rows, cols = shape
        super().__init__(rows, cols, symmetric)
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        _check_csr(self.data, self.indices, self.indptr, rows, cols)
        self._slots = None
        self._tslots = None
        if not symmetric:
            td, ti, tp = _csr_transpose(
                self.data, self.indices, self.indptr, rows, cols
            )
            self._tdata, self._tindices, self._tindptr = td, ti, tp

    @classmethod
    def from_coo(cls, rows_idx, cols_idx, values, shape, symmetric=False):
        """Build from triplets; duplicate entries are summed."""
        rows, cols = shape
        rows_idx = np.asarray(rows_idx, dtype=np.int64)
        cols_idx = np.asarray(cols_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows_idx.ndim == 1 and rows_idx.shape == cols_idx.shape == values.shape):
            raise DimensionMismatchError(
                f"triplets need three 1-D arrays of one length, got shapes "
                f"{rows_idx.shape}, {cols_idx.shape} and {values.shape}"
            )
        _check_index_range(rows_idx, rows, "row")
        order = np.lexsort((cols_idx, rows_idx))
        r, c, v = rows_idx[order], cols_idx[order], values[order]
        if r.size:
            keep = np.ones(r.size, dtype=bool)
            keep[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            group = np.cumsum(keep) - 1
            data = np.zeros(int(group[-1]) + 1)
            np.add.at(data, group, v)
            r, c = r[keep], c[keep]
        else:
            data = v
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(indptr, r + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(data, c, indptr, shape, symmetric=symmetric)

    def _apply(self, v):
        if self._slots is None:
            self._slots = _kernels.csr_slots(self.data, self.indices, self.indptr)
        return _kernels.csr_matvec(self.data, self.indices, self.indptr, v, self._slots)

    def _apply_adjoint(self, v):
        if self._tslots is None:
            self._tslots = _kernels.csr_slots(self._tdata, self._tindices, self._tindptr)
        return _kernels.csr_matvec(
            self._tdata, self._tindices, self._tindptr, v, self._tslots
        )

    @property
    def nnz(self):
        return int(self.data.shape[0])


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


def _csr_transpose(data, indices, indptr, rows, cols):
    nnz = data.shape[0]
    row_of = np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    tindices = row_of[order]
    tdata = data[order]
    tindptr = np.zeros(cols + 1, dtype=np.int64)
    np.add.at(tindptr, indices + 1, 1)
    tindptr = np.cumsum(tindptr)
    assert tindptr[-1] == nnz
    return tdata, tindices, tindptr


class DiagonalOperator(LinearOperator):
    """diag(d); the exact norm max|d_i| is pinned on construction when it is
    finite and positive (else the estimator runs, and raises by name)."""

    def __init__(self, d):
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 1:
            raise DimensionMismatchError("diagonal backing must be 1-D")
        super().__init__(d.shape[0], d.shape[0], symmetric=True)
        self.d = d
        top = float(np.max(np.abs(d))) if d.size else 0.0
        if 0.0 < top < math.inf:
            self.set_opnorm(top)

    def _apply(self, v):
        return self.d * v


class ShiftedOperator(LinearOperator):
    """base + shift * I, applied with exactly one extra axpy."""

    def __init__(self, base, shift):
        if base.rows != base.cols:
            raise DimensionMismatchError("shift needs a square base operator")
        super().__init__(base.rows, base.cols, base.symmetric)
        self.base = base
        self.shift = float(shift)

    def _apply(self, v):
        return self.base.apply(v) + self.shift * v

    def _apply_adjoint(self, v):
        return self.base.apply_adjoint(v) + self.shift * v


class GaussianPerturbedOperator(LinearOperator):
    """base + coeff * G for a materialized dense G."""

    def __init__(self, base, g, coeff):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (base.rows, base.cols):
            raise DimensionMismatchError("perturbation shape must match base")
        super().__init__(base.rows, base.cols, symmetric=False)
        self.base = base
        self.g = g
        self.coeff = float(coeff)

    def _apply(self, v):
        return self.base.apply(v) + self.coeff * (self.g @ v)

    def _apply_adjoint(self, v):
        return self.base.apply_adjoint(v) + self.coeff * (self.g.T @ v)


class HouseholderChainOperator(LinearOperator):
    """Orthogonal U = H_0 H_1 ... H_{m-1}, each H_i = I - 2 v_i v_i^T.

    Reflector vectors are unit-norm rows of ``vecs``. Exactly orthogonal up to
    rounding, so the cached norm is pinned to 1. Applies use the compact WY
    factors of ``vecs``, built on the first apply and cached.
    """

    def __init__(self, vecs):
        vecs = np.asarray(vecs, dtype=np.float64)
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


class CountingOperator(LinearOperator):
    """Transparent wrapper that counts apply / apply_adjoint calls."""

    def __init__(self, base):
        super().__init__(base.rows, base.cols, base.symmetric)
        self.base = base
        self.matvecs = 0

    def _apply(self, v):
        self.matvecs += 1
        return self.base.apply(v)

    def _apply_adjoint(self, v):
        self.matvecs += 1
        return self.base.apply_adjoint(v)

    def opnorm(self):
        return self.base.opnorm()

    def set_opnorm(self, value):
        self.base.set_opnorm(value)
        return self
