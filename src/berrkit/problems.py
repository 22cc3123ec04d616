"""Synthetic hard instances, disguise transforms, and file ingestion.

Two diagonal families cover the regimes where backward error separates the
solvers: ``ill_conditioned`` (log-spaced spectrum, right-hand side loaded on
the smallest direction) and ``small_outlier`` (benign spectrum plus one tiny
singular value, which stalls normal-equations methods near sigma_{n-1}).
``disguise`` hides the diagonal structure behind implicit orthogonal
conjugations without changing any singular value, so solver traces must be
invariant under it. ``cyclic_shift`` is the classic subspace-orthogonal-to-
the-solution fixture on which residual minimization over the unshifted Krylov
space stays useless until the very last step.

A ``ProblemInstance`` is (op, b), a name and, for a synthetic family, its
condition number ``kappa`` (None for a file). That kappa is exact: the extreme
diagonal entries are written as 1 and 1/kappa directly rather than through
the rounded log-spacing expression.
"""

from dataclasses import dataclass

import numpy as np

from . import mmio
from .errors import DimensionMismatchError
from .operators import (
    ConjugatedOperator,
    CsrOperator,
    DiagonalOperator,
    HouseholderChainOperator,
    _as_vector,
    _count,
    norm2,
)

__all__ = [
    "ProblemInstance",
    "ill_conditioned",
    "small_outlier",
    "cyclic_shift",
    "disguise",
    "rhs_smallest_left_singular",
    "read_matrix_market",
    "DENSE_SVD_LIMIT",
]

# largest n for which rhs_smallest_left_singular will fall back to dense SVD
DENSE_SVD_LIMIT = 2000


@dataclass
class ProblemInstance:
    op: object
    b: np.ndarray
    name: str
    kappa: float = None


def _log_spaced(top, bottom, n):
    d = np.logspace(np.log10(top), np.log10(bottom), n)
    d[0] = top
    d[-1] = bottom
    return d


def ill_conditioned(n, kappa):
    """Diagonal instance with log-spaced spectrum from 1 down to 1/kappa.

    b is all ones except the last entry, which equals kappa, loading the
    right-hand side onto the weakest direction. kappa is the exact
    condition number max(d)/min(d).
    """
    n = _count(n, "n", least=2)
    if not 1.0 < kappa < np.inf:
        raise ValueError("kappa must be finite and exceed 1")
    d = _log_spaced(1.0, 1.0 / kappa, n)
    b = np.ones(n)
    b[-1] = kappa
    name = f"ill-conditioned(n={n},kappa={kappa:g})"
    return ProblemInstance(DiagonalOperator(d), b, name, float(kappa))


def small_outlier(n, kappa, sigma_penult):
    """Diagonal instance whose spectrum is benign except for one tiny entry.

    The first n-1 entries are log-spaced from 1 down to sigma_penult; the last
    is 1/kappa, far below. b is all ones except the last entry sqrt(n).
    Normal-equations methods square the gap and stall near sigma_penult.
    """
    n = _count(n, "n", least=3)
    if not (0.0 < sigma_penult < 1.0):
        raise ValueError("sigma_penult must lie in (0, 1)")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    if 1.0 / kappa >= sigma_penult:
        raise ValueError("1/kappa must lie below sigma_penult")
    d = np.empty(n)
    d[: n - 1] = _log_spaced(1.0, sigma_penult, n - 1)
    d[-1] = 1.0 / kappa
    b = np.ones(n)
    b[-1] = np.sqrt(n)
    name = f"small-outlier(n={n},kappa={kappa:g},sigma={sigma_penult:g})"
    return ProblemInstance(DiagonalOperator(d), b, name, float(kappa))


def cyclic_shift(n):
    """Permutation instance A e_i = e_{i+1 mod n} with b = e_n.

    The solution is e_{n-1}, yet span{b, Ab, ...} stays orthogonal to it for
    n-1 steps, so methods minimizing over that subspace make no progress; the
    normal-equations subspace starts at A^T b = e_{n-1} and finishes in one.
    """
    n = _count(n, "n", least=2)
    idx = np.arange(n, dtype=np.int64)
    op = CsrOperator.from_coo((idx + 1) % n, idx, np.ones(n), (n, n))
    op.set_opnorm(1.0)
    b = np.zeros(n)
    b[-1] = 1.0
    return ProblemInstance(op, b, f"cyclic-shift(n={n})", 1.0)


def disguise(p, two_sided=False, seed=0):
    """Hide structure behind orthogonal conjugation: A -> U A V^T, b -> U b.

    U (and V when two_sided) is a product of n seeded unit Householder
    reflectors applied implicitly, n the row count of A. Singular values, and
    therefore every backward-error trace, are unchanged; so is kappa, and the
    name gains a +disguise or +disguise2 tag.
    """
    n = p.op.rows
    u = HouseholderChainOperator.random(n, n, [seed, 0])
    v = (
        HouseholderChainOperator.random(p.op.cols, n, [seed, 1])
        if two_sided
        else None
    )
    op = ConjugatedOperator(u, p.op, v)
    b = u.apply(p.b)
    return ProblemInstance(op, b, p.name + ("+disguise2" if two_sided else "+disguise"),
                           p.kappa)


def _smallest_left_vector(op):
    if isinstance(op, DiagonalOperator):
        e = np.zeros(op.rows)
        e[int(np.argmin(np.abs(op.d)))] = 1.0
        return e
    if isinstance(op, ConjugatedOperator):
        return op.u.apply(_smallest_left_vector(op.base))
    if max(op.rows, op.cols) > DENSE_SVD_LIMIT:
        raise DimensionMismatchError(
            f"no accessible singular structure and n > {DENSE_SVD_LIMIT}: "
            "dense SVD fallback refused"
        )
    u, _, _ = np.linalg.svd(op.to_dense())
    return u[:, -1]


def rhs_smallest_left_singular(p):
    """Unit left singular vector for sigma_min, the worst-case right-hand side.

    Structure is used where available (diagonal instances, possibly wrapped in
    disguises); anything else falls back to a dense SVD, refused above
    DENSE_SVD_LIMIT rows.
    """
    return _smallest_left_vector(p.op)


def read_matrix_market(path, b=None):
    """Load a Matrix Market file as a sparse ProblemInstance named str(path).

    Symmetric storage is expanded and the operator marked symmetric. The
    default right-hand side is A (1,...,1)^T normalized, a consistent system;
    pass a real b to override (a complex one raises TypeError).
    """
    data = mmio.read_matrix_market(path)
    r, c, v = data.expanded()
    op = CsrOperator.from_coo(r, c, v, data.shape, symmetric=data.symmetric)
    if b is None:
        b = op.apply(np.ones(op.cols))
        nb = norm2(b)
        if nb == 0.0:
            raise ValueError("A(1,...,1) vanished: supply an explicit b")
        b = b / nb
    else:
        b = _as_vector(b, op.rows, "b")
    return ProblemInstance(op, b, str(path))
