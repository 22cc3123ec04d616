"""Hot numeric kernels, in numpy. ``benchmarks/bench_kernels.py`` times them.

All kernels take and return float64 arrays. Band arrays follow the upper
triangular layout used by the factorization views: ``diag[i]`` is entry (i, i),
``sup1[i]`` is (i, i+1) for i < k-1, ``sup2[i]`` is (i, i+2) for i < k-2.
Callers are responsible for rejecting zero diagonals before solving. The band
solves run the recurrence on Python floats in the operation order of the
scalar reference loops in ``tests/test_kernels.py`` and match them bit for bit.

Householder chains use the blocked compact WY representation (Schreiber &
Van Loan 1989, "A storage-efficient WY representation for products of
Householder transformations") in its UT form (Joffrain, Low, Quintana-Orti,
van de Geijn & Van Zee 2006, "Accumulating Householder transformations,
revisited"): for a block V of unit reflector rows (tau = 2),
H_0 H_1 ... H_{b-1} = I - V^T T V with T the inverse of 1/2 I + striu(V V^T).
One block of b reflectors then costs three BLAS-2 calls instead of 2b numpy
calls, and m reflectors cost 4mn + 2bm flops instead of 4mn.

The CSR matvec runs on a length-bucketed, slot-major layout in the spirit of
sliced ELLPACK (Kreutzer, Hager, Wellein, Fehske & Bishop 2014, "A unified
sparse matrix data format for efficient general sparse matrix-vector
multiplication on modern processors with wide SIMD units"). ``csr_slots``
groups the nonempty rows by floor(log2 length); a bucket stores its rows'
column indices and values as ``width x rows`` arrays, ``width`` being its
longest row, so one bucket costs four numpy calls (take, multiply, column
sum, scatter) whatever its row count. A row of length L sits in a bucket of
width below 2L, so the padded size stays below 2 nnz, with at most
floor(log2 max length) + 1 buckets; empty rows are in none and read 0. A
padded slot holds 0.0 at the row's own last stored column, so it reads only
an entry of x the row already reads: an inf or NaN in x[j] reaches exactly the
rows that store column j. Each row sums its products in slot order, first to
last (numpy's axis-0 reduction), padding included; the padding adds exact
zeros.
"""

import numpy as np

__all__ = [
    "USING_NUMBA",
    "csr_slots",
    "csr_matvec",
    "householder_chain",
    "householder_wy",
    "band_solve_upper",
    "band_solve_upper_t",
]

# berrkit has no numba path; perfbench/runner.py still reads this flag
USING_NUMBA = False


def csr_slots(data, indices, indptr):
    """The length-bucketed, slot-major layout of a CSR matrix (see above).

    One ``(rows, idx, val)`` triple per nonempty bucket: ``rows`` are the row
    ids, ``idx`` and ``val`` are ``width x len(rows)`` arrays with slot s of
    row ``rows[i]`` in column i.
    """
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths)
    lens = lengths[nonempty]
    # frexp is exact on integers: its exponent minus one is floor(log2(len))
    level = np.frexp(lens.astype(np.float64))[1] - 1
    buckets = []
    for lev in np.unique(level):
        pick = level == lev
        rows, rlens = nonempty[pick], lens[pick]
        slot = np.arange(rlens.max())[:, None]
        pos = indptr[rows] + np.minimum(slot, rlens - 1)
        buckets.append((rows, indices[pos], np.where(slot < rlens, data[pos], 0.0)))
    return buckets


def csr_matvec(data, indices, indptr, x, slots=None):
    """A x for CSR (data, indices, indptr); ``slots`` is ``csr_slots`` of the
    same matrix, built here when not given."""
    if slots is None:
        slots = csr_slots(data, indices, indptr)
    out = np.zeros(indptr.shape[0] - 1)
    for rows, idx, val in slots:
        prod = np.take(x, idx)
        prod *= val
        out[rows] = prod.sum(axis=0)
    return out


# reflector rows per compact-WY block
WY_BLOCK = 64


def householder_wy(vecs):
    """The T factor of every WY_BLOCK-row block of the unit reflector stack."""
    tfactors = []
    for start in range(0, vecs.shape[0], WY_BLOCK):
        v = vecs[start : start + WY_BLOCK]
        t_inv = np.triu(v @ v.T, 1)
        np.fill_diagonal(t_inv, 0.5)
        tfactors.append(np.linalg.inv(t_inv))
    return tfactors


def householder_chain(vecs, tfactors, x, adjoint):
    """U x (adjoint=False) or U^T x for U = H_0 H_1 ... H_{m-1}, H_i = I - 2 v_i v_i^T.

    ``tfactors`` is ``householder_wy(vecs)``.
    """
    y = x.copy()
    blocks = range(len(tfactors))
    for j in blocks if adjoint else reversed(blocks):
        v = vecs[j * WY_BLOCK : (j + 1) * WY_BLOCK]
        t = tfactors[j].T if adjoint else tfactors[j]
        y -= v.T @ (t @ (v @ y))
    return y


def band_solve_upper(diag, sup1, sup2, rhs):
    # x[i+1], x[i+2] ride in x1, x2; the zero padding of sup1 and sup2 makes
    # the last two rows subtract exact zeros, which changes no bit
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(
        reversed(diag.tolist()),
        reversed(sup1.tolist() + [0.0]),
        reversed(sup2.tolist() + [0.0, 0.0]),
        reversed(rhs.tolist()),
    ):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    x.reverse()
    return np.array(x)


def band_solve_upper_t(diag, sup1, sup2, rhs):
    # as above, with x[i-1], x[i-2] in x1, x2 and the padding in front
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(
        diag.tolist(), [0.0] + sup1.tolist(), [0.0, 0.0] + sup2.tolist(), rhs.tolist()
    ):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    return np.array(x)

