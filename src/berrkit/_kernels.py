"""Hot numeric kernels, in numpy. ``benchmarks/bench_kernels.py`` times them.

The kernels take and return float64 arrays, except the band solves, which
take the band and the right-hand side as sequences (lists or tuples) of
Python floats and return a list. A band is upper triangular, as in the
factorization views: ``diag[i]`` is entry (i, i), ``sup1[i]`` is (i, i+1)
for i < k-1 and ``sup2[i]`` is (i, i+2) for i < k-2; ``sup2`` is None for a
bidiagonal band. The solves want the superdiagonals padded with zeros to
length k so that one zip walks all the rows: at the end (``sup1 + (0.0,)``,
``sup2 + (0.0, 0.0)``) for ``band_solve_upper``, in front (``(0.0,) + sup1``,
``(0.0, 0.0) + sup2``) for ``band_solve_upper_t``. A padding zero only ever
multiplies the 0.0 that the recurrence starts from, so it subtracts an exact
zero and changes no bit. Both solves take the right-hand side divided by a
``scale``: each entry is divided as it is read, ``r / scale``, which rounds
exactly as dividing the whole vector first would, so inverse iteration hands
over its last iterate and that iterate's norm instead of a normalized copy
(a scale of 1.0 changes no bit). A bidiagonal band solves with two terms,
x_i = (r_i / scale - s1_i x_{i+-1}) / d_i; a tridiagonal one with three,
subtracting s2_i x_{i+-2} after the s1 term. The three-term form on a zero
``sup2`` agrees with the two-term one except in the sign of an exact zero
(``a - 0.0 * x2`` is +0.0 where a is -0.0 and x2 is sign-negative) and
after a non-finite entry (0.0 * inf is NaN). A back substitution is the
forward one on the reversed band (Golub & Van Loan 2013, "Matrix
Computations", sec. 4.3), so ``band_solve_upper`` runs the U^T loop on
reversed iterators over its sequences and reverses the result.
``BandMatrix`` builds the padded sequences in its constructor from the
Python floats the factorization views hand it, and inverse iteration keeps
its iterate as a list, so the solves of a recovery convert nothing between
numpy and Python. The kernels divide by each diagonal entry as given;
``BandMatrix`` floors its diagonal at ``factorize.SOLVE_FLOOR``, so no zero
pivot reaches them.
The recurrence runs on Python floats in the operation order of the scalar
reference loops in ``tests/test_kernels.py`` and matches them bit for bit.

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
builds the buckets from the top down: the longest row left sets a bucket's
width, and the bucket takes every row left that is longer than half the
width, in ascending row order. It stores its rows' column indices and
values as ``width x rows`` arrays, so one bucket costs one gather and one
fused multiply-and-sum whatever its row count. A row of length L sits in a
bucket of width below 2L, so the padded size stays below 2 nnz, and each
width is at most half the one before, so there are at most
floor(log2 max length) + 1 buckets; the Laplacian's rows of 3 to 5 entries
make one. Empty rows are in none and read 0. When one bucket holds every
row, its sums are the product itself, with no zero fill and no scatter. A
padded slot holds 0.0 at the row's own last stored column, so it reads only
an entry of x the row already reads: an inf or NaN in x[j] reaches exactly
the rows that store column j. Each row sums its products in slot order,
first to last, padding included; the padding adds exact zeros. A bucket of
several rows is summed by ``np.einsum("ij,ij->j", ...)``, which walks the
C-ordered pair one slot after another, adding each rounded product to the
running sums from 0.0; a bucket of one row would reduce along a contiguous
axis, where numpy keeps several partial sums, so it runs ``np.cumsum`` and
keeps the last partial sum.

The transposed product ``csr_matvec_t`` reads the same CSR arrays: it
repeats each x entry over its row's stored entries (``np.repeat`` over the
row lengths), multiplies that in place by the values, and scatter-adds the
products into their columns with one ``np.bincount`` (Saad 2003, "Iterative
Methods for Sparse Linear Systems", ch. 3). bincount adds in input order, so
each column sums its terms in CSR (row) order, from 0.0; no transposed copy
or second layout is stored.
"""

import numpy as np

__all__ = [
    "USING_NUMBA",
    "csr_slots",
    "csr_matvec",
    "csr_matvec_t",
    "householder_chain",
    "householder_wy",
    "band_solve_upper",
    "band_solve_upper_t",
]

# berrkit has no numba path; perfbench/runner.py still reads this flag
USING_NUMBA = False


def csr_slots(data, indices, indptr):
    """The length-bucketed, slot-major layout of a CSR matrix (see above).

    One ``(rows, idx, val)`` triple per bucket: ``rows`` are the row ids in
    ascending order, ``idx`` and ``val`` are ``width x len(rows)`` arrays with
    slot s of row ``rows[i]`` in column i.
    """
    lengths = np.diff(indptr)
    buckets = []
    width = lengths.max(initial=0)
    while width:
        # every remaining row longer than width / 2
        rows = np.flatnonzero((lengths > width // 2) & (lengths <= width))
        rlens = lengths[rows]
        slot = np.arange(width)[:, None]
        pos = indptr[rows] + np.minimum(slot, rlens - 1)
        buckets.append((rows, indices[pos], np.where(slot < rlens, data[pos], 0.0)))
        width = lengths.max(initial=0, where=lengths <= width // 2)
    return buckets


def _bucket_sums(x, idx, val):
    """Each column's sum of x[idx] * val, in slot order (see above)."""
    if idx.shape[1] > 1:
        return np.einsum("ij,ij->j", np.take(x, idx), val)
    prod = np.take(x, idx)
    prod *= val
    return np.cumsum(prod)[-1:]


def csr_matvec(data, indices, indptr, x, slots=None):
    """A x for CSR (data, indices, indptr); ``slots`` is ``csr_slots`` of the
    same matrix, built here when not given."""
    if slots is None:
        slots = csr_slots(data, indices, indptr)
    n = indptr.shape[0] - 1
    if len(slots) == 1 and slots[0][0].shape[0] == n:
        # one bucket holds every row, in order: its sums are A x
        _, idx, val = slots[0]
        return _bucket_sums(x, idx, val)
    out = np.zeros(n)
    for rows, idx, val in slots:
        out[rows] = _bucket_sums(x, idx, val)
    return out


def csr_matvec_t(data, indices, indptr, x, cols):
    """A^T x for CSR (data, indices, indptr) with ``cols`` columns (see above)."""
    prod = np.repeat(x, np.diff(indptr))
    prod *= data
    # bincount over no entries returns int64 zeros
    return np.bincount(indices, weights=prod, minlength=cols).astype(np.float64, copy=False)


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


def band_solve_upper(diag, sup1, sup2, rhs, scale):
    """x with U x = rhs / scale for the upper band U (see above): the
    superdiagonals zero-padded at the end, sup2 None when U is bidiagonal;
    the arguments are sequences of Python floats and x is a list."""
    x = band_solve_upper_t(reversed(diag), reversed(sup1),
                           None if sup2 is None else reversed(sup2), reversed(rhs), scale)
    x.reverse()
    return x


def band_solve_upper_t(diag, sup1, sup2, rhs, scale):
    """x with U^T x = rhs / scale, the superdiagonals zero-padded in front;
    types as for band_solve_upper, and iterators serve as well."""
    x = []
    x1 = x2 = 0.0  # x[i-1], x[i-2]
    if sup2 is None:
        for d, s1, r in zip(diag, sup1, rhs):
            x1 = (r / scale - s1 * x1) / d
            x.append(x1)
    else:
        for d, s1, s2, r in zip(diag, sup1, sup2, rhs):
            x2, x1 = x1, (r / scale - s1 * x1 - s2 * x2) / d
            x.append(x1)
    return x
