"""Hot numeric kernels: pure numpy, with numba-jitted CSR and band solves.

Set ``BERRKIT_PURE_NUMPY=1`` before import to force the numpy path (also used
when numba is not importable). ``benchmarks/bench_kernels.py`` times them.

All kernels take and return float64 arrays. Band arrays follow the upper
triangular layout used by the factorization views: ``diag[i]`` is entry (i, i),
``sup1[i]`` is (i, i+1) for i < k-1, ``sup2[i]`` is (i, i+2) for i < k-2.
Callers are responsible for rejecting zero diagonals before solving. The numpy
band solves run the recurrence on Python floats in the numba kernels'
operation order, so both paths agree bit for bit.

Householder chains use the blocked compact WY representation (Schreiber &
Van Loan 1989, "A storage-efficient WY representation for products of
Householder transformations") in its UT form (Joffrain, Low, Quintana-Orti,
van de Geijn & Van Zee 2006, "Accumulating Householder transformations,
revisited"): for a block V of unit reflector rows (tau = 2),
H_0 H_1 ... H_{b-1} = I - V^T T V with T the inverse of 1/2 I + striu(V V^T).
One block of b reflectors then costs three BLAS-2 calls instead of 2b numpy
calls, and m reflectors cost 4mn + 2bm flops instead of 4mn.
"""

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "csr_matvec",
    "householder_chain",
    "householder_wy",
    "band_solve_upper",
    "band_solve_upper_t",
    "IMPLEMENTATIONS",
]


def _csr_matvec_np(data, indices, indptr, x):
    out = np.zeros(indptr.shape[0] - 1)
    if data.shape[0] == 0:
        return out
    prod = data * x[indices]
    lengths = np.diff(indptr)
    nonempty = lengths > 0
    # reduceat over the starts of nonempty rows; empty rows contribute nothing
    # to the segments between consecutive nonempty starts.
    out[nonempty] = np.add.reduceat(prod, indptr[:-1][nonempty])
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


def _band_solve_upper_np(diag, sup1, sup2, rhs):
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


def _band_solve_upper_t_np(diag, sup1, sup2, rhs):
    # as above, with x[i-1], x[i-2] in x1, x2 and the padding in front
    x = []
    x1 = x2 = 0.0
    for d, s1, s2, r in zip(
        diag.tolist(), [0.0] + sup1.tolist(), [0.0, 0.0] + sup2.tolist(), rhs.tolist()
    ):
        x2, x1 = x1, (r - s1 * x1 - s2 * x2) / d
        x.append(x1)
    return np.array(x)


_FORCE_NUMPY = os.environ.get("BERRKIT_PURE_NUMPY", "") == "1"
USING_NUMBA = False

_csr_matvec_nb = None
_band_solve_upper_nb = None
_band_solve_upper_t_nb = None

if not _FORCE_NUMPY:
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:
        USING_NUMBA = False

if USING_NUMBA:

    @njit(cache=True)
    def _csr_matvec_nb(data, indices, indptr, x):
        n = indptr.shape[0] - 1
        out = np.zeros(n)
        for i in range(n):
            acc = 0.0
            for j in range(indptr[i], indptr[i + 1]):
                acc += data[j] * x[indices[j]]
            out[i] = acc
        return out

    @njit(cache=True)
    def _band_solve_upper_nb(diag, sup1, sup2, rhs):
        k = diag.shape[0]
        x = np.empty(k)
        for i in range(k - 1, -1, -1):
            acc = rhs[i]
            if i + 1 < k:
                acc -= sup1[i] * x[i + 1]
            if i + 2 < k:
                acc -= sup2[i] * x[i + 2]
            x[i] = acc / diag[i]
        return x

    @njit(cache=True)
    def _band_solve_upper_t_nb(diag, sup1, sup2, rhs):
        k = diag.shape[0]
        x = np.empty(k)
        for i in range(k):
            acc = rhs[i]
            if i >= 1:
                acc -= sup1[i - 1] * x[i - 1]
            if i >= 2:
                acc -= sup2[i - 2] * x[i - 2]
            x[i] = acc / diag[i]
        return x

    csr_matvec = _csr_matvec_nb
    band_solve_upper = _band_solve_upper_nb
    band_solve_upper_t = _band_solve_upper_t_nb
else:
    csr_matvec = _csr_matvec_np
    band_solve_upper = _band_solve_upper_np
    band_solve_upper_t = _band_solve_upper_t_np

# name -> (numpy impl, numba impl or None); used by tests and the benchmark
IMPLEMENTATIONS = {
    "csr_matvec": (_csr_matvec_np, _csr_matvec_nb),
    "band_solve_upper": (_band_solve_upper_np, _band_solve_upper_nb),
    "band_solve_upper_t": (_band_solve_upper_t_np, _band_solve_upper_t_nb),
}
