"""Dense references for the recovery path: a band's dense form and its
smallest singular value, and the subspace backward-error minimum computed
from the generalized eigenproblem. They share no code with the band
structure of the factorization path, which the tests compare against them.
"""

from dataclasses import dataclass

import numpy as np

from berrkit.operators import norm2


class ExactSolutionInSubspaceError(RuntimeError):
    """The dense oracle found an exact solution; carries it in .x."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


def band_dense(band):
    """The k x k dense form of a BandMatrix."""
    k = band.k
    a = np.zeros((k, k))
    a[np.arange(k), np.arange(k)] = band.diag
    if k > 1:
        a[np.arange(k - 1), np.arange(1, k)] = band.sup1
    if k > 2:
        a[np.arange(k - 2), np.arange(2, k)] = band.sup2
    return a


def sigma_min_dense(band):
    """Smallest singular value of a BandMatrix via dense SVD."""
    return float(np.linalg.svd(band_dense(band), compute_uv=False)[-1])


@dataclass(frozen=True)
class OracleResult:
    """Dense reference for the subspace backward-error minimum.

    lambda_min is the squared minimal berr over the subspace; y the coefficient
    vector of the minimizer in the given basis (None when the infimum is not
    attained); sigma the smallest singular value of the deflated block.
    """

    lambda_min: float
    y: np.ndarray
    sigma: float


def dense_minberr_oracle(a, b, basis, opnorm=1.0):
    """Reference computation of min ||A x - b||^2 / (opnorm ||x||)^2 over a
    subspace, via the deflated generalized eigenproblem rather than any band
    structure (shares no code with the factorization path).

    Parameters
    ----------
    a : ndarray
        Dense matrix (small n only).
    b : ndarray
        Nonzero right-hand side.
    basis : ndarray
        Orthonormal columns spanning the subspace; [b, A basis] must have full
        column rank.
    opnorm : float
        Norm used in the backward-error denominator.

    Returns
    -------
    OracleResult
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise ValueError("basis must have columns")
    aq = a @ basis
    stacked = np.column_stack([b, aq])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        y, *_ = np.linalg.lstsq(aq, b, rcond=None)
        resid = norm2(aq @ y - b)
        x = basis @ y if resid <= 1e-10 * norm2(b) else None
        raise ExactSolutionInSubspaceError(
            "[b, A basis] is rank deficient: the subspace minimum is 0", x=x
        )
    bb = float(b @ b)
    # deflate the b-coordinate: the minimum over the subspace is the smallest
    # singular value of A basis projected off b
    c = aq - np.outer(b, b @ aq) / bb
    _, svals, vt = np.linalg.svd(c)
    sigma = float(svals[-1])
    v = vt[-1]
    lam = (sigma / opnorm) ** 2
    alpha_c = float(b @ (aq @ v)) / bb
    y = v / alpha_c if abs(alpha_c) > 1e-12 else None
    return OracleResult(lambda_min=lam, y=y, sigma=sigma)
