"""The three Golub-Kahan recurrences that ``operators._golub_kahan_step``
replaced, frozen as references: ``BidiagState`` when it stored both bases
under either reorthogonalization policy, and the two-vector norm estimate.
``BidiagReference`` keeps its ``basis_u`` accessor; ``golub_kahan_norm``
returns the same ``(value, steps)`` and raises the same errors as
``operators._golub_kahan_norm``. Both run on finite data only: a non-finite
beta now ends a bidiagonalization step, where these divide by it.
"""

import math

import numpy as np

from berrkit.errors import NonFiniteError, OrthogonalRhsError, ZeroOperatorError
from berrkit.factorize import BREAKDOWN_TOL_FACTOR, _GrowingColumns
from berrkit.operators import NORM_MAX_ITER, NORM_SEED, norm2


def _reorthogonalize(w, basis):
    for _ in range(2):
        w = w - basis @ (basis.T @ w)
    return w


class BidiagReference:
    """Golub-Kahan bidiagonalization with both bases stored."""

    def __init__(self, op, b, opnorm=None, reorth="plain"):
        b = np.asarray(b, dtype=np.float64)
        self.op = op
        self.reorth = reorth
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
        self._u = _GrowingColumns(op.rows)
        self._qcols = _GrowingColumns(op.cols)
        self._u.push(u)
        self._qcols.push(z / alpha1)
        self.alphas = [alpha1]
        self.betas = []
        self.k = 0
        self.breakdown = False

    def step(self):
        k = self.k + 1
        u_k = self._u.view()[:, -1]
        q_k = self._qcols.view()[:, -1]
        w = self.op.apply(q_k) - self.alphas[k - 1] * u_k
        if self.reorth == "full":
            w = _reorthogonalize(w, self._u.view())
        beta_next = norm2(w)
        self.betas.append(beta_next)
        self.k = k
        s = self.opnorm
        col = (self.alphas[k - 1] / s if k >= 2 else 0.0, beta_next / s)
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
        self._u.push(u_next)
        if not self.breakdown:
            self._qcols.push(z / alpha_next)
        return col

    def basis_q(self, k=None):
        return self._qcols.view(min(self.k, self._qcols.count) if k is None else k)

    def basis_u(self, k=None):
        return self._u.view(min(self.k + 1, self._u.count) if k is None else k)


def _finite_norm(w, k):
    nw = norm2(w)
    if not math.isfinite(nw):
        raise NonFiniteError(f"norm estimate, step {k}: a product with A is not finite")
    return nw


def golub_kahan_norm(op, grow_tol):
    """Lower bound on ||A||_2 and the number of steps taken, on two live
    vectors from a Gaussian start seeded with NORM_SEED."""
    v = np.random.default_rng(NORM_SEED).standard_normal(op.cols)
    v /= norm2(v)
    u = np.zeros(op.rows)
    max_steps = min(op.rows, op.cols, NORM_MAX_ITER)
    band = np.zeros((max_steps, max_steps + 1))
    tops = []
    beta = 0.0
    for k in range(1, max_steps + 1):
        p = op.apply(v) - beta * u
        alpha = _finite_norm(p, k)
        if alpha == 0.0:
            if k == 1:
                raise ZeroOperatorError("norm estimate: A v = 0 for a random v")
            break
        u = p / alpha
        r = op.apply_adjoint(u) - alpha * v
        beta = _finite_norm(r, k)
        band[k - 1, k - 1 : k + 1] = alpha, beta
        tops.append(float(np.linalg.svd(band[:k, : k + 1], compute_uv=False)[0]))
        if beta == 0.0 or (k > 3 and tops[-1] - tops[-4] <= grow_tol * tops[-1]):
            break
        v = r / beta
    return tops[-1], len(tops)
