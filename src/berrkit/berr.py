"""Relative backward error: its definition and the composition bound for reporting.

For Ax = b and a candidate x != 0,

    berr(x) = ||A x - b||_2 / (||A||_2 ||x||_2),

the size of the smallest relative perturbation of A alone (not b) that makes x
an exact solution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, UndefinedAtZeroError
from .operators import _as_vector, _check_norm, norm2

__all__ = [
    "BerrValue",
    "backward_error",
    "composition_bound",
]


@dataclass(frozen=True)
class BerrValue:
    """A backward-error evaluation plus the pieces it was computed from.

    ``value == residual_norm / (opnorm * x_norm)`` holds exactly as stored.
    """

    value: float
    residual_norm: float
    x_norm: float
    opnorm: float


def backward_error(op, b, x):
    """Evaluate berr(x) for the system op x = b.

    Parameters
    ----------
    op : LinearOperator
        ||A||_2 is ``op.opnorm()``, pinned or estimated; a value that is not
        finite and positive raises as ``set_opnorm`` would.
    b : ndarray
        Nonzero finite real right-hand side of shape (op.rows,) (complex
        raises TypeError, NaN or infinity NonFiniteError and another shape
        DimensionMismatchError, as for x).
    x : ndarray
        Finite real candidate solution of shape (op.cols,); must be nonzero
        (berr is undefined at 0).

    Returns
    -------
    BerrValue
    """
    b = _as_vector(b, op.rows, "b")
    x = _as_vector(x, op.cols, "x")
    for v, what in ((b, "b"), (x, "x")):
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"{what} holds NaN or infinite entries")
    if not np.any(b):
        raise ValueError("b must be nonzero")
    x_norm = norm2(x)
    if x_norm == 0.0:
        raise UndefinedAtZeroError("backward error is undefined at x = 0")
    opnorm = _check_norm(op.opnorm())
    residual_norm = norm2(op.apply(x) - b)
    return BerrValue(residual_norm / (opnorm * x_norm), residual_norm, x_norm, opnorm)


def composition_bound(berr_perturbed, eps):
    """Backward error against A, certified from a run against a perturbed A~.

    If ||A - A~||_2 <= eps ||A||_2 then berr_A(x) <= (1 + eps) berr_A~(x) + eps.
    It holds in exact arithmetic; where A - A~ acts fully on x, the measured
    berr_A(x) may exceed it by the residual's rounding, about u.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if berr_perturbed < 0.0:
        raise ValueError("backward error is nonnegative")
    return (1.0 + eps) * berr_perturbed + eps

