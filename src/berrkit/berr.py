"""Relative backward error: definition and the two bounds used for reporting.

For Ax = b and a candidate x != 0,

    berr(x) = ||A x - b||_2 / (||A||_2 ||x||_2),

the size of the smallest relative perturbation of A alone (not b) that makes x
an exact solution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedAtZeroError
from .operators import _check_norm, norm2

__all__ = [
    "BerrValue",
    "backward_error",
    "composition_bound",
    "forward_to_backward_bound",
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
        Nonzero right-hand side.
    x : ndarray
        Candidate solution; must be nonzero (berr is undefined at 0).

    Returns
    -------
    BerrValue
    """
    if not np.any(b):
        raise ValueError("b must be nonzero")
    x = np.asarray(x, dtype=np.float64)
    x_norm = norm2(x)
    if x_norm == 0.0:
        raise UndefinedAtZeroError("backward error is undefined at x = 0")
    opnorm = _check_norm(op.opnorm())
    residual_norm = norm2(op.apply(x) - b)
    return BerrValue(residual_norm / (opnorm * x_norm), residual_norm, x_norm, opnorm)


def composition_bound(berr_perturbed, eps):
    """Backward error against A, certified from a run against a perturbed A~.

    If ||A - A~||_2 <= eps ||A||_2 then berr_A(x) <= (1 + eps) berr_A~(x) + eps.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if berr_perturbed < 0.0:
        raise ValueError("backward error is nonnegative")
    return (1.0 + eps) * berr_perturbed + eps


def forward_to_backward_bound(eps):
    """Bound berr from a relative M-norm forward error eps: eps / (1 - eps).

    Valid for eps in [0, 1); at eps = 0 the bound is 0.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must be in [0, 1)")
    return eps / (1.0 - eps)
