"""Chebyshev certificate for the k^2 convergence constant.

The minimum backward error over the k-th Krylov subspace is bounded by the
approximation error of an implicit polynomial built from the shifted Chebyshev
polynomial T*_ell(x) = T_ell(2x - 1). With G(x) = (1 - T*_ell(x)) / (2 ell^2)
the error is x G(x) / (x - G(x)), which under x = sin^2(gamma) collapses to
the trigonometric functional

    F_ell(gamma) / ell^2,
    F_ell(gamma) = ell^2 sin^2(gamma) sin^2(ell gamma)
                   / (ell^2 sin^2(gamma) - sin^2(ell gamma)),

whose supremum over (0, pi/2] is the gamma -> 0 limit 3 ell^2 / (ell^2 - 1).
Maximizing F on a grid clustered near 0 therefore certifies the 3/(k^2 - 1)
constant numerically, independently of any solver code.

This is a test oracle: ``test_chebbound.py`` and the A04 acceptance check
use it, and no solver path does.

Everything here evaluates through the trigonometric form; the polynomial
p(x) = (x - G(x)) / x^2 is never expanded in monomials, whose coefficients
are hopeless for large ell. The only numerically delicate spot is the
denominator factor ell sin(gamma) - sin(ell gamma), cubic in gamma at the
origin, which switches to a truncated odd series once ell gamma < 0.1.
"""

import numpy as np

__all__ = [
    "shifted_cheb",
    "G_of_x",
    "F_ell",
    "approx_error",
    "gamma_grid",
    "approx_error_sup",
    "ChebEval",
]

# below this value of ell*gamma the factored denominator cancels and the
# series takes over; at the threshold the discarded tail is ~(0.1)^10/11!
SERIES_CUTOFF = 0.1


def _check_ell(ell, even=True):
    ell = int(ell)
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if even and ell % 2:
        raise ValueError("ell must be even")
    return ell


def shifted_cheb(m, x):
    """T_m(2x - 1) by the three-term recurrence, elementwise over x."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    t = 2.0 * x - 1.0
    prev = np.ones_like(t)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = t
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur if cur.ndim else float(cur)


def G_of_x(ell, x):
    """G(x) = (1 - T*_ell(x)) / (2 ell^2) for even ell; obeys 0 <= G <= x."""
    ell = _check_ell(ell)
    return (1.0 - shifted_cheb(ell, x)) / (2.0 * ell * ell)


def _sin_gap(ell, gamma):
    """ell sin(gamma) - sin(ell gamma), elementwise, cancellation-free.

    Direct evaluation loses all digits as gamma -> 0 (the difference is cubic
    while the terms are linear); the odd series

        sum_{j>=1} (-1)^{j+1} ell (ell^{2j} - 1) gamma^{2j+1} / (2j+1)!

    truncated at j = 4 is used once ell*gamma < SERIES_CUTOFF.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    direct = ell * np.sin(gamma) - np.sin(ell * gamma)
    g2 = gamma * gamma
    series = np.zeros_like(gamma)
    power = gamma * g2
    ell_even = 1.0
    sign = 1.0
    fact = 1.0
    for j in range(1, 5):
        fact *= (2 * j) * (2 * j + 1)
        ell_even *= ell * ell
        series += sign * ell * (ell_even - 1.0) * power / fact
        power *= g2
        sign = -sign
    return np.where(ell * gamma < SERIES_CUTOFF, series, direct)


def F_ell(ell, gamma):
    """The trigonometric error functional on (0, pi/2], elementwise.

    Non-increasing on (0, pi/(2 ell)] with supremum 3 ell^2 / (ell^2 - 1) in
    the limit gamma -> 0, which is the value returned at gamma = 0.
    """
    ell = _check_ell(ell, even=False)
    gamma = np.asarray(gamma, dtype=np.float64)
    s = np.sin(gamma)
    sl = np.sin(ell * gamma)
    num = (ell * ell) * (s * s) * (sl * sl)
    denom = _sin_gap(ell, gamma) * (ell * s + sl)
    limit = 3.0 * ell * ell / (ell * ell - 1.0)
    # a zero denominator only happens at gamma = 0 or by underflow right next
    # to it; both take the limit value
    val = np.where(denom == 0.0, limit, num / np.where(denom == 0.0, 1.0, denom))
    return val if val.ndim else float(val)


def approx_error(ell, x):
    """x G(x) / (x - G(x)) on [0,1], elementwise, via the trigonometric form.

    Continuously extended at x = 0 to the limit 3 / (ell^2 - 1). This is the
    quantity whose supremum over the interval certifies the convergence
    constant.
    """
    ell = _check_ell(ell)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in [0, 1]")
    gamma = np.arcsin(np.sqrt(x))
    val = F_ell(ell, gamma) / (ell * ell)
    return val if np.ndim(val) else float(val)


def gamma_grid(points=10**6, clustering=3):
    """Grid (pi/2) t^clustering, t in (0, 1], clustered toward gamma = 0.

    gamma = 0 itself is excluded; the supremum there is covered analytically.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    t = np.linspace(0.0, 1.0, points + 1)[1:]
    return (np.pi / 2.0) * t**clustering


def approx_error_sup(ell, points=10**6, clustering=3):
    """Max of approx_error over the clustered grid plus the x = 0 limit."""
    ell = _check_ell(ell)
    grid_max = float(np.max(F_ell(ell, gamma_grid(points, clustering))))
    limit = 3.0 * ell * ell / (ell * ell - 1.0)
    return max(grid_max, limit) / (ell * ell)


class ChebEval:
    """Evaluation context bundling ell with a maximization grid.

    Parameters
    ----------
    ell : even int >= 2
    points : int
        Grid size for supremum estimation.
    clustering : int
        Exponent of the clustering map t -> (pi/2) t^clustering.
    """

    def __init__(self, ell, points=10**6, clustering=3):
        self.ell = _check_ell(ell)
        if points < 2:
            raise ValueError("points must be at least 2")
        if clustering < 1:
            raise ValueError("clustering must be at least 1")
        self.points = int(points)
        self.clustering = int(clustering)

    def grid(self):
        return gamma_grid(self.points, self.clustering)

    def sup(self):
        """Supremum of approx_error over [0,1] (grid max joined with limit)."""
        return approx_error_sup(self.ell, self.points, self.clustering)

    def bound(self):
        """The certified constant 3 / (ell^2 - 1)."""
        return 3.0 / (self.ell * self.ell - 1.0)
