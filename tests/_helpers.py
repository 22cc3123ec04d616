"""Small matrix factories shared across the test modules."""

import numpy as np

import berrkit as bk


def random_psd(n, seed, spread=4.0):
    """Symmetric PSD matrix with log-spaced eigenvalues 1 .. 10**-spread."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = 10.0 ** np.linspace(0.0, -spread, n)
    a = (q * d) @ q.T
    return 0.5 * (a + a.T)


def random_general(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n))


def dense_op(a, opnorm=None):
    """DenseOperator with its exact spectral norm pinned."""
    op = bk.DenseOperator(a)
    op.set_opnorm(float(np.linalg.norm(a, 2)) if opnorm is None else opnorm)
    return op


class NormOverride(bk.CountingOperator):
    """Counts the matvecs of base and reports s as its norm, whatever s is: an
    operator whose own opnorm() returns a bad value."""

    def __init__(self, base, s):
        super().__init__(base)
        self.s = s

    def opnorm(self):
        return self.s


def forward_to_backward_bound(eps):
    """Bound berr from a relative M-norm forward error eps: eps / (1 - eps).

    Valid for eps in [0, 1); at eps = 0 the bound is 0.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must be in [0, 1)")
    return eps / (1.0 - eps)


def measured_berr(op, b, x, s):
    """||A x - b|| / (s ||x||) in plain numpy at an explicit norm s, an oracle
    that shares no code with backward_error."""
    return float(np.linalg.norm(op.apply(x) - b) / (s * np.linalg.norm(x)))


def capture_row_iterates(monkeypatch):
    """List that fills with (k, x) for every trace row any solver records."""
    from berrkit.classical import _Monitor

    rows = []
    record = _Monitor.record

    def spy(self, k, x, *args, **kwargs):
        rows.append((k, x.copy()))
        return record(self, k, x, *args, **kwargs)

    monkeypatch.setattr(_Monitor, "record", spy)
    return rows


def capture_monitors(monkeypatch, module):
    """List that fills with every _Monitor the solvers of module build."""
    monitors = []

    class Spy(module._Monitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            monitors.append(self)

    monkeypatch.setattr(module, "_Monitor", Spy)
    return monitors
