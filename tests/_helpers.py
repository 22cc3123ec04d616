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


def measured_berr(op, b, x, opnorm=None):
    return bk.backward_error(op, b, x, opnorm=opnorm).value


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
