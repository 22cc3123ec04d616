"""Small matrix factories shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

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


class NormOverride(bk.LinearOperator):
    """base, reporting s as its norm whatever s is: an operator whose own
    opnorm() returns a bad value."""

    def __init__(self, base, s):
        super().__init__(base.rows, base.cols, base.symmetric)
        self.base = base
        self.s = s

    def _apply(self, v):
        return self.base.apply(v)

    def _apply_adjoint(self, v):
        return self.base.apply_adjoint(v)

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
    """List that fills with (k, x) for every trace row any solver records,
    x being the iterate ``_Monitor.check`` was handed at k; a row that takes
    the place of the last one does so here too."""
    from berrkit.classical import _Monitor

    rows = []
    check, record = _Monitor.check, _Monitor.record
    iterate = []

    def spy_check(self, k, x, *args, **kwargs):
        iterate[:] = [x.copy()]
        return check(self, k, x, *args, **kwargs)

    def spy_record(self, k, rn, xn):
        if self.trace.iterations[-1:] == [k]:
            rows.pop()
        rows.append((k, iterate[0]))
        return record(self, k, rn, xn)

    monkeypatch.setattr(_Monitor, "check", spy_check)
    monkeypatch.setattr(_Monitor, "record", spy_record)
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


@st.composite
def golub_kahan_problems(draw):
    """Square and rectangular dense, two-sided disguised and CSR operators,
    with b at unit scale or far from it."""
    kind = draw(st.sampled_from(["square", "rectangular", "disguise2", "csr"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "disguise2":
        p = bk.ill_conditioned(draw(st.integers(2, 60)), 10.0 ** rng.uniform(0.5, 8.0))
        p = bk.disguise(p, two_sided=True, seed=int(rng.integers(1000)))
        op, b = p.op, p.b
    else:
        m = draw(st.integers(1, 40))
        n = draw(st.integers(1, 40)) if kind == "rectangular" else m
        a = rng.standard_normal((m, n))
        if kind == "csr":
            a *= rng.random((m, n)) < 0.3
            rows, cols = np.nonzero(a)
            op = bk.CsrOperator.from_coo(rows, cols, a[rows, cols], (m, n))
        else:
            op = bk.DenseOperator(a, symmetric=False)
        b = rng.standard_normal(m)
    return op, b * draw(st.sampled_from([1.0, 2.0**-300, 2.0**300]))


@st.composite
def lanczos_problems(draw):
    """Symmetric dense, diagonal (with repeated entries, so some runs break
    down early), one-sided disguised and CSR operators, with b at unit scale
    or far from it."""
    kind = draw(st.sampled_from(["dense", "diagonal", "disguise", "csr"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    if kind == "disguise":
        p = bk.disguise(bk.ill_conditioned(max(n, 2), 10.0 ** rng.uniform(0.5, 8.0)),
                        seed=int(rng.integers(1000)))
        op, b = p.op, p.b
    elif kind == "diagonal":
        op = bk.DiagonalOperator(rng.integers(1, 4, n) * rng.uniform(0.5, 2.0))
        b = rng.standard_normal(n)
    else:
        a = rng.standard_normal((n, n))
        a = a + a.T
        if kind == "csr":
            a *= np.triu(rng.random((n, n)) < 0.3)
            a = a + np.triu(a, 1).T
            rows, cols = np.nonzero(a)
            op = bk.CsrOperator.from_coo(rows, cols, a[rows, cols], (n, n), symmetric=True)
        else:
            op = bk.DenseOperator(a, symmetric=True)
        b = rng.standard_normal(n)
    return op, b * draw(st.sampled_from([1.0, 2.0**-300, 2.0**300]))
