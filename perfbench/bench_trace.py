"""Spans around berrkit's layers, recorded from outside the package.

Each layer is a module of berrkit. ``Tracer.install`` replaces the public
functions and methods of every layer with timing wrappers, at the name where
the caller looks them up (``berrkit.factorize.band_solve_upper`` rather than
``berrkit._kernels.band_solve_upper``, because factorize imports it by name).
``Tracer.uninstall`` puts the originals back. Nothing under ``src/`` changes.

Spans are kept in memory as tuples and written out when the run ends.
``chebbound`` is not wrapped: no solve or CLI path calls it. ``errors`` has
no runtime cost.
"""

import json
import os
import time
from contextlib import contextmanager

import bench_stats

LAYERS = (
    "operators",
    "kernels",
    "factorize",
    "smallband",
    "minberr",
    "classical",
    "problems",
    "mmio",
    "cli",
)

APPLY = "operators.apply"


def _layer(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def _step_extra(args, kwargs, out):
    state = args[0]
    bidiagonal = hasattr(state, "btilde")
    stored = getattr(state, "store_basis", True)
    basis = bench_stats.krylov_basis_bytes(
        state.op.rows, state.op.cols, state.k, bidiagonal, stored
    )
    return (state.reorth == "full", basis)


def _inverse_iteration_extra(args, kwargs, out):
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    key = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    return (out[2], key)


def _file_bytes(args, kwargs, out):
    path = args[0]
    return os.path.getsize(path) if isinstance(path, str) and os.path.exists(path) else 0


def _patch_table():
    """(owner, attribute, span name, extra) for every wrapped callable.

    ``extra(args, kwargs, result)`` returns the work figure a span carries,
    computed after the span has closed.
    """
    from berrkit import (
        _kernels,
        classical,
        cli,
        factorize,
        minberr,
        mmio,
        operators,
        problems,
        smallband,
    )

    table = [
        (operators.LinearOperator, "apply", APPLY, None),
        (operators.LinearOperator, "apply_adjoint", APPLY, None),
        (operators, "estimate_spectral_norm", "operators.opnorm",
         lambda a, k, out: out.iterations_used),
        (_kernels, "householder_chain", "kernels.householder_chain",
         lambda a, k, out: bench_stats.householder_chain_flops(*a[0].shape)),
        (_kernels, "csr_matvec", "kernels.csr_matvec",
         lambda a, k, out: bench_stats.csr_matvec_bytes(
             a[0].shape[0], a[2].shape[0] - 1, a[3].shape[0])),
        (factorize, "band_solve_upper", "kernels.band_solve", None),
        (factorize, "band_solve_upper_t", "kernels.band_solve", None),
        (factorize.LanczosState, "step", "factorize.step", _step_extra),
        (factorize.BidiagState, "step", "factorize.step", _step_extra),
        (smallband.CholTestState, "push_column", "smallband.test", None),
        (smallband.DqdsState, "push", "smallband.test", None),
        (minberr, "inverse_iteration", "smallband.inverse_iteration",
         _inverse_iteration_extra),
        (minberr, "minberr_solve", "minberr.solve", None),
        (minberr, "minberr_ne_solve", "minberr.solve", None),
        (minberr, "minberr_ne_perturbed", "minberr.perturbed", None),
        (problems, "read_matrix_market", "problems.build", None),
        (mmio, "read_matrix_market", "mmio.read", _file_bytes),
        (cli, "run_one", "cli.run_one", None),
        (cli, "write_history", "cli.artifacts", _file_bytes),
        (cli, "write_summary", "cli.artifacts", _file_bytes),
        (cli, "write_plot", "cli.artifacts", _file_bytes),
    ]
    for fn in ("richardson", "richardson_ne", "cg", "minres", "lsqr", "regularized_solve"):
        table.append((classical, fn, "classical.solve", None))
    for fn in ("ill_conditioned", "small_outlier", "cyclic_shift", "disguise",
               "rhs_smallest_left_singular"):
        table.append((problems, fn, "problems.build", None))
    return table


class Tracer:
    """Records spans (id, parent, name, start ns, end ns, extra) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._saved = []

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, None))
                raise
            end = clock()
            stack.pop()
            spans.append(
                (sid, parent, name, start, end,
                 None if extra is None else extra(args, kwargs, out))
            )
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name):
        """A benchmark-owned span (one op, or one set-up) that layer spans nest in."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, None))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, extra in _patch_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, extra))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _ancestors(sid, parent_of):
    parent = parent_of[sid]
    while parent is not None:
        yield parent
        parent = parent_of[parent]


def aggregate(spans, op_prefix="op:", setup_name="setup"):
    """Per-layer totals from recorded spans.

    Returns (metrics, shares, coverage): ``metrics`` are sums over
    every span under an op root, except the ``*.setup_ns`` entries, which sum
    the spans under set-up roots; ``shares`` is each layer's self time as a
    fraction of traced op time; ``coverage`` is the sum of those shares.
    """
    by_id = {s[0]: s for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    selfs = bench_stats.self_times((s[0], s[1], s[3], s[4]) for s in spans)

    root_of = {}
    for sid in sorted(by_id):
        parent = parent_of[sid]
        root_of[sid] = sid if parent is None else root_of[parent]

    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    op_ns = 0
    layer_self = dict.fromkeys(LAYERS, 0)
    last_seed = {}
    basis_max = 0
    for sid in sorted(by_id):
        _, parent, name, start, end, extra = by_id[sid]
        dur = end - start
        root_name = name_of[root_of[sid]]
        if parent is None:
            if name.startswith(op_prefix):
                op_ns += dur
            continue
        layer = _layer(name)
        if root_name == setup_name:
            if layer in ("problems", "mmio"):
                outer = all(name_of[a] != name for a in _ancestors(sid, parent_of))
                if outer:
                    add(f"{name}.setup_ns", dur)
            continue
        if not root_name.startswith(op_prefix) or layer is None:
            continue
        layer_self[layer] += selfs[sid]
        outer = all(name_of[a] != name for a in _ancestors(sid, parent_of))
        if name == APPLY:
            if outer:
                add("operators.apply.calls", 1)
                add("operators.apply.ns", dur)
        elif name == "operators.opnorm":
            add("operators.opnorm.calls", 1)
            add("operators.opnorm.iters", extra or 0)
            add("operators.opnorm.ns", dur)
        elif name == "kernels.householder_chain":
            add("kernels.householder_chain.calls", 1)
            add("kernels.householder_chain.ns", dur)
            add("kernels.householder_chain.flop", extra)
        elif name == "kernels.csr_matvec":
            add("kernels.csr_matvec.calls", 1)
            add("kernels.csr_matvec.ns", dur)
            add("kernels.csr_matvec.bytes", extra)
        elif name == "kernels.band_solve":
            add("kernels.band_solve.calls", 1)
            add("kernels.band_solve.ns", dur)
        elif name == "factorize.step":
            full, basis = extra
            add("factorize.step.calls", 1)
            add("factorize.step.self_ns", selfs[sid])
            add("factorize.step.full_self_ns" if full else "factorize.step.plain_self_ns",
                selfs[sid])
            basis_max = max(basis_max, basis)
        elif name == "smallband.test":
            add("smallband.test.calls", 1)
            add("smallband.test.ns", dur)
        elif name == "smallband.inverse_iteration":
            steps, seed_key = extra
            add("smallband.inverse_iteration.calls", 1)
            add("smallband.inverse_iteration.steps", steps)
            add("smallband.inverse_iteration.ns", dur)
            op_root = root_of[sid]
            if seed_key is not None and last_seed.get(op_root) == seed_key:
                add("minberr.recover_retries", 1)
            last_seed[op_root] = seed_key
        elif name.startswith("minberr."):
            add("minberr.self_ns", selfs[sid])
            if name == "minberr.perturbed":
                add("minberr.perturb_setup_ns", selfs[sid])
        elif name == "classical.solve":
            add("classical.self_ns", selfs[sid])
        elif name == "problems.build":
            if outer:
                add("problems.build.ns", dur)
        elif name == "mmio.read":
            add("mmio.read.ns", dur)
            add("mmio.read.bytes", extra)
        elif name == "cli.run_one":
            add("cli.self_ns", selfs[sid])
        elif name == "cli.artifacts":
            add("cli.artifacts.ns", dur)
            add("cli.artifacts.bytes", extra)
    m["factorize.basis_bytes"] = basis_max
    shares = {layer: (ns / op_ns if op_ns else 0.0) for layer, ns in layer_self.items()}
    return m, shares, sum(shares.values())
