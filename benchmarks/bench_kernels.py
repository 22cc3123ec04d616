"""Timing harness for the hot kernels: one list of tables, ``TABLES``.

Each entry maps a table's name to a function of the seed that returns the
table's rows; the script prints every table, and ``bench_e2e.py`` records
them under the same names. Sizes put each call in the microsecond to
millisecond range where dispatch overhead matters. The tables:

* ``householder``: the compact-WY Householder chain against the
  reflector-at-a-time loop it replaced (kept here as the reference), at m = n
  for each of WY_SIZES, with the one-off WY factor build timed apart;
* ``opnorm``: ``estimate_spectral_norm`` on the operators whose norm perfbench
  leaves unpinned (``opnorm_cases``): matvecs, steps, time and the relative
  error against the exact norm (known in closed form, or from a dense SVD, or
  from a fully reorthogonalized Golub-Kahan reference run of REFERENCE_STEPS);
* ``csr_matvec``: the CSR matvec as ``CsrOperator.apply`` runs it (its cached
  layout built by the checking call) against the ``np.add.reduceat`` matvec
  it replaced (kept here as the reference), on the shapes of
  ``csr_shapes``, and ``CsrOperator.apply_adjoint`` on the unsymmetric ones;
* ``band_recovery``: recovery on the band views at the sizes recovery meets
  (BAND_SIZES): one ``BandMatrix.solve`` and one ``solve_t`` on a unit
  right-hand side given as a list of Python floats, on a band that has
  already solved once, and one whole ``inverse_iteration`` call with its
  step count. The tridiagonal bands are ``LanczosState.ttilde(k)`` of the
  minres-worstcase problem (small-outlier n = 2000, kappa = 1e10,
  sigma = 1e-3, b = its default rhs), which solve with three terms a row;
  the bidiagonal ones ``BidiagState.btilde(k)`` of the NE sweep's problem
  (small-outlier n = 500, kappa = 1e14, sigma = 1e-3), which solve with
  two;
* ``recovery_sweep``: recovery at every k of one factorization, as a traced
  run pays for it (SWEEPS): the mean inverse-iteration steps per recovery, the
  time of the whole loop (band view, ``inverse_iteration`` at delta = 1e-6)
  and the worst certificate over the dense-SVD sigma_min;
* ``mtx_read``: Matrix Market reads (``mtx_files``): ``mmio.read_matrix_market``
  and ``problems.read_matrix_market`` on certify's random matrix (10 000 rows,
  9 entries a row), the 120 x 120 Laplacian and the random matrix at
  100 000 rows (900 000 entries), all written by ``mmio.write_coordinate``,
  beside a bare ``np.loadtxt`` of the same file, the floor of the reader's
  one parse; their ratio survives the host's speed swings;
* ``krylov_memory``: two peaks and the wall time of one untraced
  ``minberr_solve`` and of ``minberr_ne_solve`` under each
  reorthogonalization policy, on ``ill_conditioned(20000, 1e8)`` with
  b = ones, eps = 1e-12 and k_max = 300, so each run takes all 300 steps,
  and of ``minberr_solve`` on ``ill_conditioned(100000, 1e8)`` at eps = 1e-6
  with the default k_max. The time is the best of three runs. The
  tracemalloc peak comes from one more run, whose x must equal theirs to the
  byte; it counts a reserved store in full, written or not. The resident
  peak is the rise of the resident high-water mark (Linux ``VmHWM``) over
  one run in a fresh subprocess, from its mark just before the solve; it
  counts only the pages written, and is shown beside k n 8 bytes, one stored
  n-vector per step (the n = 100000 row should stay within 10% of it);
* ``krylov_loops``: the per-iteration cost of the solver loops on
  ``ill_conditioned(n, 1e8)`` with b = ones at each n of LOOP_SIZES: cg,
  minres and lsqr for LOOP_ITERATIONS iterations (their tolerance 1e-300
  never stops them earlier) and ``minberr_solve`` at eps = 1e-6. Each of
  three runs is one solve in a fresh interpreter, which reports its wall
  time and the minor page faults it took (``ru_minflt``); the row shows the
  best and median microseconds per iteration and the median faults. A loop
  whose per-step n-vectors the allocator gives back to the system and
  faults in again shows about n 8 / 4096 faults per iteration.

The Householder pair is cross-checked for agreement before it is timed,
and both CSR products must equal ``csr_order``, a CSR-order sum taken one
slot at a time, to the bit; ``tests/test_kernels.py`` and
``tests/test_smallband.py`` check the code of the recovery tables. Each
timing but the two Krylov tables' runs the calls of a row interleaved and
reports best and median per call.
The opnorm, recovery, Matrix Market and both Krylov tables time only
public entry points, so they run unchanged against older checkouts; a
checkout whose solves take arrays converts the list rhs on each call. BLAS
runs on BLAS_THREADS threads, set before numpy loads.

    python3 benchmarks/bench_kernels.py [--seed N]
"""

import os

# BLAS reads its thread count when numpy loads, so this precedes every import
# that loads numpy; bench_e2e.py imports this module first for the same reason
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc

import numpy as np

import berrkit
from berrkit import mmio
from berrkit._kernels import householder_chain, householder_wy
from berrkit.factorize import BidiagState, LanczosState
from berrkit.operators import (
    CsrOperator,
    DenseOperator,
    estimate_spectral_norm,
    norm2,
)
from berrkit.problems import disguise, ill_conditioned, read_matrix_market, small_outlier
from berrkit.smallband import inverse_iteration
from runs import certify_random_coo

WY_SIZES = (500, 2000)
CSR_ROWS = 200_000
CSR_PER_ROW = 8
BAND_SIZES = (30, 100, 300)
REPEATS = 5
# (name, problem, rhs, normal equations, last k) of each recovery sweep
SWEEPS = [
    ("PSD small-outlier:n=2000,kappa=1e10,sigma=1e-3",
     lambda: small_outlier(2000, 1e10, 1e-3), "default", False, 200),
    ("NE small-outlier:n=500,kappa=1e14,sigma=1e-3",
     lambda: small_outlier(500, 1e14, 1e-3), "default", True, 120),
    ("PSD ill-conditioned:n=2000,kappa=1e10",
     lambda: ill_conditioned(2000, 1e10), "ones", False, 400),
]
# Golub-Kahan steps of the fully reorthogonalized reference norm
REFERENCE_STEPS = 150
# (solver, reorth, n, eps, k_max) of each Krylov basis memory row, solved on
# ill_conditioned(n, 1e8) with b = ones; full reorthogonalization makes step
# k cost O(n k), and k_max None is the solver's default
KRYLOV_SOLVES = [("minberr_solve", "plain", 20_000, 1e-12, 300),
                 ("minberr_ne_solve", "plain", 20_000, 1e-12, 300),
                 ("minberr_ne_solve", "full", 20_000, 1e-12, 300),
                 ("minberr_solve", "plain", 100_000, 1e-6, None)]
# the sizes and the iteration count of the krylov_loops table, whose rows run
# LOOP_SOLVERS (minberr_solve stops at its own eps)
LOOP_SIZES = (20_000, 100_000)
LOOP_ITERATIONS = 3000
LOOP_SOLVERS = ("cg", "minres", "lsqr", "minberr_solve")
# one krylov_loops run in a fresh interpreter: prints its iterations, its
# wall seconds and the minor faults of the solve
LOOP_PROBE = """
import json, resource, sys, time
import numpy as np
import berrkit

solver, n, iterations = json.loads(sys.argv[1])
p = berrkit.ill_conditioned(n, 1e8)
b = np.ones(n)
if solver == "minberr_solve":
    run = lambda: berrkit.minberr_solve(p.op, b, eps=1e-6)
else:
    cfg = berrkit.SolverConfig(max_iterations=iterations, berr_tolerance=1e-300)
    run = lambda: getattr(berrkit, solver)(p.op, b, cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
r = run()
wall = time.perf_counter() - t0
print(json.dumps([r.iterations, wall, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults]))
"""
# one Krylov basis memory row in a fresh interpreter: prints its iterations
# and the rise of its resident high-water mark (KiB) over the solve. That is
# VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child
# would start at the high-water mark of the process that spawned it
RESIDENT_PROBE = """
import json, sys
import numpy as np
import berrkit

def high_water_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

solver, reorth, n, eps, k_max = json.loads(sys.argv[1])
p = berrkit.ill_conditioned(n, 1e8)
b = np.ones(n)
base = high_water_kib()
r = getattr(berrkit, solver)(p.op, b, eps=eps, k_max=k_max, reorth=reorth)
print(json.dumps([r.iterations, high_water_kib() - base]))
"""


def uniform_coo(rows, per_row, rng):
    """per_row entries at uniform random columns in each row."""
    r = np.repeat(np.arange(rows), per_row)
    return r, rng.integers(0, rows, size=rows * per_row), rng.standard_normal(rows * per_row)


def laplacian_coo(g):
    """The 5-point Laplacian on a g x g grid, both triangles stored."""
    idx = np.arange(g * g).reshape(g, g)
    lo = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
    hi = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    r = np.concatenate([idx.ravel(), lo, hi])
    c = np.concatenate([idx.ravel(), hi, lo])
    v = np.concatenate([np.full(g * g, 4.0), np.full(2 * lo.size, -1.0)])
    return r, c, v


def arrow_coo(n, rng):
    """A dense first row, a dense first column and the diagonal: one row of
    length n beside n - 1 rows of length 2, the skew worst case."""
    ar = np.arange(n)
    r = np.concatenate([np.zeros(n, np.int64), ar[1:], ar[1:]])
    c = np.concatenate([ar, np.zeros(n - 1, np.int64), ar[1:]])
    return r, c, rng.standard_normal(r.size)


def csr_shapes(rng):
    """(name, CsrOperator) for each CSR benchmark shape."""
    n = 10_000
    uniform = CsrOperator.from_coo(*uniform_coo(CSR_ROWS, CSR_PER_ROW, rng),
                                   (CSR_ROWS, CSR_ROWS))
    r, c, v = certify_random_coo(n, rng)
    lap = laplacian_coo(120)
    return [
        (f"uniform {CSR_ROWS} x {CSR_PER_ROW}/row", uniform),
        (f"certify random {n}", CsrOperator.from_coo(r, c, v, (n, n))),
        (f"certify random^T {n}", CsrOperator.from_coo(c, r, v, (n, n))),
        ("Laplacian 120 x 120", CsrOperator.from_coo(*lap, (14_400, 14_400), symmetric=True)),
        (f"arrow {n}", CsrOperator.from_coo(*arrow_coo(n, rng), (n, n))),
    ]


def opnorm_cases():
    """(name, operator with its norm unpinned, exact ||A||_2 or None) for the
    opnorm table: the Laplacians of perfbench's traced-cli and certify
    workloads, certify's random CSR matrix at perfbench seeds 1 and 2, and a
    dense two-sided disguise of ill_conditioned(400, 1e6)."""
    cases = []
    for workload, g in (("traced-cli", 50), ("certify", 120)):
        lap = CsrOperator.from_coo(*laplacian_coo(g), (g * g, g * g), symmetric=True)
        cases.append((f"{workload} Laplacian {g} x {g}", lap,
                      4.0 + 4.0 * np.cos(np.pi / (g + 1))))
    n = 10_000
    for seed in (1, 2):
        r, c, v = certify_random_coo(n, np.random.default_rng([seed, 10]))
        cases.append((f"certify random {n}, seed {seed}", CsrOperator.from_coo(r, c, v, (n, n)),
                      None))
    dense = disguise(ill_conditioned(400, 1e6), two_sided=True, seed=0).op.to_dense()
    cases.append(("dense disguise2 ill-conditioned 400, 1e6", DenseOperator(dense),
                  float(np.linalg.norm(dense, 2))))
    return cases


def reference_norm(op):
    """||A||_2 as the top singular value of the lower bidiagonal of a fully
    reorthogonalized Golub-Kahan run of REFERENCE_STEPS steps."""
    state = BidiagState(op, np.random.default_rng(7).standard_normal(op.rows), opnorm=1.0,
                        reorth="full")
    for _ in range(REFERENCE_STEPS):
        state.step()
    k = REFERENCE_STEPS
    bk = np.zeros((k + 1, k))
    bk[np.arange(k), np.arange(k)] = state.alphas[:k]
    bk[np.arange(1, k + 1), np.arange(k)] = state.betas[:k]
    return float(np.linalg.norm(bk, 2))


def reduceat_matvec(data, indices, indptr, x):
    """A x by one np.add.reduceat over the products, the CSR matvec that the
    length-bucketed layout replaced."""
    out = np.zeros(indptr.shape[0] - 1)
    if data.shape[0] == 0:
        return out
    prod = data * x[indices]
    nonempty = np.diff(indptr) > 0
    out[nonempty] = np.add.reduceat(prod, indptr[:-1][nonempty])
    return out


def csr_order(data, indices, indptr, x, y, cols):
    """(A x, A^T y) with each sum taken from 0.0 in CSR order, the order the
    CSR kernels keep: slot s of every row, then slot s + 1; the r-th stored
    entry of every column, then the r+1-th. Each step is one rounded multiply
    and one rounded add over entries with distinct targets."""
    lengths = np.diff(indptr)
    row = np.repeat(np.arange(lengths.shape[0]), lengths)
    entry = np.arange(data.shape[0])
    by_col = np.argsort(indices, kind="stable")
    counts = np.bincount(indices, minlength=cols)
    rank = np.empty_like(entry)
    rank[by_col] = entry - np.repeat(np.cumsum(counts) - counts, counts)
    out = []
    for key, target, terms, size in ((entry - indptr[row], row, data * x[indices], len(lengths)),
                                     (rank, indices, data * y[row], cols)):
        acc = np.zeros(size)
        order = np.argsort(key, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            acc[target[group]] += terms[group]
        out.append(acc)
    return out


def recovery_bands(sizes):
    """(name, k, band) for each k: Ttilde_k from one Lanczos run on the
    minres-worstcase problem, then Btilde_k from one Golub-Kahan run on the
    NE sweep's problem."""
    bands = []
    for name, state_type, view, p in [
        ("Ttilde", LanczosState, "ttilde", small_outlier(2000, 1e10, 1e-3)),
        ("Btilde", BidiagState, "btilde", small_outlier(500, 1e14, 1e-3)),
    ]:
        state = state_type(p.op, p.b)
        for _ in range(max(sizes)):
            state.step()
        bands += [(name, k, getattr(state, view)(k)) for k in sizes]
    return bands


def reflector_loop(vecs, x, adjoint):
    """U x or U^T x for U = H_0 ... H_{m-1}, one reflector at a time."""
    y = x.copy()
    for v in vecs if adjoint else vecs[::-1]:
        y -= (2.0 * (v @ y)) * v
    return y


def interleaved_seconds(fns):
    """Per-call (best, median) seconds of each zero-argument fn over REPEATS
    repeats, the fns taking turns within every repeat."""
    timers = [timeit.Timer(fn) for fn in fns]
    loops = [timer.autorange()[0] for timer in timers]
    runs = [[] for _ in fns]
    for _ in range(REPEATS):
        for timer, n, out in zip(timers, loops, runs):
            out.append(timer.timeit(n) / n)
    return [(min(out), statistics.median(out)) for out in runs]


def timing_fields(unit, fns):
    """The fields ``{label}_{unit}_best`` and ``{label}_{unit}_median``: the
    per-call time of each zero-argument fn of the dict fns, timed
    interleaved, in unit "us" or "ms" rounded to 0.1."""
    scale = {"us": 1e6, "ms": 1e3}[unit]
    fields = {}
    for label, (best, med) in zip(fns, interleaved_seconds(list(fns.values()))):
        fields[f"{label}_{unit}_best"] = round(best * scale, 1)
        fields[f"{label}_{unit}_median"] = round(med * scale, 1)
    return fields


def householder_rows(seed):
    """One dict per WY_SIZES entry m = n: the microseconds per call of the
    reflector loop, of the compact-WY chain and of the WY factor build, and
    the loop / chain speedup of the best times."""
    rng = np.random.default_rng(seed)
    table = []
    for n in WY_SIZES:
        vecs = rng.standard_normal((n, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        x = rng.standard_normal(n)
        tfactors = householder_wy(vecs)
        for adjoint in (False, True):
            want = reflector_loop(vecs, x, adjoint)
            got = householder_chain(vecs, tfactors, x, adjoint)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        row = {"n": n, **timing_fields("us", {
            "loop": lambda: reflector_loop(vecs, x, False),
            "wy": lambda: householder_chain(vecs, tfactors, x, False),
            "wy_build": lambda: householder_wy(vecs),
        })}
        row["speedup"] = round(row["loop_us_best"] / row["wy_us_best"], 1)
        table.append(row)
    return table


def opnorm_rows(_seed):
    """One dict per ``opnorm_cases`` entry: the matvecs and steps of one
    estimate_spectral_norm call, its best and median milliseconds and its
    relative error against the exact norm. The cases fix their own seeds."""
    table = []
    for name, op, exact in opnorm_cases():
        exact = reference_norm(op) if exact is None else exact
        before = op.products
        est = estimate_spectral_norm(op)
        matvecs = op.products - before
        ((best, med),) = interleaved_seconds([lambda: estimate_spectral_norm(op)])
        table.append({
            "operator": name, "matvecs": matvecs, "steps": est.iterations_used,
            "ms_best": round(best * 1e3, 2), "ms_median": round(med * 1e3, 2),
            "rel_error": float(f"{abs(est.value - exact) / exact:.3g}"),
        })
    return table


def csr_rows(seed):
    """One dict per CSR shape: nnz, the best and median microseconds per call
    of the reduceat reference, of CsrOperator.apply and, on the unsymmetric
    shapes, of CsrOperator.apply_adjoint (None on the symmetric one, whose
    adjoint is its apply), and the reduceat / apply speedup of the best times.
    apply and apply_adjoint are first checked to the bit against csr_order."""
    rng = np.random.default_rng(seed)
    table = []
    for name, op in csr_shapes(rng):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        want, want_t = csr_order(op.data, op.indices, op.indptr, x, y, op.cols)
        assert op.apply(x).tobytes() == want.tobytes(), name
        want_reduceat = reduceat_matvec(op.data, op.indices, op.indptr, x)
        assert np.linalg.norm(want_reduceat - want) <= 1e-13 * np.linalg.norm(want), name
        fns = {"reduceat": lambda: reduceat_matvec(op.data, op.indices, op.indptr, x),
               "apply": lambda: op.apply(x)}
        if not op.symmetric:
            assert op.apply_adjoint(y).tobytes() == want_t.tobytes(), name
            fns["apply_adjoint"] = lambda: op.apply_adjoint(y)
        row = {"shape": name, "nnz": op.nnz, **timing_fields("us", fns)}
        for stat in ("best", "median"):
            row.setdefault(f"apply_adjoint_us_{stat}", None)
        row["speedup"] = round(row["reduceat_us_best"] / row["apply_us_best"], 1)
        table.append(row)
    return table


def band_rows(seed):
    """One dict per band of recovery_bands(BAND_SIZES): the inverse-iteration
    step count and the best and median microseconds per call of
    BandMatrix.solve, BandMatrix.solve_t and inverse_iteration."""
    rng = np.random.default_rng(seed)
    table = []
    for name, k, band in recovery_bands(BAND_SIZES):
        rhs = rng.standard_normal(k)
        rhs = (rhs / np.linalg.norm(rhs)).tolist()
        band.solve(rhs)  # a recovery's first solve builds what the rest reuse
        _, _, steps = inverse_iteration(band, 1e-6, seed=[seed, k])
        fns = {"solve": lambda: band.solve(rhs),
               "solve_t": lambda: band.solve_t(rhs),
               "inverse_iteration": lambda: inverse_iteration(band, 1e-6, seed=[seed, k])}
        table.append({"band": name, "k": k, "inverse_iteration_steps": steps,
                      **timing_fields("us", fns)})
    return table


def sweep_rows(seed):
    """One dict per SWEEPS entry: recovery at every k = 1..last of one
    factorization, with the mean steps per recovery, the best and median
    milliseconds of the whole loop and the worst certificate / sigma_min."""
    table = []
    for name, build, rhs, normal_equations, last in SWEEPS:
        p = build()
        b = np.ones(p.op.rows) if rhs == "ones" else p.b
        state = BidiagState(p.op, b) if normal_equations else LanczosState(p.op, b)
        view = state.btilde if normal_equations else state.ttilde
        for _ in range(last):
            state.step()

        def recover_all():
            return [inverse_iteration(view(k), 1e-6, seed=[seed, k])
                    for k in range(1, last + 1)]

        results = recover_all()
        worst = 0.0
        for k, (v, _, _) in enumerate(results, start=1):
            band = view(k)
            dense = np.diag(band.diag)
            dense[np.arange(k - 1), np.arange(1, k)] = band.sup1
            dense[np.arange(k - 2), np.arange(2, k)] = band.sup2
            sigma_min = np.linalg.svd(dense, compute_uv=False)[-1]
            cert = norm2(band.matvec(v)) / norm2(v)  # the certificate recovery reports
            worst = max(worst, cert / sigma_min)
        table.append({
            "sweep": name, "last_k": last,
            "steps_per_recovery": round(sum(r[2] for r in results) / last, 2),
            **timing_fields("ms", {"loop": recover_all}),
            "worst_cert_over_sigma_min": round(float(worst), 6),
        })
    return table


def mtx_files(workdir, seed):
    """(name, path, rows) of each Matrix Market table file, written by
    ``mmio.write_coordinate``: certify's random matrix (n = 10000, 9 entries
    a row, seed ``[seed, 10]``), the 120 x 120 Laplacian in symmetric
    storage (its lower triangle, as certify writes it) and the random matrix
    at n = 100000 (900 000 entries, seed ``[seed, 11]``)."""

    def random_file(n, key):
        r, c, v = certify_random_coo(n, np.random.default_rng([seed, key]))
        path = os.path.join(workdir, f"random{n}.mtx")
        mmio.write_coordinate(path, r, c, v, (n, n))
        return f"certify random {n}", path, n

    g = 120
    r, c, v = laplacian_coo(g)
    lower = r >= c
    lap = os.path.join(workdir, "laplacian.mtx")
    mmio.write_coordinate(lap, r[lower], c[lower], v[lower], (g * g, g * g), symmetric=True)
    return [random_file(10_000, 10), (f"Laplacian {g} x {g}", lap, g * g),
            random_file(100_000, 11)]


def mtx_rows(seed):
    """One dict per ``mtx_files`` file: its entries, the best and median
    milliseconds per call of a bare ``np.loadtxt`` of its entry lines (the
    parse the reader makes), of ``mmio.read_matrix_market`` and of
    ``problems.read_matrix_market`` (which adds the CSR build; b is given, so
    no default right-hand side is computed), and the reader's best over
    loadtxt's (bests, because the medians of the 900 000-entry reads, a
    third of a second each, swing with the host)."""
    table = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, path, rows in mtx_files(workdir, seed):
            b = np.ones(rows)

            def loadtxt():
                # the two lines write_coordinate puts before the entries
                return np.loadtxt(path, dtype=mmio._COORDINATE_ENTRY, comments=None,
                                  skiprows=2, ndmin=1, encoding="ascii")

            fields = timing_fields("ms", {"loadtxt": loadtxt,
                                          "mmio_read": lambda: mmio.read_matrix_market(path),
                                          "problems_read": lambda: read_matrix_market(path, b=b)})
            table.append({
                "file": name, "entries": int(mmio.read_matrix_market(path).values.size),
                **fields,
                "read_over_loadtxt": round(fields["mmio_read_ms_best"]
                                           / fields["loadtxt_ms_best"], 2),
            })
    return table


def fresh_process(probe, row):
    """What the script probe prints, as JSON, run on the JSON of row in a
    fresh interpreter that imports the berrkit imported here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(berrkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(row)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def resident_peak(row):
    """(iterations, resident peak in bytes) of one ``KRYLOV_SOLVES`` row."""
    k, kib = fresh_process(RESIDENT_PROBE, row)
    return k, kib * 1024


def krylov_memory_rows(_seed):
    """One dict per ``KRYLOV_SOLVES`` entry: iterations, the tracemalloc and
    resident peaks and k n 8 bytes in MiB, resident / (k n 8), and the best
    wall seconds of three runs. The solves draw nothing at random."""
    table = []
    for row in KRYLOV_SOLVES:
        solver, reorth, n, eps, k_max = row
        p = ill_conditioned(n, 1e8)
        b = np.ones(n)

        def run():
            return getattr(berrkit, solver)(p.op, b, eps=eps, k_max=k_max, reorth=reorth)

        wall = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            timed = run()
            wall = min(wall, time.perf_counter() - t0)
        tracemalloc.start()
        try:
            traced = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced.x.tobytes() == timed.x.tobytes()
        k, resident = resident_peak(row)
        assert k == timed.iterations
        table.append({"solver": solver, "reorth": reorth, "n": n, "k": k,
                      "peak_mib": round(peak / 2**20, 1),
                      "resident_mib": round(resident / 2**20, 1),
                      "knb_mib": round(k * n * 8 / 2**20, 1),
                      "resident_over_knb": round(resident / (k * n * 8), 2),
                      "wall_s": round(wall, 2)})
    return table


def krylov_loop_rows(_seed):
    """One dict per solver of LOOP_SOLVERS at each n of LOOP_SIZES: the
    iterations, the best and median microseconds per iteration of three
    fresh-process runs and their median minor faults. The solves draw
    nothing at random."""
    table = []
    for n in LOOP_SIZES:
        for solver in LOOP_SOLVERS:
            runs = [fresh_process(LOOP_PROBE, [solver, n, LOOP_ITERATIONS]) for _ in range(3)]
            (k,) = {run[0] for run in runs}
            per_iteration = [run[1] / k * 1e6 for run in runs]
            table.append({"solver": solver, "n": n, "iterations": k,
                          "us_per_iteration_best": round(min(per_iteration), 1),
                          "us_per_iteration_median": round(statistics.median(per_iteration), 1),
                          "minor_faults": int(statistics.median(run[2] for run in runs))})
    return table


TABLES = {
    "householder": householder_rows,
    "opnorm": opnorm_rows,
    "csr_matvec": csr_rows,
    "band_recovery": band_rows,
    "recovery_sweep": sweep_rows,
    "mtx_read": mtx_rows,
    "krylov_memory": krylov_memory_rows,
    "krylov_loops": krylov_loop_rows,
}


def render(name, rows):
    """The table name over one column per key of rows, None shown as "-",
    text left-aligned and numbers right-aligned."""
    keys = list(rows[0])
    lines = [keys] + [["-" if row[key] is None else str(row[key]) for key in keys]
                      for row in rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(keys))]
    left = [isinstance(rows[0][key], str) for key in keys]
    text = [" ".join(cell.ljust(w) if ljust else cell.rjust(w)
                     for cell, w, ljust in zip(line, widths, left)).rstrip()
            for line in lines]
    return "\n".join([name, text[0], "-" * len(text[0]), *text[1:]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, rows in TABLES.items():
        print(render(name, rows(args.seed)), end="\n\n", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
