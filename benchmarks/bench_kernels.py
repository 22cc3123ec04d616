"""Timing harness for the hot kernels.

Run as a script; sizes are chosen so each call sits in the microsecond to
millisecond range where dispatch overhead matters. Seven tables:

* the compact-WY Householder chain against the reflector-at-a-time loop it
  replaced (kept here as the reference), at m = n for each ``--wy-sizes``
  entry, with the one-off WY factor build reported separately;
* ``estimate_spectral_norm`` on the operators whose norm perfbench leaves
  unpinned (``opnorm_cases``): matvecs, steps, time and the relative error
  against the exact norm (known in closed form, or from a dense SVD, or from
  a fully reorthogonalized Golub-Kahan reference run of REFERENCE_STEPS);
* the CSR matvec as ``CsrOperator.apply`` runs it (its cached layout built
  by a warm-up call) against the ``np.add.reduceat`` matvec it replaced
  (kept here as the reference), on the shapes of ``csr_shapes``, and
  ``CsrOperator.apply_adjoint`` on the unsymmetric ones;
* recovery on the band views at the sizes recovery meets (``--band-sizes``,
  k = 30, 100 and 300 by default): one ``BandMatrix.solve`` and one
  ``solve_t`` as inverse iteration calls them (a unit right-hand side as a
  list of Python floats), on a band that has already solved once, and one
  whole ``inverse_iteration`` call with its step count.
  Each band is ``LanczosState.ttilde(k)`` of the minres-worstcase problem
  (small-outlier n = 2000, kappa = 1e10, sigma = 1e-3, b = its default rhs);
* recovery at every k of one factorization, as a traced run pays for it
  (``SWEEPS``): the mean inverse-iteration steps per recovery, the time of
  the whole loop (band view, ``inverse_iteration`` at delta = 1e-6) and the
  worst certificate over the dense-SVD sigma_min;
* Matrix Market reads (``mtx_files``): ``mmio.read_matrix_market`` and
  ``problems.read_matrix_market`` on certify's random matrix (10 000 rows,
  9 entries a row) and the 120 x 120 Laplacian, both written by
  ``mmio.write_coordinate``;
* Krylov basis memory (``KRYLOV_SOLVES``): two peaks and the wall time of
  one untraced ``minberr_solve`` and of ``minberr_ne_solve`` under each
  reorthogonalization policy, on ``ill_conditioned(20000, 1e8)`` with
  b = ones, eps = 1e-12 and k_max = 300, so each run takes all 300 steps,
  and of ``minberr_solve`` on ``ill_conditioned(100000, 1e8)`` at eps = 1e-6
  with the default k_max. The time is the best of three runs. The
  tracemalloc peak comes from one more run, whose x must equal theirs to the
  byte; it counts a reserved store in full, written or not. The resident
  peak is the rise of the resident high-water mark (Linux ``VmHWM``) over
  one run in a fresh subprocess, from its mark just before the solve; it
  counts only the pages written, and is shown beside k n 8 bytes, one stored
  n-vector per step (the n = 100000 row should stay within 10% of it).

Each pair in the Householder, ||G||_2 and CSR tables is cross-checked for
agreement before it is timed; ``tests/test_kernels.py`` and
``tests/test_smallband.py`` check the code of the recovery tables. The CSR
pairs, the three recovery timings and the two Matrix Market reads run
interleaved and report best and median per call. The opnorm, recovery and
Matrix Market and Krylov basis memory tables time only public entry points,
so they run unchanged against older checkouts; a checkout whose solves take
arrays converts the list rhs on each call.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --csr-rows 500000 --repeats 9
"""

import argparse
import json
import math
import os
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
    CountingOperator,
    CsrOperator,
    DenseOperator,
    estimate_spectral_norm,
    norm2,
)
from berrkit.problems import disguise, ill_conditioned, read_matrix_market, small_outlier
from berrkit.smallband import inverse_iteration

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


def certify_random_coo(n, rng, per_row=8, shift=1.5):
    """The perfbench certify matrix: per_row Gaussian entries of variance
    1/per_row at random columns of each row, plus shift on the diagonal (its
    column counts are Poisson)."""
    r = np.concatenate([np.repeat(np.arange(n), per_row), np.arange(n)])
    c = np.concatenate([rng.integers(0, n, n * per_row), np.arange(n)])
    v = np.concatenate([rng.standard_normal(n * per_row) / np.sqrt(per_row), np.full(n, shift)])
    return r, c, v


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


def csr_shapes(rows, per_row, rng):
    """(name, CsrOperator) for each CSR benchmark shape."""
    n = 10_000
    uniform = CsrOperator.from_coo(*uniform_coo(rows, per_row, rng), (rows, rows))
    r, c, v = certify_random_coo(n, rng)
    lap = laplacian_coo(120)
    return [
        (f"uniform {rows} x {per_row}/row", uniform),
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


def opnorm_rows(repeats):
    """One dict per ``opnorm_cases`` entry: the matvecs and steps of one
    estimate_spectral_norm call, its best milliseconds and its relative
    error against the exact norm."""
    table = []
    for name, op, exact in opnorm_cases():
        exact = reference_norm(op) if exact is None else exact
        counted = CountingOperator(op)
        est = estimate_spectral_norm(counted)
        table.append({
            "operator": name, "matvecs": counted.matvecs, "steps": est.iterations_used,
            "ms_best": round(best_seconds(estimate_spectral_norm, (op,), repeats) * 1e3, 2),
            "rel_error": float(f"{abs(est.value - exact) / exact:.3g}"),
        })
    return table


def opnorm_table(repeats):
    header = (f"{'estimate_spectral_norm':<42} {'matvecs':>8} {'steps':>6} "
              f"{'best':>10} {'rel. error':>11}")
    print(header)
    print("-" * len(header))
    for row in opnorm_rows(repeats):
        print(f"{row['operator']:<42} {row['matvecs']:>8} {row['steps']:>6} "
              f"{row['ms_best']:>8.2f}ms {row['rel_error']:>11.2e}")


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


def recovery_bands(sizes):
    """(k, Ttilde_k) for each k, from one Lanczos run on the minres-worstcase
    problem."""
    p = small_outlier(2000, 1e10, 1e-3)
    state = LanczosState(p.op, p.b)
    for _ in range(max(sizes)):
        state.step()
    return [(k, state.ttilde(k)) for k in sizes]


def reflector_loop(vecs, x, adjoint):
    """U x or U^T x for U = H_0 ... H_{m-1}, one reflector at a time."""
    y = x.copy()
    for v in vecs if adjoint else vecs[::-1]:
        y -= (2.0 * (v @ y)) * v
    return y


def best_seconds(fn, args, repeats):
    timer = timeit.Timer(lambda: fn(*args))
    loops, _ = timer.autorange()
    return min(timer.repeat(repeats, loops)) / loops


def interleaved_seconds(fns, repeats):
    """Per-call (best, median) seconds of each zero-argument fn, the fns taking
    turns within every repeat."""
    timers = [timeit.Timer(fn) for fn in fns]
    loops = [timer.autorange()[0] for timer in timers]
    runs = [[] for _ in fns]
    for _ in range(repeats):
        for timer, n, out in zip(timers, loops, runs):
            out.append(timer.timeit(n) / n)
    return [(min(out), statistics.median(out)) for out in runs]


def csr_rows(rows, per_row, repeats, seed):
    """One dict per CSR shape: nnz and the best and median microseconds per
    call of the reduceat reference, of CsrOperator.apply and, on the
    unsymmetric shapes, of CsrOperator.apply_adjoint (None on the symmetric
    one, whose adjoint is its apply). The adjoint is checked first by the
    dot test y^T (A x) = (A^T y)^T x."""
    rng = np.random.default_rng(seed)
    table = []
    for name, op in csr_shapes(rows, per_row, rng):
        x = rng.standard_normal(op.cols)
        want = reduceat_matvec(op.data, op.indices, op.indptr, x)
        got = op.apply(x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name
        fns = [lambda: reduceat_matvec(op.data, op.indices, op.indptr, x),
               lambda: op.apply(x)]
        if not op.symmetric:
            y = rng.standard_normal(op.rows)
            scale = np.abs(y) @ reduceat_matvec(np.abs(op.data), op.indices, op.indptr,
                                                np.abs(x))
            assert abs(y @ got - op.apply_adjoint(y) @ x) <= 1e-13 * scale, name
            fns.append(lambda: op.apply_adjoint(y))
        row = {"shape": name, "nnz": op.nnz, "apply_adjoint_us_best": None,
               "apply_adjoint_us_median": None}
        for label, (best, med) in zip(("reduceat", "apply", "apply_adjoint"),
                                      interleaved_seconds(fns, repeats)):
            row[f"{label}_us_best"] = round(best * 1e6, 1)
            row[f"{label}_us_median"] = round(med * 1e6, 1)
        table.append(row)
    return table


def csr_table(rows, per_row, repeats, seed):
    header = (f"{'CSR shape':<26} {'nnz':>8} {'reduceat best/med':>19} "
              f"{'apply best/med':>17} {'speedup':>8} {'adjoint best/med':>17}")
    print(header)
    print("-" * len(header))
    for row in csr_rows(rows, per_row, repeats, seed):
        ref, new, adj = ("-" if row[f"{label}_us_best"] is None else
                         f"{row[f'{label}_us_best']:.0f}/{row[f'{label}_us_median']:.0f}us"
                         for label in ("reduceat", "apply", "apply_adjoint"))
        speedup = row["reduceat_us_best"] / row["apply_us_best"]
        print(f"{row['shape']:<26} {row['nnz']:>8} {ref:>19} {new:>17} {speedup:>7.1f}x "
              f"{adj:>17}")


def householder_table(sizes, repeats, rng):
    header = f"{'m = n':<8} {'loop':>12} {'compact WY':>12} {'speedup':>9} {'WY build':>12}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        vecs = rng.standard_normal((n, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        x = rng.standard_normal(n)
        tfactors = householder_wy(vecs)
        for adjoint in (False, True):
            want = reflector_loop(vecs, x, adjoint)
            got = householder_chain(vecs, tfactors, x, adjoint)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        t_loop = best_seconds(reflector_loop, (vecs, x, False), repeats)
        t_wy = best_seconds(householder_chain, (vecs, tfactors, x, False), repeats)
        t_build = best_seconds(householder_wy, (vecs,), repeats)
        print(f"{n:<8} {t_loop * 1e6:>10.1f}us {t_wy * 1e6:>10.1f}us "
              f"{t_loop / t_wy:>8.1f}x {t_build * 1e6:>10.1f}us")


def band_rows(sizes, repeats, seed):
    """One dict per band size: the best and median microseconds per call of
    BandMatrix.solve, BandMatrix.solve_t and inverse_iteration, and the
    inverse-iteration step count."""
    rng = np.random.default_rng(seed)
    table = []
    for k, band in recovery_bands(sizes):
        rhs = rng.standard_normal(k)
        rhs = (rhs / np.linalg.norm(rhs)).tolist()
        band.solve(rhs)  # a recovery's first solve builds what the rest reuse
        _, _, steps = inverse_iteration(band, 1e-6, seed=[seed, k])
        timings = interleaved_seconds(
            [lambda: band.solve(rhs),
             lambda: band.solve_t(rhs),
             lambda: inverse_iteration(band, 1e-6, seed=[seed, k])],
            repeats,
        )
        row = {"k": k, "inverse_iteration_steps": steps}
        for name, (best, med) in zip(("solve", "solve_t", "inverse_iteration"), timings):
            row[f"{name}_us_best"] = round(best * 1e6, 1)
            row[f"{name}_us_median"] = round(med * 1e6, 1)
        table.append(row)
    return table


def band_table(sizes, repeats, seed):
    header = (f"{'k':>5} {'solve best/med':>16} {'solve_t best/med':>18} "
              f"{'inverse_iteration best/med':>28} {'steps':>6}")
    print(header)
    print("-" * len(header))
    for row in band_rows(sizes, repeats, seed):
        cells = [f"{row[f'{name}_us_best']:.1f}/{row[f'{name}_us_median']:.1f}us"
                 for name in ("solve", "solve_t", "inverse_iteration")]
        print(f"{row['k']:>5} {cells[0]:>16} {cells[1]:>18} {cells[2]:>28} "
              f"{row['inverse_iteration_steps']:>6}")


def sweep_rows(repeats, seed):
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
        ((best, med),) = interleaved_seconds([recover_all], repeats)
        table.append({
            "sweep": name, "last_k": last,
            "steps_per_recovery": round(sum(r[2] for r in results) / last, 2),
            "loop_ms_best": round(best * 1e3, 1),
            "loop_ms_median": round(med * 1e3, 1),
            "worst_cert_over_sigma_min": round(float(worst), 6),
        })
    return table


def sweep_table(repeats, seed):
    header = (f"{'recovery at every k':<48} {'k':>4} {'steps/rec':>9} "
              f"{'loop best/med':>16} {'cert/sigma_min':>15}")
    print(header)
    print("-" * len(header))
    for row in sweep_rows(repeats, seed):
        loop = f"{row['loop_ms_best']:.0f}/{row['loop_ms_median']:.0f}ms"
        print(f"{row['sweep']:<48} {row['last_k']:>4} {row['steps_per_recovery']:>9.2f} "
              f"{loop:>16} {row['worst_cert_over_sigma_min']:>15.6f}")


def mtx_files(workdir, seed):
    """(name, path, rows) of each Matrix Market table file, written by
    ``mmio.write_coordinate``: certify's random matrix (n = 10000, 9 entries
    a row, seed ``[seed, 10]``) and the 120 x 120 Laplacian in symmetric
    storage (its lower triangle, as certify writes it)."""
    n, g = 10_000, 120
    r, c, v = certify_random_coo(n, np.random.default_rng([seed, 10]))
    rnd = os.path.join(workdir, "random.mtx")
    mmio.write_coordinate(rnd, r, c, v, (n, n))
    r, c, v = laplacian_coo(g)
    lower = r >= c
    lap = os.path.join(workdir, "laplacian.mtx")
    mmio.write_coordinate(lap, r[lower], c[lower], v[lower], (g * g, g * g), symmetric=True)
    return [(f"certify random {n}", rnd, n), (f"Laplacian {g} x {g}", lap, g * g)]


def mtx_rows(repeats, seed):
    """One dict per ``mtx_files`` file: its entries, and the best and median
    milliseconds per call of ``mmio.read_matrix_market`` and of
    ``problems.read_matrix_market`` (which adds the CSR build; b is given, so
    no default right-hand side is computed)."""
    table = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, path, rows in mtx_files(workdir, seed):
            b = np.ones(rows)
            timings = interleaved_seconds(
                [lambda: mmio.read_matrix_market(path),
                 lambda: read_matrix_market(path, b=b)],
                repeats,
            )
            row = {"file": name, "entries": int(mmio.read_matrix_market(path).values.size)}
            for label, (best, med) in zip(("mmio_read", "problems_read"), timings):
                row[f"{label}_ms_best"] = round(best * 1e3, 1)
                row[f"{label}_ms_median"] = round(med * 1e3, 1)
            table.append(row)
    return table


def mtx_table(repeats, seed):
    header = (f"{'Matrix Market file':<24} {'entries':>8} {'mmio read best/med':>20} "
              f"{'problems read best/med':>24}")
    print(header)
    print("-" * len(header))
    for row in mtx_rows(repeats, seed):
        cells = [f"{row[f'{label}_ms_best']:.1f}/{row[f'{label}_ms_median']:.1f}ms"
                 for label in ("mmio_read", "problems_read")]
        print(f"{row['file']:<24} {row['entries']:>8} {cells[0]:>20} {cells[1]:>24}")


def resident_peak(row):
    """(iterations, resident peak in bytes) of one ``KRYLOV_SOLVES`` row,
    solved in a fresh interpreter that imports the berrkit imported here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(berrkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", RESIDENT_PROBE, json.dumps(row)], env=env,
                         check=True, capture_output=True, text=True).stdout
    k, kib = json.loads(out)
    return k, kib * 1024


def krylov_memory_rows():
    """One dict per ``KRYLOV_SOLVES`` entry: iterations, the tracemalloc and
    resident peaks and k n 8 bytes in MiB, and the best wall seconds of three
    runs."""
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
                      "knb_mib": round(k * n * 8 / 2**20, 1), "wall_s": round(wall, 2)})
    return table


def krylov_memory_table():
    header = (f"{'Krylov basis memory':<18} {'reorth':>6} {'n':>7} {'k':>5} {'tracemalloc':>12} "
              f"{'resident':>10} {'k n 8':>10} {'res./kn8':>8} {'wall':>7}")
    print(header)
    print("-" * len(header))
    for row in krylov_memory_rows():
        print(f"{row['solver']:<18} {row['reorth']:>6} {row['n']:>7} {row['k']:>5} "
              f"{row['peak_mib']:>9.1f}MiB {row['resident_mib']:>7.1f}MiB "
              f"{row['knb_mib']:>7.1f}MiB {row['resident_mib'] / row['knb_mib']:>8.2f} "
              f"{row['wall_s']:>6.2f}s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csr-rows", type=int, default=CSR_ROWS)
    parser.add_argument("--csr-per-row", type=int, default=CSR_PER_ROW)
    parser.add_argument("--wy-sizes", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--band-sizes", type=int, nargs="+", default=list(BAND_SIZES))
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    householder_table(args.wy_sizes, args.repeats, rng)
    print()
    opnorm_table(args.repeats)
    print()
    csr_table(args.csr_rows, args.csr_per_row, args.repeats, args.seed)
    print()
    band_table(args.band_sizes, args.repeats, args.seed)
    print()
    sweep_table(args.repeats, args.seed)
    print()
    mtx_table(args.repeats, args.seed)
    print()
    krylov_memory_table()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
