"""Timing harness for the hot kernels.

Run as a script; sizes are chosen so each call sits in the microsecond to
millisecond range where dispatch overhead matters. Four tables:

* the compact-WY Householder chain against the reflector-at-a-time loop it
  replaced (kept here as the reference), at m = n for each ``--wy-sizes``
  entry, with the one-off WY factor build reported separately;
* ||G||_2 of an n x n Gaussian G, as the minberr-ne-perturbed set-up needs
  it: LAPACK's full SVD against the Golub-Kahan run that replaced it, with
  its step count, for each ``--norm-sizes`` entry;
* the CSR matvec as ``CsrOperator.apply`` runs it (its cached layout built
  by a warm-up call) against the ``np.add.reduceat`` matvec it replaced
  (kept here as the reference), on the shapes of ``csr_shapes``;
* the two band solves, with their sizes.

Each pair in the first three tables is cross-checked for agreement before it
is timed; ``tests/test_kernels.py`` checks the kernels of the fourth. The
CSR pairs run interleaved and report best and median per call.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --csr-rows 500000 --repeats 9
"""

import argparse
import statistics
import timeit

import numpy as np

from berrkit._kernels import (
    band_solve_upper,
    band_solve_upper_t,
    householder_chain,
    householder_wy,
)
from berrkit.minberr import _dense_norm
from berrkit.operators import CsrOperator

CSR_ROWS = 200_000
CSR_PER_ROW = 8
REPEATS = 5


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


def band_inputs(k, rng):
    diag = np.abs(rng.standard_normal(k)) + 1.0
    sup1 = 0.3 * rng.standard_normal(k - 1)
    sup2 = 0.3 * rng.standard_normal(k - 2)
    rhs = rng.standard_normal(k)
    return diag, sup1, sup2, rhs


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
    call of the reduceat reference and of CsrOperator.apply."""
    rng = np.random.default_rng(seed)
    table = []
    for name, op in csr_shapes(rows, per_row, rng):
        x = rng.standard_normal(op.cols)
        want = reduceat_matvec(op.data, op.indices, op.indptr, x)
        got = op.apply(x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name
        (ref_best, ref_med), (new_best, new_med) = interleaved_seconds(
            [lambda: reduceat_matvec(op.data, op.indices, op.indptr, x),
             lambda: op.apply(x)],
            repeats,
        )
        table.append({
            "shape": name, "nnz": op.nnz,
            "reduceat_us_best": round(ref_best * 1e6, 1),
            "reduceat_us_median": round(ref_med * 1e6, 1),
            "apply_us_best": round(new_best * 1e6, 1),
            "apply_us_median": round(new_med * 1e6, 1),
        })
    return table


def csr_table(rows, per_row, repeats, seed):
    header = (f"{'CSR shape':<26} {'nnz':>8} {'reduceat best/med':>19} "
              f"{'apply best/med':>17} {'speedup':>8}")
    print(header)
    print("-" * len(header))
    for row in csr_rows(rows, per_row, repeats, seed):
        ref = f"{row['reduceat_us_best']:.0f}/{row['reduceat_us_median']:.0f}us"
        new = f"{row['apply_us_best']:.0f}/{row['apply_us_median']:.0f}us"
        speedup = row["reduceat_us_best"] / row["apply_us_best"]
        print(f"{row['shape']:<26} {row['nnz']:>8} {ref:>19} {new:>17} {speedup:>7.1f}x")


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


def norm_table(sizes, repeats, rng):
    header = f"{'n':<8} {'LAPACK SVD':>12} {'Golub-Kahan':>12} {'speedup':>9} {'steps':>6}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        g = rng.standard_normal((n, n))
        want = np.linalg.norm(g, 2)
        got, steps = _dense_norm(g, 0)
        assert abs(got - want) <= 1e-13 * want
        t_svd = best_seconds(np.linalg.norm, (g, 2), repeats)
        t_gk = best_seconds(_dense_norm, (g, 0), repeats)
        print(f"{n:<8} {t_svd * 1e3:>10.1f}ms {t_gk * 1e3:>10.1f}ms "
              f"{t_svd / t_gk:>8.1f}x {steps:>6}")


def kernel_table(cases, repeats):
    header = f"{'kernel':<20} {'size':>20} {'time':>12}"
    print(header)
    print("-" * len(header))
    for fn, size, inputs in cases:
        t = best_seconds(fn, inputs, repeats)
        print(f"{fn.__name__:<20} {size:>20} {t * 1e6:>10.1f}us")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csr-rows", type=int, default=CSR_ROWS)
    parser.add_argument("--csr-per-row", type=int, default=CSR_PER_ROW)
    parser.add_argument("--wy-sizes", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--norm-sizes", type=int, nargs="+", default=[500, 1000, 2000])
    parser.add_argument("--band-size", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    householder_table(args.wy_sizes, args.repeats, rng)
    print()
    norm_table(args.norm_sizes, args.repeats, rng)
    print()
    csr_table(args.csr_rows, args.csr_per_row, args.repeats, args.seed)
    print()
    band_size = f"k = {args.band_size}"
    kernel_table(
        [
            (band_solve_upper, band_size, band_inputs(args.band_size, rng)),
            (band_solve_upper_t, band_size, band_inputs(args.band_size, rng)),
        ],
        args.repeats,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
