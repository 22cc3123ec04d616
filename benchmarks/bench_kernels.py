"""Timing harness for the hot kernels.

Run as a script; sizes are chosen so each call sits in the microsecond to
millisecond range where dispatch overhead matters. Three tables:

* the compact-WY Householder chain against the reflector-at-a-time loop it
  replaced (kept here as the reference), at m = n for each ``--wy-sizes``
  entry, with the one-off WY factor build reported separately;
* ||G||_2 of an n x n Gaussian G, as the minberr-ne-perturbed set-up needs
  it: LAPACK's full SVD against the Golub-Kahan run that replaced it, with
  its step count, for each ``--norm-sizes`` entry;
* the CSR matvec and the two band solves, with their sizes.

Each pair in the first two tables is cross-checked for agreement before it
is timed; ``tests/test_kernels.py`` checks the kernels of the third.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --csr-rows 500000 --repeats 9
"""

import argparse
import timeit

import numpy as np

from berrkit._kernels import (
    band_solve_upper,
    band_solve_upper_t,
    csr_matvec,
    householder_chain,
    householder_wy,
)
from berrkit.minberr import _dense_norm


def csr_inputs(rows, per_row, rng):
    cols_idx = rng.integers(0, rows, size=(rows, per_row), dtype=np.int64)
    indices = np.sort(cols_idx, axis=1).ravel()
    data = rng.standard_normal(rows * per_row)
    indptr = np.arange(0, rows * per_row + 1, per_row, dtype=np.int64)
    x = rng.standard_normal(rows)
    return data, indices, indptr, x


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
    parser.add_argument("--csr-rows", type=int, default=200_000)
    parser.add_argument("--csr-per-row", type=int, default=8)
    parser.add_argument("--wy-sizes", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--norm-sizes", type=int, nargs="+", default=[500, 1000, 2000])
    parser.add_argument("--band-size", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    householder_table(args.wy_sizes, args.repeats, rng)
    print()
    norm_table(args.norm_sizes, args.repeats, rng)
    print()
    csr_size = f"n = {args.csr_rows}, {args.csr_per_row}/row"
    band_size = f"k = {args.band_size}"
    kernel_table(
        [
            (csr_matvec, csr_size, csr_inputs(args.csr_rows, args.csr_per_row, rng)),
            (band_solve_upper, band_size, band_inputs(args.band_size, rng)),
            (band_solve_upper_t, band_size, band_inputs(args.band_size, rng)),
        ],
        args.repeats,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
