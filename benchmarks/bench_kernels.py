"""Timing harness for the hot kernels.

Run as a script; sizes are chosen so each call sits in the microsecond to
millisecond range where dispatch overhead matters. Two tables:

* the compact-WY Householder chain against the reflector-at-a-time loop it
  replaced (kept here as the reference), at m = n for each ``--wy-sizes``
  entry, with the one-off WY factor build reported separately;
* the numpy path against the numba-jitted path for the kernels that still
  have both (the numba column reads n/a when numba is not installed).

Every pair is cross-checked for agreement before it is timed, and jitted
functions are warmed first so compilation never lands in the measured window.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --csr-rows 500000 --repeats 9
"""

import argparse
import timeit

import numpy as np

from berrkit._kernels import IMPLEMENTATIONS, householder_chain, householder_wy


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


def numba_table(cases, repeats):
    header = f"{'kernel':<20} {'numpy':>12} {'numba':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, inputs in cases.items():
        np_impl, nb_impl = IMPLEMENTATIONS[name]
        t_np = best_seconds(np_impl, inputs, repeats)
        if nb_impl is None:
            print(f"{name:<20} {t_np * 1e6:>10.1f}us {'n/a':>12} {'n/a':>9}")
            continue
        got = nb_impl(*inputs)
        np.testing.assert_allclose(got, np_impl(*inputs), rtol=1e-12, atol=1e-14)
        t_nb = best_seconds(nb_impl, inputs, repeats)
        print(f"{name:<20} {t_np * 1e6:>10.1f}us {t_nb * 1e6:>10.1f}us {t_np / t_nb:>8.1f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csr-rows", type=int, default=200_000)
    parser.add_argument("--csr-per-row", type=int, default=8)
    parser.add_argument("--wy-sizes", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--band-size", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    householder_table(args.wy_sizes, args.repeats, rng)
    print()
    numba_table(
        {
            "csr_matvec": csr_inputs(args.csr_rows, args.csr_per_row, rng),
            "band_solve_upper": band_inputs(args.band_size, rng),
            "band_solve_upper_t": band_inputs(args.band_size, rng),
        },
        args.repeats,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
