"""End-to-end timings of the five offline ``berrkit bench`` suites.

Every run of each suite's grid executes as ``berrkit bench`` executes it
(problem build, solve, history CSV), REPEATS times in one process, BLAS on one
thread. Per run the entry records the min and the median ``wall_ns`` over the
repeats and the deterministic outcome (matvecs, iterations, termination,
``final_berr``, which must agree across repeats). Per suite it also records the
min and median of the whole grid's wall time. An environment block gives the
python and numpy versions, the CPU count and model and the BLAS thread count.
The entry also holds six of ``bench_kernels.py``'s tables at their default
sizes: the opnorm table (per operator, the matvecs, steps, best milliseconds
and relative error of one ``estimate_spectral_norm`` call), the CSR table (per shape, nnz and the best and median microseconds per
call of the reduceat reference and of ``CsrOperator.apply``), the recovery
table (per band size k, the best and median microseconds of one
``BandMatrix.solve``, one ``solve_t`` and one ``inverse_iteration`` call, and
that call's step count) and the recovery sweep (per factorization, recovery
at every k: steps per recovery, loop milliseconds, worst certificate over
sigma_min) and the Matrix Market table (per file, its entries and the best
and median milliseconds of one ``mmio.read_matrix_market`` and one
``problems.read_matrix_market`` call) and the Krylov basis memory table (per
solve, its n, iterations, tracemalloc and resident peaks, k n 8 bytes and
best wall time).

The entry is stored under ``--label`` in the trajectory file ``--out``: an
entry with the same label is replaced, any other is kept, so one file holds
the before and after of a change. About a minute on one core::

    python3 benchmarks/bench_e2e.py --out BENCH_19.json --label parent OTHER/src
    python3 benchmarks/bench_e2e.py --out BENCH_19.json --label change

SRC_DIR defaults to this checkout's ``src``; pass another checkout's ``src``
to time that one.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SUITES = ("psd-synthetic", "nonsym-synthetic", "minres-worstcase", "stagnation", "perturbed")
REPEATS = 3
OUTCOME = ("total_matvecs", "iterations", "termination", "final_berr")


def environment():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def bench_suite(cli, suite, tmp):
    grid = cli._bench_grid(suite, None)
    walls = {name: [] for name, _ in grid}
    runs = {}
    totals = []
    for _ in range(REPEATS):
        total = 0
        for name, spec in grid:
            history = os.path.join(tmp, f"{name}.csv")
            t0 = time.perf_counter_ns()
            info = cli.run_one(spec, history=history)
            wall = time.perf_counter_ns() - t0
            total += wall
            walls[name].append(wall)
            outcome = {key: info[key] for key in OUTCOME}
            if runs.setdefault(name, outcome) != outcome:
                raise RuntimeError(f"{suite}/{name}: outcome differs across repeats")
        totals.append(total)
    for name, _ in grid:
        runs[name] = {
            "wall_ns_min": min(walls[name]),
            "wall_ns_median": int(statistics.median(walls[name])),
            **runs[name],
        }
    return {"wall_ns_min": min(totals), "wall_ns_median": int(statistics.median(totals)),
            "runs": runs}


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(here, "..", "src"),
                        help="berrkit source directory (default: this checkout's src)")
    parser.add_argument("--out", required=True, help="trajectory JSON file to update")
    parser.add_argument("--label", required=True, help="name of this entry in the file")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from berrkit import cli

    entry = {"label": args.label, "environment": environment(), "repeats": REPEATS,
             "suites": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES:
            entry["suites"][suite] = bench_suite(cli, suite, tmp)
            med = entry["suites"][suite]["wall_ns_median"] / 1e9
            print(f"{suite}: median {med:.2f} s over {REPEATS} repeats", file=sys.stderr)
    import bench_kernels  # from this script's directory

    entry["kernels"] = {
        "opnorm": bench_kernels.opnorm_rows(bench_kernels.REPEATS),
        "csr_matvec": bench_kernels.csr_rows(
            bench_kernels.CSR_ROWS, bench_kernels.CSR_PER_ROW, bench_kernels.REPEATS, seed=0),
        "band_recovery": bench_kernels.band_rows(
            bench_kernels.BAND_SIZES, bench_kernels.REPEATS, seed=0),
        "recovery_sweep": bench_kernels.sweep_rows(bench_kernels.REPEATS, seed=0),
        "mtx_read": bench_kernels.mtx_rows(bench_kernels.REPEATS, seed=0),
        "krylov_memory": bench_kernels.krylov_memory_rows(),
    }

    entries = []
    if os.path.exists(args.out):
        with open(args.out, encoding="ascii") as fh:
            entries = json.load(fh)["entries"]
    entries = [e for e in entries if e["label"] != args.label] + [entry]
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump({"entries": entries}, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
