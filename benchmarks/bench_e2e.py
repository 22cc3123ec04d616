"""End-to-end timings of the fixed offline ``berrkit bench`` suites.

Runs each suite's entries (``runs.suite_entries``) REPEATS times in one
process, BLAS on ``bench_kernels.BLAS_THREADS`` threads, and stores per run
its min and median wall, its outcome and its digest (which must agree across
repeats), with an environment block and every table of
``bench_kernels.TABLES`` under its name, under ``--label`` in the file
``--out``, where it replaces an entry of that label. A few minutes::

    python3 benchmarks/bench_e2e.py --out BENCH_32.json --label parent OTHER/src
    python3 benchmarks/bench_e2e.py --out BENCH_32.json --label change
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile

REPEATS = 3
OUTCOME = ("total_matvecs", "iterations", "termination", "final_berr")


def environment(blas_threads):
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
        "blas_threads": blas_threads,
    }


def bench_suite(runs, suite, tmp):
    entries = runs.suite_entries(suite)
    walls = {e.name: [] for e in entries}
    records = {}
    totals = []
    history = os.path.join(tmp, "history.csv")
    for _ in range(REPEATS):
        total = 0
        for entry in entries:
            info, wall = runs.execute(entry.spec, history)
            total += wall
            walls[entry.name].append(wall)
            record = {**{key: info[key] for key in OUTCOME},
                      "digest": runs.digest(entry, history, info, tmp)}
            if records.setdefault(entry.name, record)["digest"] != record["digest"]:
                raise RuntimeError(f"{entry.label}: digest differs across repeats")
        totals.append(total)
    return {
        "wall_ns_min": min(totals),
        "wall_ns_median": int(statistics.median(totals)),
        "runs": {name: {"wall_ns_min": min(walls[name]),
                        "wall_ns_median": int(statistics.median(walls[name])),
                        **records[name]} for name in records},
    }


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(here, "..", "src"),
                        help="berrkit source directory (default: this checkout's src)")
    parser.add_argument("--out", required=True, help="trajectory JSON file to update")
    parser.add_argument("--label", required=True, help="name of this entry in the file")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import bench_kernels  # from this script's directory; pins BLAS before numpy loads
    import runs

    entry = {"label": args.label, "environment": environment(bench_kernels.BLAS_THREADS),
             "repeats": REPEATS, "suites": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in runs.FIXED_SUITES:
            entry["suites"][suite] = bench_suite(runs, suite, tmp)
            med = entry["suites"][suite]["wall_ns_median"] / 1e9
            print(f"{suite}: median {med:.2f} s over {REPEATS} repeats", file=sys.stderr)
    entry["kernels"] = {name: rows(0) for name, rows in bench_kernels.TABLES.items()}

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
