"""Print one sha256 per deterministic berrkit run, for bitwise regression gates.

The runs are every run of the five offline ``berrkit bench`` suites plus one
``berrkit solve`` per solver, a richardson run that stops at a tolerance at
k = 97 (no multiple of 7), one each for minberr and minberr-ne below sqrt(u),
minberr at eps 1.5e-8 (between sqrt(u) and 2 sqrt(u), where the O(1) test is
gated), minberr at eps 3e-16 (where certificates below eps meet measured rows
above it), minres at tol 3e-15 on a disguised ``ill-conditioned`` problem
(where the residual recurrence claims at k = 885 a tolerance that the
measured berr, 3.43e-15, misses; the run goes on to its first measured row
below tol), one each whose Krylov space breaks down at the first step, and
three under ``--reorth full`` (minberr, minberr-ne, and minberr-ne on the
``small-outlier`` stagnation problem), at ``--trace-every`` 1 and 7. Last
come runs on ``.mtx`` files that ``berrkit synth`` writes (``MTX_FILES``)
and on a seeded random unsymmetric matrix that ``mmio.write_coordinate``
writes (``write_random``), whose norm is estimated rather than pinned: the
``suitesparse`` suite over all of them, minberr and minberr-ne-perturbed
(whose perturbation is scaled by that estimate) on the symmetric one and
richardson-ne on the random one, at ``--trace-every`` 1 and 7. The random
matrix has several entries in most columns, so its runs sum A^T x over
columns of many terms, which ``cyclic-shift`` (one entry a column) does not.
Each digest covers every history CSV column except ``wall_nanos`` and every
summary field, so two checkouts that print the same lines produce
bitwise-identical numbers. After the digest each line shows the run's
outcome: termination, iterations (``k=``), final berr and the certified bound
(``bound=``, None unless the solver certifies one).

Usage (about 10 s on one core of a 2-core Xeon)::

    python3 benchmarks/det_digest.py [SRC_DIR] > digests.txt
    python3 benchmarks/det_digest.py [SRC_DIR] --against OTHER_SRC

SRC_DIR defaults to this checkout's ``src``; pass another checkout's ``src``
to digest that one. With ``--against`` both sources are digested, each in its
own subprocess (one process cannot import two ``berrkit`` packages), the lines
that differ are printed as ``-`` (OTHER_SRC) and ``+`` (SRC_DIR) pairs, and the
exit status is 1 if any line differs. A last line counts the moved lines
that kept termination and iterations and gives the largest relative move of
final berr among them, so a change that moves bits on purpose shows whether
it moved outcomes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings

SUITES = ("psd-synthetic", "nonsym-synthetic", "minres-worstcase", "stagnation", "perturbed")

SYMMETRIC = "ill-conditioned:n=400,kappa=1e8"
GENERAL = "ill-conditioned:n=400,kappa=1e6+disguise2"

# (label, solver, problem, extra flags); every run solves --rhs ones unless
# its extra flags, which come last, name another. Classical runs pass 1000
# iterations so the residual refresh of cg and the Richardson loops is
# exercised, tol 1e-15 keeps them from
# stopping early, while the tol 1e-2 richardson run stops between two rows
# at --trace-every 7; the two tol 1e-9 runs certify below sqrt(u), where the
# O(1) test gates at 2 sqrt(u) and every later step recovers, as it does for
# the tol 1.5e-8 run; the tol 3e-16 run goes on past certificates below eps
# until its measured row is below eps too, as the minres tol 3e-15 run goes
# on past recurrence norms below tol; the two breakdown
# runs stop at k = 1 on a band with a zero diagonal, whose recovery goes
# through the floored band solve; the three full-reorthogonalization runs
# cover the other branch of both factorization steps, and the first two
# certify (k = 152 and 126)
SOLVER_RUNS = [
    ("richardson", "richardson", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("richardson-tol1e-2", "richardson", SYMMETRIC, ["--tol", "1e-2"]),
    ("richardson-ne", "richardson-ne", GENERAL, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("cg", "cg", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("minres", "minres", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("lsqr", "lsqr", GENERAL, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("regularized-cg", "regularized-cg", SYMMETRIC, ["--max-iter", "1100"]),
    ("regularized-minres", "regularized-minres", SYMMETRIC, ["--max-iter", "1100"]),
    ("minberr", "minberr", SYMMETRIC, ["--tol", "1e-6", "--max-iter", "150"]),
    ("minberr-ne", "minberr-ne", GENERAL, ["--tol", "1e-6", "--max-iter", "150"]),
    ("minberr-ne-perturbed", "minberr-ne-perturbed", GENERAL,
     ["--tol", "1e-4", "--max-iter", "150"]),
    ("minberr-tol1e-9", "minberr", "small-outlier:n=400,kappa=1e8,sigma=1e-2",
     ["--tol", "1e-9", "--max-iter", "150"]),
    ("minberr-ne-tol1e-9", "minberr-ne", "ill-conditioned:n=400,kappa=10+disguise2",
     ["--tol", "1e-9", "--max-iter", "150"]),
    ("minberr-tol1.5e-8", "minberr", "small-outlier:n=2000,kappa=1e10,sigma=1e-3",
     ["--rhs", "default", "--tol", "1.5e-8"]),
    ("minberr-tol3e-16", "minberr", "ill-conditioned:n=300,kappa=1e4+disguise",
     ["--rhs", "default", "--tol", "3e-16", "--max-iter", "1500"]),
    ("minres-tol3e-15", "minres", "ill-conditioned:n=300,kappa=1e4+disguise",
     ["--tol", "3e-15", "--max-iter", "3000"]),
    ("minberr-ne-breakdown", "minberr-ne", "cyclic-shift:n=64", []),
    ("minberr-breakdown", "minberr", SYMMETRIC, ["--rhs", "smallest-left-singular"]),
    ("minberr-full", "minberr", SYMMETRIC,
     ["--tol", "1e-6", "--max-iter", "200", "--reorth", "full"]),
    ("minberr-ne-full", "minberr-ne", GENERAL,
     ["--tol", "1e-3", "--max-iter", "150", "--reorth", "full"]),
    ("minberr-ne-stagnation-full", "minberr-ne", "small-outlier:n=500,kappa=1e14,sigma=1e-3",
     ["--tol", "1e-4", "--max-iter", "120", "--reorth", "full"]),
]

# (file stem, synthetic problem) of each .mtx file; read back, a file's
# operator carries no pinned norm, so these runs exercise the norm estimate
MTX_FILES = [("symmetric", SYMMETRIC), ("nonsymmetric", "cyclic-shift:n=64")]
MTX_SOLVER_RUNS = [
    ("mtx-minberr", "minberr", "symmetric", ["--tol", "1e-6", "--max-iter", "150"]),
    ("mtx-minberr-ne-perturbed", "minberr-ne-perturbed", "symmetric",
     ["--tol", "1e-4", "--max-iter", "150"]),
    ("mtx-richardson-ne", "richardson-ne", "random", ["--tol", "1e-15", "--max-iter", "1100"]),
]


def write_random(mmio, path):
    """Write certify's random unsymmetric matrix (perfbench's
    ``random_nonsymmetric``) at n = 400, seed 0, with ``mmio.write_coordinate``:
    8 Gaussian entries of variance 1/8 at random columns of each row plus 1.5
    on the diagonal, a repeated position written as two entries."""
    import numpy as np

    n, per_row = 400, 8
    rng = np.random.default_rng(0)
    rows = np.concatenate([np.repeat(np.arange(n), per_row), np.arange(n)])
    cols = np.concatenate([rng.integers(0, n, n * per_row), np.arange(n)])
    vals = np.concatenate([rng.standard_normal(n * per_row) / np.sqrt(per_row),
                           np.full(n, 1.5)])
    mmio.write_coordinate(path, rows, cols, vals, (n, n))


def digest(history_path, summary, tmp):
    """sha256 over the CSV without wall_nanos plus the canonical summary, in
    which a path under the temporary directory tmp appears relative to it."""
    h = hashlib.sha256()
    with open(history_path, encoding="ascii") as fh:
        for line in fh:
            h.update(line.rstrip("\n").rsplit(",", 1)[0].encode() + b"\n")
    summary = {k: v for k, v in summary.items() if k != "history"}
    h.update(json.dumps(summary, sort_keys=True).replace(tmp + os.sep, "").encode())
    return h.hexdigest()


def outcome(summary):
    """Termination, iterations, final berr and certified bound of a run."""
    return (f"{summary['termination']} k={summary['iterations']} "
            f"berr={summary['final_berr']!r} bound={summary['certified_bound']!r}")


def _outcome_fields(line):
    """(termination, iterations, final berr) of a printed line, or None for
    a line without an outcome."""
    parts = line.split()
    if len(parts) < 7:
        return None
    termination, k, berr = parts[3], parts[4], parts[5].removeprefix("berr=")
    return termination, k, None if berr == "None" else float(berr)


def against(src, other):
    """Digest src and other in two concurrent subprocesses; print the lines
    that differ and return 1 if any do, else 0."""
    procs = [
        subprocess.Popen([sys.executable, os.path.abspath(__file__), path],
                         stdout=subprocess.PIPE, text=True)
        for path in (other, src)
    ]
    outputs = [proc.communicate()[0].splitlines() for proc in procs]
    for path, proc in zip((other, src), procs):
        if proc.returncode != 0:
            sys.exit(f"digesting {path} exited with status {proc.returncode}")
    old, new = outputs
    total = max(len(old), len(new))
    old += ["(missing)"] * (total - len(old))
    new += ["(missing)"] * (total - len(new))
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    kept, worst = 0, 0.0
    for a, b in differ:
        print(f"- {a}\n+ {b}")
        fa, fb = _outcome_fields(a), _outcome_fields(b)
        if fa is not None and fb is not None and fa[:2] == fb[:2]:
            kept += 1
            if fa[2] and fb[2] is not None:
                worst = max(worst, abs(fb[2] - fa[2]) / abs(fa[2]))
    print(f"{total - len(differ)} of {total} lines identical")
    if differ:
        print(f"{kept} of {len(differ)} moved lines kept termination and iterations; "
              f"largest final berr move among them {worst:.2g} relative")
    return 1 if differ else 0


def bench_lines(cli, tmp, suite, extra=()):
    """Print one line per run of ``berrkit bench suite``."""
    out = os.path.join(tmp, suite)
    code = cli.main(["bench", suite, "--out", out, *extra])
    with open(os.path.join(out, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    for run in manifest:
        print(f"bench/{suite}/{run['name']} exit={code} "
              f"{digest(run['history'], run, tmp)} {outcome(run)}")


def solve_lines(cli, tmp, label, solver, problem, extra):
    """Print one line per ``berrkit solve`` run, at --trace-every 1 and 7."""
    for every in ("1", "7"):
        hist = os.path.join(tmp, f"{label}-{every}.csv")
        summ = os.path.join(tmp, f"{label}-{every}.json")
        code = cli.main(
            ["solve", "--problem", problem, "--solver", solver, "--rhs", "ones",
             "--trace-every", every, "--history", hist, "--summary", summ, *extra]
        )
        if code != 0:
            print(f"solve/{label}/every{every} exit={code}")
            continue
        with open(summ, encoding="ascii") as fh:
            summary = json.load(fh)
        print(f"solve/{label}/every{every} exit={code} "
              f"{digest(hist, summary, tmp)} {outcome(summary)}")


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(here, "..", "src"))
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="digest OTHER_SRC too and report the lines that differ")
    args = parser.parse_args(argv[1:])
    src = os.path.abspath(args.src)
    if args.against is not None:
        return against(src, os.path.abspath(args.against))
    sys.path.insert(0, src)
    from berrkit import cli, mmio

    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES:
            bench_lines(cli, tmp, suite)
        for run in SOLVER_RUNS:
            solve_lines(cli, tmp, *run)
        # synth writes each right-hand side beside its matrix; only the
        # matrices go to the directory the suitesparse suite reads
        mtx_dir = os.path.join(tmp, "mtx")
        os.mkdir(mtx_dir)
        for stem, problem in MTX_FILES:
            written = os.path.join(tmp, f"{stem}.mtx")
            cli.main(["synth", "--problem", problem, "--out", written])
            os.replace(written, os.path.join(mtx_dir, f"{stem}.mtx"))
        write_random(mmio, os.path.join(mtx_dir, "random.mtx"))
        bench_lines(cli, tmp, "suitesparse", ["--suitesparse-dir", mtx_dir])
        for label, solver, stem, extra in MTX_SOLVER_RUNS:
            solve_lines(cli, tmp, label, solver, os.path.join(mtx_dir, f"{stem}.mtx"), extra)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
