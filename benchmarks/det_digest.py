"""Print one sha256 per deterministic berrkit run, for bitwise regression gates.

The runs are every run of the five offline ``berrkit bench`` suites plus one
``berrkit solve`` per solver, and one each for minberr and minberr-ne below
sqrt(u), at ``--trace-every`` 1 and 7. Each digest covers every history CSV
column except ``wall_nanos`` and every summary field, so two checkouts that
print the same lines produce bitwise-identical numbers.

Usage (about 40 s on one core)::

    python3 benchmarks/det_digest.py [SRC_DIR] > digests.txt
    python3 benchmarks/det_digest.py [SRC_DIR] --against OTHER_SRC

SRC_DIR defaults to this checkout's ``src``; pass another checkout's ``src``
to digest that one. With ``--against`` both sources are digested, each in its
own subprocess (one process cannot import two ``berrkit`` packages), the lines
that differ are printed as ``-`` (OTHER_SRC) and ``+`` (SRC_DIR) pairs, and the
exit status is 1 if any line differs.
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

# (label, solver, problem, extra flags); classical runs pass 1000 iterations
# so the residual refresh is exercised, tol 1e-15 keeps them from stopping
# early; the two tol 1e-9 runs certify below sqrt(u), where the O(1) test
# gates at 2 sqrt(u) and every later step recovers
SOLVER_RUNS = [
    ("richardson", "richardson", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
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
]


def digest(history_path, summary):
    """sha256 over the CSV without wall_nanos plus the canonical summary."""
    h = hashlib.sha256()
    with open(history_path, encoding="ascii") as fh:
        for line in fh:
            h.update(line.rstrip("\n").rsplit(",", 1)[0].encode() + b"\n")
    summary = {k: v for k, v in summary.items() if k != "history"}
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


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
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    print(f"{total - len(differ)} of {total} lines identical")
    return 1 if differ else 0


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
    from berrkit import cli

    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES:
            out = os.path.join(tmp, suite)
            code = cli.main(["bench", suite, "--out", out])
            with open(os.path.join(out, "manifest.json"), encoding="ascii") as fh:
                manifest = json.load(fh)
            for run in manifest:
                print(f"bench/{suite}/{run['name']} exit={code} {digest(run['history'], run)}")
        for label, solver, problem, extra in SOLVER_RUNS:
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
                print(f"solve/{label}/every{every} exit={code} {digest(hist, summary)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
