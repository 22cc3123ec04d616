"""Print one sha256 per deterministic berrkit run, for bitwise regression gates.

The runs are every run of the five offline ``berrkit bench`` suites plus one
``berrkit solve`` per solver at ``--trace-every`` 1 and 7. Each digest covers
every history CSV column except ``wall_nanos`` and every summary field, so two
checkouts that print the same lines produce bitwise-identical numbers.

Usage (about 40 s on one core)::

    python3 benchmarks/det_digest.py [SRC_DIR] > digests.txt

SRC_DIR defaults to this checkout's ``src``; pass another checkout's ``src``
to digest that one, then ``diff`` the two outputs.
"""

import hashlib
import json
import os
import sys
import tempfile
import warnings

SUITES = ("psd-synthetic", "nonsym-synthetic", "minres-worstcase", "stagnation", "perturbed")

SYMMETRIC = "ill-conditioned:n=400,kappa=1e8"
GENERAL = "ill-conditioned:n=400,kappa=1e6+disguise2"

# (solver, problem, extra flags); classical runs pass 1000 iterations so the
# residual refresh is exercised, tol 1e-15 keeps them from stopping early
SOLVER_RUNS = [
    ("richardson", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("richardson-ne", GENERAL, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("cg", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("minres", SYMMETRIC, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("lsqr", GENERAL, ["--tol", "1e-15", "--max-iter", "1100"]),
    ("regularized-cg", SYMMETRIC, ["--max-iter", "1100"]),
    ("regularized-minres", SYMMETRIC, ["--max-iter", "1100"]),
    ("minberr", SYMMETRIC, ["--tol", "1e-6", "--max-iter", "150"]),
    ("minberr-ne", GENERAL, ["--tol", "1e-6", "--max-iter", "150"]),
    ("minberr-ne-perturbed", GENERAL, ["--tol", "1e-4", "--max-iter", "150"]),
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


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(here, "..", "src"))
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
        for solver, problem, extra in SOLVER_RUNS:
            for every in ("1", "7"):
                hist = os.path.join(tmp, f"{solver}-{every}.csv")
                summ = os.path.join(tmp, f"{solver}-{every}.json")
                code = cli.main(
                    ["solve", "--problem", problem, "--solver", solver, "--rhs", "ones",
                     "--trace-every", every, "--history", hist, "--summary", summ, *extra]
                )
                if code != 0:
                    print(f"solve/{solver}/every{every} exit={code}")
                    continue
                with open(summ, encoding="ascii") as fh:
                    summary = json.load(fh)
                print(f"solve/{solver}/every{every} exit={code} {digest(hist, summary)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
