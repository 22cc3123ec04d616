"""The deterministic berrkit runs: one table, one executor and one digest.

``table`` holds every run of ``cli.SUITES`` and the ``berrkit solve`` runs,
each at trace-every 1 and 7. Each run writes every file ``berrkit solve``
can write but the summary, which it returns: the history CSV, the SVG plot
and the solution. A digest covers every history CSV column except
``wall_nanos``, every summary field, the plot and the solution. Import
this module with the ``src`` to run first on ``sys.path``.
"""

import hashlib
import json
import os
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from berrkit import cli, mmio

SYMMETRIC = "ill-conditioned:n=400,kappa=1e8"
GENERAL = "ill-conditioned:n=400,kappa=1e6+disguise2"


def _solve(problem, solver, **fields):
    """A ``berrkit solve`` run on rhs ones unless fields name another."""
    return cli.RunSpec(problem, solver, **{"rhs": "ones", **fields})


# Classical runs pass 1000 iterations so the residual refresh of cg and the
# Richardson loops is exercised, tol 1e-15 keeps them from stopping early,
# while the tol 1e-2 richardson run stops at k = 97, between two rows at
# trace-every 7; the two tol 1e-9 runs certify below sqrt(u), where the O(1)
# test gates at 2 sqrt(u) and every later step recovers, as it does for the
# tol 1.5e-8 run; the tol 3e-16 run goes on past certificates below eps until
# its measured row is below eps too, as the minres tol 3e-15 run goes on past
# the recurrence's claim at k = 885 (measured berr 3.43e-15); the two
# breakdown runs stop at k = 1 on a band with a zero diagonal, whose recovery
# goes through the floored band solve; the three full-reorthogonalization
# runs cover the other branch of both factorization steps, and the first two
# certify (k = 152 and 126)
SOLVES = [
    ("richardson", _solve(SYMMETRIC, "richardson", tol=1e-15, max_iter=1100)),
    ("richardson-tol1e-2", _solve(SYMMETRIC, "richardson", tol=1e-2)),
    ("richardson-ne", _solve(GENERAL, "richardson-ne", tol=1e-15, max_iter=1100)),
    ("cg", _solve(SYMMETRIC, "cg", tol=1e-15, max_iter=1100)),
    ("minres", _solve(SYMMETRIC, "minres", tol=1e-15, max_iter=1100)),
    ("lsqr", _solve(GENERAL, "lsqr", tol=1e-15, max_iter=1100)),
    ("regularized-cg", _solve(SYMMETRIC, "regularized-cg", max_iter=1100)),
    ("regularized-minres", _solve(SYMMETRIC, "regularized-minres", max_iter=1100)),
    ("minberr", _solve(SYMMETRIC, "minberr", tol=1e-6, max_iter=150)),
    ("minberr-ne", _solve(GENERAL, "minberr-ne", tol=1e-6, max_iter=150)),
    ("minberr-ne-perturbed", _solve(GENERAL, "minberr-ne-perturbed", tol=1e-4, max_iter=150)),
    ("minberr-tol1e-9", _solve("small-outlier:n=400,kappa=1e8,sigma=1e-2", "minberr",
                               tol=1e-9, max_iter=150)),
    ("minberr-ne-tol1e-9", _solve("ill-conditioned:n=400,kappa=10+disguise2", "minberr-ne",
                                  tol=1e-9, max_iter=150)),
    ("minberr-tol1.5e-8", _solve("small-outlier:n=2000,kappa=1e10,sigma=1e-3", "minberr",
                                 rhs="default", tol=1.5e-8)),
    ("minberr-tol3e-16", _solve("ill-conditioned:n=300,kappa=1e4+disguise", "minberr",
                                rhs="default", tol=3e-16, max_iter=1500)),
    ("minres-tol3e-15", _solve("ill-conditioned:n=300,kappa=1e4+disguise", "minres",
                               tol=3e-15, max_iter=3000)),
    ("minberr-ne-breakdown", _solve("cyclic-shift:n=64", "minberr-ne")),
    ("minberr-breakdown", _solve(SYMMETRIC, "minberr", rhs="smallest-left-singular")),
    ("minberr-full", _solve(SYMMETRIC, "minberr", tol=1e-6, max_iter=200, reorth="full")),
    ("minberr-ne-full", _solve(GENERAL, "minberr-ne", tol=1e-3, max_iter=150, reorth="full")),
    ("minberr-ne-stagnation-full", _solve("small-outlier:n=500,kappa=1e14,sigma=1e-3",
                                          "minberr-ne", tol=1e-4, max_iter=120, reorth="full")),
]

FIXED_SUITES = [suite for suite, grid in cli.SUITES.items() if not callable(grid)]


class Entry(NamedTuple):
    """One run: ``name`` in bench ``suite``, or a solve (suite None)."""

    suite: str | None
    name: str
    spec: cli.RunSpec

    @property
    def label(self):
        return f"bench/{self.suite}/{self.name}" if self.suite else f"solve/{self.name}"


def suite_entries(suite, suitesparse_dir=None):
    """The runs of bench suite, as ``berrkit bench`` runs them."""
    return [Entry(suite, name, spec) for name, spec in cli._bench_grid(suite, suitesparse_dir)]


def _solve_entries(solves):
    """Each (label, spec) of solves at trace-every 1 and 7."""
    return [Entry(None, f"{label}/every{every}", replace(spec, trace_every=every))
            for label, spec in solves for every in (1, 7)]


def certify_random_coo(n, rng, per_row=8, shift=1.5):
    """The perfbench certify matrix: per_row Gaussian entries of variance
    1/per_row at random columns of each row, plus shift on the diagonal (its
    column counts are Poisson)."""
    r = np.concatenate([np.repeat(np.arange(n), per_row), np.arange(n)])
    c = np.concatenate([rng.integers(0, n, n * per_row), np.arange(n)])
    v = np.concatenate([rng.standard_normal(n * per_row) / np.sqrt(per_row), np.full(n, shift)])
    return r, c, v


def write_random(path):
    """Certify's random unsymmetric matrix at n = 400, seed 0. Most columns
    hold several entries, so A^T x sums many terms."""
    mmio.write_coordinate(path, *certify_random_coo(400, np.random.default_rng(0)), (400, 400))


def write_diagonal(path, diag):
    """A symmetric diagonal matrix with diagonal diag."""
    n = len(diag)
    mmio.write_coordinate(path, np.arange(n), np.arange(n), diag, (n, n), symmetric=True)


def table(tmp):
    """Every entry in digest order; writes the ``.mtx`` files they read under tmp.

    Read back, a file's norm is estimated, not pinned. ``suitesparse`` runs
    on ``mtx_dir``: a symmetric diagonal and a cyclic shift that ``berrkit
    synth`` writes and ``write_random``'s matrix. The last runs read files
    outside it: cg meets p^T A p <= 0 at k = 4 on an indefinite diagonal (its
    measured row replaces the recurrence row of k = 4 at trace-every 1), and
    regularized-cg and -minres solve the shifted system exactly at k = 1 on the
    4 x 4 identity, on which A's own residual is not exact.
    """
    mtx_dir = os.path.join(tmp, "mtx")
    os.mkdir(mtx_dir)
    for stem, problem in (("symmetric", SYMMETRIC), ("nonsymmetric", "cyclic-shift:n=64")):
        # synth writes the right-hand side beside the matrix, outside mtx_dir
        written = os.path.join(tmp, f"{stem}.mtx")
        cli.main(["synth", "--problem", problem, "--out", written])
        os.replace(written, os.path.join(mtx_dir, f"{stem}.mtx"))
    symmetric, random = (os.path.join(mtx_dir, f"{s}.mtx") for s in ("symmetric", "random"))
    indefinite, identity = (os.path.join(tmp, f"{s}.mtx") for s in ("indefinite", "identity"))
    write_random(random)
    write_diagonal(indefinite, np.append(np.logspace(0.0, -12.0, 399), -0.1))
    write_diagonal(identity, np.ones(4))
    return [
        *(e for suite in FIXED_SUITES for e in suite_entries(suite)),
        *_solve_entries(SOLVES),
        *suite_entries("suitesparse", mtx_dir),
        *_solve_entries([
            ("mtx-minberr", _solve(symmetric, "minberr", tol=1e-6, max_iter=150)),
            ("mtx-minberr-ne-perturbed",
             _solve(symmetric, "minberr-ne-perturbed", tol=1e-4, max_iter=150)),
            ("mtx-richardson-ne", _solve(random, "richardson-ne", tol=1e-15, max_iter=1100)),
            ("mtx-cg-indefinite", _solve(indefinite, "cg", tol=1e-6, max_iter=1000)),
            ("mtx-regularized-cg-identity", _solve(identity, "regularized-cg", max_iter=20)),
            ("mtx-regularized-minres-identity",
             _solve(identity, "regularized-minres", max_iter=20)),
        ]),
    ]


def _artifacts(history):
    """The SVG plot and solution paths written beside the history CSV."""
    root = os.path.splitext(history)[0]
    return root + ".svg", root + "_x.mtx"


def execute(spec, history):
    """Run spec as ``berrkit solve`` does, writing its history CSV, SVG plot
    and solution file (``_artifacts``); returns the summary and the wall
    nanoseconds."""
    plot, solution = _artifacts(history)
    t0 = time.perf_counter_ns()
    info = cli.run_one(spec, history=history, plot=plot, solution=solution)
    return info, time.perf_counter_ns() - t0


def digest(entry, history, info, tmp):
    """sha256 over the history CSV without wall_nanos, the canonical summary
    (a suite run's with its name), the SVG plot and the solution file, in
    which a path under the temporary directory tmp appears relative to it."""
    h = hashlib.sha256()
    with open(history, encoding="ascii") as fh:
        for line in fh:
            h.update(line.rstrip("\n").rsplit(",", 1)[0].encode() + b"\n")
    summary = {**info, "name": entry.name} if entry.suite else info
    texts = [json.dumps(summary, sort_keys=True)]
    for path in _artifacts(history):
        with open(path, encoding="ascii") as fh:
            texts.append(fh.read())
    for text in texts:
        h.update(text.replace(tmp + os.sep, "").encode())
    return h.hexdigest()


def outcome(info):
    """Termination, iterations, final berr and certified bound of a run."""
    return (f"{info['termination']} k={info['iterations']} "
            f"berr={info['final_berr']!r} bound={info['certified_bound']!r}")


def _outcome_fields(line):
    """(termination, iterations, final berr) of a digest line, or None for a
    line without an outcome."""
    parts = line.split()
    if len(parts) < 7:
        return None
    termination, k, berr = parts[3], parts[4], parts[5].removeprefix("berr=")
    return termination, k, None if berr == "None" else float(berr)


def line(entry, tmp):
    """The digest line of entry: its label, the exit code ``berrkit`` would
    give, and for a run that succeeds its digest and outcome."""
    history = os.path.join(tmp, "history.csv")
    try:
        info, _ = execute(entry.spec, history)
    except cli._INPUT_ERRORS:
        return f"{entry.label} exit={cli.EXIT_SPEC}"
    except cli._SOLVER_ERRORS:
        return f"{entry.label} exit={cli.EXIT_SOLVER}"
    return f"{entry.label} exit={cli.EXIT_OK} {digest(entry, history, info, tmp)} {outcome(info)}"


def moves(old, new):
    """The (old, new) pairs of lines that differ, the shorter list padded with
    "(missing)"; how many of them kept termination and iterations; and the
    largest relative move of final berr among those."""
    total = max(len(old), len(new))
    pairs = zip(old + ["(missing)"] * (total - len(old)), new + ["(missing)"] * (total - len(new)))
    differ = [(a, b) for a, b in pairs if a != b]
    kept, worst = 0, 0.0
    for a, b in differ:
        fa, fb = _outcome_fields(a), _outcome_fields(b)
        if fa is not None and fb is not None and fa[:2] == fb[:2]:
            kept += 1
            if fa[2] and fb[2] is not None:
                worst = max(worst, abs(fb[2] - fa[2]) / abs(fa[2]))
    return differ, kept, worst
