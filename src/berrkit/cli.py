"""Command-line harness: build or load a problem, run a solver, write artifacts.

Three subcommands:

* ``solve``  — one (problem, solver) run; emits a per-iteration history CSV,
  a JSON summary embedding the full run spec, and optionally a standalone SVG
  log-log convergence chart with 1/k and 1/k^2 reference curves and the
  solution x as a Matrix Market array file.
* ``bench``  — a named grid of solve runs with a combined manifest.
* ``synth``  — write a synthetic instance to Matrix Market files.

Each choice is one table: the ``RunSpec`` fields are the run options (flags,
config keys, defaults, help, range checks), and ``SOLVERS``, ``_FAMILIES`` and
``SUITES`` map solver, problem family and suite names to what they run.

Exit codes: 0 on success (MaxIterations included), 2 for bad input, 3 for
solver failures. Everything before the solver starts (config file, spec
check, problem build, rhs file) raises ``SpecError`` on bad input, and
``main`` reports it, or any ``OSError`` (a missing file, a directory given as
a path), with exit 2. ``bench`` records a failed run in its manifest and goes
on. stdout stays empty unless the summary is directed there with
``--summary -``; diagnostics go to stderr.

All numeric output uses 17 significant digits so doubles round-trip exactly.
History CSVs are deterministic for a fixed spec and seed except for the
wall_nanos column, which reports real elapsed time.
"""

import argparse
import html
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import classical, minberr, mmio, problems
from .classical import SolverConfig
from .errors import BerrkitError
from .factorize import _REORTH_POLICIES

__all__ = ["RunSpec", "main"]

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SOLVER = 3

CSV_HEADER = "iter,berr,residual_norm,x_norm,wall_nanos"


class SpecError(Exception):
    """Bad run specification or input file (maps to exit code 2)."""


# what main reports with exit 2 and with exit 3; bench records either in its
# manifest and goes on with the next run
_INPUT_ERRORS = (SpecError, OSError)
_SOLVER_ERRORS = (BerrkitError, ValueError)


@contextmanager
def _bad_input(what):
    """Re-raise a ValueError from reading ``what`` as a SpecError."""
    try:
        yield
    except ValueError as exc:
        raise SpecError(f"{what}: {exc}") from None


def _option(default, help, valid=None, rule=None, choices=None):
    """A RunSpec field that is also a ``--flag`` and a config key.

    ``valid(value)`` says whether a value is in range and ``rule`` says, after
    the option name, what the range is; ``choices`` sets both.
    """
    if choices is not None:
        valid, rule = choices.__contains__, "must be one of " + ", ".join(choices)
    return field(
        default=default,
        metadata={"help": help, "valid": valid, "rule": rule, "choices": choices},
    )


@dataclass
class RunSpec:
    """Everything needed to reproduce one run; echoed into the JSON summary.

    Every field after ``solver`` is a run option: a ``--flag`` of ``berrkit
    solve`` and a key of its ``--config`` file, with the default given here.
    """

    problem: str
    solver: str
    rhs: str = _option("default", "default | ones | smallest-left-singular | file:PATH")
    tol: float = _option(1e-6, "backward-error tolerance",
                         lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
    max_iter: int = _option(1000, "iteration cap (also the k of regularized-*)",
                            lambda v: v >= 1, "must be at least 1")
    C: float = _option(1.0, "Richardson step constant",
                       lambda v: 1.0 <= v < math.inf, "must be finite and at least 1")
    delta: float = _option(1e-6, "recovery failure probability",
                           lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
    perturb_eps: float = _option(1e-3, "relative perturbation size",
                                 lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
    seed: int = _option(0, "seed for all randomized pieces",
                        lambda v: v >= 0, "must be nonnegative")
    reorth: str = _option("plain", "reorthogonalization policy", choices=_REORTH_POLICIES)
    trace_every: int = _option(1, "record every i-th iteration",
                               lambda v: v >= 1, "must be at least 1")


_RUN_OPTIONS = [f for f in fields(RunSpec) if "help" in f.metadata]


def _key(name):
    """Flag and config-key form of a RunSpec field name."""
    return name.replace("_", "-")


def _config(spec):
    """SolverConfig of a classical run."""
    return SolverConfig(
        step_constant=spec.C,
        max_iterations=spec.max_iter,
        berr_tolerance=spec.tol,
        trace_every=spec.trace_every,
    )


def _minberr_kw(spec):
    """Keyword arguments of a traced minberr run."""
    return dict(eps=spec.tol, delta=spec.delta, k_max=spec.max_iter, reorth=spec.reorth,
                seed=spec.seed, trace_every=spec.trace_every)


def _regularized(inner):
    return lambda spec, op, b: classical.regularized_solve(
        op, b, spec.max_iter, inner=inner, trace_every=spec.trace_every
    )


class _Solver(NamedTuple):
    run: Callable  # run(spec, op, b) -> result; looks the solver up at call time
    min_iter: int = 1


SOLVERS = {
    "richardson": _Solver(lambda spec, op, b: classical.richardson(op, b, _config(spec))),
    "richardson-ne": _Solver(lambda spec, op, b: classical.richardson_ne(op, b, _config(spec))),
    "cg": _Solver(lambda spec, op, b: classical.cg(op, b, _config(spec))),
    "minres": _Solver(lambda spec, op, b: classical.minres(op, b, _config(spec))),
    "lsqr": _Solver(lambda spec, op, b: classical.lsqr(op, b, _config(spec))),
    # the shift schedule of regularized_solve needs k >= 9
    "regularized-cg": _Solver(_regularized("cg"), min_iter=9),
    "regularized-minres": _Solver(_regularized("minres"), min_iter=9),
    "minberr": _Solver(lambda spec, op, b: minberr.minberr_solve(op, b, **_minberr_kw(spec))),
    "minberr-ne": _Solver(
        lambda spec, op, b: minberr.minberr_ne_solve(op, b, **_minberr_kw(spec))
    ),
    "minberr-ne-perturbed": _Solver(
        lambda spec, op, b: minberr.minberr_ne_perturbed(
            op, b, spec.perturb_eps, **_minberr_kw(spec)
        )
    ),
}


def validate_spec(spec):
    if spec.solver not in SOLVERS:
        raise SpecError(f"unknown solver {spec.solver!r}")
    for f in _RUN_OPTIONS:
        valid = f.metadata["valid"]
        if valid is not None and not valid(getattr(spec, f.name)):
            raise SpecError(f"{_key(f.name)} {f.metadata['rule']}")
    min_iter = SOLVERS[spec.solver].min_iter
    if spec.max_iter < min_iter:
        raise SpecError(f"{spec.solver} needs max-iter of at least {min_iter}")


# family name -> (problems constructor, its parameters in call order with their types)
_FAMILIES = {
    "ill-conditioned": ("ill_conditioned", {"n": int, "kappa": float}),
    "small-outlier": ("small_outlier", {"n": int, "kappa": float, "sigma": float}),
    "cyclic-shift": ("cyclic_shift", {"n": int}),
}

# problem suffix -> two_sided argument of problems.disguise
_DISGUISES = {"+disguise2": True, "+disguise": False}


def _parse_params(text, what):
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise SpecError(f"{what}: expected key=value, got {piece!r}")
        key, _, value = (part.strip() for part in piece.partition("="))
        if key in params:
            raise SpecError(f"{what}: parameter {key!r} given twice")
        params[key] = value
    return params


def _param(params, key, typ, what):
    """Pop params[key] as a number of type typ (float or int)."""
    if key not in params:
        raise SpecError(f"{what} needs {key}=...")
    value = float(params.pop(key))
    if typ is int and (not math.isfinite(value) or value != int(value)):
        raise SpecError(f"{what}: {key} must be an integer")
    return typ(value)


def build_problem(text, seed):
    """Parse a --problem string into a ProblemInstance.

    Synthetic forms: ``ill-conditioned:n=100,kappa=1e6``,
    ``small-outlier:n=500,kappa=1e10,sigma=1e-3``, ``cyclic-shift:n=50``,
    each optionally suffixed with ``+disguise`` (one-sided) or ``+disguise2``
    (two-sided, breaks symmetry). Anything else is treated as a Matrix Market
    file path. Bad input raises SpecError.
    """
    suffix = next((s for s in _DISGUISES if text.endswith(s)), None)
    if suffix:
        text = text[: -len(suffix)]
    name, _, param_text = text.partition(":")
    with _bad_input(text):
        if name in _FAMILIES:
            constructor, types = _FAMILIES[name]
            params = _parse_params(param_text, name)
            args = [_param(params, key, typ, name) for key, typ in types.items()]
            if params:
                raise SpecError(f"{name}: unknown parameters {sorted(params)}")
            p = getattr(problems, constructor)(*args)
        elif os.path.exists(text):
            p = problems.read_matrix_market(text)
        else:
            raise SpecError(f"unknown problem {text!r}: not a synthetic family and not a file")
        if suffix:
            p = problems.disguise(p, two_sided=_DISGUISES[suffix], seed=seed)
    return p


# rhs name -> right-hand side of a ProblemInstance; ``file:PATH`` reads PATH
_RHS = {
    "default": lambda p: np.asarray(p.b, dtype=np.float64),
    "ones": lambda p: np.ones(p.op.rows),
    "smallest-left-singular": lambda p: problems.rhs_smallest_left_singular(p),
}


def resolve_rhs(spec_rhs, p):
    """The right-hand side spec_rhs names for p; bad input raises SpecError."""
    with _bad_input(f"rhs {spec_rhs}"):
        if spec_rhs in _RHS:
            return _RHS[spec_rhs](p)
        if not spec_rhs.startswith("file:"):
            raise SpecError(f"unknown rhs {spec_rhs!r}")
        dense = mmio.read_matrix_market(spec_rhs[len("file:") :]).to_dense()
    if min(dense.shape) != 1:
        raise SpecError("rhs file must hold a single row or column")
    if dense.size != p.op.rows:
        raise SpecError(f"rhs file has {dense.size} entries, expected {p.op.rows}")
    return dense.reshape(-1)


def run_solver(spec, op, b):
    """Run spec.solver on (op, b); returns the solver's result object."""
    return SOLVERS[spec.solver].run(spec, op, b)


def _fmt(value):
    return format(float(value), ".17g")


def write_history(path, trace):
    lines = [CSV_HEADER]
    for it, berr, rn, xn, wall in trace.rows():
        lines.append(
            f"{it},{_fmt(berr)},{_fmt(rn)},{_fmt(xn)},{int(wall)}"
        )
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _finite_or_none(value):
    """value, or None (JSON null) when it is missing or not finite."""
    return value if value is not None and math.isfinite(value) else None


def summarize(spec, result):
    return {
        "spec": asdict(spec),
        "termination": str(result.termination.value),
        "final_berr": _finite_or_none(result.trace.final_berr),
        "certified_bound": _finite_or_none(result.certified_berr_bound),
        "iterations": result.iterations,
        "opnorm_estimate": result.opnorm_used,
        "total_matvecs": result.matvecs,
    }


def write_summary(path, summary):
    text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _svg_path(xs, ys, x_map, y_map):
    pts = [f"{x_map(x):.2f},{y_map(y):.2f}" for x, y in zip(xs, ys)]
    return "M " + " L ".join(pts)


def write_plot(path, trace, title):
    """Standalone SVG: berr vs iteration, log-log, with 1/k and 1/k^2 guides."""
    # the title holds a file name: escape it, non-ASCII as character references
    title = html.escape(title).encode("ascii", "xmlcharrefreplace").decode("ascii")
    pairs = [
        (it, berr)
        for it, berr in zip(trace.iterations, trace.berr)
        if it >= 1 and berr > 0.0 and math.isfinite(berr)
    ]
    if not pairs:
        pairs = [(1, 1.0)]
    its = [p[0] for p in pairs]
    berrs = [p[1] for p in pairs]
    x_lo, x_hi = math.log10(its[0]), math.log10(max(its[-1], its[0] * 10))
    y_vals = berrs + [1.0 / its[-1], 1.0 / its[-1] ** 2]
    y_lo = math.floor(math.log10(min(y_vals)))
    y_hi = math.ceil(math.log10(max(max(y_vals), 1.0)))
    if y_hi == y_lo:
        y_hi += 1
    width, height, margin = 640, 480, 60

    def x_map(it):
        t = (math.log10(it) - x_lo) / max(x_hi - x_lo, 1e-12)
        return margin + t * (width - 2 * margin)

    def y_map(val):
        t = (math.log10(val) - y_lo) / (y_hi - y_lo)
        return height - margin - t * (height - 2 * margin)

    def clamped(val):
        return min(max(val, 10.0**y_lo), 10.0**y_hi)

    guide_its = [it for it in its if it >= 1]
    one_over_k = [clamped(1.0 / it) for it in guide_its]
    one_over_k2 = [clamped(1.0 / it**2) for it in guide_its]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for exp in range(y_lo, y_hi + 1):
        y = y_map(10.0**exp)
        parts.append(
            f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">iteration (log)</text>'
    )
    for xs, ys, color, dash, label in (
        (guide_its, one_over_k, "#999999", ' stroke-dasharray="6 3"', "1/k"),
        (guide_its, one_over_k2, "#bbbbbb", ' stroke-dasharray="2 3"', "1/k^2"),
        (its, [clamped(v) for v in berrs], "#c0392b", "", "berr"),
    ):
        if len(xs) >= 2:
            parts.append(
                f'<path d="{_svg_path(xs, ys, x_map, y_map)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>'
            )
            parts.append(
                f'<text x="{x_map(xs[-1]) + 4:.2f}" y="{y_map(ys[-1]):.2f}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def run_one(spec, history=None, summary=None, plot=None, solution=None):
    """Execute a RunSpec and write the requested artifacts. Returns the
    summary, which names the solution file when one is written."""
    validate_spec(spec)
    p = build_problem(spec.problem, spec.seed)
    b = resolve_rhs(spec.rhs, p)
    result = run_solver(spec, p.op, b)
    info = summarize(spec, result)
    if solution:
        mmio.write_array(solution, result.x)
        info["solution"] = solution
    if history:
        write_history(history, result.trace)
    if summary:
        write_summary(summary, info)
    if plot:
        write_plot(plot, result.trace, f"{spec.solver} on {p.name}")
    return info


def _read_config(path):
    """The key=value lines of a config file, keys in flag form."""
    config = {}
    with open(path, encoding="ascii") as fh, _bad_input(path):
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SpecError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = _key(key.strip())
            if key in config:
                raise SpecError(f"{path}:{lineno}: key {key!r} given twice")
            config[key] = value.strip()
    return config


def _spec_from_args(args):
    """The RunSpec of a solve: flags beat the config file, which beats the defaults."""
    config = _read_config(args.config) if args.config else {}
    values = {}
    for f in _RUN_OPTIONS:
        text = config.pop(_key(f.name), None)
        value = getattr(args, f.name)
        if value is None and text is not None:
            with _bad_input(f"config value for {_key(f.name)}"):
                value = f.type(text)
        if value is not None:
            values[f.name] = value
    if config:
        raise SpecError(f"config file has unknown keys {sorted(config)}")
    return RunSpec(args.problem, args.solver, **values)


def cmd_solve(args):
    spec = _spec_from_args(args)
    run_one(spec, history=args.history, summary=args.summary, plot=args.plot,
            solution=args.solution)
    return EXIT_OK


def _suitesparse_grid(directory):
    """minberr-ne and lsqr on each .mtx file of directory (--suitesparse-dir)."""
    if directory is None:
        print("suitesparse suite: pass --suitesparse-dir, a directory of .mtx files; "
              "nothing to run", file=sys.stderr)
        return []
    if not os.path.isdir(directory):
        raise SpecError(f"--suitesparse-dir {directory!r} is not a directory")
    grid = []
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".mtx"):
            path = os.path.join(directory, fname)
            stem = os.path.splitext(fname)[0]
            for solver in ("minberr-ne", "lsqr"):
                grid.append((f"{stem}-{solver}", RunSpec(path, solver, tol=1e-6, max_iter=500)))
    return grid


_PSD = "ill-conditioned:n=2000,kappa=1e8"

# suite name -> its (run name, RunSpec) pairs, or a function of the
# --suitesparse-dir value that returns them
SUITES = {
    "psd-synthetic": [
        *((s, RunSpec(_PSD, s, tol=1e-8, max_iter=2000)) for s in ("richardson", "cg", "minres")),
        ("minberr", RunSpec(_PSD, "minberr", tol=1e-8, max_iter=200)),
    ],
    "nonsym-synthetic": [
        (
            f"{s}-kappa{kappa}",
            RunSpec(f"ill-conditioned:n=500,kappa={kappa}+disguise2", s, tol=1e-6, max_iter=300),
        )
        for kappa in ("1e2", "1e4", "1e6")
        for s in ("richardson-ne", "lsqr", "minberr-ne")
    ],
    "minres-worstcase": [
        (s, RunSpec("small-outlier:n=2000,kappa=1e10,sigma=1e-3", s, tol=1e-10, max_iter=200))
        for s in ("minres", "minberr")
    ],
    "stagnation": [
        (
            s,
            RunSpec("small-outlier:n=500,kappa=1e14,sigma=1e-3", s,
                    tol=1e-4, perturb_eps=1e-3, max_iter=300),
        )
        for s in ("minberr-ne", "minberr-ne-perturbed")
    ],
    "perturbed": [
        (
            f"perturbed-kappa{kappa}",
            RunSpec(f"small-outlier:n=500,kappa={kappa},sigma=1e-3", "minberr-ne-perturbed",
                    tol=1e-4, perturb_eps=1e-3, max_iter=300),
        )
        for kappa in ("1e6", "1e10", "1e14")
    ],
    "suitesparse": _suitesparse_grid,
}


def _bench_grid(suite, suitesparse_dir):
    """The RunSpec grid for a named suite, as (run name, RunSpec) pairs."""
    if suite not in SUITES:
        raise SpecError(f"unknown suite {suite!r}")
    grid = SUITES[suite]
    if callable(grid):
        return grid(suitesparse_dir)
    return [(name, replace(spec)) for name, spec in grid]


def cmd_bench(args):
    grid = _bench_grid(args.suite, args.suitesparse_dir)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for name, spec in grid:
        history = os.path.join(args.out, f"{name}.csv")
        try:
            info = run_one(spec, history=history)
        except _INPUT_ERRORS + _SOLVER_ERRORS as exc:
            print(f"{name}: skipped ({exc})", file=sys.stderr)
            manifest.append({"name": name, "spec": asdict(spec), "error": str(exc)})
            continue
        info["name"] = name
        info["history"] = history
        manifest.append(info)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return EXIT_OK


def cmd_synth(args):
    p = build_problem(args.problem, args.seed)
    op = p.op
    if not hasattr(op, "d") and not hasattr(op, "data"):
        raise SpecError("synth writes bare synthetic or file-backed instances only")
    out = args.out
    if hasattr(op, "d"):
        idx = np.arange(op.rows, dtype=np.int64)
        mmio.write_coordinate(out, idx, idx, op.d, (op.rows, op.cols), symmetric=op.symmetric)
    else:
        counts = np.diff(op.indptr)
        rows = np.repeat(np.arange(op.rows, dtype=np.int64), counts)
        cols = op.indices
        data = op.data
        if op.symmetric:
            # symmetric storage keeps one copy of each off-diagonal pair
            keep = rows >= cols
            rows, cols, data = rows[keep], cols[keep], data[keep]
        mmio.write_coordinate(out, rows, cols, data, (op.rows, op.cols), symmetric=op.symmetric)
    root, ext = os.path.splitext(out)
    mmio.write_array(root + "_b" + (ext or ".mtx"), np.asarray(p.b, dtype=np.float64))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="berrkit",
        description="Iterative linear solvers with backward-error stopping rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one solver on one problem")
    sp.add_argument("--problem", required=True,
                    help="synthetic spec (e.g. ill-conditioned:n=100,kappa=1e6) or .mtx path")
    sp.add_argument("--solver", required=True, choices=list(SOLVERS))
    for f in _RUN_OPTIONS:
        sp.add_argument("--" + _key(f.name), type=f.type, choices=f.metadata["choices"],
                        help=f.metadata["help"])
    sp.add_argument("--config", help="key=value file supplying defaults for these flags")
    sp.add_argument("--history", help="per-iteration CSV output path")
    sp.add_argument("--summary", help="JSON summary output path ('-' for stdout)")
    sp.add_argument("--plot", help="SVG convergence chart output path")
    sp.add_argument("--solution", help="Matrix Market array output path for x")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("bench", help="run a named suite of solves")
    sp.add_argument("suite", choices=list(SUITES))
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--suitesparse-dir", help="directory of .mtx files for the suitesparse suite")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("synth", help="write a synthetic instance as Matrix Market files")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--out", required=True, help="path of the matrix file; b goes next to it")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
