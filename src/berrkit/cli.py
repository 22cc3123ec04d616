"""Command-line harness: build or load a problem, run a solver, write artifacts.

Three subcommands:

* ``solve``  — one (problem, solver) run; emits a per-iteration history CSV,
  a JSON summary embedding the full run spec, and optionally a standalone SVG
  log-log convergence chart with 1/k and 1/k^2 reference curves.
* ``bench``  — a named grid of solve runs with a combined manifest.
* ``synth``  — write a synthetic instance to Matrix Market files.

Exit codes: 0 on success (MaxIterations included), 2 for spec or input
errors, 3 for solver failures. stdout stays empty unless the summary is
directed there with ``--summary -``; diagnostics go to stderr.

All numeric output uses 17 significant digits so doubles round-trip exactly.
History CSVs are deterministic for a fixed spec and seed except for the
wall_nanos column, which reports real elapsed time.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import classical, minberr, mmio, problems
from .classical import SolverConfig
from .errors import BerrkitError
from .operators import CountingOperator

__all__ = ["RunSpec", "main"]

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SOLVER = 3

SOLVERS = (
    "richardson",
    "richardson-ne",
    "cg",
    "minres",
    "lsqr",
    "regularized-cg",
    "regularized-minres",
    "minberr",
    "minberr-ne",
    "minberr-ne-perturbed",
)

SUITES = (
    "psd-synthetic",
    "nonsym-synthetic",
    "minres-worstcase",
    "stagnation",
    "perturbed",
    "suitesparse",
)

CSV_HEADER = "iter,berr,residual_norm,x_norm,wall_nanos"

# option name -> (type, default); single source for flag/config/default merging
OPTION_SPECS = {
    "rhs": (str, "default"),
    "tol": (float, 1e-6),
    "max-iter": (int, 1000),
    "C": (float, 1.0),
    "delta": (float, 1e-6),
    "perturb-eps": (float, 1e-3),
    "seed": (int, 0),
    "reorth": (str, "plain"),
    "trace-every": (int, 1),
}


@dataclass
class RunSpec:
    """Everything needed to reproduce one run; echoed into the JSON summary."""

    problem: str
    solver: str
    rhs: str = "default"
    tol: float = 1e-6
    max_iter: int = 1000
    C: float = 1.0
    delta: float = 1e-6
    perturb_eps: float = 1e-3
    seed: int = 0
    reorth: str = "plain"
    trace_every: int = 1


class SpecError(Exception):
    """Bad run specification (maps to exit code 2)."""


def validate_spec(spec):
    if spec.solver not in SOLVERS:
        raise SpecError(f"unknown solver {spec.solver!r}")
    if not (0.0 < spec.tol < 1.0):
        raise SpecError("tol must lie in (0, 1)")
    if spec.max_iter < 1:
        raise SpecError("max-iter must be at least 1")
    if not (1.0 <= spec.C < math.inf):
        raise SpecError("C must be finite and at least 1")
    if not (0.0 < spec.delta < 1.0):
        raise SpecError("delta must lie in (0, 1)")
    if not (0.0 <= spec.perturb_eps < 1.0):
        raise SpecError("perturb-eps must lie in [0, 1)")
    if spec.seed < 0:
        raise SpecError("seed must be nonnegative")
    if spec.reorth not in ("plain", "full"):
        raise SpecError("reorth must be 'plain' or 'full'")
    if spec.trace_every < 1:
        raise SpecError("trace-every must be at least 1")
    if spec.solver.startswith("regularized") and spec.max_iter < 9:
        raise SpecError("regularized solvers need max-iter of at least 9")


def _parse_params(text, what):
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise SpecError(f"{what}: expected key=value, got {piece!r}")
        key, _, value = piece.partition("=")
        params[key.strip()] = value.strip()
    return params


def _param_float(params, key, what):
    if key not in params:
        raise SpecError(f"{what} needs {key}=...")
    try:
        return float(params.pop(key))
    except ValueError:
        raise SpecError(f"{what}: {key} must be a number") from None


def _param_int(params, key, what):
    value = _param_float(params, key, what)
    if not math.isfinite(value) or value != int(value):
        raise SpecError(f"{what}: {key} must be an integer")
    return int(value)


def build_problem(text, seed):
    """Parse a --problem string into a ProblemInstance.

    Synthetic forms: ``ill-conditioned:n=100,kappa=1e6``,
    ``small-outlier:n=500,kappa=1e10,sigma=1e-3``, ``cyclic-shift:n=50``,
    each optionally suffixed with ``+disguise`` (one-sided) or ``+disguise2``
    (two-sided, breaks symmetry). Anything else is treated as a Matrix Market
    file path.
    """
    disguise_mode = None
    for suffix, mode in (("+disguise2", "two"), ("+disguise", "one")):
        if text.endswith(suffix):
            disguise_mode = mode
            text = text[: -len(suffix)]
            break
    name, _, param_text = text.partition(":")
    try:
        if name == "ill-conditioned":
            params = _parse_params(param_text, name)
            p = problems.ill_conditioned(
                _param_int(params, "n", name), _param_float(params, "kappa", name)
            )
        elif name == "small-outlier":
            params = _parse_params(param_text, name)
            p = problems.small_outlier(
                _param_int(params, "n", name),
                _param_float(params, "kappa", name),
                _param_float(params, "sigma", name),
            )
        elif name == "cyclic-shift":
            params = _parse_params(param_text, name)
            p = problems.cyclic_shift(_param_int(params, "n", name))
        else:
            if not os.path.exists(text):
                raise SpecError(
                    f"unknown problem {text!r}: not a synthetic family and not a file"
                )
            p = problems.read_matrix_market(text)
            params = {}
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if params:
        raise SpecError(f"{name}: unknown parameters {sorted(params)}")
    if disguise_mode is not None:
        p = problems.disguise(p, two_sided=disguise_mode == "two", seed=seed)
    return p


def resolve_rhs(spec_rhs, p):
    if spec_rhs == "default":
        return np.asarray(p.b, dtype=np.float64)
    if spec_rhs == "ones":
        return np.ones(p.op.rows)
    if spec_rhs == "smallest-left-singular":
        return problems.rhs_smallest_left_singular(p)
    if spec_rhs.startswith("file:"):
        path = spec_rhs[len("file:") :]
        if not os.path.exists(path):
            raise SpecError(f"rhs file not found: {path}")
        data = mmio.read_matrix_market(path)
        dense = data.to_dense()
        if min(dense.shape) != 1:
            raise SpecError("rhs file must hold a single row or column")
        if dense.size != p.op.rows:
            raise SpecError(f"rhs file has {dense.size} entries, expected {p.op.rows}")
        return dense.reshape(-1)
    raise SpecError(f"unknown rhs {spec_rhs!r}")


def run_solver(spec, op, b):
    """Dispatch one RunSpec; returns the solver's result object."""
    cfg = SolverConfig(
        step_constant=spec.C,
        max_iterations=spec.max_iter,
        berr_tolerance=spec.tol,
        trace_every=spec.trace_every,
        seed=spec.seed,
    )
    if spec.solver == "richardson":
        return classical.richardson(op, b, cfg)
    if spec.solver == "richardson-ne":
        return classical.richardson_ne(op, b, cfg)
    if spec.solver == "cg":
        return classical.cg(op, b, cfg)
    if spec.solver == "minres":
        return classical.minres(op, b, cfg)
    if spec.solver == "lsqr":
        return classical.lsqr(op, b, cfg)
    if spec.solver in ("regularized-cg", "regularized-minres"):
        return classical.regularized_solve(
            op,
            b,
            spec.max_iter,
            inner=spec.solver.split("-", 1)[1],
            trace_every=spec.trace_every,
            seed=spec.seed,
        )
    common = dict(
        eps=spec.tol,
        delta=spec.delta,
        k_max=spec.max_iter,
        reorth=spec.reorth,
        seed=spec.seed,
        trace=True,
        trace_every=spec.trace_every,
    )
    if spec.solver == "minberr":
        return minberr.minberr_solve(op, b, **common)
    if spec.solver == "minberr-ne":
        return minberr.minberr_ne_solve(op, b, **common)
    if spec.solver == "minberr-ne-perturbed":
        return minberr.minberr_ne_perturbed(op, b, spec.perturb_eps, **common)
    raise SpecError(f"unknown solver {spec.solver!r}")


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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


def summarize(spec, result, total_matvecs):
    return {
        "spec": asdict(spec),
        "termination": str(result.termination.value),
        "final_berr": _finite_or_none(result.trace.final_berr),
        "certified_bound": _finite_or_none(result.certified_berr_bound),
        "iterations": result.iterations,
        "opnorm_estimate": result.opnorm_used,
        "total_matvecs": total_matvecs,
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


def run_one(spec, history=None, summary=None, plot=None):
    """Execute a RunSpec and write the requested artifacts. Returns the summary."""
    validate_spec(spec)
    p = build_problem(spec.problem, spec.seed)
    b = resolve_rhs(spec.rhs, p)
    op = CountingOperator(p.op)
    result = run_solver(spec, op, b)
    info = summarize(spec, result, op.matvecs)
    if history:
        write_history(history, result.trace)
    if summary:
        write_summary(summary, info)
    if plot:
        write_plot(plot, result.trace, f"{spec.solver} on {p.meta.name}")
    return info


def _merge_options(args, config_path):
    """flags > config file > defaults, per option in OPTION_SPECS."""
    config = {}
    if config_path:
        if not os.path.exists(config_path):
            raise SpecError(f"config file not found: {config_path}")
        with open(config_path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise SpecError(f"{config_path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                config[key.strip().replace("_", "-")] = value.strip()
    merged = {}
    for key, (typ, default) in OPTION_SPECS.items():
        attr = key.replace("-", "_")
        flag_value = getattr(args, attr, None)
        if flag_value is not None:
            merged[attr] = flag_value
        elif key in config:
            try:
                merged[attr] = typ(config[key])
            except ValueError:
                raise SpecError(f"config value for {key} is not a {typ.__name__}")
        else:
            merged[attr] = default
    unknown = set(config) - set(OPTION_SPECS)
    if unknown:
        raise SpecError(f"config file has unknown keys {sorted(unknown)}")
    return merged


def cmd_solve(args):
    merged = _merge_options(args, args.config)
    spec = RunSpec(
        problem=args.problem,
        solver=args.solver,
        rhs=merged["rhs"],
        tol=merged["tol"],
        max_iter=merged["max_iter"],
        C=merged["C"],
        delta=merged["delta"],
        perturb_eps=merged["perturb_eps"],
        seed=merged["seed"],
        reorth=merged["reorth"],
        trace_every=merged["trace_every"],
    )
    run_one(spec, history=args.history, summary=args.summary, plot=args.plot)
    return EXIT_OK


def _bench_grid(suite, suitesparse_dir):
    """The RunSpec grid for a named suite, as (run name, RunSpec) pairs."""
    grid = []

    def add(name, **kw):
        grid.append((name, RunSpec(**kw)))

    if suite == "psd-synthetic":
        prob = "ill-conditioned:n=2000,kappa=1e8"
        for solver in ("richardson", "cg", "minres"):
            add(solver, problem=prob, solver=solver, tol=1e-8, max_iter=2000)
        add("minberr", problem=prob, solver="minberr", tol=1e-8, max_iter=200)
    elif suite == "nonsym-synthetic":
        for kappa in ("1e2", "1e4", "1e6"):
            prob = f"ill-conditioned:n=500,kappa={kappa}+disguise2"
            for solver in ("richardson-ne", "lsqr", "minberr-ne"):
                add(
                    f"{solver}-kappa{kappa}",
                    problem=prob,
                    solver=solver,
                    tol=1e-6,
                    max_iter=300,
                )
    elif suite == "minres-worstcase":
        prob = "small-outlier:n=2000,kappa=1e10,sigma=1e-3"
        add("minres", problem=prob, solver="minres", tol=1e-10, max_iter=200)
        add("minberr", problem=prob, solver="minberr", tol=1e-10, max_iter=200)
    elif suite == "stagnation":
        prob = "small-outlier:n=500,kappa=1e14,sigma=1e-3"
        add("minberr-ne", problem=prob, solver="minberr-ne", tol=1e-4, max_iter=300)
        add(
            "minberr-ne-perturbed",
            problem=prob,
            solver="minberr-ne-perturbed",
            tol=1e-4,
            perturb_eps=1e-3,
            max_iter=300,
        )
    elif suite == "perturbed":
        for kappa in ("1e6", "1e10", "1e14"):
            add(
                f"perturbed-kappa{kappa}",
                problem=f"small-outlier:n=500,kappa={kappa},sigma=1e-3",
                solver="minberr-ne-perturbed",
                tol=1e-4,
                perturb_eps=1e-3,
                max_iter=300,
            )
    elif suite == "suitesparse":
        directory = suitesparse_dir or os.environ.get("BERR_SUITESPARSE_DIR", "")
        if not directory or not os.path.isdir(directory):
            print(
                "suitesparse suite: set BERR_SUITESPARSE_DIR to a directory of "
                ".mtx files; nothing to run",
                file=sys.stderr,
            )
            return grid
        for fname in sorted(os.listdir(directory)):
            if not fname.endswith(".mtx"):
                continue
            path = os.path.join(directory, fname)
            stem = os.path.splitext(fname)[0]
            add(f"{stem}-minberr-ne", problem=path, solver="minberr-ne",
                tol=1e-6, max_iter=500)
            add(f"{stem}-lsqr", problem=path, solver="lsqr",
                tol=1e-6, max_iter=500)
    else:
        raise SpecError(f"unknown suite {suite!r}")
    return grid


def cmd_bench(args):
    grid = _bench_grid(args.suite, args.suitesparse_dir)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for name, spec in grid:
        history = os.path.join(args.out, f"{name}.csv")
        try:
            info = run_one(spec, history=history)
        except (BerrkitError, ValueError) as exc:
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
    p = build_problem(args.problem, args.seed if args.seed is not None else 0)
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

    def add_common(sp):
        sp.add_argument("--rhs", help="default | ones | smallest-left-singular | file:PATH")
        sp.add_argument("--tol", type=float, help="backward-error tolerance")
        sp.add_argument("--max-iter", type=int, help="iteration cap (also the k of regularized-*)")
        sp.add_argument("--C", type=float, help="Richardson step constant")
        sp.add_argument("--delta", type=float, help="recovery failure probability")
        sp.add_argument("--perturb-eps", type=float, help="relative Gaussian perturbation size")
        sp.add_argument("--seed", type=int, help="seed for all randomized pieces")
        sp.add_argument("--reorth", choices=("plain", "full"), help="reorthogonalization policy")
        sp.add_argument("--trace-every", type=int, help="record every i-th iteration")
        sp.add_argument("--config", help="key=value file supplying defaults for these flags")

    sp = sub.add_parser("solve", help="run one solver on one problem")
    sp.add_argument("--problem", required=True,
                    help="synthetic spec (e.g. ill-conditioned:n=100,kappa=1e6) or .mtx path")
    sp.add_argument("--solver", required=True, choices=SOLVERS)
    add_common(sp)
    sp.add_argument("--history", help="per-iteration CSV output path")
    sp.add_argument("--summary", help="JSON summary output path ('-' for stdout)")
    sp.add_argument("--plot", help="SVG convergence chart output path")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("bench", help="run a named suite of solves")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--suitesparse-dir", help="directory of .mtx files (else BERR_SUITESPARSE_DIR)")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("synth", help="write a synthetic instance as Matrix Market files")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--out", required=True, help="path of the matrix file; b goes next to it")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except BerrkitError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
