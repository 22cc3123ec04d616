"""The two workloads: their inputs, set-up, operations and checks.

Every input comes from the benchmark seed: right-hand sides, the random CSR
matrix, the disguise reflectors (through the CLI seed) and the solver
seeds. Each op draws a fresh right-hand side per cycle (its "variant"), so a
run averages over many right-hand sides rather than one.

Each op is checked against data the benchmark generated itself: its own
diagonals, COO triplets and right-hand sides, its own numpy matvec, and the
exact ||A||_2 wherever the generator knows it.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from berrkit import classical, cli, minberr, operators, problems
from berrkit.classical import SolverConfig

import bench_stats

# reported final_berr and the recomputed value may differ by rounding in the
# residual (recurrence versus explicit matvec; 1e-11 is the largest seen);
# anything above this is a failure
AGREE_RTOL = 1e-6
# a ToleranceReached claim or a certified bound must hold for the recomputed
# berr up to rounding
CLAIM_RTOL = 1e-9


class Counted(operators.LinearOperator):
    """Benchmark-owned wrapper that counts apply and apply_adjoint calls.

    It keeps its own norm cache: an operator whose norm is not pinned is
    estimated afresh in every op, as a first solve on a new matrix would be.
    """

    def __init__(self, base, exact_norm=None):
        super().__init__(base.rows, base.cols, base.symmetric)
        self.base = base
        self.matvecs = 0
        if exact_norm is not None:
            self.set_opnorm(exact_norm)

    def _apply(self, v):
        self.matvecs += 1
        return self.base.apply(v)

    def _apply_adjoint(self, v):
        self.matvecs += 1
        return self.base.apply_adjoint(v)


@dataclass
class Reference:
    """What the checker knows without asking berrkit."""

    matvec: object  # x -> A x, the benchmark's own numpy code
    b: np.ndarray
    norm: float = None  # exact ||A||_2, or None when the generator cannot know it


@dataclass
class Outcome:
    x: np.ndarray
    termination: str
    final_berr: float
    bound: float
    opnorm_used: float
    iterations: int
    matvecs: int
    artifact_errors: list = field(default_factory=list)


@dataclass
class Op:
    kind: str
    prepare: object  # variant -> (payload, Reference); untimed
    run: object  # payload -> Outcome; timed
    tol: float
    footprint: object  # Outcome -> computed working-set bytes


@dataclass
class Plan:
    """A workload after data generation: ``setup()`` is what setup_s times."""

    setup: object  # () -> instances
    ops: object  # instances -> [Op]
    nominal_cycle_s: float
    patches: list = field(default_factory=list)  # (owner, attribute, replacement)


def check(tol, ref, out):
    """Failure reasons for one outcome, and the recomputed berr."""
    if out.x is None or not np.all(np.isfinite(out.x)):
        return ["non-finite x"], None
    reasons = list(out.artifact_errors)
    rn = float(np.linalg.norm(ref.matvec(out.x) - ref.b))
    xn = float(np.linalg.norm(out.x))
    if xn == 0.0:
        return reasons + ["x = 0"], None
    berr = rn / ((ref.norm or out.opnorm_used) * xn)
    berr_as_reported = rn / (out.opnorm_used * xn)
    if out.termination == classical.Termination.TOLERANCE_REACHED.value:
        if not berr < tol * (1.0 + CLAIM_RTOL):
            reasons.append(f"claims tolerance {tol:g} but berr is {berr:.3e}")
    if out.bound is not None and not berr <= out.bound * (1.0 + CLAIM_RTOL):
        reasons.append(f"certified bound {out.bound:.3e} below berr {berr:.3e}")
    if not abs(out.final_berr - berr_as_reported) <= AGREE_RTOL * berr_as_reported:
        reasons.append(
            f"reported final_berr {out.final_berr:.6e} but recomputed {berr_as_reported:.6e}"
        )
    return reasons, berr


# ---------------------------------------------------------------- generation

def own_ill_conditioned(n, kappa):
    d = np.logspace(0.0, -math.log10(kappa), n)
    d[0], d[-1] = 1.0, 1.0 / kappa
    return d


def own_small_outlier(n, kappa, sigma):
    d = np.empty(n)
    d[: n - 1] = np.logspace(0.0, math.log10(sigma), n - 1)
    d[0], d[n - 2], d[-1] = 1.0, sigma, 1.0 / kappa
    return d


def laplacian_2d(g):
    """Lower triangle of the 5-point Laplacian on a g x g grid, and its exact
    norm 4 + 4 cos(pi / (g + 1))."""
    idx = np.arange(g * g).reshape(g, g)
    rows = np.concatenate([idx.ravel(), idx[1:, :].ravel(), idx[:, 1:].ravel()])
    cols = np.concatenate([idx.ravel(), idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    vals = np.concatenate([np.full(g * g, 4.0), np.full(2 * g * (g - 1), -1.0)])
    return rows, cols, vals, 4.0 + 4.0 * math.cos(math.pi / (g + 1))


def random_nonsymmetric(n, per_row, shift, rng):
    """per_row Gaussian entries of variance 1/per_row in each row, plus shift on
    the diagonal; duplicates are summed by every reader."""
    rows = np.concatenate([np.repeat(np.arange(n), per_row), np.arange(n)])
    cols = np.concatenate([rng.integers(0, n, n * per_row), np.arange(n)])
    vals = np.concatenate(
        [rng.standard_normal(n * per_row) / math.sqrt(per_row), np.full(n, shift)]
    )
    return rows, cols, vals


def coo_matvec(rows, cols, vals, n, symmetric_lower=False):
    """Own matvec on COO triplets; lower-triangle storage is mirrored."""
    if symmetric_lower:
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return lambda x: np.bincount(rows, weights=vals * x[cols], minlength=n)


def coo_bytes(nnz, n, transposed):
    """CSR storage of an operator: values, indices and pointers, twice when
    berrkit also keeps the transpose."""
    return (2 if transposed else 1) * (16 * nnz + 8 * (n + 1))


def write_mtx(path, rows, cols, vals, n, symmetric=False):
    header = "%%MatrixMarket matrix coordinate real " + ("symmetric" if symmetric else "general")
    lines = [header, f"{n} {n} {vals.shape[0]}"]
    lines += [f"{i + 1} {j + 1} {v!r}"
              for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mtx_vector(path, b):
    lines = ["%%MatrixMarket matrix array real general", f"{b.shape[0]} 1"]
    lines += [repr(v) for v in b.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def rhs(seed, tag, n, variant):
    """Right-hand side ``variant`` of stream ``tag``: uniform in [0.5, 1.5]."""
    return np.random.default_rng([seed, tag, variant]).uniform(0.5, 1.5, n)


def householder_chain(vecs, x, adjoint):
    """Own U x (adjoint=False) or U^T x for U = H_0 H_1 ... H_{m-1}."""
    y = x.copy()
    for v in (vecs if adjoint else vecs[::-1]):
        y -= (2.0 * (v @ y)) * v
    return y


# ---------------------------------------------------------------- library ops

@dataclass
class Instance:
    """An operator built in set-up, with the benchmark's own view of it."""

    op: object
    pin_norm: float  # pinned on the counting wrapper, or None to estimate per op
    matvec: object
    ref_norm: float  # exact ||A||_2 for the check, or None
    rows: int
    tag: int
    nbytes: int  # computed operator storage


def lib_op(kind, inst, seed, tol, solve, basis=None):
    """An op that calls one library solver on a fresh counting wrapper.

    ``solve(op, b)`` must look berrkit functions up at call time, so that a
    tracer installed later sees the call. ``basis`` tells the computed working
    set which Krylov basis the solver stores: False for Lanczos, True for
    Golub-Kahan, None for none.
    """

    def prepare(variant):
        b = rhs(seed, inst.tag, inst.rows, variant)
        return b, Reference(inst.matvec, b, inst.ref_norm)

    def run(b):
        op = Counted(inst.op, inst.pin_norm)
        res = solve(op, b)
        return Outcome(
            x=res.x,
            termination=res.termination.value,
            final_berr=res.trace.final_berr,
            bound=res.certified_berr_bound,
            opnorm_used=res.opnorm_used,
            iterations=res.iterations,
            matvecs=op.matvecs,
        )

    def footprint(out):
        if basis is None:
            return inst.nbytes
        return inst.nbytes + bench_stats.krylov_basis_bytes(
            inst.rows, inst.rows, out.iterations, bidiagonal=basis)

    return Op(kind, prepare, run, tol, footprint)


def _cfg(tol, seed):
    return SolverConfig(max_iterations=20000, berr_tolerance=tol, seed=seed)


def psd_ops(name, inst, seed, tol, with_minres=True):
    """minberr_solve, cg and (optionally) minres on one symmetric instance."""
    ops = [
        lib_op(f"{name}.minberr", inst, seed, tol,
               lambda op, b: minberr.minberr_solve(op, b, eps=tol, seed=seed), basis=False),
        lib_op(f"{name}.cg", inst, seed, tol,
               lambda op, b: classical.cg(op, b, _cfg(tol, seed))),
    ]
    if with_minres:
        ops.append(lib_op(f"{name}.minres", inst, seed, tol,
                          lambda op, b: classical.minres(op, b, _cfg(tol, seed))))
    return ops


def ne_ops(name, inst, seed, tol):
    """minberr_ne_solve and lsqr on one general instance."""
    return [
        lib_op(f"{name}.minberr_ne", inst, seed, tol,
               lambda op, b: minberr.minberr_ne_solve(op, b, eps=tol, seed=seed), basis=True),
        lib_op(f"{name}.lsqr", inst, seed, tol,
               lambda op, b: classical.lsqr(op, b, _cfg(tol, seed))),
    ]


# ------------------------------------------------------------------ certify

CERTIFY_N = 20000
CERTIFY_GRID = 120
CERTIFY_RANDOM_N = 10000
CERTIFY_RANDOM_PER_ROW = 8
CERTIFY_RANDOM_SHIFT = 1.5
CERTIFY_DIAG_TOL = 1e-5
CERTIFY_CSR_TOL = 1e-6
CERTIFY_REGULARIZED_K = 200


def certify(seed, workdir):
    n = CERTIFY_N
    ill_d = own_ill_conditioned(n, 1e8)
    out_d = own_small_outlier(n, 1e10, 1e-3)
    lap_rows, lap_cols, lap_vals, lap_norm = laplacian_2d(CERTIFY_GRID)
    n_lap = CERTIFY_GRID * CERTIFY_GRID
    lap_path = os.path.join(workdir, "laplacian.mtx")
    write_mtx(lap_path, lap_rows, lap_cols, lap_vals, n_lap, symmetric=True)
    n_rnd = CERTIFY_RANDOM_N
    rnd_rows, rnd_cols, rnd_vals = random_nonsymmetric(
        n_rnd, CERTIFY_RANDOM_PER_ROW, CERTIFY_RANDOM_SHIFT, np.random.default_rng([seed, 10])
    )
    rnd_path = os.path.join(workdir, "random.mtx")
    write_mtx(rnd_path, rnd_rows, rnd_cols, rnd_vals, n_rnd)
    # passing b skips the reader's default right-hand side, a matvec
    b_lap, b_rnd = rhs(seed, 3, n_lap, 0), rhs(seed, 4, n_rnd, 0)

    def setup():
        return {
            "ill": problems.ill_conditioned(n, 1e8).op,
            "out": problems.small_outlier(n, 1e10, 1e-3).op,
            "lap": problems.read_matrix_market(lap_path, b=b_lap).op,
            "rnd": problems.read_matrix_market(rnd_path, b=b_rnd).op,
        }

    def ops(built):
        ill = Instance(built["ill"], 1.0, lambda x: ill_d * x, 1.0, n, 1, 8 * n)
        out = Instance(built["out"], 1.0, lambda x: out_d * x, 1.0, n, 2, 8 * n)
        lap = Instance(built["lap"], None,
                       coo_matvec(lap_rows, lap_cols, lap_vals, n_lap, symmetric_lower=True),
                       lap_norm, n_lap, 3, coo_bytes(2 * lap_vals.shape[0], n_lap, False))
        rnd = Instance(built["rnd"], None, coo_matvec(rnd_rows, rnd_cols, rnd_vals, n_rnd),
                       None, n_rnd, 4, coo_bytes(rnd_vals.shape[0], n_rnd, True))
        k = CERTIFY_REGULARIZED_K
        return (
            psd_ops("ill", ill, seed, CERTIFY_DIAG_TOL)
            + psd_ops("out", out, seed, CERTIFY_DIAG_TOL)
            + psd_ops("lap", lap, seed, CERTIFY_CSR_TOL, with_minres=False)
            + ne_ops("rnd", rnd, seed, CERTIFY_CSR_TOL)
            # the wrapper runs all k steps (its inner tolerance is 1e-300, so
            # it never claims ToleranceReached); its certificate is the bound
            + [lib_op("ill.regularized_cg", ill, seed, 1e-300,
                      lambda op, b: classical.regularized_solve(op, b, k, inner="cg",
                                                                seed=seed))]
        )

    return Plan(setup, ops, nominal_cycle_s=1.15)


# --------------------------------------------------------------- traced-cli

CLI_STAGNATION = "small-outlier:n=500,kappa=1e14,sigma=1e-3"
CLI_STAGNATION_ITER = 120
CLI_PERTURBED = "small-outlier:n=1000,kappa=1e14,sigma=1e-3"
CLI_PERTURBED_ITER = 60
CLI_OUTLIER = "small-outlier:n=2000,kappa=1e10,sigma=1e-3"
CLI_DISGUISED = "ill-conditioned:n=500,kappa=10+disguise2"
CLI_GRID = 50
CLI_SEED_STRIDE = 1_000_000  # CLI seeds are nonnegative ints: seed * stride + variant


def traced_cli(seed, workdir):
    lap_rows, lap_cols, lap_vals, lap_norm = laplacian_2d(CLI_GRID)
    n_lap = CLI_GRID * CLI_GRID
    mtx_path = os.path.join(workdir, "laplacian.mtx")
    write_mtx(mtx_path, lap_rows, lap_cols, lap_vals, n_lap, symmetric=True)
    diag = {500: own_small_outlier(500, 1e14, 1e-3),
            1000: own_small_outlier(1000, 1e14, 1e-3),
            2000: own_small_outlier(2000, 1e10, 1e-3)}
    d_dis = own_ill_conditioned(500, 10.0)
    built_op = {}  # problem text -> operator its last op built

    def disguised_matvec(x):
        # U D V^T x with the reflectors of the operator the op built (the
        # CLI seed draws them), applied by own code
        conj = built_op[CLI_DISGUISED]
        vt_x = householder_chain(conj.v.vecs, x, adjoint=True)
        return householder_chain(conj.u.vecs, d_dis * vt_x, adjoint=False)

    # problem text -> (rows, own matvec, norm pinned on the wrapper, exact norm)
    # the diagonal families pin 1.0 themselves; the .mtx operator is estimated
    known = {
        CLI_STAGNATION: (500, lambda x: diag[500] * x, 1.0, 1.0),
        CLI_PERTURBED: (1000, lambda x: diag[1000] * x, 1.0, 1.0),
        CLI_OUTLIER: (2000, lambda x: diag[2000] * x, 1.0, 1.0),
        CLI_DISGUISED: (500, disguised_matvec, 1.0, 1.0),
        mtx_path: (n_lap, coo_matvec(lap_rows, lap_cols, lap_vals, n_lap, symmetric_lower=True),
                   None, lap_norm),
    }
    captured = {}
    build_problem, run_solver = cli.build_problem, cli.run_solver

    def counted_build(text, problem_seed):
        p = build_problem(text, problem_seed)
        built_op[text] = p.op
        p.op = captured["op"] = Counted(p.op, known[text][2])
        return p

    def capturing_run_solver(spec, op, b):
        captured["result"] = res = run_solver(spec, op, b)
        return res

    def setup():
        return {text: cli.build_problem(text, seed) for text in known}

    history = os.path.join(workdir, "history.csv")
    summary = os.path.join(workdir, "summary.json")
    plot = os.path.join(workdir, "plot.svg")

    def cli_op(kind, problem, solver, tol, max_iter, nbytes, bidiagonal, **extra):
        rows, matvec, _, norm = known[problem]
        tag = list(known).index(problem)
        rhs_path = os.path.join(workdir, f"b{tag}.mtx")

        def prepare(variant):
            b0 = rhs(seed, tag, rows, variant)
            write_mtx_vector(rhs_path, b0)
            # the CLI seed also draws the dense Gaussian G, whose power-iteration
            # norm estimate varies in length; a seed per variant averages it
            spec = cli.RunSpec(problem=problem, solver=solver, rhs="file:" + rhs_path,
                               tol=tol, max_iter=max_iter, seed=CLI_SEED_STRIDE * seed + variant,
                               trace_every=1, **extra)
            return spec, Reference(matvec, b0, norm)

        def run(spec):
            info = cli.run_one(spec, history=history, summary=summary, plot=plot)
            res = captured.pop("result")
            return Outcome(
                x=res.x,
                termination=info["termination"],
                final_berr=info["final_berr"],
                bound=info["certified_bound"],
                opnorm_used=info["opnorm_estimate"],
                iterations=info["iterations"],
                matvecs=captured.pop("op").matvecs,
                artifact_errors=_artifact_errors(res, history, summary, plot),
            )

        def footprint(out):
            if bidiagonal is None:  # no stored basis
                return nbytes
            return nbytes + bench_stats.krylov_basis_bytes(rows, rows, out.iterations, bidiagonal)

        return Op(kind, prepare, run, tol, footprint)

    def ops(built):
        return [
            cli_op("stagnation.plain", CLI_STAGNATION, "minberr-ne", 1e-4, CLI_STAGNATION_ITER,
                   8 * 500, True, reorth="plain"),
            cli_op("stagnation.full", CLI_STAGNATION, "minberr-ne", 1e-4, CLI_STAGNATION_ITER,
                   8 * 500, True, reorth="full"),
            # the dense Gaussian perturbation is n x n
            cli_op("perturbed", CLI_PERTURBED, "minberr-ne-perturbed", 1e-4, CLI_PERTURBED_ITER,
                   8 * 1000 * 1001, True, perturb_eps=1e-3),
            cli_op("outlier.minberr", CLI_OUTLIER, "minberr", 1e-6, 300, 8 * 2000, False),
            cli_op("mtx.minberr", mtx_path, "minberr", 1e-6, 300,
                   coo_bytes(2 * lap_vals.shape[0], n_lap, False), False),
            # two-sided disguise: n = 500 reflectors on each side
            cli_op("disguised.minberr_ne", CLI_DISGUISED, "minberr-ne", 1e-4, 300,
                   8 * 500 + 2 * 8 * 500 * 500, True),
            cli_op("disguised.lsqr", CLI_DISGUISED, "lsqr", 1e-4, 300,
                   8 * 500 + 2 * 8 * 500 * 500, None),
        ]

    patches = [(cli, "build_problem", counted_build), (cli, "run_solver", capturing_run_solver)]
    return Plan(setup, ops, nominal_cycle_s=2.7, patches=patches)


def _artifact_errors(res, history, summary, plot):
    errors = []
    with open(summary, encoding="ascii") as fh:
        written = json.load(fh)
    if written.get("termination") != res.termination.value:
        errors.append("summary termination differs from the result")
    if written.get("final_berr") != res.trace.final_berr:
        errors.append("summary final_berr differs from the result")
    with open(history, encoding="ascii") as fh:
        rows = fh.read().splitlines()
    if len(rows) != len(res.trace) + 1:
        errors.append("history rows differ from the trace length")
    with open(plot, encoding="ascii") as fh:
        if fh.read(4) != "<svg":
            errors.append("plot is not an SVG document")
    return errors


PLANS = {"certify": certify, "traced-cli": traced_cli}
