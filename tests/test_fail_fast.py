"""Non-finite data and bad operator norms fail fast and by name in every
solver, and b at either end of the float range is solved at its own scale."""

import math

import numpy as np
import pytest

import berrkit as bk
from _helpers import NormOverride
from berrkit.factorize import BidiagState, LanczosState

N = 30
CFG = bk.SolverConfig(max_iterations=40, trace_every=7)

SOLVERS = {
    "richardson": lambda op, b, **kw: bk.richardson(op, b, CFG, **kw),
    "richardson_ne": lambda op, b, **kw: bk.richardson_ne(op, b, CFG, **kw),
    "cg": lambda op, b, **kw: bk.cg(op, b, CFG, **kw),
    "minres": lambda op, b, **kw: bk.minres(op, b, CFG, **kw),
    "lsqr": lambda op, b, **kw: bk.lsqr(op, b, CFG, **kw),
    "regularized_solve": lambda op, b, **kw: bk.regularized_solve(op, b, 40, trace_every=7, **kw),
    "minberr_solve": lambda op, b, **kw: bk.minberr_solve(op, b, eps=1e-4, k_max=40, **kw),
    "minberr_ne_solve": lambda op, b, **kw: bk.minberr_ne_solve(op, b, eps=1e-4, k_max=40, **kw),
    "minberr_ne_perturbed": lambda op, b, **kw: bk.minberr_ne_perturbed(
        op, b, 1e-3, eps=1e-4, k_max=40, **kw
    ),
}


# everything that takes b: its shape and dtype are checked on entry
RHS_TAKERS = {**SOLVERS, "LanczosState": LanczosState, "BidiagState": BidiagState}


def diagonal(bad=None):
    d = np.linspace(1.0, 0.01, N)
    if bad is not None:
        d[3] = bad
    return bk.DiagonalOperator(d)


@pytest.mark.parametrize("name", RHS_TAKERS)
def test_complex_rhs_is_refused_by_name(name):
    # a float64 cast would solve the real part and drop the rest
    b = np.ones(N, dtype=complex)
    b[0] += 1j
    with pytest.raises(TypeError, match="^b is complex"):
        RHS_TAKERS[name](diagonal(), b)


@pytest.mark.parametrize("which", ["b", "x"])
def test_backward_error_refuses_complex_data_by_name(which):
    args = {"b": np.ones(N), "x": np.ones(N)}
    args[which] = args[which] + 1j
    with pytest.raises(TypeError, match=f"^{which} is complex"):
        bk.backward_error(diagonal(), **args)


WRONG_SHAPES = [(), (N, 1), (N - 1,)]


@pytest.mark.parametrize("shape", WRONG_SHAPES)
@pytest.mark.parametrize("which", ["b", "x"])
def test_backward_error_refuses_a_wrong_shape_by_name(which, shape):
    # numpy would broadcast a column or a scalar b and answer for another system
    args = {"b": np.ones(N), "x": np.ones(N)}
    args[which] = np.full(shape, 2.0)
    with pytest.raises(bk.DimensionMismatchError, match=f"^{which} has shape"):
        bk.backward_error(diagonal(), **args)


@pytest.mark.parametrize("shape", WRONG_SHAPES)
@pytest.mark.parametrize("name", RHS_TAKERS)
def test_a_wrong_shape_rhs_is_refused_by_name(name, shape):
    with pytest.raises(bk.DimensionMismatchError, match="^b has shape"):
        RHS_TAKERS[name](diagonal(), np.full(shape, 2.0))


COMPLEX_DATA = {
    "dense operator data": lambda: bk.DenseOperator(np.eye(2) + 1j),
    "diagonal": lambda: bk.DiagonalOperator([1.0, 2j]),
    "CSR data": lambda: bk.CsrOperator([1j], [0], [0, 1], (1, 1)),
    "triplet values": lambda: bk.CsrOperator.from_coo([0], [0], [1j], (1, 1)),
    "reflector vectors": lambda: bk.HouseholderChainOperator([[1j, 0.0]]),
}


@pytest.mark.parametrize("what", COMPLEX_DATA)
def test_operator_refuses_complex_data_by_name(what):
    with pytest.raises(TypeError, match=f"^{what} is complex"):
        COMPLEX_DATA[what]()


@pytest.mark.parametrize("name", SOLVERS)
def test_non_finite_rhs_is_rejected_on_entry(name):
    b = np.ones(N)
    b[5] = np.nan
    with pytest.raises(bk.NonFiniteError) as info:
        SOLVERS[name](diagonal(), b)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name", ["minberr_solve", "minberr_ne_solve", "minberr_ne_perturbed"])
def test_bad_rhs_is_rejected_before_the_norm_estimate(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the operator norm was estimated before b was checked")

    monkeypatch.setattr(bk.operators, "estimate_spectral_norm", refuse)
    b = np.ones(N)
    b[5] = np.nan
    unpinned = bk.DenseOperator(np.diag(np.linspace(1.0, 0.01, N)))
    with pytest.raises(bk.NonFiniteError):
        SOLVERS[name](unpinned, b)


BAD_RHS = {
    "nan": (np.r_[np.ones(5), np.nan, np.ones(N - 6)], bk.NonFiniteError),
    "zero": (np.zeros(N), ValueError),
    "short": (np.ones(N - 1), ValueError),
    # ||b||_2 is subnormal, or overflows, though every entry is finite
    "tiny": (np.full(N, 1e-320), bk.UnrepresentableNormError),
    "huge": (np.full(N, 1e308), bk.UnrepresentableNormError),
}


@pytest.mark.parametrize("bad", BAD_RHS)
@pytest.mark.parametrize("name", SOLVERS)
def test_bad_rhs_costs_no_norm_estimate(name, bad, monkeypatch):
    calls = []
    estimate = bk.operators.estimate_spectral_norm
    monkeypatch.setattr(
        bk.operators, "estimate_spectral_norm",
        lambda *a, **kw: calls.append(a) or estimate(*a, **kw),
    )
    b, error = BAD_RHS[bad]
    unpinned = bk.DenseOperator(np.diag(np.linspace(1.0, 0.01, N)))
    with pytest.raises(error):
        SOLVERS[name](unpinned, b)
    assert calls == []


def _norm_error(s):
    return ValueError if math.isfinite(s) else bk.NonFiniteError


BAD_NORMS = [np.nan, np.inf, 0.0, -1.0]


@pytest.mark.parametrize("opnorm", BAD_NORMS + [-np.inf])
def test_set_opnorm_rejects_a_bad_norm(opnorm):
    op = bk.DenseOperator(np.eye(3))
    with pytest.raises(ValueError, match="operator norm") as info:
        op.set_opnorm(opnorm)
    assert type(info.value) is _norm_error(opnorm)
    assert op._opnorm_cache is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diagonal_with_a_non_finite_entry_pins_no_norm(bad):
    op = diagonal(bad)
    assert op._opnorm_cache is None
    with pytest.raises(bk.NonFiniteError, match="norm estimate"):
        op.opnorm()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_symmetric_non_finite_entry_raises_before_any_warning(bad):
    a = np.diag(np.linspace(1.0, 0.01, N))
    a[0, 3] = bad
    with pytest.raises(bk.NonFiniteError, match="norm estimate"):
        bk.DenseOperator(a).opnorm()


@pytest.mark.parametrize("opnorm", BAD_NORMS)
@pytest.mark.parametrize("name", SOLVERS)
def test_bad_opnorm_is_rejected_on_entry(name, opnorm):
    # set_opnorm refuses these values, but an operator's own opnorm() is
    # outside input: each solver checks what it returns before any matvec
    op = NormOverride(diagonal(), opnorm)
    with pytest.raises(ValueError, match="operator norm") as info:
        SOLVERS[name](op, np.ones(N))
    assert type(info.value) is _norm_error(opnorm)
    assert op.products == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", SOLVERS)
def test_non_finite_iterate_raises_by_name(name, bad):
    with pytest.raises(bk.NonFiniteError, match=r"iteration \d+:"):
        SOLVERS[name](diagonal(bad).set_opnorm(1.0), np.ones(N))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["minberr_solve", "minberr_ne_solve"])
def test_untraced_minberr_stops_at_the_first_non_finite_step(name, bad):
    # untraced runs record only their final row, so without a per-step check
    # the run would spend all 40 steps first
    with pytest.raises(bk.NonFiniteError, match="iteration 1:"):
        SOLVERS[name](diagonal(bad).set_opnorm(1.0), np.ones(N))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "name", ["richardson", "richardson_ne", "cg", "minres", "lsqr", "regularized_solve"]
)
def test_classical_solver_stops_at_the_first_non_finite_step(name, bad):
    # the stopping decision runs at every iteration, whatever trace_every (7
    # here) asks of the rows; on the inf diagonal cg's first step leaves
    # x = 0 with a NaN residual, which must raise too
    with pytest.raises(bk.NonFiniteError, match="iteration 1:"):
        SOLVERS[name](diagonal(bad).set_opnorm(1.0), np.ones(N))


def test_norm_estimate_of_non_finite_operator_raises():
    with pytest.raises(bk.NonFiniteError):
        bk.estimate_spectral_norm(bk.DenseOperator(np.array([[1.0, np.nan], [0.0, 1.0]])))


# 2^532 is about 1.4e160 and 2^-565 about 1.5e-170: past either, b @ b leaves
# the float range
@pytest.mark.parametrize("shift", [532, -565])
@pytest.mark.parametrize("name", SOLVERS)
def test_rhs_scaled_by_a_power_of_two_gives_the_same_run(name, shift):
    b = np.linspace(1.0, 2.0, N)
    unit = SOLVERS[name](diagonal(), b)
    scaled = SOLVERS[name](diagonal(), np.ldexp(b, shift))
    assert scaled.termination == unit.termination
    assert scaled.iterations == unit.iterations
    assert scaled.trace.berr == unit.trace.berr
    assert scaled.trace.residual_norm == [math.ldexp(r, shift) for r in unit.trace.residual_norm]
    assert scaled.trace.x_norm == [math.ldexp(r, shift) for r in unit.trace.x_norm]
    assert scaled.x.tobytes() == np.ldexp(unit.x, shift).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e-170])
@pytest.mark.parametrize("name", ["minberr_solve", "minberr_ne_solve", "cg"])
def test_rhs_far_from_unit_size_reaches_tolerance(name, scale):
    p = bk.ill_conditioned(200, 1e4)
    b = scale * np.ones(200)
    tol = 1e-2 if name == "minberr_ne_solve" else 1e-4
    if name == "cg":
        res = bk.cg(p.op, b, bk.SolverConfig(max_iterations=200, berr_tolerance=tol))
    else:
        res = getattr(bk, name)(p.op, b, eps=tol)
    assert res.termination == bk.Termination.TOLERANCE_REACHED
    assert res.trace.final_berr < tol
    assert bk.backward_error(p.op, b, res.x).value < tol


@pytest.mark.parametrize("value", [math.inf, 10.5, 10.0])
@pytest.mark.parametrize("field", ["max_iterations", "trace_every", "seed"])
def test_config_refuses_a_non_integer_count(field, value):
    # refused where it enters, not by a TypeError inside the loop or a
    # trace_every of inf that records only the final row
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        bk.SolverConfig(**{field: value})


def test_config_keeps_a_numpy_integer_count_as_int():
    cfg = bk.SolverConfig(max_iterations=np.int64(12), trace_every=np.int32(3))
    assert (cfg.max_iterations, cfg.trace_every) == (12, 3)
    assert type(cfg.max_iterations) is int and type(cfg.trace_every) is int


@pytest.mark.parametrize("value", [math.inf, 10.5])
@pytest.mark.parametrize("field", ["k_max", "trace_every", "seed"])
@pytest.mark.parametrize("name", ["minberr_solve", "minberr_ne_solve", "minberr_ne_perturbed"])
def test_minberr_refuses_a_non_integer_count(name, field, value, monkeypatch):
    monkeypatch.setattr(bk.operators, "estimate_spectral_norm", pytest.fail)
    solver = getattr(bk, name)
    extra = (1e-3,) if name == "minberr_ne_perturbed" else ()
    unpinned = bk.DenseOperator(np.diag(np.linspace(1.0, 0.01, N)))
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        solver(unpinned, np.ones(N), *extra, eps=1e-4, **{field: value})


@pytest.mark.parametrize("name", SOLVERS)
def test_solvers_leave_a_read_only_rhs_unchanged(name):
    # the loops update their vectors in place; b is the caller's array (the
    # monitor holds it unscaled), so a write to it would raise here
    b = np.linspace(1.0, 2.0, N)
    want = b.copy()
    b.setflags(write=False)
    res = SOLVERS[name](diagonal(), b)
    assert res.iterations >= 1
    assert b.tobytes() == want.tobytes()
    assert not np.shares_memory(res.x, b)


def test_monitor_holds_the_callers_rhs_unscaled():
    b = np.linspace(1.0, 2.0, N)
    assert bk.classical._Monitor(diagonal(), b).b is b
