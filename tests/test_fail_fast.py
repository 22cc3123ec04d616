"""Non-finite data and bad operator norms fail fast and by name in every solver."""

import numpy as np
import pytest

import berrkit as bk

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


def diagonal(bad=None):
    d = np.linspace(1.0, 0.01, N)
    if bad is not None:
        d[3] = bad
    return bk.DiagonalOperator(d)


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


@pytest.mark.parametrize("opnorm", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", SOLVERS)
def test_bad_opnorm_is_rejected_on_entry(name, opnorm):
    with pytest.raises(ValueError):
        SOLVERS[name](diagonal(), np.ones(N), opnorm=opnorm)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", SOLVERS)
def test_non_finite_iterate_raises_by_name(name, bad):
    with pytest.raises(bk.NonFiniteError):
        SOLVERS[name](diagonal(bad), np.ones(N), opnorm=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classical_solver_stops_at_the_first_recorded_row():
    with pytest.raises(bk.NonFiniteError, match="iteration 7:"):
        bk.cg(diagonal(np.nan), np.ones(N), CFG, opnorm=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["minberr_solve", "minberr_ne_solve"])
def test_untraced_minberr_stops_at_the_first_non_finite_step(name, bad):
    # untraced runs record only their final row, so without a per-step check
    # the run would spend all 40 steps first
    with pytest.raises(bk.NonFiniteError, match="iteration 1:"):
        SOLVERS[name](diagonal(bad), np.ones(N), opnorm=1.0)


def test_norm_estimate_of_non_finite_operator_raises():
    with pytest.raises(bk.NonFiniteError):
        bk.estimate_spectral_norm(bk.DenseOperator(np.array([[1.0, np.nan], [0.0, 1.0]])))
