"""The public signatures: the operator is the only source of ||A||_2, and no
option that only tests would set is offered."""

import inspect

import pytest

import berrkit as bk

SIGNATURES = {
    "richardson": ["op", "b", "config"],
    "richardson_ne": ["op", "b", "config"],
    "cg": ["op", "b", "config"],
    "minres": ["op", "b", "config"],
    "lsqr": ["op", "b", "config"],
    "regularized_solve": ["op", "b", "k", "inner", "trace_every", "seed"],
    "minberr_solve": ["op", "b", "eps", "delta", "k_max", "reorth", "seed", "trace_every"],
    "minberr_ne_solve": ["op", "b", "eps", "delta", "k_max", "reorth", "seed", "trace_every"],
    "minberr_ne_perturbed": ["op", "b", "perturb_eps", "eps", "delta", "k_max", "reorth",
                             "seed", "trace_every"],
    "backward_error": ["op", "b", "x"],
    "estimate_spectral_norm": ["op"],
    "disguise": ["p", "two_sided", "seed"],
    "read_matrix_market": ["path", "b"],
    "ProblemMeta": ["name", "n", "kappa", "sigma_list", "source", "seed"],
}


@pytest.mark.parametrize("name", SIGNATURES)
def test_parameter_names(name):
    assert list(inspect.signature(getattr(bk, name)).parameters) == SIGNATURES[name]
