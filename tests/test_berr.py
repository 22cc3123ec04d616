"""Backward error: definition, optimal-perturbation identity, and the bounds."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import berrkit as bk
from _helpers import NormOverride, forward_to_backward_bound


def test_value_identity():
    a = np.array([[2.0, 0.0], [0.0, 0.5]])
    op = bk.DenseOperator(a, symmetric=True).set_opnorm(2.0)
    b = np.array([1.0, 1.0])
    x = np.array([0.4, 1.6])
    res = bk.backward_error(op, b, x)
    assert res.opnorm == 2.0
    assert_allclose(res.residual_norm, np.linalg.norm(a @ x - b))
    assert_allclose(res.x_norm, np.linalg.norm(x))
    assert res.value == res.residual_norm / (res.opnorm * res.x_norm)


def test_exact_solution_gives_zero():
    op = bk.DiagonalOperator(np.array([2.0, 4.0]))
    b = np.array([2.0, 8.0])
    assert bk.backward_error(op, b, np.array([1.0, 2.0])).value == 0.0


def test_zero_iterate_rejected():
    op = bk.DiagonalOperator(np.array([1.0, 1.0]))
    with pytest.raises(bk.UndefinedAtZeroError):
        bk.backward_error(op, np.ones(2), np.zeros(2))


def test_zero_rhs_rejected():
    op = bk.DiagonalOperator(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        bk.backward_error(op, np.zeros(2), np.ones(2))


def test_nonpositive_opnorm_rejected():
    """An operator whose own opnorm() gives no usable norm is rejected before
    any matvec, as the solvers reject it."""
    for s, error in [(0.0, ValueError), (-1.0, ValueError),
                     (np.nan, bk.NonFiniteError), (np.inf, bk.NonFiniteError)]:
        op = NormOverride(bk.DiagonalOperator(np.array([1.0, 1.0])), s)
        with pytest.raises(error, match="operator norm"):
            bk.backward_error(op, np.ones(2), np.ones(2))
        assert op.products == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["b", "x"])
def test_non_finite_data_rejected(which, bad):
    """NaN or infinity in b or x raises by name before any matvec, the norm
    estimate's included, as the solvers refuse such a b."""
    op = bk.DenseOperator(np.diag([1.0, 0.5]))
    data = {"b": np.ones(2), "x": np.ones(2)}
    data[which][1] = bad
    with pytest.raises(bk.NonFiniteError, match=f"^{which} holds NaN"):
        bk.backward_error(op, data["b"], data["x"])
    assert op.products == 0


def test_scale_invariance():
    """berr is invariant under scaling A and b together."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    x = rng.standard_normal(5)
    s = np.linalg.norm(a, 2)
    v1 = bk.backward_error(bk.DenseOperator(a).set_opnorm(s), b, x).value
    v2 = bk.backward_error(bk.DenseOperator(100.0 * a).set_opnorm(100.0 * s), 100.0 * b, x).value
    assert_allclose(v1, v2, rtol=1e-14)


def test_optimal_rank_one_perturbation():
    """berr(x) equals the size of the smallest relative perturbation of A.

    The rank-one matrix E = r x^T / (x^T x) with r = b - A x satisfies
    (A + E) x = b exactly and ||E||_2 / ||A||_2 reproduces the reported value,
    so the definition and its backward-perturbation meaning coincide.
    """
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
    x = rng.standard_normal(6)
    s = np.linalg.norm(a, 2)
    val = bk.backward_error(bk.DenseOperator(a).set_opnorm(s), b, x).value
    r = b - a @ x
    e = np.outer(r, x) / (x @ x)
    assert_allclose((a + e) @ x, b, rtol=1e-12, atol=1e-13)
    assert_allclose(np.linalg.norm(e, 2) / s, val, rtol=1e-12)


class TestCompositionBound:
    def test_formula(self):
        assert bk.composition_bound(0.5, 0.1) == pytest.approx(1.1 * 0.5 + 0.1)

    def test_eps_zero_is_identity(self):
        assert bk.composition_bound(0.25, 0.0) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            bk.composition_bound(0.1, -0.1)
        with pytest.raises(ValueError):
            bk.composition_bound(-0.1, 0.1)
        with pytest.raises(ValueError, match="^eps"):
            bk.composition_bound(0.1, np.nan)
        with pytest.raises(ValueError, match="^backward error"):
            bk.composition_bound(np.nan, 0.1)

    def test_bound_holds_against_explicit_perturbation(self):
        # perturb A within eps relative norm and compare the two berr values
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        s = np.linalg.norm(a, 2)
        g = rng.standard_normal((8, 8))
        eps = 1e-3
        at = a + eps * s * g / np.linalg.norm(g, 2)
        b = rng.standard_normal(8)
        x = rng.standard_normal(8)
        berr_a = bk.backward_error(bk.DenseOperator(a).set_opnorm(s), b, x).value
        berr_at = bk.backward_error(
            bk.DenseOperator(at).set_opnorm(np.linalg.norm(at, 2)), b, x
        ).value
        assert berr_a <= bk.composition_bound(berr_at, eps) * (1 + 1e-12)


class TestForwardToBackward:
    def test_values(self):
        assert forward_to_backward_bound(0.0) == 0.0
        assert forward_to_backward_bound(0.5) == pytest.approx(1.0)

    def test_monotone(self):
        grid = np.linspace(0.0, 0.99, 100)
        vals = [forward_to_backward_bound(e) for e in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            forward_to_backward_bound(1.0)
        with pytest.raises(ValueError):
            forward_to_backward_bound(-0.01)
