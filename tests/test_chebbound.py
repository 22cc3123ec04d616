"""Trigonometric Chebyshev certificate for the quadratic convergence constant."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chebbound as cb


class TestShiftedCheb:
    def test_value_at_one(self):
        for m in (0, 1, 2, 7, 40):
            assert cb.shifted_cheb(m, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_zero_alternates(self):
        for m in (0, 1, 2, 3, 10, 11):
            assert cb.shifted_cheb(m, 0.0) == pytest.approx((-1.0) ** m, abs=1e-12)

    def test_degree_two_midpoint(self):
        assert cb.shifted_cheb(2, 0.5) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_cosine_form(self):
        x = 0.3
        expect = np.cos(8.0 * np.arccos(2.0 * x - 1.0))
        assert cb.shifted_cheb(8, x) == pytest.approx(expect, abs=1e-13)

    def test_elementwise(self):
        x = np.linspace(0.0, 1.0, 11)
        vals = cb.shifted_cheb(5, x)
        assert vals.shape == x.shape
        assert_allclose(vals, [cb.shifted_cheb(5, xi) for xi in x], rtol=1e-14)
        assert isinstance(cb.shifted_cheb(5, 0.3), float)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            cb.shifted_cheb(-1, 0.5)


class TestGOfX:
    @pytest.mark.parametrize("ell", [2, 4, 10])
    def test_pinched_between_zero_and_x(self, ell):
        x = np.linspace(0.0, 1.0, 2001)
        g = cb.G_of_x(ell, x)
        assert np.all(g >= -1e-15)
        assert np.all(g <= x + 1e-15)

    @pytest.mark.parametrize("ell", [2, 6, 12])
    def test_trigonometric_identity(self, ell):
        """With x = sin^2(gamma) and even ell, G collapses to
        sin^2(ell gamma) / ell^2."""
        gamma = np.linspace(0.01, np.pi / 2, 500)
        x = np.sin(gamma) ** 2
        assert_allclose(
            cb.G_of_x(ell, x), np.sin(ell * gamma) ** 2 / ell**2, atol=1e-12
        )

    @pytest.mark.parametrize("ell", [0, 1, 3, 7])
    def test_rejects_bad_degree(self, ell):
        with pytest.raises(ValueError):
            cb.G_of_x(ell, 0.5)


class TestFEll:
    @pytest.mark.parametrize("ell", [2, 4, 10, 40])
    def test_limit_at_zero(self, ell):
        assert cb.F_ell(ell, 0.0) == 3.0 * ell**2 / (ell**2 - 1.0)

    @pytest.mark.parametrize("ell", [2, 8, 40])
    def test_agrees_with_longdouble_reference(self, ell):
        """Check both branches of the cancellation-guarded denominator against
        a brute-force high-precision evaluation around the series cutoff."""
        gamma = np.concatenate(
            [
                np.linspace(0.2, 1.0, 7) * cb.SERIES_CUTOFF / ell,
                np.linspace(1.0, 8.0, 7)[1:] * cb.SERIES_CUTOFF / ell,
                np.linspace(0.5, 1.0, 5) * np.pi / 2,
            ]
        )
        g = gamma.astype(np.longdouble)
        s, sl = np.sin(g), np.sin(ell * g)
        ref = (ell * ell * s * s * sl * sl) / (ell * ell * s * s - sl * sl)
        # atol covers the zeros of sin(ell gamma), where F underflows toward 0
        # and relative agreement is not meaningful
        assert_allclose(cb.F_ell(ell, gamma), ref.astype(np.float64), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("ell", [2, 4, 10, 40])
    def test_bounded_by_limit_and_monotone_near_zero(self, ell):
        limit = 3.0 * ell**2 / (ell**2 - 1.0)
        gamma = np.linspace(0.0, np.pi / 2, 20001)[1:]
        assert np.all(cb.F_ell(ell, gamma) <= limit + 1e-8)
        head = gamma[gamma <= np.pi / (2 * ell)]
        vals = cb.F_ell(ell, head)
        assert np.all(np.diff(vals) <= 1e-10)

    def test_odd_degree_is_allowed_here(self):
        assert np.isfinite(cb.F_ell(3, 0.4))


class TestApproxError:
    @pytest.mark.parametrize("ell", [2, 4, 8])
    def test_matches_rational_form_away_from_cancellation(self, ell):
        x = np.linspace(0.2, 0.9, 101)
        g = cb.G_of_x(ell, x)
        assert_allclose(cb.approx_error(ell, x), x * g / (x - g), rtol=1e-11)

    def test_continuous_extension_at_zero(self):
        for ell in (2, 6, 20):
            assert cb.approx_error(ell, 0.0) == pytest.approx(
                3.0 / (ell**2 - 1.0), rel=1e-14
            )

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            cb.approx_error(4, -0.01)
        with pytest.raises(ValueError):
            cb.approx_error(4, 1.01)

    @pytest.mark.parametrize("ell", [2, 10])
    def test_never_exceeds_certified_constant(self, ell):
        x = np.linspace(0.0, 1.0, 50001)
        assert np.all(cb.approx_error(ell, x) <= 3.0 / (ell**2 - 1.0) + 1e-10)


class TestGammaGrid:
    def test_shape_and_range(self):
        grid = cb.gamma_grid(points=1000)
        assert grid.shape == (1000,)
        assert grid[0] > 0.0
        assert grid[-1] == pytest.approx(np.pi / 2, rel=1e-15)
        assert np.all(np.diff(grid) > 0)

    def test_clustering_toward_origin(self):
        grid = cb.gamma_grid(points=1000, clustering=3)
        assert np.count_nonzero(grid < (np.pi / 2) * 0.125) >= 499

    def test_validation(self):
        with pytest.raises(ValueError):
            cb.gamma_grid(points=1)


class TestChebEval:
    @pytest.mark.parametrize("ell", [2, 4, 12, 40])
    def test_sup_equals_certified_bound(self, ell):
        """The grid supremum never beats the analytic gamma -> 0 limit, so the
        joined supremum is exactly the certified constant."""
        ev = cb.ChebEval(ell, points=20000)
        assert ev.bound() == 3.0 / (ell**2 - 1.0)
        assert ev.sup() == pytest.approx(ev.bound(), rel=1e-12)
        assert ev.sup() <= ev.bound() + 1e-8

    def test_sup_matches_free_function(self):
        assert cb.ChebEval(6, points=5000).sup() == cb.approx_error_sup(6, points=5000)

    def test_grid_matches_free_function(self):
        assert_allclose(
            cb.ChebEval(4, points=100, clustering=2).grid(),
            cb.gamma_grid(points=100, clustering=2),
            rtol=0,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            cb.ChebEval(5)
        with pytest.raises(ValueError):
            cb.ChebEval(4, points=1)
        with pytest.raises(ValueError):
            cb.ChebEval(4, clustering=0)
