"""Tests for the two-sided bounds and the fast resolvent application."""

import math

import numpy as np
import pytest

from sgnspec.bounds import (apply_resolvent, apply_resolvent_at,
                            default_strip_grid, half_strip_distance,
                            numrange_bound, pseudomode_lower_bound,
                            pseudomode_samples, quadrature_operator_norm,
                            regularized_pseudomode_ratio, schur_upper_bound)
from sgnspec.errors import DomainError
from sgnspec.kernel import resolvent_kernel_grid, wave_numbers
from sgnspec.quadrature import gauss_legendre_grid


class TestClosedFormBounds:
    def test_lower_bound_value_on_axis(self):
        # exact closed form reduces to tau at z = tau, delta = 0
        for tau in (25.0, 100.0, 2500.0):
            assert pseudomode_lower_bound(tau) == pytest.approx(tau, rel=1e-3)

    def test_lower_bound_delta_dependence(self):
        tau = 400.0
        delta = 0.6
        val = pseudomode_lower_bound(tau + 1j * delta)
        assert val == pytest.approx(tau / math.sqrt(1 - delta**2), rel=1e-2)

    def test_upper_bound_value_on_axis(self):
        for tau in (25.0, 100.0, 2500.0):
            assert schur_upper_bound(tau) == pytest.approx(4 * tau, rel=2e-2)

    def test_order(self):
        for z in (30.0, 100 + 0.5j, 7 - 0.8j):
            assert pseudomode_lower_bound(z) < schur_upper_bound(z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            schur_upper_bound(-1 + 0.5j)
        with pytest.raises(DomainError):
            schur_upper_bound(5 + 1.5j)
        with pytest.raises(DomainError):
            pseudomode_lower_bound(-3 + 0.2j)

    def test_overflow_raises(self):
        # upper ~ 4 Re z and lower ~ Re z / sqrt(1 - Im z^2) leave the
        # float range here; an inf bound must not come back
        assert math.isfinite(pseudomode_lower_bound(1e308 + 0.5j))
        with pytest.raises(DomainError):
            schur_upper_bound(1e308 + 0.5j)
        with pytest.raises(DomainError):
            pseudomode_lower_bound(1e308 + 0.9j)

    def test_numrange(self):
        assert numrange_bound(-2 + 0.5j) == pytest.approx(0.5)
        assert numrange_bound(1 + 3j) == pytest.approx(0.5)
        assert half_strip_distance(-3 + 2j) == pytest.approx(math.hypot(3, 1))
        with pytest.raises(DomainError):
            numrange_bound(1 + 0.5j)


class TestApplyResolvent:
    def test_matches_dense_nystrom(self):
        z = 30 + 0.3j
        g = gauss_legendre_grid(15.0, 0.3)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        u = apply_resolvent(z, g, f)
        dense = resolvent_kernel_grid(z, g.nodes, g.nodes) @ (g.weights * f)
        assert np.max(np.abs(u - dense)) < 1e-12 * np.max(np.abs(dense))

    def test_large_grid_no_overflow(self):
        # spans far beyond the exponent budget of a single block
        z = 4 + 0.1j
        g = gauss_legendre_grid(800.0, 2.0)
        f = np.exp(-((g.nodes - 3.0) ** 2))
        u = apply_resolvent(z, g, f)
        assert np.all(np.isfinite(u))

    def test_apply_at_points(self):
        z = 5 + 0.2j
        g = gauss_legendre_grid(12.0, 0.5)
        f = np.exp(-g.nodes**2)
        pts = np.array([-2.0, 0.0, 1.5])
        vals = apply_resolvent_at(z, g, f, pts)
        full = apply_resolvent(z, g, f)
        # compare against nearest grid values by interpolation tolerance
        for p, v in zip(pts, vals):
            i = np.argmin(np.abs(g.nodes - p))
            assert abs(v - full[i]) < 0.05 * np.max(np.abs(full))


class TestOperatorNorm:
    def test_matches_bounds_at_moderate_tau(self):
        z = 100.0
        norm = quadrature_operator_norm(z, default_strip_grid(z))
        assert pseudomode_lower_bound(z) <= norm * 1.01
        assert norm <= schur_upper_bound(z) * 1.01

    def test_pseudomode_witnesses_lower_bound(self):
        # ||R f0|| / ||f0|| must come within a few percent of the bound
        z = 400.0
        g = default_strip_grid(z)
        f0 = pseudomode_samples(z, g)
        ratio = g.norm(apply_resolvent(z, g, f0)) / g.norm(f0)
        assert ratio >= 0.95 * pseudomode_lower_bound(z)

    def test_pseudomode_norm_closed_form(self):
        z = 50 + 0.3j
        g = default_strip_grid(z)
        f0 = pseudomode_samples(z, g)
        kp = wave_numbers(z).k_plus
        assert g.norm(f0) == pytest.approx(
            1.0 / math.sqrt(2 * kp.real), rel=1e-6)


class TestRegularizedPseudomode:
    def test_ratio_positive_and_growing(self):
        r1 = regularized_pseudomode_ratio(100.0, 1.0)
        r2 = regularized_pseudomode_ratio(400.0, 1.0)
        assert 0 < r1 < r2

    def test_quarter_power_scaling(self):
        r1 = regularized_pseudomode_ratio(100.0, 1.0)
        r2 = regularized_pseudomode_ratio(1600.0, 1.0)
        slope = math.log(r2 / r1) / math.log(16.0)
        assert 0.15 < slope < 0.35

    def test_domain_check(self):
        with pytest.raises(DomainError):
            regularized_pseudomode_ratio(-5.0, 1.0)
        with pytest.raises(DomainError):
            regularized_pseudomode_ratio(100.0, -1.0)
