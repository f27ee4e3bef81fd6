"""Tests for the two-sided bounds and the fast resolvent application."""

import math

import numpy as np
import pytest

from sgnspec.bounds import (_apply, apply_resolvent,
                            default_strip_grid, half_strip_distance,
                            numrange_bound, pseudomode_lower_bound,
                            pseudomode_samples, quadrature_operator_norm,
                            regularized_pseudomode_ratio, schur_upper_bound)
from sgnspec.errors import DomainError
from sgnspec.kernel import (dirichlet_kernel_grid, resolvent_kernel_grid,
                            wave_numbers)
from sgnspec.models import dirichlet_quadrature_norm
from sgnspec.quadrature import (QuadratureGrid, gauss_legendre_grid,
                                trapezoid_grid)


def _right_half_grid():
    """Gauss-Legendre nodes right of 0 only: the x < 0 half-line is empty."""
    g = gauss_legendre_grid(15.0, 0.3)
    keep = g.nodes > 0.0
    return QuadratureGrid(g.nodes[keep], g.weights[keep], g.half_length)


GRIDS = {
    "gauss_legendre": lambda: gauss_legendre_grid(15.0, 0.3),
    "trapezoid_node_at_0": lambda: trapezoid_grid(10.0, 401),
    "right_half_only": _right_half_grid,
}


def _dirichlet_apply(z, grid, f):
    return _apply(z, grid, grid.weights * f, coupled=False)


KERNELS = {
    "full": (apply_resolvent, resolvent_kernel_grid),
    "dirichlet": (_dirichlet_apply, dirichlet_kernel_grid),
}


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
    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_matches_dense_nystrom(self, grid, kernel):
        z = 30 + 0.3j
        g = GRIDS[grid]()
        apply, dense_kernel = KERNELS[kernel]
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        u = apply(z, g, f)
        dense = dense_kernel(z, g.nodes, g.nodes) @ (g.weights * f)
        assert np.max(np.abs(u - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("z", [1j, -1j, -1e-11 + 1j, -1e-6 - 1j])
    def test_accurate_at_ray_endpoints(self, z):
        # the wave number k+ or k- vanishes at +-i, where the image-charge
        # term (1 - e^{-2kt}) / (2k) must not be formed by cancellation
        g = trapezoid_grid(10.0, 401)
        f = np.exp(-g.nodes**2) * (1.0 + 0.5j * g.nodes)
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


class TestOperatorNorm:
    def test_matches_bounds_at_moderate_tau(self):
        z = 100.0
        norm = quadrature_operator_norm(z, default_strip_grid(z))
        assert pseudomode_lower_bound(z) <= norm * 1.01
        assert norm <= schur_upper_bound(z) * 1.01

    @pytest.mark.parametrize("z", [1j, -1j])
    def test_finite_at_ray_endpoints(self, z):
        # reference: largest singular value of the dense symmetrically
        # weighted Nystrom matrix, which stays bounded at +-i
        g = trapezoid_grid(10.0, 401)
        sw = np.sqrt(g.weights)
        mat = (sw[:, None] * resolvent_kernel_grid(z, g.nodes, g.nodes)
               * sw[None, :])
        assert quadrature_operator_norm(z, g) == pytest.approx(
            float(np.linalg.norm(mat, 2)), rel=1e-8)

    @pytest.mark.parametrize("norm, kernel", [
        (quadrature_operator_norm, resolvent_kernel_grid),
        (dirichlet_quadrature_norm, dirichlet_kernel_grid)],
        ids=["full", "dirichlet"])
    def test_zero_weights_allowed(self, norm, kernel):
        # a valid grid may carry zero weights, here at both ends; the
        # power iteration must not divide by them
        z = 5 + 0.5j
        g = trapezoid_grid(10.0, 201)
        w = g.weights.copy()
        w[[0, -1]] = 0.0
        g = QuadratureGrid(g.nodes, w, g.half_length)
        sw = np.sqrt(w)
        mat = sw[:, None] * kernel(z, g.nodes, g.nodes) * sw[None, :]
        assert norm(z, g) == pytest.approx(float(np.linalg.norm(mat, 2)),
                                           rel=1e-8)

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
