"""Tests for the two-sided bounds, the fast resolvent application and the
smoothed pseudomode ratio."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (_image_core, dirichlet_quadrature_norm,
                        dirichlet_sides, kernel_matrix, power_norm,
                        pseudomode_ratio, pseudomode_samples)
from sgnspec import closed
from sgnspec.bounds import (_EXP_BUDGET, _apply, _sides, apply_resolvent,
                            default_strip_grid, numrange_bound,
                            pseudomode_lower_bound, quadrature_operator_norm,
                            regularized_pseudomode_ratio, schur_upper_bound)
from sgnspec.closed import half_strip_distance, wave_numbers
from sgnspec.errors import (ConfigError, ConvergenceError, DomainError,
                             SpectrumError)
from sgnspec.quadrature import (QuadratureGrid, gauss_legendre_grid,
                                trapezoid_grid)


# NaN or infinite real or imaginary parts
_NON_FINITE_Z = [complex(math.nan, 0.5), complex(math.inf, 0.5),
                 complex(0.5, math.nan), complex(5.0, -math.inf)]


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
    return _apply(dirichlet_sides(z, grid), grid.weights * f)


def _dirichlet_matrix(z, x, y):
    return kernel_matrix(z, x, y, coupled=False)


KERNELS = {
    "full": (apply_resolvent, kernel_matrix),
    "dirichlet": (_dirichlet_apply, _dirichlet_matrix),
}

# far left of the strip Re k ~ 20 on both half-lines, so on [-40, 40]
# Re k * L ~ 800 and every O(n) scan crosses several blocks
MULTI_BLOCK_Z = -400 + 0.3j


def _multi_block_grid():
    g = trapezoid_grid(40.0, 1601)
    kk = wave_numbers(MULTI_BLOCK_Z)
    assert (min(kk.k_plus.real, kk.k_minus.real) * g.half_length
            > _EXP_BUDGET)
    return g


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

    def test_within_the_spectrum_tolerance_of_a_ray(self):
        # these once returned 1e13 and more, where the norm is infinite
        # and norm_bounds, within the same DEFAULT_TOL_SPEC, says so
        for bound, z in [(schur_upper_bound, 5 + 0.9999999999999j),
                         (numrange_bound, 1.0000000000001j),
                         (numrange_bound, -1e-13 + 1j)]:
            with pytest.raises(DomainError, match="essential spectrum"):
                bound(z)


class TestNormBounds:
    """closed.norm_bounds picks the bound the public functions give."""

    @pytest.mark.parametrize("z", [100 + 0.3j, 0.2 - 0.9j, 0.0, 5 - 0.5j])
    def test_strip_pair(self, z):
        nb = closed.norm_bounds(z)
        assert nb == (closed.classify_region(z), closed.STATUS_OK,
                      pseudomode_lower_bound(z), schur_upper_bound(z), None)

    @pytest.mark.parametrize("z", [-2 + 0.5j, 1 + 3j, -0.3 + 0.2j, -1e-12,
                                   -3 - 1.6j])
    def test_numrange_outside_the_strip(self, z):
        nb = closed.norm_bounds(z)
        assert nb == (closed.classify_region(z), closed.STATUS_NUMRANGE,
                      numrange_bound(z), numrange_bound(z), None)

    @pytest.mark.parametrize("z", [1j, 5 + 1j, 5 - 1j, 5 + (1 + 1e-13) * 1j,
                                   5 + (1 - 1e-13) * 1j, -1e-13 + 1j])
    def test_rays_are_spectrum(self, z):
        nb = closed.norm_bounds(z)
        assert nb.region is closed.Region.SPECTRUM
        assert nb.status == closed.STATUS_SPECTRUM
        assert nb.lower == nb.upper == math.inf
        assert isinstance(nb.error, SpectrumError)

    @pytest.mark.parametrize("z", [1e308 + 0.5j, -1e-310 + 0.5j])
    def test_overflow_is_skipped(self, z):
        nb = closed.norm_bounds(z)
        assert nb.status == closed.STATUS_SKIPPED
        assert math.isnan(nb.lower) and math.isnan(nb.upper)
        assert isinstance(nb.error, DomainError)
        assert "not finite" in str(nb.error)


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
        dense = kernel_matrix(z, g.nodes, g.nodes) @ (g.weights * f)
        assert np.max(np.abs(u - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_multi_block_matches_dense_nystrom(self, kernel):
        g = _multi_block_grid()
        apply, dense_kernel = KERNELS[kernel]
        rng = np.random.default_rng(2)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        u = apply(MULTI_BLOCK_Z, g, f)
        dense = dense_kernel(MULTI_BLOCK_Z, g.nodes, g.nodes) @ (g.weights * f)
        assert np.max(np.abs(u - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("z", _NON_FINITE_Z)
    def test_non_finite_z_raises(self, z):
        # spectrum_distance(nan) is nan, which passed the ray check
        g = trapezoid_grid(10.0, 401)
        with pytest.raises(DomainError, match="not finite"):
            apply_resolvent(z, g, np.ones(g.size))

    @pytest.mark.parametrize("size", [0, 400, 402])
    def test_wrong_length_raises(self, size):
        # NumPy's untyped broadcast ValueError before
        g = trapezoid_grid(10.0, 401)
        with pytest.raises(ConfigError, match="shape"):
            apply_resolvent(5 + 0.5j, g, np.ones(size))

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0.0, -math.inf)])
    def test_non_finite_f_raises(self, bad):
        # an all-NaN u came back before
        g = trapezoid_grid(10.0, 401)
        f = np.ones(g.size, dtype=complex)
        f[7] = bad
        with pytest.raises(DomainError, match="f is not finite"):
            apply_resolvent(5 + 0.5j, g, f)

    def test_large_grid_no_overflow(self):
        # spans far beyond the exponent budget of a single block
        z = 4 + 0.1j
        g = gauss_legendre_grid(800.0, 2.0)
        f = np.exp(-((g.nodes - 3.0) ** 2))
        u = apply_resolvent(z, g, f)
        assert np.all(np.isfinite(u))


class TestImageFactor:
    @pytest.mark.parametrize("z, sign", [(1j, 1.0), (-1j, -1.0)])
    def test_limit_at_ray_endpoint(self, z, sign):
        # k = 0 on the endpoint's side, where (1 - e^{-2kt}) / (2k) -> t
        x = np.sort(sign * np.array([0.0, 1e-300, 1e-9, 0.4, 3.0, 250.0]))
        _, sides = _sides(z, x)
        side, k, _, g, *_ = sides[0 if sign > 0 else 1]
        assert k == 0.0
        assert np.array_equal(g, np.abs(x[side]))

    @pytest.mark.parametrize("z", [1j - 1e-6, -1j - 1e-8, 1j - 1e-3j,
                                   5 + 0.5j, 100 - 0.3j, 0.2 + 0.9j])
    def test_matches_reference_across_small_kt(self, z):
        # |2kt| from 1e-12 to 10 on each half-line crosses 1e-6, where
        # 1 - e^{-2kt} would cancel, and 1, where t = 0.5 / |k|
        kk = wave_numbers(z)
        s = np.geomspace(1e-12, 10.0, 400)
        x = np.concatenate([-(s / (2.0 * abs(kk.k_minus)))[::-1],
                            s / (2.0 * abs(kk.k_plus))])
        _, sides = _sides(z, x)
        for side, k, _, g, *_ in sides:
            ref = _image_core(k, 2.0 * np.abs(x[side]))
            assert np.all(np.abs(g - ref) <= 4 * 2.0**-52 * np.abs(ref))


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
        mat = (sw[:, None] * kernel_matrix(z, g.nodes, g.nodes)
               * sw[None, :])
        assert quadrature_operator_norm(z, g) == pytest.approx(
            float(np.linalg.norm(mat, 2)), rel=1e-8)

    @pytest.mark.parametrize("norm, kernel", [
        (quadrature_operator_norm, kernel_matrix),
        (dirichlet_quadrature_norm, _dirichlet_matrix)],
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

    def test_multi_block_matches_dense_power_iteration(self):
        # the top singular values cluster this far left (their relative
        # gaps are ~1e-5), so the iteration is stopped at 1e-5 and the
        # reference is the same iteration on the dense matrix
        g = _multi_block_grid()
        mat = kernel_matrix(MULTI_BLOCK_Z, g.nodes, g.nodes)
        dense = power_norm(lambda c: mat @ c, g.weights, 200, 1e-5)
        gen = _sides(MULTI_BLOCK_Z, g.nodes)
        assert power_norm(lambda c: _apply(gen, c), g.weights, 200,
                          1e-5) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("z", _NON_FINITE_Z)
    def test_non_finite_z_raises(self, z):
        with pytest.raises(DomainError, match="not finite"):
            quadrature_operator_norm(z, trapezoid_grid(10.0, 401))

    def test_unsettled_power_iteration_raises(self):
        # 200 steps do not settle to 1e-8 at these points (the exact
        # norms are 0.894427 and 0.5): an unconverged estimate must not
        # return
        g = trapezoid_grid(40.0, 1601)
        for z in (-1 + 0.5j, 2 + 3j):
            with pytest.raises(ConvergenceError):
                quadrature_operator_norm(z, g)

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

    def test_one_implementation(self):
        assert regularized_pseudomode_ratio is \
            closed.regularized_pseudomode_ratio

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(20.0, 2000.0), st.floats(-0.8, 0.8),
           st.floats(0.2, 3.0))
    def test_matches_quadrature_reference(self, tau, im, a):
        # up to ~2.3M Gauss nodes at tau = 2000, |Im z| = 0.8
        z = complex(tau, im)
        assert regularized_pseudomode_ratio(z, a) == pytest.approx(
            pseudomode_ratio(z, a), rel=1e-5)

    @pytest.mark.parametrize("tau", [1e6, 1e9, 1e12, 1e50])
    def test_quarter_power_asymptote(self, tau):
        # the ramp integral's argument u = 2 Re k_minus ~ 1/sqrt(tau) is
        # where its closed form cancels: the series must take over
        r = regularized_pseudomode_ratio(tau, 1.0)
        assert abs(r / (math.sqrt(1.5) * tau ** 0.25) - 1.0) <= \
            tau ** -0.5 + 1e-14

    @pytest.mark.parametrize("u", [0.0, 1e-8, 0.3, 1.0 - 1e-15, 1.0, 2.0,
                                   40.0, 1e300, math.inf])
    def test_scaled_ramp_integral(self, u):
        # u I(u), I(u) = int_0^1 (1 - t)^2 e^{-ut} dt, by an 80-node
        # Gauss rule, exact to rounding for this analytic integrand
        x, w = np.polynomial.legendre.leggauss(80)
        t = 0.5 * (x + 1.0)
        want = (0.5 * u * np.sum(w * (1 - t) ** 2 * np.exp(-u * t))
                if u < 50.0 else 1.0 - 2.0 / u)
        assert closed._scaled_ramp_integral(u) == pytest.approx(
            want, rel=1e-14, abs=1e-300)

    def test_float_range(self):
        with pytest.raises(DomainError):
            regularized_pseudomode_ratio(1e200, 1.0)
        # a ramp wider than the float range tends to its limit, not to 0
        assert regularized_pseudomode_ratio(1000.0, 1.7e308) == \
            pytest.approx(regularized_pseudomode_ratio(1000.0, 1e300))
