"""Unit tests for the closed-form resolvent kernel and its branch handling."""

import cmath

import numpy as np
import pytest

from _reference import kernel_matrix
from sgnspec.closed import (Region, principal_sqrt, ray_distances,
                            spectrum_distance, wave_numbers)
from sgnspec.errors import DomainError, SpectrumError
from sgnspec.kernel import classify_region, dirichlet_kernel, resolvent_kernel


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert principal_sqrt(4.0) == 2.0

    def test_negative_real_maps_to_positive_imag(self):
        v = principal_sqrt(-4.0 + 0.0j)
        assert abs(v - 2j) < 1e-15
        assert v.imag > 0

    def test_branch_cut_normalization(self):
        # approaching the cut from below must not flip the branch for -0.0
        v = principal_sqrt(complex(-1.0, -0.0))
        assert v.imag > 0

    def test_square_recovers_argument(self):
        for z in (1 + 2j, -3 + 0.1j, 0.5 - 7j, -2 - 2j):
            assert abs(principal_sqrt(z) ** 2 - z) < 1e-13 * abs(z)


class TestWaveNumbers:
    def test_defining_relations(self):
        for z in (-1 + 0.5j, 2 + 0.3j, 100.0, -5 - 2j):
            kk = wave_numbers(z)
            assert abs(kk.k_plus**2 - (1j - z)) < 1e-12 * max(1, abs(z))
            assert abs(kk.k_minus**2 - (-1j - z)) < 1e-12 * max(1, abs(z))

    def test_decay_inside_strip(self):
        kk = wave_numbers(50 + 0.5j)
        assert kk.k_plus.real > 0
        assert kk.k_minus.real > 0


class TestRegions:
    def test_disk_membership(self):
        assert classify_region(0.99j) is Region.D_PLUS
        assert classify_region(-0.99j) is Region.D_MINUS
        assert classify_region(0.5 + 0.9j) is Region.D_PLUS

    def test_strip_remainder(self):
        assert classify_region(50 + 0.5j) is Region.W
        assert classify_region(100.0) is Region.W

    def test_outside(self):
        assert classify_region(-5 + 0.5j) is Region.U
        assert classify_region(1 + 5j) is Region.U

    def test_spectrum_ray(self):
        assert classify_region(2 + 1j) is Region.SPECTRUM
        assert classify_region(3 - 1j) is Region.SPECTRUM

    def test_ray_distances(self):
        dp, dm = ray_distances(2 + 0.5j)
        assert dp == pytest.approx(0.5)
        assert dm == pytest.approx(1.5)
        assert spectrum_distance(2 + 0.5j) == pytest.approx(0.5)


class TestResolventKernel:
    def test_symmetric_in_arguments(self):
        z = -1 + 0.5j
        for x, y in ((0.3, -0.2), (1.0, 2.0), (-0.5, -1.5)):
            a = resolvent_kernel(z, x, y)
            b = resolvent_kernel(z, y, x)
            assert abs(a - b) < 1e-14 * abs(a)

    def test_continuous_across_origin(self):
        z = 2 + 0.4j
        y = 0.7
        eps = 1e-9
        left = resolvent_kernel(z, -eps, y)
        right = resolvent_kernel(z, eps, y)
        assert abs(left - right) < 1e-7 * abs(right)

    def test_raises_on_spectrum(self):
        with pytest.raises(SpectrumError):
            resolvent_kernel(2 + 1j, 0.1, 0.2)

    def test_endpoint_values_finite(self):
        # the kernel extends continuously to z = +-i
        v = resolvent_kernel(1j, 0.3, 0.5)
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        w = resolvent_kernel(-1j, -0.3, -0.5)
        assert np.isfinite(w.real) and np.isfinite(w.imag)

    def test_series_matches_direct_near_endpoint(self):
        # k_plus = t at z = i - t^2; the two t put |k (b - a)| below and
        # above 1e-6, where 1 - e^{-kd} formed directly would cancel: the
        # expm1 factor must vary smoothly across
        a = resolvent_kernel(1j - (6e-7) ** 2, 0.4, 0.6)
        b = resolvent_kernel(1j - (3e-6) ** 2, 0.4, 0.6)
        assert abs(a - b) < 1e-4 * abs(a)

    def test_grid_matches_scalar(self):
        z = -1 + 0.5j
        x = np.array([-1.2, -0.3, 0.0, 0.4, 2.0])
        y = np.array([-0.7, 0.1, 1.5])
        mat = kernel_matrix(z, x, y)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                assert abs(mat[i, j] - resolvent_kernel(z, xi, yj)) < 1e-13

    def test_differential_equation(self):
        # u(x) = R_z(x, y0) solves -u'' + (i sgn - z) u = 0 away from y0,
        # checked with 4th-order central differencing
        z = -1 + 0.5j
        y0 = -0.4
        h = 1e-3
        for x0 in (0.8, 1.7, -1.3, -2.2):
            pts = x0 + h * np.arange(-2, 3)
            u = np.array([resolvent_kernel(z, float(p), y0) for p in pts])
            upp = (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (
                12 * h * h)
            sgn = 1.0 if x0 > 0 else -1.0
            resid = -upp + (1j * sgn - z) * u[2]
            assert abs(resid) < 1e-6 * abs(z * u[2])

    def test_decay_at_infinity(self):
        z = 1 + 0.5j
        near = abs(resolvent_kernel(z, 1.0, 0.5))
        far = abs(resolvent_kernel(z, 40.0, 0.5))
        assert far < 1e-3 * near


class TestDirichletKernel:
    def test_vanishes_across_origin(self):
        z = 2 + 0.5j
        assert dirichlet_kernel(z, 0.5, -0.5) == 0.0
        assert dirichlet_kernel(z, -1.0, 2.0) == 0.0

    def test_vanishes_at_origin(self):
        z = 2 + 0.5j
        assert abs(dirichlet_kernel(z, 1e-12, 0.5)) < 1e-10

    @pytest.mark.parametrize("x, y", [
        (1e-200, 1e-200), (-1e-200, -1e-200), (1e-200, 3e-200),
        (-3e-200, -1e-200)])
    def test_tiny_same_side(self, x, y):
        # x * y underflows to 0 here, which once read as "across the
        # origin" and gave 0; the kernel is min(|x|, |y|) to first order
        z = 2 + 0.5j
        got = dirichlet_kernel(z, x, y)
        assert got == pytest.approx(min(abs(x), abs(y)), rel=1e-12,
                                    abs=0.0)
        ref = kernel_matrix(z, [x], [y], coupled=False)[0, 0]
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x, y", [
        (1e-200, -1e-200), (-1e-200, 1e-200), (0.0, 1e-200),
        (-0.0, -1e-200), (1e-200, 0.0)])
    def test_tiny_across_or_on_origin(self, x, y):
        z = 2 + 0.5j
        assert dirichlet_kernel(z, x, y) == 0.0
        assert kernel_matrix(z, [x], [y], coupled=False)[0, 0] == 0.0

    def test_same_side_matches_image_formula(self):
        z = 2 + 0.5j
        kp = wave_numbers(z).k_plus
        x, y = 0.7, 0.3
        expect = (cmath.exp(-kp * abs(x - y))
                  - cmath.exp(-kp * (x + y))) / (2 * kp)
        assert abs(dirichlet_kernel(z, x, y) - expect) < 1e-14

    def test_keeps_digits_above_series_cutoff(self):
        # at |w| = |k (b - a)| = 2.4e-6, e^w - 1 computed directly loses
        # about 1e-11 relative; expm1 must match the Taylor series
        z = 1j - (3e-6) ** 2
        k = wave_numbers(z).k_plus
        w = -k * 0.8
        expect = (-(w + w**2 / 2 + w**3 / 6 + w**4 / 24 + w**5 / 120)
                  / (2 * k) * cmath.exp(-k * 0.2))
        got = dirichlet_kernel(z, 0.4, 0.6)
        assert abs(got - expect) < 1e-14 * abs(expect)

    @pytest.mark.parametrize("z, sign", [(1j, 1.0), (-1j, -1.0)])
    @pytest.mark.parametrize("x, y", [(0.3, 0.5), (2.0, 2.0), (1.7, 0.9),
                                      (33.0, 40.0), (1e-9, 3e-9),
                                      (7.5, 1e-9), (40.0, 1e-300)])
    def test_min_kernel_at_ray_endpoint(self, z, sign, x, y):
        # k = 0 on the side of the endpoint, where the image factor
        # (1 - e^{-kd}) / (2k) is d / 2 and the kernel is min(|x|, |y|);
        # with |x| >> |y|, d = |x| + |y| - |x - y| would cancel
        x, y = sign * x, sign * y
        want = min(abs(x), abs(y))
        got = dirichlet_kernel(z, x, y)
        assert got.imag == 0.0
        assert abs(got.real - want) <= 2 * np.spacing(want)

    def test_keeps_digits_with_one_point_near_origin(self):
        # the kernel is e^{-k(x-y)} (1 - e^{-2ky}) / (2k), which is
        # e^{-k(x-y)} y to |k y| ~ 2e-9 relative; d = x + y - |x - y|
        # formed by subtraction, not as 2 y, is 8e-8 off
        z, x, y = 2 + 0.5j, 7.5, 1e-9
        want = cmath.exp(-wave_numbers(z).k_plus * (x - y)) * y
        assert abs(dirichlet_kernel(z, x, y) - want) <= 1e-8 * abs(want)

    def test_grid_matches_scalar(self):
        z = 3 - 0.2j
        x = np.array([-1.0, -0.2, 0.3, 1.1])
        mat = kernel_matrix(z, x, x, coupled=False)
        for i, xi in enumerate(x):
            for j, yj in enumerate(x):
                assert abs(mat[i, j] - dirichlet_kernel(z, xi, yj)) < 1e-13
