"""Tests for the exactly solvable models."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _reference import (dirichlet_bs_hs_norm, dirichlet_quadrature_norm,
                        gamma_branch, kernel_matrix)
from sgnspec import closed
from sgnspec.closed import (DEFAULT_TOL_SPEC, spectrum_distance,
                            step_implicit_residual, wave_numbers)
from sgnspec.errors import ConfigError, DomainError, SpectrumError, \
    ZeroCouplingError
from sgnspec.models import (all_sigma, delta_eigenvalue,
                            delta_eigenvalue_exists,
                            dirichlet_resolvent_norm, find_step_eigenvalues,
                            gamma_point)
from sgnspec.fdop import eigenvalue_near
from sgnspec.quadrature import gauss_legendre_grid, trapezoid_grid


class TestPointInteraction:
    def test_reference_value(self):
        assert delta_eigenvalue(2.0) == pytest.approx(-0.75)

    def test_real_coupling_exists_only_when_positive(self):
        # the candidate solves the squared condition; at alpha < 0 its
        # wave numbers sum to -alpha, so H - alpha delta has no eigenvalue
        for a in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert delta_eigenvalue_exists(a)
            assert abs(delta_eigenvalue(a).imag) < 1e-14
        for a in (-0.1, -0.5, -2.0, -3.0, -10.0):
            assert not delta_eigenvalue_exists(a)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(1e-150, 1e100))
    @example(1e-110).via("Re alpha |alpha|^2 underflows to 0 here")
    @example(1e-150)
    @example(1e100)
    def test_positive_real_coupling_always_exists(self, a):
        assert delta_eigenvalue_exists(a)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(-1e100, -1e-100))
    def test_negative_real_coupling_never_exists(self, a):
        assert not delta_eigenvalue_exists(a)

    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    @example(1.0, -1.0).via("on the curve: lam = i lies on a ray")
    @example(-2.0, 0.0).via("the sum is -alpha")
    def test_exists_iff_wave_numbers_sum_to_alpha(self, re, im):
        alpha = complex(re, im)
        assume(abs(alpha) >= 1e-2)  # the plain sum keeps 1e-11 there
        lam = delta_eigenvalue(alpha)
        kp, km = wave_numbers(lam)
        gap = abs(kp + km - alpha) / abs(alpha)
        assume(not 1e-9 < gap < 1e-6)  # within rounding of the edge
        assert delta_eigenvalue_exists(alpha) == (
            gap <= 1e-9 and spectrum_distance(lam) > DEFAULT_TOL_SPEC)

    @pytest.mark.parametrize("alpha, found", [
        (2.0, -0.75),
        (1 - 0.5j, 0.29250677 + 0.88998119j),
        (-2.0, 0.0027 - 0.99999j),
        (0.3 - 2j, 0.771 + 1.017j),
    ])
    def test_exists_agrees_with_fd(self, alpha, found):
        # FD of H - alpha delta near the candidate: it lands on the
        # candidate where it exists and on a point by a ray elsewhere
        lam = delta_eigenvalue(alpha)
        ev = eigenvalue_near(lam, 24001, 60.0, center_jump=alpha)[0]
        assert abs(ev - found) < 1e-3
        assert delta_eigenvalue_exists(alpha) == (abs(ev - lam) < 1e-3)

    def test_divergence_rate(self):
        # lambda ~ alpha^{-2} for small coupling
        assert delta_eigenvalue(1e-3).real == pytest.approx(1e6, rel=1e-5)

    def test_zero_coupling(self):
        with pytest.raises(ZeroCouplingError):
            delta_eigenvalue(0.0)


class TestGammaCurve:
    def test_branch_lands_on_spectrum(self):
        for sigma in all_sigma():
            for alpha in gamma_branch(sigma, np.linspace(0.0, 10.0, 25)):
                lam = delta_eigenvalue(alpha)
                assert spectrum_distance(lam) < 1e-10

    def test_origin_of_branch(self):
        # r = 0, sigma = (1,1,1): alpha = 1 - i gives the eigenvalue i
        alpha = gamma_point(0.0, (1, 1, 1))
        assert alpha == pytest.approx(1 - 1j)
        assert delta_eigenvalue(alpha) == pytest.approx(1j)

    def test_off_curve_exists(self):
        # off the curve lam is an eigenvalue where the wave numbers at it
        # sum to alpha, formed as 2i / (k_plus - k_minus), which does not
        # cancel for small alpha
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha = complex(*rng.uniform(-3, 3, 2))
            if abs(alpha) < 1e-3:
                continue
            lam = delta_eigenvalue(alpha)
            kp, km = wave_numbers(lam)
            assert delta_eigenvalue_exists(alpha) == (
                spectrum_distance(lam) > 1e-12
                and abs(2j / (kp - km) - alpha) <= 1e-9 * abs(alpha))

    def test_window_edge_is_the_curve(self):
        # a curve point with Re alpha > 0 turned towards the real axis
        # has an eigenvalue, turned away has none, and its argument is
        # the window's half-angle arctan(|alpha|^2 / 2)
        for sigma in all_sigma():
            for r in np.linspace(0.0, 10.0, 21):
                alpha = gamma_point(float(r), sigma)
                if alpha.real <= 0.0:
                    continue
                turn = cmath.exp(1j * math.copysign(1e-6, alpha.imag))
                assert delta_eigenvalue_exists(alpha / turn)
                assert not delta_eigenvalue_exists(alpha * turn)
                half = math.atan(abs(alpha) ** 2 / 2.0)
                assert abs(abs(cmath.phase(alpha)) - half) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e300)),
           st.sampled_from(all_sigma()))
    @example(20.0, (1, 1, 1)).via("cancellation once cost 1.4e-14")
    @example(1e6, (-1, 1, 1)).via("cancellation once cost 3.8e-6")
    @example(1e150, (1, -1, 1)).via("r (r + 2i) once overflowed")
    @example(1e300, (1, 1, -1)).via("the end of the range")
    def test_point_matches_mpmath(self, r, sigma):
        mpmath = pytest.importorskip("mpmath")
        s1, s2, s3 = sigma
        # the two terms of the radicand cancel to ~1/r on the s3 = +1
        # branches, so the reference carries 2 log10(r) extra digits
        with mpmath.workdps(40 + 2 * max(0, math.ceil(math.log10(r or 1)))):
            rm = mpmath.mpf(r)
            ref = s1 * mpmath.sqrt(-2 * (rm + 1j * s2)
                                   + 2 * s3 * mpmath.sqrt(rm * (rm + 2j * s2)))
            err = abs(mpmath.mpc(gamma_point(r, sigma)) - ref) / abs(ref)
        assert err <= 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            gamma_point(-1.0, (1, 1, 1))
        with pytest.raises(ConfigError):
            gamma_point(1.0, (1, 0, 1))


class TestStepModel:
    A, B = 1.0, 3.0

    def test_roots_solve_implicit_equation(self):
        roots = find_step_eigenvalues(self.A, self.B, 60.0)
        assert len(roots) >= 3
        for lam in roots:
            assert abs(step_implicit_residual(lam, self.A, self.B)) < 1e-10
            assert lam > -self.B

    def test_counts_nondecreasing(self):
        counts = [len(find_step_eigenvalues(self.A, self.B, m))
                  for m in (60.0, 120.0, 240.0)]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0]

    def test_residual_continuous_at_minus_b(self):
        # the sin(2a s)/s factor extends continuously through lam = -b
        vals = [step_implicit_residual(-self.B + off, self.A, self.B)
                for off in (1e-6, 1e-8, 1e-10)]
        for i in range(len(vals) - 1):
            assert abs(vals[i] - vals[i + 1]) < 1e-4 * abs(vals[i])

    def test_hyperbolic_continuation(self):
        # below -b the principal branch turns sin/cos into sinh/cosh
        lam = -self.B - 2.0
        s = math.sqrt(2.0)
        expect = ((math.sqrt(lam * lam + 1) - lam - self.B)
                  * math.sinh(2 * self.A * s) / s
                  + 2 * (complex(lam, 1) ** 0.5).imag
                  * math.cosh(2 * self.A * s))
        got = step_implicit_residual(lam, self.A, self.B)
        assert got.real == pytest.approx(expect, rel=1e-10)

    def test_imag_domain_guard(self):
        with pytest.raises(DomainError):
            step_implicit_residual(1 + 2j, self.A, self.B)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(0.05, 20.0), st.floats(-1e6, 100.0),
           st.integers(1, 40))
    @example(20.0, -1e4, 284).via("a root 3e-10 below its bracket's end")
    @example(3.0, -1e7, 85).via("every root within an ulp of its end")
    def test_one_root_per_bracket(self, a, b, m):
        # lam_max at the upper end of bracket m - 1 takes brackets 0 to
        # m - 1 whole; bracket m starts there, and its root lies above
        def end(k):
            return (k * math.pi / (2.0 * a)) ** 2 - b

        roots = find_step_eigenvalues(a, b, end(m))
        assert len(roots) == m
        assert roots[0] > -b
        assert all(end(k) <= lam <= end(k + 1) for k, lam in enumerate(roots))
        assert all(x < y for x, y in zip(roots, roots[1:]))

    def test_roots_come_from_the_shared_residual(self, monkeypatch):
        # a stand-in with the residual's end signs, (-1)^k and (-1)^(k+1),
        # and its root at the middle of each bracket in 2a sqrt(lam + b):
        # the finder must land there, so no other spelling decides it
        calls = []

        def residual(lam, a, b):
            calls.append(lam)
            return complex(math.cos(2.0 * a * math.sqrt(lam + b)))

        monkeypatch.setattr(closed, "_step_residual", residual)
        roots = find_step_eigenvalues(self.A, self.B, 60.0)
        want = [((k + 0.5) * math.pi / (2.0 * self.A)) ** 2 - self.B
                for k in range(len(roots))]
        assert len(roots) == 5 and len(calls) >= 5 * 40
        assert roots == pytest.approx(want, abs=1e-11)


class TestDirichlet:
    def test_exact_norm(self):
        assert dirichlet_resolvent_norm(5 + 0.5j) == pytest.approx(2.0)
        assert dirichlet_resolvent_norm(50.0) == pytest.approx(1.0)

    def test_spectrum_guard(self):
        with pytest.raises(SpectrumError):
            dirichlet_resolvent_norm(2 + 1j)

    def test_quadrature_norm_below_exact(self):
        z = 5 + 0.5j
        grid = gauss_legendre_grid(40.0, 0.5)
        num = dirichlet_quadrature_norm(z, grid)
        assert num <= 1.05 * dirichlet_resolvent_norm(z)
        assert num >= 0.5 * dirichlet_resolvent_norm(z)

    @pytest.mark.parametrize("z, grid", [
        (5 + 0.5j, gauss_legendre_grid(10.0, 0.5)),
        (0.5 + 0.1j, gauss_legendre_grid(10.0, 0.5)),
        (-1 + 0.5j, gauss_legendre_grid(10.0, 1.0)),
        (20 - 0.7j, gauss_legendre_grid(15.0, 0.5)),
        (2 + 0.3j, trapezoid_grid(10.0, 401)),
    ])
    def test_quadrature_norm_matches_dense_svd(self, z, grid):
        # reference: largest singular value of the dense symmetrically
        # weighted Nystrom matrix of the Dirichlet kernel
        sw = np.sqrt(grid.weights)
        mat = (sw[:, None] * kernel_matrix(z, grid.nodes, grid.nodes,
                                           coupled=False) * sw[None, :])
        dense = float(np.linalg.norm(mat, 2))
        assert dirichlet_quadrature_norm(z, grid) == pytest.approx(
            dense, rel=1e-8)

    @pytest.mark.parametrize("z", [2 + 1j, 1j, -1j])
    def test_quadrature_norm_spectrum_guard(self, z):
        with pytest.raises(SpectrumError):
            dirichlet_quadrature_norm(z, gauss_legendre_grid(10.0, 0.5))

    def test_bs_uniformly_bounded(self):
        from sgnspec.bs import gaussian

        pot = gaussian()
        norms = [dirichlet_bs_hs_norm(r + 0.5j, pot)
                 for r in (1.0, 10.0, 100.0, 1000.0)]
        # bounded, and in fact decaying with Re z, in contrast to the
        # sqrt(Re z) growth of the full operator's BS norm
        assert max(norms) < 1.0
        assert norms[-1] < norms[0]
