"""Tests for the exactly solvable models."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (dirichlet_bs_hs_norm, dirichlet_quadrature_norm,
                        gamma_branch, kernel_matrix)
from sgnspec.closed import spectrum_distance, step_implicit_residual
from sgnspec.errors import ConfigError, DomainError, SpectrumError, \
    ZeroCouplingError
from sgnspec.models import (all_sigma, delta_eigenvalue,
                            delta_eigenvalue_exists,
                            dirichlet_resolvent_norm, find_step_eigenvalues,
                            gamma_point)
from sgnspec.quadrature import gauss_legendre_grid, trapezoid_grid


class TestPointInteraction:
    def test_reference_value(self):
        assert delta_eigenvalue(2.0) == pytest.approx(-0.75)

    def test_real_coupling_always_exists(self):
        for a in (0.1, 0.5, 1.0, 2.0, 10.0, -3.0):
            assert delta_eigenvalue_exists(a)
            assert abs(delta_eigenvalue(a).imag) < 1e-14

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
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha = complex(*rng.uniform(-3, 3, 2))
            if abs(alpha) < 1e-3:
                continue
            lam = delta_eigenvalue(alpha)
            assert delta_eigenvalue_exists(alpha) == (
                spectrum_distance(lam) > 1e-12)

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
