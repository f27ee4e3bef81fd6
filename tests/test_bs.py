"""Tests for the Birman-Schwinger machinery."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from sgnspec import bs, krylov
from sgnspec.bounds import _EXP_BUDGET
from sgnspec.bs import (_normalized_det, box, decomposition_diagnostics,
                        delta_bump, escape_scan, find_eigenvalue, gaussian,
                        hs_growth_rates, hs_norm, k_matvec, l_hs_closed,
                        potential_grid, search_eigenvalues, spectral_radius,
                        weak_coupling_rate)
from sgnspec.closed import wave_numbers
from sgnspec.errors import (ConfigError, ConvergenceError, DomainError,
                            ZeroCouplingError)
from sgnspec.quadrature import (QuadratureGrid, gauss_legendre_grid,
                                oscillation_panel_width, trapezoid_grid)

from _reference import (arpack_spectral_radius, assemble_k, dense_logdet,
                        dirichlet_bs_hs_norm, kernel_matrix, weights)


class TestPotentials:
    def test_gaussian_l1(self):
        pot = gaussian(-2.0, 1.5)
        assert pot.l1 == pytest.approx(2 * 1.5 * math.sqrt(math.pi))

    def test_box_l1(self):
        assert box(3.0, 0.5).l1 == pytest.approx(3.0)

    def test_delta_bump_integral(self):
        pot = delta_bump(2.0)
        assert pot.l1 == pytest.approx(2.0)
        # well is attractive for positive coupling
        assert pot(np.array([0.0]))[0].real < 0

    def test_delta_bump_zero_coupling(self):
        with pytest.raises(ZeroCouplingError):
            delta_bump(0.0)

    @pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
    def test_non_finite_amplitude(self, amplitude):
        with pytest.raises(ConfigError, match="amplitude"):
            gaussian(amplitude)
        with pytest.raises(ConfigError, match="amplitude"):
            box(amplitude, 0.5)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_delta_bump_non_finite_coupling(self, alpha):
        with pytest.raises(ConfigError, match="coupling"):
            delta_bump(alpha)

    def test_delta_bump_depth_overflow(self):
        # 1 / (2 * 1e-320) overflows: the box once came back with l1 = inf
        with pytest.raises(ConfigError, match="depth"):
            delta_bump(1.0, radius=1e-320)

    @pytest.mark.parametrize("make", [lambda: gaussian(1e308, 10.0),
                                      lambda: box(1e308, 1e308)])
    def test_overflowing_l1(self, make):
        # box(1e308, 1e308) once came back with l1 = inf
        with pytest.raises(ConfigError, match="L1 norm"):
            make()

    def test_delta_bump_bad_radius(self):
        # a zero radius once divided by zero before box could check it
        with pytest.raises(ConfigError, match="radius"):
            delta_bump(1.0, radius=0.0)

    def test_box_values(self):
        # the real well of depth 3 on (-1, 1), pointwise
        pot = box(-3.0, 1.0)
        assert pot(np.array([0.5]))[0] == -3.0
        assert pot(np.array([2.0]))[0] == 0.0


class TestAssembly:
    def test_hs_matches_frobenius(self):
        z = 20 + 0.5j
        pot = gaussian()
        grid = potential_grid(z, pot)
        k = assemble_k(z, pot, grid)
        assert hs_norm(z, pot, grid) == pytest.approx(
            float(np.linalg.norm(k)), rel=1e-12)

    def test_matvec_matches_dense(self):
        z = 20 + 0.5j
        pot = gaussian()
        grid = potential_grid(z, pot)
        k = assemble_k(z, pot, grid)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(
            grid.size)
        u = k_matvec(z, pot, grid)(v)
        assert np.max(np.abs(u - k @ v)) < 1e-10 * np.max(np.abs(k @ v))

    def test_matvec_wrong_length_raises(self):
        # NumPy's untyped broadcast ValueError before
        z = 20 + 0.5j
        pot = gaussian()
        grid = potential_grid(z, pot)
        with pytest.raises(ConfigError, match="shape"):
            k_matvec(z, pot, grid)(np.ones(grid.size + 1))

    def test_nystrom_convergence(self):
        # hs norm changes by < 1e-4 relative when the grid is refined
        z = 30 + 0.5j
        pot = gaussian()
        g1 = potential_grid(z, pot)
        g2 = gauss_legendre_grid(pot.half_length,
                                 oscillation_panel_width(z) / 2)
        a = hs_norm(z, pot, g1)
        b = hs_norm(z, pot, g2)
        assert abs(a - b) < 1e-4 * b


class TestDecomposition:
    def test_l_closed_form(self):
        z = 50 + 0.5j
        pot = gaussian()
        assert decomposition_diagnostics(z, pot)["l_hs"] == pytest.approx(
            l_hs_closed(z, pot), rel=1e-10)

    def test_l_hs_closed_needs_positive_real_part(self):
        with pytest.raises(DomainError, match="Re z > 0"):
            l_hs_closed(-1 + 0.5j, gaussian())

    def test_growth_rates(self):
        rates = hs_growth_rates(gaussian(), [25.0, 100.0, 400.0])
        assert 0.3 < rates["k_hs_slope"] < 0.7
        assert rates["l_hs_slope"] == pytest.approx(0.5, abs=1e-6)
        assert abs(rates["m_hs_slope"]) < 0.3

    def test_growth_rates_to_re_1e6(self):
        # n = 50940 at Re z = 1e6, out of reach of any n x n computation
        rates = hs_growth_rates(gaussian(), [1e2, 1e3, 1e4, 1e5, 1e6])
        assert rates["l_hs_slope"] == pytest.approx(0.5, abs=0.02)
        assert abs(rates["m_hs_slope"]) <= 0.2
        assert np.allclose(rates["l_hs"], [l_hs_closed(r + 0.5j, gaussian())
                                           for r in rates["re_values"]],
                           rtol=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(ConfigError):
            hs_growth_rates(gaussian(), [10.0, 20.0])

    @pytest.mark.parametrize("re_values", [[50, 50, 50], [50, 60, 50]])
    def test_needs_three_distinct_points(self, re_values):
        # [50, 50, 50] once fitted a k_hs slope of 0.313
        with pytest.raises(ConfigError, match="distinct"):
            hs_growth_rates(gaussian(), re_values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norms_past_the_float_range_raise(self):
        # amplitude 1e200 once gave k_hs = inf and m_hs = nan, and then
        # NumPy's overflow warnings ahead of the DomainError
        pot = gaussian(1e200)
        z = 25 + 0.5j
        with pytest.raises(DomainError, match="float range"):
            hs_norm(z, pot, potential_grid(z, pot))
        with pytest.raises(DomainError, match="float range"):
            decomposition_diagnostics(z, pot)

    @pytest.mark.parametrize("re", [5e8, 1e9, 1e10])
    def test_m_below_the_rounding_error_of_k_raises(self, re):
        # ||K||^2 - 2 Re<K, L> + ||L||^2 cancels to a negative number
        # here: math.sqrt once raised a bare ValueError
        with pytest.raises(DomainError, match="below the rounding error"):
            decomposition_diagnostics(re + 0.5j, delta_bump(1.0))


class TestEigenvalues:
    def test_delta_bump_root_matches_point_interaction(self):
        # eps = 1, coupling 2: the point interaction predicts -0.75
        pot = delta_bump(2.0)
        z = find_eigenvalue(1.0, pot, -0.7)
        assert abs(z - (-0.75)) < 1e-3

    def test_distance_detects_eigenvalue(self):
        pot = delta_bump(2.0)
        z = find_eigenvalue(1.0, pot, -0.7)
        grid = potential_grid(z, pot)

        def distance(w):
            # min |lambda + 1| over the spectrum of eps K_w, eps = 1
            vals = np.linalg.eigvals(assemble_k(w, pot, grid))
            return float(np.min(np.abs(vals + 1.0)))

        assert distance(z) < 1e-6
        assert distance(z + 0.5) > 1e-2

    def test_the_seeds_determinant_is_the_first_secant_value(self,
                                                              monkeypatch):
        # criterion 3's search: the determinant at z0 sets the scale and
        # serves as the first secant value, so no z is evaluated twice
        calls = []
        factory = bs._normalized_det

        def counted(*args):
            det_at = factory(*args)

            def det(z):
                calls.append(complex(z))
                return det_at(z)
            return det

        monkeypatch.setattr(bs, "_normalized_det", counted)
        z = find_eigenvalue(1.0, delta_bump(2.0), -0.7)
        assert abs(z - (-0.75)) < 1e-3
        assert calls[0] == -0.7
        assert len(calls) == len(set(calls)) == 6

    def test_non_finite_determinant_at_the_seed_raises(self, monkeypatch):
        monkeypatch.setattr(bs, "_normalized_det",
                            lambda *args: lambda z: (0j, -math.inf))
        with pytest.raises(ConvergenceError,
                           match=r"non-finite determinant at z=\(-0.7\+0j\)"):
            find_eigenvalue(1.0, delta_bump(2.0), -0.7)

    def test_find_eigenvalues_dedupes(self):
        pot = delta_bump(2.0)
        roots = search_eigenvalues(1.0, pot, [-0.7, -0.72, -0.8]).roots
        assert len(roots) == 1

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCouplingError):
            find_eigenvalue(0.0, delta_bump(1.0), -0.7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_secant_raises_before_overflow(self):
        # from 5 + 5i the iterates run off to |z| ~ 1e259; the secant
        # step then overflows, which must stop the search with a typed
        # error before the determinant sees a non-finite z
        with pytest.raises(ConvergenceError):
            find_eigenvalue(1.0, gaussian(), 5 + 5j)
        assert len(search_eigenvalues(1.0, gaussian(), [5 + 5j]).roots) == 0

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_raises(self, eps):
        # spectral_radius's check: find_eigenvalue once raised
        # ConvergenceError, and search_eigenvalues returned one failed
        # seed per seed
        pot = delta_bump(2.0)
        with pytest.raises(ConfigError, match="eps must be finite"):
            find_eigenvalue(eps, pot, -0.7)
        with pytest.raises(ConfigError, match="eps must be finite"):
            search_eigenvalues(eps, pot, [-0.7, -0.72])
        with pytest.raises(ConfigError, match="eps must be finite"):
            weak_coupling_rate(pot, (0.5, eps, 0.125))

    def test_search_reports_failed_seeds(self):
        pot = delta_bump(2.0)
        res = search_eigenvalues(1.0, pot, [5 + 5j, -0.7, -0.72])
        assert len(res.roots) == 1
        assert abs(res.roots[0] - (-0.75)) < 1e-3
        assert [seed for seed, _ in res.failed] == [5 + 5j]
        assert "left the finite plane" in res.failed[0][1]

    def test_seed_past_the_grid_cap_fails_alone(self):
        # the seed 1e9 asks for a grid of 3.22e6 nodes, past MAX_GL_NODES:
        # its ConfigError once aborted the whole search
        res = search_eigenvalues(3.0, gaussian(), [0.5, 1e9])
        assert len(res.roots) == 1
        assert abs(res.roots[0] - 0.5913) < 1e-4
        assert [seed for seed, _ in res.failed] == [1e9]
        assert "MAX_GL_NODES" in res.failed[0][1]


class TestWeakCoupling:
    def test_rate_near_minus_two(self):
        res = weak_coupling_rate(delta_bump(1.0))
        assert res["slope"] == pytest.approx(-2.0, abs=0.1)

    def test_eigenvalues_agree_with_point_interaction(self):
        res = weak_coupling_rate(delta_bump(1.0))
        for eps, z in zip(res["eps"], res["eigenvalues"]):
            exact = 1.0 / eps**2 - eps**2 / 4.0
            assert abs(z - exact) < 1e-2 * abs(exact)

    def test_needs_three_couplings(self):
        with pytest.raises(ConfigError, match="three couplings"):
            weak_coupling_rate(gaussian(), [0.5, 0.25])

    def test_needs_three_distinct_couplings(self):
        # a rank-deficient fit once returned a slope of -0.99
        with pytest.raises(ConfigError, match="distinct"):
            weak_coupling_rate(delta_bump(1.0), [0.5, 0.5, 0.5])

    def test_zero_coupling_potential_rejected(self):
        with pytest.raises(ZeroCouplingError):
            weak_coupling_rate(box(0.0, 1.0))

    @pytest.mark.parametrize("eps_values", [(0.5, 0.25, 0.0),
                                            (0.5, -0.0, 0.125, 0.25)])
    def test_zero_coupling_rejected_before_any_search(self, monkeypatch,
                                                      eps_values):
        # the continuation once divided by the zero coupling after two
        # searches: a bare ZeroDivisionError
        def fail(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(bs, "find_eigenvalue", fail)
        with pytest.raises(ZeroCouplingError, match="nonzero"):
            weak_coupling_rate(delta_bump(1.0), eps_values)

    def test_gaussian_escape(self):
        scan = escape_scan(gaussian(), 0.125, [1.0, 100.0, 10000.0])
        assert scan["escaped"]
        assert scan["max_radius"] < 1.0


def _dense_norms_sq(z, pot, grid, rows=256):
    """Squared Frobenius norms of the dense K, L and K - L, summed over
    blocks of rows of the dense kernel matrix to bound memory."""
    left, right = weights(pot, grid)
    kappa = math.sqrt(z.real)
    phase = np.exp(-1j * kappa * grid.nodes)
    col, row = kappa * left * phase, phase * right
    k_sq = l_sq = m_sq = 0.0
    for lo in range(0, grid.size, rows):
        r = slice(lo, lo + rows)
        k = left[r, None] * kernel_matrix(
            z, grid.nodes[r], grid.nodes) * right[None, :]
        lmat = np.outer(col[r], row)
        k_sq += np.sum(np.abs(k) ** 2)
        l_sq += np.sum(np.abs(lmat) ** 2)
        m_sq += np.sum(np.abs(k - lmat) ** 2)
    return k_sq, l_sq, m_sq


class TestDenseReference:
    """The structured paths against dense linear algebra on small grids."""

    @pytest.mark.parametrize("re_z, im_z, n", [
        (1.0, 0.5, 160), (40.0, 0.5, 340), (50.0, 3.0, 380),
        (20.0, -0.5, 240), (1e-3, 0.999, 160), (1540.0, 0.5, 2000)])
    def test_diagnostics_match_dense_norms(self, re_z, im_z, n):
        z = complex(re_z, im_z)
        pot = gaussian()
        grid = potential_grid(z, pot)
        assert grid.size == n
        k_sq, l_sq, m_sq = _dense_norms_sq(z, pot, grid)
        d = decomposition_diagnostics(z, pot)
        assert d["k_hs"] == pytest.approx(math.sqrt(k_sq), rel=1e-12)
        assert d["l_hs"] == pytest.approx(math.sqrt(l_sq), rel=1e-12)
        assert d["m_hs"] == pytest.approx(math.sqrt(m_sq), rel=1e-10)

    def test_diagnostics_match_dense(self):
        z = 100 + 0.5j
        pot = gaussian()
        grid = potential_grid(z, pot)
        assert grid.size == 520
        k = assemble_k(z, pot, grid)
        kappa = math.sqrt(z.real)
        phase = np.exp(-1j * kappa * grid.nodes)
        left, right = weights(pot, grid)
        lmat = kappa * np.outer(left * phase, phase * right)
        d = decomposition_diagnostics(z, pot)
        assert d["n"] == grid.size
        assert d["k_hs"] == pytest.approx(np.linalg.norm(k), rel=1e-10)
        assert d["l_hs"] == pytest.approx(np.linalg.norm(lmat), rel=1e-10)
        assert d["m_hs"] == pytest.approx(np.linalg.norm(k - lmat),
                                          rel=1e-10)

    @pytest.mark.parametrize("kernel", [None, "dirichlet"])
    def test_hs_norm_matches_dense(self, kernel):
        # None: the full operator (hs_norm); otherwise the Dirichlet one.
        # z = +-i is where the wave number k vanishes; the trapezoid grid
        # has a node at x = 0, and the last grid no node left of it
        norm = dirichlet_bs_hs_norm if kernel else hs_norm
        pot = gaussian()
        for z in (40 + 0.5j, 1 + 0.5j, -300 + 0.2j, 20 - 0.5j, 50 + 3j,
                  1e-3 + 0.999j, 1j, -1j):
            full = potential_grid(z, pot)
            right_half = QuadratureGrid(full.nodes[full.nodes > 0.0],
                                        full.weights[full.nodes > 0.0], 8.0)
            for grid in (full, trapezoid_grid(8.0, 801), right_half):
                dense = assemble_k(z, pot, grid, coupled=kernel is None)
                assert norm(z, pot, grid) == pytest.approx(
                    np.linalg.norm(dense), rel=1e-12), (z, grid.size)

    @pytest.mark.parametrize("kernel", [None, "dirichlet"])
    def test_hs_norm_matches_dense_multi_block(self, kernel):
        # a wide well far left of the strip: Re k * L ~ 400, so the HS
        # scans cross several blocks
        norm = dirichlet_bs_hs_norm if kernel else hs_norm
        z = -100 + 0.3j
        pot = gaussian(-1.0, 5.0)
        grid = potential_grid(z, pot)
        kk = wave_numbers(z)
        assert (min(kk.k_plus.real, kk.k_minus.real) * grid.half_length
                > _EXP_BUDGET)
        dense = assemble_k(z, pot, grid, coupled=kernel is None)
        assert norm(z, pot, grid) == pytest.approx(np.linalg.norm(dense),
                                                   rel=1e-12)

    @pytest.mark.parametrize("re_z, n", [(5.0, 160), (32.0, 300),
                                         (100.0, 520)])
    def test_spectral_radius_matches_dense(self, re_z, n):
        z = re_z + 0.5j
        pot = gaussian()
        grid = potential_grid(z, pot)
        assert grid.size == n
        dense = 0.125 * np.max(np.abs(sla.eigvals(assemble_k(z, pot, grid))))
        assert spectral_radius(z, 0.125, pot) == pytest.approx(dense,
                                                                rel=1e-8)

    @pytest.mark.parametrize("z", [1j, -1j])
    def test_spectral_radius_at_ray_endpoints(self, z):
        # k+ or k- vanishes at +-i; the kernel and the radius stay finite
        pot = gaussian()
        grid = potential_grid(z, pot)
        dense = 0.5 * np.max(np.abs(sla.eigvals(assemble_k(z, pot, grid))))
        assert spectral_radius(z, 0.5, pot) == pytest.approx(dense, rel=1e-8)

    def test_spectral_radius_repeatable(self):
        z = 3000 + 0.5j
        pot = gaussian()
        assert spectral_radius(z, 0.125, pot) == spectral_radius(z, 0.125,
                                                                 pot)

    def test_no_convergence_is_typed(self, monkeypatch):
        # gaussian() at -50 + 0.2i needs more than one 20-vector basis
        # (30 products), so a budget of no restarts runs out
        monkeypatch.setattr(krylov, "_RESTARTS", 0)
        with pytest.raises(ConvergenceError):
            spectral_radius(-50 + 0.2j, 0.125, gaussian())

    def test_diagnostics_memory_stays_below_dense(self):
        # at n = 16120 one dense complex n x n matrix is 4.2 GB; the
        # O(n) path must stay below 1 KB per node
        z = 1e5 + 0.5j
        pot = gaussian()
        n = potential_grid(z, pot).size
        assert n == 16120
        tracemalloc.start()
        try:
            decomposition_diagnostics(z, pot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * n


class TestSpectralRadius:
    """The Arnoldi spectral radius against the ARPACK call it replaced,
    and its input checks."""

    # the centres of the escape strata (one Re z per decade) and the
    # ray endpoints, where k+ or k- vanishes
    @pytest.mark.parametrize("z", [10 ** 0.5 + 0.5j, 10 ** 1.5 + 0.5j,
                                   10 ** 2.5 + 0.5j, 10 ** 3.5 + 0.5j,
                                   1j, -1j])
    def test_matches_arpack(self, z):
        pot = gaussian()
        assert spectral_radius(z, 0.125, pot) == pytest.approx(
            arpack_spectral_radius(z, 0.125, pot), rel=1e-12)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_raises(self, eps):
        with pytest.raises(ConfigError, match="eps must be finite"):
            spectral_radius(10 + 0.5j, eps, gaussian())

    def test_negative_eps_gives_its_modulus(self):
        # rho(eps K) = |eps| rho(K), never negative
        pot = gaussian()
        rho = spectral_radius(10 + 0.5j, -0.125, pot)
        assert rho > 0.0
        assert rho == spectral_radius(10 + 0.5j, 0.125, pot)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.5),
                                   complex(math.inf, 0.5),
                                   complex(10.0, math.nan)])
    def test_non_finite_z_raises(self, z):
        with pytest.raises(DomainError, match="not finite"):
            spectral_radius(z, 0.125, gaussian())

    def test_escape_scan_needs_a_point(self):
        with pytest.raises(ConfigError):
            escape_scan(gaussian(), 0.125, [])

    def test_escape_scan_non_finite_eps_raises(self):
        with pytest.raises(ConfigError):
            escape_scan(gaussian(), math.nan, [10.0])


class TestNonFiniteZ:
    """A non-finite z raises DomainError: spectrum_distance(nan) is nan,
    which the ray check let through, and the O(n) paths then returned
    NaN."""

    Z = [complex(math.nan, 0.5), complex(math.inf, 0.5),
         complex(10.0, math.nan), complex(10.0, -math.inf)]

    @pytest.mark.parametrize("z", Z)
    def test_hs_norm(self, z):
        grid = potential_grid(10 + 0.5j, gaussian())
        with pytest.raises(DomainError, match="not finite"):
            hs_norm(z, gaussian(), grid)

    @pytest.mark.parametrize("z", Z)
    def test_decomposition_diagnostics(self, z):
        with pytest.raises(DomainError, match="not finite"):
            decomposition_diagnostics(z, gaussian())

    @pytest.mark.parametrize("z", Z)
    def test_l_hs_closed(self, z):
        with pytest.raises(DomainError, match="not finite"):
            l_hs_closed(z, gaussian())


def _assert_det_matches_dense(eps, pot, grid, z):
    sign, logabs = _normalized_det(eps, pot, grid)(z)
    ref_sign, ref_logabs = dense_logdet(eps, pot, grid, z)
    assert logabs == pytest.approx(ref_logabs, rel=1e-12, abs=1e-12)
    assert abs(sign - ref_sign) <= 1e-12


class TestDeterminant:
    """The O(n) transfer-matrix determinant against LAPACK slogdet."""

    @pytest.mark.parametrize("pot", [delta_bump(2.0), gaussian(),
                                     box(-2.0, 1.0)],
                             ids=["delta_bump", "gaussian", "box"])
    @pytest.mark.parametrize("z", [-0.7, 3.5 + 0.1j, 60 + 0.05j, 5 + 0.5j,
                                   100 + 0.5j, -300 + 0.5j, 1j, -1j])
    def test_matches_dense(self, pot, z):
        grid = potential_grid(z, pot)
        assert grid.size <= 520
        _assert_det_matches_dense(1.0, pot, grid, z)

    @pytest.mark.parametrize("z, n", [(60 + 0.05j, 800), (100 + 0.5j, 1020)])
    def test_matches_dense_on_root_search_grid(self, z, n):
        # the grid find_eigenvalue builds from a seed at z
        pot = gaussian()
        grid = potential_grid(4.0 * abs(z.real) + 1.0, pot)
        assert grid.size == n
        _assert_det_matches_dense(1.0, pot, grid, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_left_stays_finite(self):
        # Re k ~ 100 at z = -1e4 + 0.5i: unscaled generators e^{k|x|}
        # would overflow on the root-search grid (n = 10200)
        z = -1e4 + 0.5j
        pot = gaussian()
        grid = potential_grid(4.0 * abs(z.real) + 1.0, pot)
        assert grid.size == 10200
        sign, logabs = _normalized_det(1.0, pot, grid)(z)
        assert np.isfinite(sign) and math.isfinite(logabs)
        assert abs(abs(sign) - 1.0) < 1e-14
        _assert_det_matches_dense(1.0, pot, gauss_legendre_grid(8.0, 0.5), z)

    def test_vanishing_leading_minor(self):
        # at z the leading 80 x 80 minor of I + K vanishes (the x < 0
        # half of the grid), so elimination that divides by its pivots
        # loses digits; the recursion never divides by a pivot
        z = -0.6627346358842853 - 0.6652442888557173j
        pot = gaussian(-3.0)
        grid = potential_grid(9.0, pot)
        assert grid.size == 160
        a = np.eye(grid.size) + assemble_k(z, pot, grid)
        assert abs(np.linalg.det(a[:80, :80])) < 1e-15
        pivots = []
        for i in range(grid.size):  # LU in node order, without pivoting
            pivots.append(a[i, i])
            a[i + 1:, i + 1:] -= np.outer(a[i + 1:, i], a[i, i + 1:]) / a[i, i]
        _, ref_logabs = dense_logdet(1.0, pot, grid, z)
        assert abs(np.sum(np.log(np.abs(pivots))) - ref_logabs) > 1e-4
        _assert_det_matches_dense(1.0, pot, grid, z)

    def test_memory_stays_below_dense(self):
        # at n = 4560 one dense complex n x n matrix is 333 MB; the
        # recursion must stay below 1 KB per node
        z = 2000 + 0.5j
        pot = gaussian()
        grid = potential_grid(4.0 * z.real + 1.0, pot)
        assert grid.size == 4560
        det_at = _normalized_det(1.0, pot, grid)
        tracemalloc.start()
        try:
            det_at(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * grid.size
