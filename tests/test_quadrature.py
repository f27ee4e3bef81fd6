"""Tests for the composite quadrature grids and the lengths that size
them."""

import math

import numpy as np
import pytest

from sgnspec.bounds import default_strip_grid
from sgnspec.bs import box, gaussian, potential_grid
from sgnspec.errors import ConfigError
from sgnspec.fdop import build_fd
from sgnspec.quadrature import (MAX_GL_NODES, QuadratureGrid,
                                decay_half_length, gauss_legendre_grid,
                                oscillation_panel_width, trapezoid_grid)


class TestGaussLegendre:
    def test_weights_sum_to_length(self):
        g = gauss_legendre_grid(5.0, 0.7)
        assert np.sum(g.weights) == pytest.approx(10.0)

    def test_nodes_sorted_and_interior(self):
        g = gauss_legendre_grid(3.0, 0.5)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > -3.0 and g.nodes[-1] < 3.0

    def test_polynomial_exactness(self):
        # order-10 Gauss rule integrates degree-19 polynomials exactly
        g = gauss_legendre_grid(1.0, 0.4)
        for p in (4, 9, 14):
            val = np.sum(g.weights * g.nodes**p)
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            assert val == pytest.approx(exact, abs=1e-13)

    def test_oscillatory_integral(self):
        k = 40.0
        g = gauss_legendre_grid(1.0, oscillation_panel_width(k * k))
        val = np.sum(g.weights * np.cos(k * g.nodes))
        assert val == pytest.approx(2 * np.sin(k) / k, abs=1e-10)


class TestTrapezoid:
    def test_basic_properties(self):
        g = trapezoid_grid(4.0, 41)
        assert g.size == 41
        assert 0.0 in g.nodes
        assert np.sum(g.weights) == pytest.approx(8.0)

    def test_norm(self):
        g = trapezoid_grid(1.0, 2001)
        # ||1||_{L^2(-1,1)} = sqrt(2)
        assert g.norm(np.ones(g.size)) == pytest.approx(np.sqrt(2.0), rel=1e-6)


class TestSizing:
    def test_panel_width_shrinks_with_re_z(self):
        assert oscillation_panel_width(10000.0) < oscillation_panel_width(100.0)

    def test_half_length_grows_with_re_z(self):
        assert decay_half_length(10000.0) > decay_half_length(100.0)

    def test_grid_validation(self):
        with pytest.raises(Exception):
            QuadratureGrid(nodes=np.array([1.0, 0.0]),
                           weights=np.array([1.0, 1.0]), half_length=1.0)

    @pytest.mark.parametrize("nodes, weights", [
        ([-np.inf, 0.0, 1.0], [1.0, 1.0, 1.0]),
        ([-1.0, 0.0, 1.0], [1.0, np.nan, 1.0]),
        ([-1.0, 0.0, 1.0], [1.0, 1.0])],
        ids=["infinite_node", "nan_weight", "shape_mismatch"])
    def test_grid_rejects_bad_input(self, nodes, weights):
        with pytest.raises(ConfigError):
            QuadratureGrid(nodes=np.array(nodes), weights=np.array(weights),
                           half_length=1.0)


@pytest.mark.parametrize("length", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("build", [
    lambda v: gauss_legendre_grid(v, 1.0),
    lambda v: gauss_legendre_grid(1.0, v),
    lambda v: build_fd(5, v),
    lambda v: gaussian(width=v),
    lambda v: box(1.0, v)],
    ids=["half_length", "panel_width", "build_fd", "gaussian", "box"])
def test_lengths_must_be_finite_and_positive(build, length):
    # a NaN or infinite length once raised a bare ValueError or
    # OverflowError, or gave NaN entries or the answer for |L|
    with pytest.raises(ConfigError, match="finite and positive"):
        build(length)


class TestNodeCap:
    def test_cap_admits_its_own_count(self):
        assert gauss_legendre_grid(1.0, 20.0 / MAX_GL_NODES).size \
            == MAX_GL_NODES

    @pytest.mark.parametrize("build", [
        lambda: gauss_legendre_grid(1.0, 19.999 / MAX_GL_NODES),
        lambda: gauss_legendre_grid(1e308, 1e-308),
        lambda: default_strip_grid(5 + 0.999999j),
        lambda: default_strip_grid(1e6 + 0.5j),
        lambda: potential_grid(1e12 + 0.5j, gaussian())],
        ids=["one_panel_more", "quotient_overflows", "near_the_ray",
             "far_up", "bs_far_up"])
    def test_raises_before_allocating(self, build):
        # these asked for 1.65e9, 4.7e8 and 5.1e7 nodes before the cap
        with pytest.raises(ConfigError, match="MAX_GL_NODES"):
            build()
