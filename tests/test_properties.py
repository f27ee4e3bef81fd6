"""Property tests for the region partition, the bound sandwich, the
scalar kernel against the dense reference and its symmetry, and the
O(n) kernel layer against its dense references, on inputs drawn by
Hypothesis (derandomized, so a run is reproducible)."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _reference import (assemble_k, dense_logdet, dirichlet_bs_hs_norm,
                        dirichlet_sides, kernel_matrix)
from sgnspec.bounds import (_apply, apply_resolvent, pseudomode_lower_bound,
                            schur_upper_bound)
from sgnspec.bs import _normalized_det, box, gaussian, hs_norm
from sgnspec.closed import DEFAULT_TOL_SPEC, Region
from sgnspec.errors import DomainError
from sgnspec.kernel import (classify_region, dirichlet_kernel,
                            resolvent_kernel, spectrum_distance)
from sgnspec.quadrature import gauss_legendre_grid, trapezoid_grid

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
# most of the structure lives within a few units of the origin
near = st.floats(-4.0, 4.0)
points = st.builds(complex, st.one_of(near, finite), st.one_of(near, finite))


def _in_disk(z, centre):
    # the first two tests keep abs() from overflowing far away
    return (abs(z.real) <= 2.0 and abs(z.imag - centre.imag) <= 2.0
            and abs(z - centre) <= 1.5)


@_SETTINGS
@given(points)
def test_classify_region_is_a_partition(z):
    off = spectrum_distance(z) > DEFAULT_TOL_SPEC
    in_plus = _in_disk(z, 1j)
    in_minus = _in_disk(z, -1j)
    strip = z.real >= 0.0 and abs(z.imag) < 1.0
    # the two disks win ties over W and U; the upper half wins their overlap
    member = {
        Region.SPECTRUM: not off,
        Region.D_PLUS: off and in_plus and (not in_minus or z.imag >= 0.0),
        Region.D_MINUS: off and in_minus and (not in_plus or z.imag < 0.0),
        Region.W: off and not (in_plus or in_minus) and strip,
        Region.U: off and not (in_plus or in_minus) and not strip,
    }
    assert sum(member.values()) == 1
    assert member[classify_region(z)]


@_SETTINGS
@given(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e12)),
       st.floats(-0.999, 0.999))
def test_lower_bound_below_upper_bound_in_strip(re, im):
    z = complex(re, im)
    assume(classify_region(z) in (Region.W, Region.D_PLUS, Region.D_MINUS))
    assert pseudomode_lower_bound(z) <= schur_upper_bound(z)


def _off_rays(z):
    """The kernel's domain: off the spectral rays, their endpoints +-i
    included."""
    return (spectrum_distance(z) > DEFAULT_TOL_SPEC
            or min(abs(z - 1j), abs(z + 1j)) <= DEFAULT_TOL_SPEC)


# the plane, the ray endpoints +-i, and points within t^2 of them, where
# |k| = t and |k| (|x| + |y| - |x - y|) crosses 1e-6, below which
# 1 - e^{-kd} formed directly would cancel
kernel_z = st.one_of(
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.sampled_from([1j, -1j]),
    st.builds(lambda s, t, phi: s + t * t * cmath.exp(1j * phi),
              st.sampled_from([1j, -1j]), st.floats(1e-9, 1e-5),
              st.floats(0.0, 2.0 * math.pi)))
# both sides of the origin, and close to it
kernel_x = st.one_of(st.floats(-40.0, 40.0), st.floats(-1e-6, 1e-6))

# the scalar and the dense reference round differently (complex products
# and quotients, exp and expm1), so they may differ by a few ulps of the
# terms they sum: the image term and the term through the origin
_KERNEL_ULPS = 4 * 2.0**-52


@_SETTINGS
@given(kernel_z, st.lists(kernel_x, min_size=1, max_size=6),
       st.lists(kernel_x, min_size=1, max_size=6))
@example(1j, [-9.0], [-9.193305718761432e-07]).via(
    "|x| + |y| - |x - y| once cancelled in the dense reference")
def test_kernel_scalar_matches_grid_and_is_symmetric(z, xs, ys):
    assume(_off_rays(z))
    full = kernel_matrix(z, xs, ys)
    image = kernel_matrix(z, xs, ys, coupled=False)
    scale = np.abs(image) + np.abs(full - image)
    for kernel, ref in ((resolvent_kernel, full), (dirichlet_kernel, image)):
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                val = kernel(z, x, y)
                # an absolute floor only below the normal range
                assert abs(val - ref[i, j]) <= (
                    _KERNEL_ULPS * scale[i, j] + 2.2250738585072014e-308)
                assert val == kernel(z, y, x)
    assert np.array_equal(kernel_matrix(z, ys, xs), full.T)


@_SETTINGS
@given(kernel_z, st.one_of(kernel_x, finite), st.one_of(kernel_x, finite),
       st.booleans())
def test_kernel_is_finite_or_domain_error(z, x, y, coupled):
    # up to the float range the kernel is a finite value, the same with x
    # and y swapped, or DomainError, never a NaN or another exception
    assume(_off_rays(z))
    kernel = resolvent_kernel if coupled else dirichlet_kernel
    try:
        val = kernel(z, x, y)
    except DomainError:
        with pytest.raises(DomainError):
            kernel(z, y, x)
        return
    assert cmath.isfinite(val)
    assert val == kernel(z, y, x)


# ---------------------------------------------------------------------------
# the O(n) kernel layer against the dense Nystrom matrix

_SMALL = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)

# inside and outside the strip, across both disks, the ray endpoints
# +-i, where the kernel stays finite, and far left, where Re k > 140 and
# Re k * L mostly exceeds bounds._EXP_BUDGET: there the scans cross
# several blocks
kernel_points = st.one_of(
    st.sampled_from([1j, -1j]),
    st.builds(complex, st.floats(-6.0, 40.0), st.floats(-3.0, 3.0)).filter(
        lambda z: spectrum_distance(z) > 1e-6),
    st.builds(complex, st.floats(-4e5, -2e4), st.floats(-3.0, 3.0)))


@st.composite
def grids(draw, half_length=None):
    """A small Gauss-Legendre grid, or a trapezoid grid with a node at 0."""
    if half_length is None:
        half_length = draw(st.floats(0.5, 6.0))
    if draw(st.booleans()):
        panels = draw(st.integers(1, 6))
        return gauss_legendre_grid(half_length, half_length / panels)
    return trapezoid_grid(half_length, 2 * draw(st.integers(1, 60)) + 1)


potentials = st.one_of(
    st.builds(gaussian, st.floats(-3.0, 3.0).filter(lambda a: a != 0.0),
              st.floats(0.1, 0.6)),
    st.builds(box, st.floats(-3.0, 3.0).filter(lambda a: a != 0.0),
              st.floats(0.3, 4.0)))


def _dirichlet_apply(z, grid, f):
    c = grid.weights * f
    return _apply(dirichlet_sides(z, grid), c, np.empty_like(c))


_APPLIES = [(apply_resolvent, True), (_dirichlet_apply, False)]


@_SMALL
@given(kernel_points, grids(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense_sum(z, grid, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    wf = grid.weights * f
    for apply, coupled in _APPLIES:
        dense = kernel_matrix(z, grid.nodes, grid.nodes, coupled)
        # the error is measured against the sum of the moduli, so
        # cancelling terms cannot make the test ask for more than rounding
        scale = np.linalg.norm(np.abs(dense) @ np.abs(wf))
        err = np.linalg.norm(apply(z, grid, f) - dense @ wf)
        assert err <= 1e-12 * scale


@st.composite
def potential_and_grid(draw):
    pot = draw(potentials)
    return pot, draw(grids(pot.half_length))


@_SMALL
@given(kernel_points, potential_and_grid())
def test_hs_norms_match_dense(z, pot_grid):
    pot, grid = pot_grid
    full = np.linalg.norm(assemble_k(z, pot, grid))
    dirichlet = np.linalg.norm(
        assemble_k(z, pot, grid, coupled=False))
    assert math.isclose(hs_norm(z, pot, grid), full, rel_tol=1e-12)
    assert math.isclose(dirichlet_bs_hs_norm(z, pot, grid), dirichlet,
                        rel_tol=1e-12)


@_SMALL
@given(kernel_points, potential_and_grid(),
       st.floats(0.05, 2.0), st.booleans())
def test_determinant_matches_dense_lu(z, pot_grid, eps, negative):
    pot, grid = pot_grid
    eps = -eps if negative else eps
    sv = np.linalg.svd(np.eye(grid.size) + eps * assemble_k(z, pot, grid),
                       compute_uv=False)
    # away from a root, where log|det| is well conditioned
    assume(sv[-1] > 1e-6 * sv[0])
    sign, logabs = _normalized_det(eps, pot, grid)(z)
    ref_sign, ref_logabs = dense_logdet(eps, pot, grid, z)
    assert abs(logabs - ref_logabs) <= 1e-9
    assert abs(sign - ref_sign) <= 1e-9
