"""Property tests for the region partition, the bound sandwich and the
kernel's symmetry, on inputs drawn by Hypothesis (derandomized, so a
run is reproducible)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgnspec.bounds import pseudomode_lower_bound, schur_upper_bound
from sgnspec.kernel import (DEFAULT_TOL_SPEC, Region, classify_region,
                            resolvent_kernel, resolvent_kernel_grid,
                            spectrum_distance)

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


@_SETTINGS
@given(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6),
       st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6))
def test_kernel_scalar_matches_grid_and_is_symmetric(z, xs, ys):
    assume(spectrum_distance(z) > 1e-9)
    grid = resolvent_kernel_grid(z, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            val = resolvent_kernel(z, x, y)
            assert val == grid[i, j]
            assert val == resolvent_kernel(z, y, x)
    assert np.array_equal(resolvent_kernel_grid(z, ys, xs), grid.T)
