"""Every public function that takes a complex argument refuses a
non-finite one, and every one that takes a spectral parameter refuses a
point on a spectral ray, with a DomainError: never a number, never
another error type.  A SpectrumError counts, since it is a DomainError.

The spectral parameters pass one gate, closed._off_spectrum; the other
complex arguments (a coupling, a step-model eigenvalue, an FD target, a
panel width's z, the z of a region tag, which is SPECTRUM on a ray) pass
its finite test, closed._finite.

Every public real setting of closed, kernel, quadrature, bs and fdop
refuses NaN and +-inf, and a count refuses 3.0 too, with its documented
error: a ConfigError that names the parameter from the one gate for
settings (closed._setting, _positive, _count), a DomainError for a
kernel point x, y (closed._finite) and for the three settings that keep
their own checks (the smoothing scale, the curve parameter r, and the
real parts of a sweep, which become spectral parameters).

Every public function whose number can leave the float range for
finite arguments raises a DomainError there, from the one result gate
(closed._result), whose message says "not finite" and "float range":
never inf or NaN, never a bare Python error, and no NumPy warning ahead
of it.  A spectral parameter far beyond +-i in both parts, where
|z -+ i| overflows, is no bare OverflowError either.  Where only an
intermediate overflowed (lam^2 in the step model's residual), the
result comes back finite.
"""

import math

import numpy as np
import pytest

from _reference import kernel_matrix
from sgnspec.bounds import (apply_resolvent, default_strip_grid,
                            numrange_bound, pseudomode_lower_bound,
                            quadrature_operator_norm,
                            regularized_pseudomode_ratio, schur_upper_bound)
from sgnspec.bs import (box, decomposition_diagnostics, delta_bump,
                        escape_scan, find_eigenvalue, gaussian,
                        hs_growth_rates, hs_norm, l_hs_closed,
                        potential_grid, search_eigenvalues, spectral_radius,
                        weak_coupling_rate)
from sgnspec.closed import (classify_region, delta_eigenvalue,
                            dirichlet_resolvent_norm, find_step_eigenvalues,
                            gamma_point, norm_bounds, ray_distances,
                            spectrum_distance, step_implicit_residual)
from sgnspec.errors import ConfigError, DomainError, SpectrumError
from sgnspec.fdop import (build_fd, eigenvalue_near, resolvent_norm_fd,
                          step_potential)
from sgnspec.kernel import dirichlet_kernel, resolvent_kernel
from sgnspec.quadrature import (decay_half_length, gauss_legendre_grid,
                                oscillation_panel_width, trapezoid_grid)

_GRID = gauss_legendre_grid(10.0, 1.0)
_POT = gaussian()

# (name, call, whether z passes the spectrum gate as well as the finite
# test)
_CALLS = [
    ("schur_upper_bound", schur_upper_bound, True),
    ("pseudomode_lower_bound", pseudomode_lower_bound, True),
    ("numrange_bound", numrange_bound, True),
    ("regularized_pseudomode_ratio",
     lambda z: regularized_pseudomode_ratio(z, 1.0), True),
    ("dirichlet_resolvent_norm", dirichlet_resolvent_norm, True),
    ("classify_region", classify_region, False),
    ("ray_distances", ray_distances, False),
    ("spectrum_distance", spectrum_distance, False),
    ("norm_bounds", norm_bounds, False),
    ("delta_eigenvalue", delta_eigenvalue, False),
    ("step_implicit_residual",
     lambda z: step_implicit_residual(z, 1.0, 3.0), False),
    ("resolvent_kernel", lambda z: resolvent_kernel(z, 0.3, -0.7), True),
    ("dirichlet_kernel", lambda z: dirichlet_kernel(z, 0.3, 0.7), True),
    ("decay_half_length", decay_half_length, True),
    ("oscillation_panel_width", oscillation_panel_width, False),
    ("default_strip_grid", default_strip_grid, True),
    ("apply_resolvent",
     lambda z: apply_resolvent(z, _GRID, np.ones(_GRID.size)), True),
    ("quadrature_operator_norm",
     lambda z: quadrature_operator_norm(z, _GRID), True),
    ("hs_norm", lambda z: hs_norm(z, _POT, _GRID), True),
    ("spectral_radius", lambda z: spectral_radius(z, 0.125, _POT), True),
    ("decomposition_diagnostics",
     lambda z: decomposition_diagnostics(z, _POT), True),
    ("l_hs_closed", lambda z: l_hs_closed(z, _POT), False),
    ("potential_grid", lambda z: potential_grid(z, _POT), True),
    ("find_eigenvalue", lambda z: find_eigenvalue(1.0, _POT, z), True),
    ("resolvent_norm_fd", resolvent_norm_fd, True),
    ("eigenvalue_near", lambda z: eigenvalue_near(z, 2001, 20.0), False),
]

_CASES = [pytest.param(call, z, id=f"{name}-{label}")
          for name, call, gated in _CALLS
          for label, z in [("nan", complex(math.nan)),
                           ("inf", complex(math.inf, 0.5)),
                           ("ray", 5 + 1j)]
          if gated or label != "ray"]


@pytest.mark.parametrize("call, z", _CASES)
def test_raises_domain_error(call, z):
    with pytest.raises(DomainError):
        call(z)


def test_spectrum_error_is_a_domain_error():
    assert issubclass(SpectrumError, DomainError)


# (module.function-parameter, call of one value, the error it raises, a
# substring of its message (the parameter's name), whether it is a count)
_SETTINGS = [
    ("closed.regularized_pseudomode_ratio-smoothing_scale",
     lambda v: regularized_pseudomode_ratio(5 + 0.5j, v), DomainError,
     "smoothing scale", False),
    ("closed.gamma_point-r", lambda v: gamma_point(v, (1, 1, 1)),
     DomainError, None, False),
    ("closed.step_implicit_residual-a",
     lambda v: step_implicit_residual(0.5, v, 3.0), ConfigError,
     "half-width a", False),
    ("closed.step_implicit_residual-b",
     lambda v: step_implicit_residual(0.5, 1.0, v), ConfigError,
     "well depth b", False),
    ("closed.find_step_eigenvalues-a",
     lambda v: find_step_eigenvalues(v, 3.0, 10.0), ConfigError,
     "half-width a", False),
    ("closed.find_step_eigenvalues-b",
     lambda v: find_step_eigenvalues(1.0, v, 10.0), ConfigError,
     "well depth b", False),
    ("kernel.resolvent_kernel-x", lambda v: resolvent_kernel(5 + 0.5j, v, 1.0),
     DomainError, "not finite", False),
    ("kernel.resolvent_kernel-y", lambda v: resolvent_kernel(5 + 0.5j, 1.0, v),
     DomainError, "not finite", False),
    ("kernel.dirichlet_kernel-x", lambda v: dirichlet_kernel(5 + 0.5j, v, 1.0),
     DomainError, "not finite", False),
    ("kernel.dirichlet_kernel-y", lambda v: dirichlet_kernel(5 + 0.5j, 1.0, v),
     DomainError, "not finite", False),
    ("quadrature.gauss_legendre_grid-half_length",
     lambda v: gauss_legendre_grid(v, 1.0), ConfigError, "half_length",
     False),
    ("quadrature.gauss_legendre_grid-panel_width",
     lambda v: gauss_legendre_grid(1.0, v), ConfigError, "panel_width",
     False),
    ("quadrature.trapezoid_grid-half_length",
     lambda v: trapezoid_grid(v, 5), ConfigError, "half_length", False),
    ("quadrature.trapezoid_grid-n", lambda v: trapezoid_grid(5.0, v),
     ConfigError, "n must be an integer", True),
    ("bs.gaussian-amplitude", lambda v: gaussian(v), ConfigError,
     "amplitude", False),
    ("bs.gaussian-width", lambda v: gaussian(-1.0, v), ConfigError, "width",
     False),
    ("bs.box-amplitude", lambda v: box(v, 0.5), ConfigError, "amplitude",
     False),
    ("bs.box-radius", lambda v: box(1.0, v), ConfigError, "radius", False),
    ("bs.delta_bump-alpha", lambda v: delta_bump(v), ConfigError,
     "coupling alpha", False),
    ("bs.delta_bump-radius", lambda v: delta_bump(1.0, v), ConfigError,
     "radius", False),
    ("bs.spectral_radius-eps", lambda v: spectral_radius(10 + 0.5j, v, _POT),
     ConfigError, "eps must be finite", False),
    ("bs.find_eigenvalue-eps", lambda v: find_eigenvalue(v, _POT, -0.7),
     ConfigError, "eps must be finite", False),
    ("bs.search_eigenvalues-eps",
     lambda v: search_eigenvalues(v, _POT, [-0.7]), ConfigError,
     "eps must be finite", False),
    ("bs.weak_coupling_rate-eps_values",
     lambda v: weak_coupling_rate(_POT, (0.5, v, 0.125)), ConfigError,
     "eps must be finite", False),
    ("bs.escape_scan-eps", lambda v: escape_scan(_POT, v, [10.0]),
     ConfigError, "eps must be finite", False),
    ("bs.escape_scan-re_values", lambda v: escape_scan(_POT, 0.125, [v]),
     DomainError, "not finite", False),
    ("bs.hs_growth_rates-re_values",
     lambda v: hs_growth_rates(_POT, [v, 1.0, 2.0]), DomainError,
     "not finite", False),
    ("fdop.step_potential-a", lambda v: step_potential(v, 3.0), ConfigError,
     "half-width a", False),
    ("fdop.step_potential-b", lambda v: step_potential(1.0, v), ConfigError,
     "well depth b", False),
    ("fdop.build_fd-n", lambda v: build_fd(v, 10.0), ConfigError,
     "n must be an integer", True),
    ("fdop.build_fd-half_length", lambda v: build_fd(101, v), ConfigError,
     "half_length", False),
    ("fdop.build_fd-center_jump",
     lambda v: build_fd(101, 10.0, center_jump=v), ConfigError,
     "center_jump must be finite", False),
    ("fdop.resolvent_norm_fd-n", lambda v: resolvent_norm_fd(5 + 0.5j, v),
     ConfigError, "n must be an integer", True),
    ("fdop.eigenvalue_near-n", lambda v: eigenvalue_near(-0.75, v, 20.0),
     ConfigError, "n must be an integer", True),
    ("fdop.eigenvalue_near-half_length",
     lambda v: eigenvalue_near(-0.75, 101, v), ConfigError, "half_length",
     False),
    ("fdop.eigenvalue_near-center_jump",
     lambda v: eigenvalue_near(-0.75, 101, 20.0, center_jump=v),
     ConfigError, "center_jump must be finite", False),
]

_SETTING_CASES = [
    pytest.param(call, value, error, match, id=f"{name}-{label}")
    for name, call, error, match, count in _SETTINGS
    for label, value in [("nan", math.nan), ("inf", math.inf),
                         ("-inf", -math.inf), ("3.0", 3.0)]
    if count or label != "3.0"]


@pytest.mark.parametrize("call, value, error, match", _SETTING_CASES)
def test_setting_raises_its_error(call, value, error, match):
    with pytest.raises(error, match=match) as info:
        call(value)
    assert type(info.value) is error


@pytest.mark.parametrize("call", [
    lambda: build_fd(3, 1e308),  # h = inf: it once came back as the step
    lambda: build_fd(3, 1e200),  # h**2 overflows: once an OverflowError
    lambda: build_fd(3, 1e-300),  # h**2 is 0: once a ZeroDivisionError
    lambda: eigenvalue_near(-0.75, 101, 1e308),  # once returned [1j]
])
def test_fd_step_out_of_the_float_range(call):
    with pytest.raises(ConfigError, match="half_length") as info:
        call()
    assert type(info.value) is ConfigError


_BIG_GRID = trapezoid_grid(10.0, 101)

# (module.function-what overflows, call of finite arguments whose result
# leaves the float range)
_RESULTS = [
    ("closed.schur_upper_bound", lambda: schur_upper_bound(1e308 + 0.5j)),
    ("closed.pseudomode_lower_bound",
     lambda: pseudomode_lower_bound(1e308 + 0.9j)),
    ("closed.numrange_bound", lambda: numrange_bound(-1e-310 + 0.5j)),
    ("closed.regularized_pseudomode_ratio",
     lambda: regularized_pseudomode_ratio(1e200, 1.0)),
    ("closed.delta_eigenvalue-alpha_squared_underflows",
     lambda: delta_eigenvalue(1e-200)),
    ("closed.delta_eigenvalue-alpha_squared_overflows",
     lambda: delta_eigenvalue(1e200)),
    ("closed.delta_eigenvalue-inverse_overflows",
     lambda: delta_eigenvalue(1e-160)),
    ("closed.gamma_point", lambda: gamma_point(1.7e308, (1, 1, 1))),
    # inf came back
    ("closed.ray_distances", lambda: ray_distances(-1.7e308 + 1.7e308j)),
    ("closed.spectrum_distance",
     lambda: spectrum_distance(-1.7e308 - 1.7e308j)),
    # a bare OverflowError from cmath.sin
    ("closed.step_implicit_residual-sinh",
     lambda: step_implicit_residual(-1e300, 1.0, 3.0)),
    ("kernel.resolvent_kernel",
     lambda: resolvent_kernel(5 + 0.5j, 1e308, -1e308)),
    ("kernel.dirichlet_kernel",
     lambda: dirichlet_kernel(5 + 0.5j, -1e308, -1.7e308)),
    # inf and nan entries came back
    ("bounds.apply_resolvent",
     lambda: apply_resolvent(5 + 0.5j, _BIG_GRID, np.full(101, 1e308))),
    # ConvergenceError after 200 steps of NaN
    ("bounds.quadrature_operator_norm",
     lambda: quadrature_operator_norm(5 + 0.5j, trapezoid_grid(1e300, 101))),
    ("bs.hs_norm",
     lambda: hs_norm(25 + 0.5j, gaussian(1e200), _GRID)),
    # inf came back
    ("bs.l_hs_closed", lambda: l_hs_closed(1e308 + 0.5j, gaussian(1e200))),
    ("bs.decomposition_diagnostics",
     lambda: decomposition_diagnostics(25 + 0.5j, gaussian(1e200))),
    ("bs.hs_growth_rates",
     lambda: hs_growth_rates(gaussian(1e200), [25.0, 50.0, 100.0])),
    # inf came back
    ("bs.spectral_radius",
     lambda: spectral_radius(30 + 0.5j, 1e308, gaussian(1e10))),
    # max_radius inf came back
    ("bs.escape_scan", lambda: escape_scan(gaussian(1e10), 1e308, [30.0])),
    # [inf+nanj] came back
    ("fdop.eigenvalue_near",
     lambda: eigenvalue_near(1.7e308 + 1.7e308j, 201, 20.0)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in _RESULTS])
def test_result_out_of_the_float_range_raises(call):
    # the DomainError comes alone: no NumPy warning ahead of it
    with pytest.raises(DomainError, match="float range") as info:
        call()
    assert type(info.value) is DomainError
    assert "not finite" in str(info.value)


# (module.function-what once overflowed, call of finite arguments whose
# result is finite: lam^2 passes the float range, but the step residual
# forms sqrt(lam^2 + 1) without it)
_FINITE = [
    # (-inf+nanj) came back, then a DomainError
    ("closed.step_implicit_residual-lam_squared",
     lambda: [step_implicit_residual(1e200, 1.0, 3.0)]),
    # no roots came back, though each of the 202 brackets holds one, then
    # a DomainError
    ("closed.find_step_eigenvalues-lam_squared",
     lambda: find_step_eigenvalues(1e-80, 1.0, 1e165)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in _FINITE])
def test_finite_past_lam_squared(call):
    values = call()
    assert values and all(np.isfinite(values))


# far from both rays, where |z -+ i| leaves the float range
_CORNER = -1.7e308 + 1.7e308j


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: resolvent_kernel(_CORNER, 0.3, -0.7),
    lambda: dirichlet_kernel(_CORNER, 0.3, 0.7),
    lambda: apply_resolvent(_CORNER, _GRID, np.ones(_GRID.size)),
    lambda: hs_norm(_CORNER, _POT, _GRID),
    lambda: spectral_radius(_CORNER, 0.125, _POT),
    lambda: potential_grid(_CORNER, _POT).half_length,
    lambda: quadrature_operator_norm(_CORNER, _GRID),
], ids=["resolvent_kernel", "dirichlet_kernel", "apply_resolvent", "hs_norm",
        "spectral_radius", "potential_grid", "quadrature_operator_norm"])
def test_spectral_parameter_past_the_float_range_of_i(call):
    # abs(z - 1j) in the gate that admits the ray endpoints once raised
    # a bare OverflowError here
    assert np.isfinite(call()).all()


def test_operator_norm_far_from_both_rays_is_positive():
    # the R R^H iterate underflowed and 0.0 came back; the dense norm,
    # taken on the matrix scaled by a power of two, is representable
    val = quadrature_operator_norm(_CORNER, _GRID)
    assert val > 0.0
    sw = np.sqrt(_GRID.weights)
    dense = kernel_matrix(_CORNER, _GRID.nodes, _GRID.nodes) * 2.0**600
    ref = np.linalg.norm(sw[:, None] * dense * sw, 2) / 2.0**600
    assert val == pytest.approx(ref, rel=1e-7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_radius_whose_products_square_past_the_float_range():
    # the squared norm of a product overflowed: a NumPy warning, then
    # SingularError, though the radius is linear in the amplitude
    val = spectral_radius(30 + 0.5j, 1.0, gaussian(1e200))
    ref = 1e50 * spectral_radius(30 + 0.5j, 1.0, gaussian(1e150))
    assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [None, 201])
def test_fd_oracle_past_the_float_range_of_i(n):
    # a bare OverflowError before; the grid needs infinitely many nodes
    with pytest.raises(ConfigError, match="MAX_ORACLE_NODES") as info:
        resolvent_norm_fd(_CORNER, n)
    assert type(info.value) is ConfigError


@pytest.mark.parametrize("lam_max", [math.nan, math.inf])
def test_step_eigenvalues_lam_max(lam_max):
    # no bracket count below a NaN or infinite lam_max; at -inf the
    # answer is the empty list, which is correct
    with pytest.raises(ConfigError, match="brackets"):
        find_step_eigenvalues(1.0, 3.0, lam_max)
    assert find_step_eigenvalues(1.0, 3.0, -math.inf) == []
