"""Every public function that takes a complex argument refuses a
non-finite one, and every one that takes a spectral parameter refuses a
point on a spectral ray, with a DomainError: never a number, never
another error type.  A SpectrumError counts, since it is a DomainError.

The spectral parameters pass one gate, closed._off_spectrum; the other
complex arguments (a coupling, a step-model eigenvalue, an FD target, a
panel width's z) pass its finite test, closed._finite.
"""

import math

import numpy as np
import pytest

from sgnspec.bounds import (apply_resolvent, default_strip_grid,
                            numrange_bound, pseudomode_lower_bound,
                            quadrature_operator_norm,
                            regularized_pseudomode_ratio, schur_upper_bound)
from sgnspec.bs import (decomposition_diagnostics, find_eigenvalue, gaussian,
                        hs_norm, l_hs_closed, potential_grid, spectral_radius)
from sgnspec.closed import (delta_eigenvalue, dirichlet_resolvent_norm,
                            step_implicit_residual)
from sgnspec.errors import DomainError, SpectrumError
from sgnspec.fdop import eigenvalue_near, resolvent_norm_fd
from sgnspec.kernel import dirichlet_kernel, resolvent_kernel
from sgnspec.quadrature import (decay_half_length, gauss_legendre_grid,
                                oscillation_panel_width)

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
