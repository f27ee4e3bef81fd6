"""The three exactly solvable perturbations of the signed-damping operator.

Point interaction at the origin (delta coupling alpha), the step-like
well that cancels the imaginary sign on (-a, a) and digs a real well of
depth b, and the Dirichlet decoupling at zero.  Their closed-form
spectral data (the delta eigenvalue, the exceptional coupling curve, the
step-model eigenvalues and residual, the exact Dirichlet norm) are
defined in closed and re-exported here; this module adds what needs
NumPy: a sampled curve branch and the quadrature checks of the
Dirichlet resolvent, suitable for oracle cross-checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bounds import _apply, _power_norm, _sides
from .bs import _hs_sq, potential_grid
from .closed import DEFAULT_TOL_SPEC, gamma_point, spectrum_distance
from .closed import (all_sigma, delta_eigenvalue,  # re-exported
                     delta_eigenvalue_exists, dirichlet_resolvent_norm,
                     find_step_eigenvalues, step_implicit_residual)
from .errors import SpectrumError


def gamma_branch(sigma: tuple[int, int, int],
                 r_values: Sequence[float]) -> np.ndarray:
    """The branch of the exceptional curve sampled at the given r values."""
    return np.array([gamma_point(r, sigma) for r in r_values])


def dirichlet_quadrature_norm(z: complex, grid) -> float:
    """Operator norm of the discretized Dirichlet resolvent.

    Power iteration on the symmetrically weighted Nystrom operator with
    the O(n) bounds._apply, on generators built once with the coupling
    through the origin off; independent check that the kernel realizes
    the trivial pseudospectrum.  Raises SpectrumError on the spectral rays,
    endpoints +-i included, where the exact norm is infinite, and
    ConvergenceError if the iteration has not settled in 5000 steps.
    """
    z = complex(z)
    if spectrum_distance(z) <= DEFAULT_TOL_SPEC:
        raise SpectrumError(f"z={z} lies on the spectrum")
    # the top singular values of a self-adjoint half cluster, so the
    # iteration is run much tighter than for the strip oracle
    gen = _sides(z, grid.nodes, coupled=False)
    return _power_norm(lambda c: _apply(gen, c), grid, max_iter=5000,
                       tol=1e-13)


def dirichlet_bs_hs_norm(z: complex, pot, grid=None) -> float:
    """Hilbert-Schmidt norm of the Dirichlet Birman-Schwinger operator.

    O(n), the sum of hs_norm with the coupling through the origin off.
    """
    if grid is None:
        grid = potential_grid(z, pot)
    return math.sqrt(_hs_sq(_sides(z, grid.nodes, coupled=False), pot, grid))
