"""The three exactly solvable perturbations of the signed-damping operator.

Point interaction at the origin (delta coupling alpha), the step-like
well that cancels the imaginary sign on (-a, a) and digs a real well of
depth b, and the Dirichlet decoupling at zero.  Each comes with its
closed-form spectral data, suitable for oracle cross-checks.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, SpectrumError, ZeroCouplingError
from .bounds import _apply, _power_norm
from .kernel import DEFAULT_TOL_SPEC, ray_distances, spectrum_distance

# ---------------------------------------------------------------------------
# point interaction

def delta_eigenvalue(alpha: complex) -> complex:
    """The candidate discrete eigenvalue 1/alpha^2 - alpha^2/4.

    This value is an eigenvalue of the point-interaction operator
    exactly when it avoids the essential spectrum; see
    delta_eigenvalue_exists.  For real nonzero alpha it always exists
    and is real, diverging like alpha^{-2} as the coupling vanishes.
    """
    alpha = complex(alpha)
    if alpha == 0.0:
        raise ZeroCouplingError("point interaction needs alpha != 0")
    return 1.0 / alpha**2 - alpha**2 / 4.0


def delta_eigenvalue_exists(alpha: complex, tol: float = 1e-12) -> bool:
    """Whether the candidate value lies off the essential spectrum rays."""
    return spectrum_distance(delta_eigenvalue(alpha)) > tol


def gamma_point(r: float, sigma: tuple[int, int, int]) -> complex:
    """One point of the exceptional coupling curve.

    alpha = s1 sqrt(-2(r + i s2) + 2 s3 sqrt(r (r + 2 i s2))), r >= 0.
    Couplings on this curve push the candidate eigenvalue onto the
    essential spectrum, so the point interaction has no eigenvalue there.
    """
    if r < 0.0:
        raise DomainError("curve parameter r must be nonnegative")
    s1, s2, s3 = sigma
    if not all(s in (-1, 1) for s in (s1, s2, s3)):
        raise ConfigError("sigma entries must be +-1")
    inner = cmath.sqrt(r * (r + 2j * s2))
    return s1 * cmath.sqrt(-2.0 * (r + 1j * s2) + 2.0 * s3 * inner)


def gamma_branch(sigma: tuple[int, int, int],
                 r_values: Sequence[float]) -> np.ndarray:
    """The branch of the exceptional curve sampled at the given r values."""
    return np.array([gamma_point(r, sigma) for r in r_values])


def all_sigma() -> list[tuple[int, int, int]]:
    """The eight sign triples labelling the branches of the curve."""
    return [(s1, s2, s3)
            for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)]


# ---------------------------------------------------------------------------
# step-like potential

def step_implicit_residual(lam: complex, a: float, b: complex) -> complex:
    """Residual of the eigenvalue equation for the step-like model.

    [sqrt(lam^2+1) - lam - b] sin(2a s)/s - i(sqrt(lam+i) - sqrt(lam-i)) cos(2a s)
    with s = sqrt(lam + b) (principal branch).  Vanishes exactly at the
    eigenvalues with |Im lam| < 1.  The principal square root continues
    the formula analytically through lam + b < 0, where sin/cos become
    sinh/cosh automatically.
    """
    lam = complex(lam)
    if abs(lam.imag) >= 1.0:
        raise DomainError("the residual form is valid only for |Im lam| < 1")
    if a <= 0.0:
        raise ConfigError("half-width a must be positive")
    s = cmath.sqrt(lam + b)
    w = 2.0 * a * s
    if abs(w) < 1e-8:
        sinc = 2.0 * a * (1.0 - w * w / 6.0)
    else:
        sinc = cmath.sin(w) / s
    jump = cmath.sqrt(lam + 1j) - cmath.sqrt(lam - 1j)
    return ((cmath.sqrt(lam * lam + 1.0) - lam - b) * sinc
            - 1j * jump * cmath.cos(w))


def _cot_gap(lam: float, a: float, b: float) -> float:
    """cot(2a sqrt(lam+b)) minus its value forced by the eigenvalue equation.

    Real-eigenvalue rewrite of the implicit equation for lam > -b:
    cot(2a s) = -(sqrt(lam^2+1) - (lam+b)) / (2 s Im sqrt(lam+i)).
    Monotone decreasing from +inf to -inf between consecutive branch
    points of the cotangent, so each interval holds exactly one root.
    """
    s = math.sqrt(lam + b)
    rhs = -(math.sqrt(lam * lam + 1.0) - (lam + b)) / (
        2.0 * s * cmath.sqrt(lam + 1j).imag)
    return 1.0 / math.tan(2.0 * a * s) - rhs


def find_step_eigenvalues(a: float, b: float, lam_max: float,
                          tol: float = 1e-12) -> np.ndarray:
    """All real eigenvalues of the step model in (-b, lam_max].

    Brackets one root between consecutive zeros of sin(2a sqrt(lam+b))
    at lam_k = (k pi / (2a))^2 - b and bisects the cotangent gap.
    """
    if a <= 0.0:
        raise ConfigError("half-width a must be positive")
    b = float(b)
    if lam_max <= -b:
        return np.array([])
    roots = []
    k = 0
    while True:
        lo = (k * math.pi / (2.0 * a)) ** 2 - b
        hi = ((k + 1) * math.pi / (2.0 * a)) ** 2 - b
        if lo > lam_max:
            break
        k += 1
        # nudge off the cotangent poles
        pad = 1e-9 * max(1.0, hi - lo)
        lo_n, hi_n = lo + pad, hi - pad
        if _cot_gap(lo_n, a, b) < 0.0 or _cot_gap(hi_n, a, b) > 0.0:
            continue  # root squeezed into the pad; negligible interval
        while hi_n - lo_n > tol:
            mid = 0.5 * (lo_n + hi_n)
            if _cot_gap(mid, a, b) > 0.0:
                lo_n = mid
            else:
                hi_n = mid
        lam = 0.5 * (lo_n + hi_n)
        if lam <= lam_max:
            roots.append(lam)
    return np.array(roots)


# ---------------------------------------------------------------------------
# Dirichlet decoupling

def dirichlet_resolvent_norm(z: complex) -> float:
    """Exact resolvent norm of the Dirichlet-decoupled operator.

    The operator splits into two shifted self-adjoint halves, so the
    norm is the reciprocal distance to the nearer spectral ray:
    max(1/dist(z, i + [0, inf)), 1/dist(z, -i + [0, inf))).
    """
    d_plus, d_minus = ray_distances(z)
    d = min(d_plus, d_minus)
    if d == 0.0:
        raise SpectrumError(f"z={z} lies on the spectrum")
    return 1.0 / d


def dirichlet_quadrature_norm(z: complex, grid) -> float:
    """Operator norm of the discretized Dirichlet resolvent.

    Power iteration on the symmetrically weighted Nystrom operator with
    the O(n) bounds._apply, its coupling through the origin off;
    independent check that the kernel realizes the trivial
    pseudospectrum.  Raises SpectrumError on the spectral rays,
    endpoints +-i included, where the exact norm is infinite.
    """
    z = complex(z)
    if spectrum_distance(z) <= DEFAULT_TOL_SPEC:
        raise SpectrumError(f"z={z} lies on the spectrum")
    # the top singular values of a self-adjoint half cluster, so the
    # iteration is run much tighter than for the strip oracle
    return _power_norm(lambda c: _apply(z, grid, c, coupled=False), grid,
                       max_iter=5000, tol=1e-13)


def dirichlet_bs_hs_norm(z: complex, pot, grid=None) -> float:
    """Hilbert-Schmidt norm of the Dirichlet Birman-Schwinger operator.

    O(n), the sum of hs_norm with the coupling through the origin off.
    """
    from .bs import _hs_sq, potential_grid

    if grid is None:
        grid = potential_grid(z, pot)
    return math.sqrt(_hs_sq(z, pot, grid, coupled=False))
