"""Two-sided resolvent-norm bounds and quadrature application of the resolvent.

The upper bound comes from the Schur test with the two closed-form row
integrals of the kernel; the lower bound from the explicit exponential
pseudomode supported on the positive half-line.  Outside the closed
half-strip the numerical-range distance bound applies instead.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError
from .kernel import Region, classify_region, principal_sqrt, wave_numbers
from .quadrature import (
    QuadratureGrid,
    decay_half_length,
    gauss_legendre_grid,
    oscillation_panel_width,
)

_EXP_BUDGET = 300.0  # max Re(k) * span handled per scan block


def _strip_wave_numbers(z: complex):
    z = complex(z)
    if abs(z.imag) >= 1.0 or z.real < 0.0:
        raise DomainError(f"z={z} is not inside the half-strip")
    kk = wave_numbers(z)
    return kk.k_plus, kk.k_minus


def _finite_bound(value: float, z: complex) -> float:
    if not math.isfinite(value):
        raise DomainError(f"bound at z={z} is not finite ({value!r})")
    return value


def schur_upper_bound(z: complex) -> float:
    """Schur-test upper bound on the resolvent norm, z inside the strip.

    Maximum of the two closed-form row-integral bounds (x > 0 and x < 0);
    no quadrature involved.  Raises DomainError if the bound overflows.
    """
    kp, km = _strip_wave_numbers(z)
    s = abs(kp + km)
    d = abs(kp - km)
    row_plus = (1.0 / (km.real * s)
                + 1.0 / (2.0 * kp.real * abs(kp))
                + d / (2.0 * kp.real * abs(kp) * s))
    row_minus = (1.0 / (kp.real * s)
                 + 1.0 / (2.0 * km.real * abs(km))
                 + d / (2.0 * km.real * abs(km) * s))
    return _finite_bound(max(row_plus, row_minus), z)


def pseudomode_lower_bound(z: complex) -> float:
    """Lower bound attained by the exponential pseudomode.

    Exact value of the ratio bound: 1 / (2 sqrt(Re k+ Re k-) |k+ + k-|).
    Raises DomainError if the bound overflows.
    """
    z = complex(z)
    if classify_region(z) not in (Region.W, Region.D_PLUS, Region.D_MINUS):
        raise DomainError(f"z={z} outside the pseudomode region")
    kp, km = _strip_wave_numbers(z)
    return _finite_bound(
        1.0 / (2.0 * math.sqrt(kp.real * km.real) * abs(kp + km)), z)


def half_strip_distance(z: complex) -> float:
    """Distance from z to the closed half-strip [0,inf) + i[-1,1]."""
    z = complex(z)
    dy = max(abs(z.imag) - 1.0, 0.0)
    if z.real >= 0.0:
        return dy
    return math.hypot(z.real, dy)


def numrange_bound(z: complex) -> float:
    """Resolvent bound 1/dist(z, S-bar) from m-sectoriality, z outside S-bar."""
    d = half_strip_distance(z)
    if d == 0.0:
        raise DomainError(f"z={z} lies in the closed half-strip")
    return 1.0 / d


# ---------------------------------------------------------------------------
# quadrature application of the resolvent

def _scan_leq(k: complex, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P_i = sum_{j <= i} e^{-k (x_i - x_j)} c_j for increasing x, Re k >= 0.

    Blocked rescaled cumulative sums; block spans are capped so the
    intermediate growing exponential cannot overflow.
    """
    n = x.size
    out = np.empty(n, dtype=complex)
    rate = max(k.real, 0.0)
    span = _EXP_BUDGET / rate if rate > 0.0 else math.inf
    carry = 0.0 + 0.0j
    start = 0
    x_prev = x[0]
    while start < n:
        stop = n if span == math.inf else int(
            np.searchsorted(x, x[start] + span, side="right"))
        stop = max(stop, start + 1)
        xl = x[start:stop] - x[start]
        grow = np.exp(k * xl)
        acc = np.cumsum(c[start:stop] * grow)
        decay = np.exp(-k * xl)
        block = decay * acc
        if start > 0:
            block = block + decay * np.exp(-k * (x[start] - x_prev)) * carry
        out[start:stop] = block
        carry = out[stop - 1]
        x_prev = x[stop - 1]
        start = stop
    return out


def _scan_abs(k: complex, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """S_i = sum_j e^{-k |x_i - x_j|} c_j for increasing x."""
    fwd = _scan_leq(k, x, c)
    bwd = _scan_leq(k, -x[::-1], c[::-1])[::-1]
    return fwd + bwd - c


def apply_resolvent(z: complex, grid: QuadratureGrid,
                    f: np.ndarray) -> np.ndarray:
    """u(x_i) = sum_j w_j R_z(x_i, x_j) f(x_j) on the grid, in O(n).

    Exploits the separable exponential structure of the kernel: the
    |x - y| convolution parts become prefix/suffix scans and the
    remaining terms are rank one.  Matches the dense Nystrom sum to
    rounding.  Accuracy degrades within ~1e-6 of z = +-i where the
    same-sign branch denominator vanishes.
    """
    z = complex(z)
    kk = wave_numbers(z)  # validity: caller keeps z off the rays
    from .kernel import _check_off_spectrum

    _check_off_spectrum(z, 1e-12)
    kp, km = kk.k_plus, kk.k_minus
    s = kp + km
    x = grid.nodes
    c = grid.weights * np.asarray(f, dtype=complex)
    pos = x >= 0.0
    neg = ~pos
    xp, cp = x[pos], c[pos]
    xn, cn = x[neg], c[neg]

    t_pos = complex(np.sum(np.exp(-kp * xp) * cp))
    t_neg = complex(np.sum(np.exp(km * xn) * cn))

    u = np.empty(x.size, dtype=complex)
    if xp.size:
        scan = _scan_abs(kp, xp, cp)
        ep = np.exp(-kp * xp)
        u[pos] = scan / (2.0 * kp) + ep * (
            t_pos * (1.0 / s - 1.0 / (2.0 * kp)) + t_neg / s)
    if xn.size:
        scan = _scan_abs(km, xn, cn)
        em = np.exp(km * xn)
        u[neg] = scan / (2.0 * km) + em * (
            t_neg * (1.0 / s - 1.0 / (2.0 * km)) + t_pos / s)
    return u


def apply_resolvent_at(z: complex, grid: QuadratureGrid, f: np.ndarray,
                       points: np.ndarray) -> np.ndarray:
    """Dense evaluation of the quadrature resolvent at arbitrary points.

    O(len(points) * grid.size); intended for cross-checks on small grids.
    """
    from .kernel import resolvent_kernel_grid

    mat = resolvent_kernel_grid(z, np.asarray(points, dtype=float), grid.nodes)
    return mat @ (grid.weights * np.asarray(f, dtype=complex))


def quadrature_operator_norm(z: complex, grid: QuadratureGrid,
                             max_iter: int = 200, tol: float = 1e-8,
                             seed: int = 0) -> float:
    """Operator norm of the discretized resolvent by power iteration.

    Iterates R R^H on the symmetrically weighted Nystrom operator,
    applying the resolvent in O(n) by apply_resolvent.
    """
    return _power_norm(lambda f: apply_resolvent(z, grid, f), grid,
                       max_iter, tol, seed)


def _power_norm(apply, grid: QuadratureGrid, max_iter: int = 200,
                tol: float = 1e-8, seed: int = 0) -> float:
    """Norm of a discretized integral operator by power iteration.

    apply(f) returns sum_j w_j R(x_i, x_j) f_j for a complex symmetric
    kernel R.  Iterates R R^H on the symmetrically weighted Nystrom
    operator using only such applications (R^H u equals the conjugate
    of R applied to the conjugate of u).
    """
    rng = np.random.default_rng(seed)
    sw = np.sqrt(grid.weights)

    def m_apply(v):
        return sw * apply(v / sw)

    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    v /= np.linalg.norm(v)
    val = 0.0
    for _ in range(max_iter):
        w = np.conj(m_apply(np.conj(m_apply(v))))
        nval = np.linalg.norm(w)
        v = w / nval
        if abs(nval - val) <= tol * nval:
            val = nval
            break
        val = nval
    return math.sqrt(val)


# ---------------------------------------------------------------------------
# pseudomodes

def default_strip_grid(z: complex, decay_tol: float = 1e-8,
                       points_per_wavelength: float = 20.0,
                       breakpoints: tuple[float, ...] = ()) -> QuadratureGrid:
    """Grid resolving both the oscillation and the slow decay at z."""
    half = decay_half_length(z, decay_tol)
    panel = oscillation_panel_width(z, points_per_wavelength)
    return gauss_legendre_grid(half, panel, breakpoints=breakpoints)


def pseudomode_samples(z: complex, grid: QuadratureGrid) -> np.ndarray:
    """The exponential quasi-mode: e^{-conj(k+) x} on x > 0, zero elsewhere."""
    kp = wave_numbers(z).k_plus
    x = grid.nodes
    out = np.zeros(x.size, dtype=complex)
    mask = x > 0.0
    out[mask] = np.exp(-np.conj(kp) * x[mask])
    return out


def regularized_pseudomode_ratio(z: complex, smoothing_scale: float,
                                 grid: QuadratureGrid | None = None,
                                 decay_tol: float = 1e-8) -> float:
    """Pseudomode quality for the smoothed potential.

    The sign potential is replaced on [-a, 0] by the linear interpolant
    i (2x/a + 1); the difference h = i sgn - V is then supported in
    [-a, 0].  Returns ||g0|| / ||(Hsmooth - z) g0|| where g0 is the image
    of the exponential quasi-mode under the unsmoothed resolvent, so that
    (Hsmooth - z) g0 = f0 - h g0.
    """
    z = complex(z)
    a = float(smoothing_scale)
    if a <= 0.0:
        raise DomainError("smoothing scale must be positive")
    if classify_region(z) is not Region.W:
        raise DomainError(f"z={z} outside region W")
    if grid is None:
        grid = default_strip_grid(z, decay_tol, breakpoints=(a,))
    x = grid.nodes
    f0 = pseudomode_samples(z, grid)
    g0 = apply_resolvent(z, grid, f0)
    h = np.zeros(x.size, dtype=complex)
    mask = (x >= -a) & (x < 0.0)
    h[mask] = -1j * (2.0 * x[mask] / a + 2.0)
    residual = f0 - h * g0
    return grid.norm(g0) / grid.norm(residual)
