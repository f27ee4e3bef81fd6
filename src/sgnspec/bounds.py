"""Two-sided resolvent-norm bounds and quadrature application of the resolvent.

The upper bound comes from the Schur test with the two closed-form row
integrals of the kernel; the lower bound from the explicit exponential
pseudomode supported on the positive half-line.  Outside the closed
half-strip the numerical-range distance bound applies instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .kernel import (DEFAULT_TOL_SPEC, Region, _check_off_spectrum,
                     _image_core, classify_region, wave_numbers)
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
    intermediate growing exponential cannot overflow.  Empty x gives an
    empty result.
    """
    n = x.size
    out = np.empty(n, dtype=complex)
    rate = max(k.real, 0.0)
    span = _EXP_BUDGET / rate if rate > 0.0 else math.inf
    start = 0
    while start < n:
        stop = n if x[n - 1] - x[start] <= span else int(
            np.searchsorted(x, x[start] + span, side="right"))
        stop = max(stop, start + 1)
        kx = k * (x[start:stop] - x[start])
        acc = np.cumsum(c[start:stop] * np.exp(kx))
        if start > 0:
            acc = acc + np.exp(-k * (x[start] - x[start - 1])) * out[start - 1]
        out[start:stop] = np.exp(-kx) * acc
        start = stop
    return out


def _half_lines(x: np.ndarray) -> tuple[slice, slice]:
    """Index slices of x >= 0 and of x < 0 for increasing x, each
    ordered by increasing t = |x|."""
    m = int(np.searchsorted(x, 0.0))
    return slice(m, None), (slice(m - 1, None, -1) if m else slice(0, 0))


def _min_scan(k: complex, t: np.ndarray, g: np.ndarray,
              c: np.ndarray) -> np.ndarray:
    """S_i = sum_j e^{-k |t_i - t_j|} g(min(t_i, t_j)) c_j for increasing t.

    The terms with t_j <= t_i are a forward scan of g c; the others are
    g_i times a backward scan of c with its diagonal term removed.
    """
    back = _scan_leq(k, -t[::-1], c[::-1])[::-1]
    return _scan_leq(k, t, g * c) + g * (back - c)


def _image_factor(k: complex, t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(1 - e^{-2kt}) / (2k) for increasing t >= 0, given e = e^{-kt}.

    Formed from e in bulk, and by the cancellation-safe _image_core on
    the prefix where |2kt| < 1, which is all of t at k = 0 (z = +-i).
    """
    if k == 0.0:
        return _image_core(k, 2.0 * t)
    m = int(np.searchsorted(t, 0.5 / abs(k)))
    g = (1.0 - e * e) / (2.0 * k)
    g[:m] = _image_core(k, 2.0 * t[:m])
    return g


def _apply(z: complex, grid: QuadratureGrid, c: np.ndarray,
           coupled: bool = True) -> np.ndarray:
    """u_i = sum_j R_z(x_i, x_j) c_j on the grid in O(n), for weighted c.

    On each half-line, with t = |x| and k = k_plus or k_minus, the
    kernel is the image-charge term e^{-k(t_> - t_<)} (1 - e^{-2k t_<})
    / (2k), one _min_scan.  coupled=True adds the rank-one term through
    the origin, e^{-k t} e^{-k' t'} / (k_plus + k_minus), on the same
    side and across it; coupled=False leaves the Dirichlet-decoupled
    kernel, which also vanishes at a node at 0 (there t = 0).
    """
    z = complex(z)
    _check_off_spectrum(z, DEFAULT_TOL_SPEC)
    kk = wave_numbers(z)
    x = grid.nodes
    u = np.empty(x.size, dtype=complex)
    sides = []
    for side, k in zip(_half_lines(x), (kk.k_plus, kk.k_minus)):
        t = np.abs(x[side])
        e = np.exp(-k * t)
        u[side] = _min_scan(k, t, _image_factor(k, t, e), c[side])
        sides.append((side, e))
    if coupled:
        through = sum(np.dot(e, c[side]) for side, e in sides) / (
            kk.k_plus + kk.k_minus)
        for side, e in sides:
            u[side] += through * e
    return u


def apply_resolvent(z: complex, grid: QuadratureGrid,
                    f: np.ndarray) -> np.ndarray:
    """u(x_i) = sum_j w_j R_z(x_i, x_j) f(x_j) on the grid, in O(n).

    Exploits the separable exponential structure of the kernel (see
    _apply): no kernel matrix is formed.  Matches the dense Nystrom sum
    to rounding, up to and including the ray endpoints z = +-i.
    """
    return _apply(z, grid, grid.weights * np.asarray(f, dtype=complex))


def quadrature_operator_norm(z: complex, grid: QuadratureGrid,
                             max_iter: int = 200, tol: float = 1e-8,
                             seed: int = 0) -> float:
    """Operator norm of the discretized resolvent by power iteration.

    Iterates R R^H on the symmetrically weighted Nystrom operator,
    applying the resolvent in O(n) by the _apply scan.
    """
    return _power_norm(lambda c: _apply(z, grid, c), grid, max_iter, tol,
                       seed)


def _power_norm(apply, grid: QuadratureGrid, max_iter: int = 200,
                tol: float = 1e-8, seed: int = 0) -> float:
    """Norm of a discretized integral operator by power iteration.

    apply(c) returns sum_j R(x_i, x_j) c_j for a weighted vector c and a
    complex symmetric kernel R.  Iterates R R^H on the symmetrically
    weighted Nystrom operator sw_i R(x_i, x_j) sw_j, sw = sqrt(w), using
    only such applications (R^H u equals the conjugate of R applied to
    the conjugate of u).  Nothing is divided by a weight, so zero
    weights are allowed.
    """
    rng = np.random.default_rng(seed)
    sw = np.sqrt(grid.weights)

    def m_apply(v):
        return sw * apply(sw * v)

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
