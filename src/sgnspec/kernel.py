"""Closed-form spectral quantities of the operator -d2/dx2 + i*sgn(x).

Everything here is exact arithmetic on the two wave numbers

    k_plus  = sqrt(i - z),    k_minus = sqrt(-i - z),

taken with the principal branch of the square root (cut on (-inf, 0],
the cut itself mapping to the positive imaginary axis).  The essential
spectrum consists of the two rays [0, inf) + i and [0, inf) - i; the
resolvent kernel below is valid off those rays.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpectrumError

DEFAULT_TOL_SPEC = 1e-12

# switch to a series for (e^w - 1)/w once |w| is this small
_SERIES_CUTOFF = 1e-6


def principal_sqrt(z: complex) -> complex:
    """Principal square root with a deterministic value on the cut.

    A negative real argument with imaginary part -0.0 would land on the
    lower side of the cut under cmath; we normalize so that the cut maps
    to the positive imaginary axis.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


@dataclass(frozen=True)
class WaveNumbers:
    k_plus: complex
    k_minus: complex
    z: complex


def wave_numbers(z: complex) -> WaveNumbers:
    """Both wave numbers at spectral parameter ``z``."""
    z = complex(z)
    return WaveNumbers(principal_sqrt(1j - z), principal_sqrt(-1j - z), z)


class Region(enum.Enum):
    D_PLUS = "D_PLUS"
    D_MINUS = "D_MINUS"
    U = "U"
    W = "W"
    SPECTRUM = "SPECTRUM"


def ray_distances(z: complex) -> tuple[float, float]:
    """Distances from ``z`` to the rays [0,inf)+i and [0,inf)-i."""
    z = complex(z)
    if z.real >= 0.0:
        return abs(z.imag - 1.0), abs(z.imag + 1.0)
    return math.hypot(z.real, z.imag - 1.0), math.hypot(z.real, z.imag + 1.0)


def spectrum_distance(z: complex) -> float:
    return min(ray_distances(z))


def in_half_strip(z: complex) -> bool:
    """Open half-strip S = [0,inf) + i(-1,1)."""
    z = complex(z)
    return z.real >= 0.0 and abs(z.imag) < 1.0


def classify_region(z: complex, tol_spec: float = DEFAULT_TOL_SPEC) -> Region:
    """Partition tag of the complex plane.

    The two disks |z -+ i| <= 3/2 are closed and win boundary ties over
    W and U; a point within ``tol_spec`` of either spectral ray is
    SPECTRUM regardless.
    """
    if tol_spec <= 0.0:
        raise DomainError("tol_spec must be positive")
    z = complex(z)
    if spectrum_distance(z) <= tol_spec:
        return Region.SPECTRUM
    # both disks lie in this box; outside it abs() could overflow
    near = abs(z.real) <= 1.5 and abs(z.imag) <= 2.5
    in_plus = near and abs(z - 1j) <= 1.5
    in_minus = near and abs(z + 1j) <= 1.5
    if in_plus and in_minus:
        return Region.D_PLUS if z.imag >= 0.0 else Region.D_MINUS
    if in_plus:
        return Region.D_PLUS
    if in_minus:
        return Region.D_MINUS
    if in_half_strip(z):
        return Region.W
    return Region.U


def _check_off_spectrum(z: complex, tol_spec: float) -> None:
    """Reject ray points, except the endpoints +-i where the limit exists."""
    if spectrum_distance(z) <= tol_spec:
        if min(abs(z - 1j), abs(z + 1j)) <= tol_spec:
            return  # kernel stays bounded at the ray endpoints
        raise SpectrumError(f"z={z} lies on the essential spectrum")


def _image_core(k, d: np.ndarray) -> np.ndarray:
    """(1 - e^{-k d}) / (2k) for d >= 0, accurate as k d -> 0.

    A series in w = -k d below the cutoff and expm1 above it, so the
    value stays finite at k = 0 (z = +-i), where it is d / 2.
    """
    w = -k * d
    small = np.abs(w) < _SERIES_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(w) / (2.0 * k)  # NaN where k = 0: small cells
    # the series only on its own cells, so it never sees a large w
    ws = w[small]
    if ws.size:
        out[small] = 0.5 * d[small] * (
            1.0 + ws * (0.5 + ws * (1.0 / 6.0 + ws / 24.0)))
    return out


def _kernel_grid(z: complex, x: np.ndarray, y: np.ndarray, tol_spec: float,
                 coupled: bool) -> np.ndarray:
    """Matrix of the resolvent kernel at (x_i, y_j), full or Dirichlet.

    On one side of the origin the kernel is the image-charge difference
    (e^{-k|x-y|} - e^{-k(|x|+|y|)}) / (2k), with k = k_plus for x, y >= 0
    and k = k_minus for x, y <= 0, written as
    e^{-k|x-y|} _image_core(k, |x|+|y|-|x-y|), so it stays accurate as
    k -> 0.
    coupled=True adds the terms that pass through the origin: the tail
    e^{-k(|x|+|y|)} / (k_plus + k_minus) on the same side, and
    e^{-k_plus|u| - k_minus|v|} / (k_plus + k_minus) across it, with u
    the positive and v the negative one of x, y.  coupled=False drops
    them, which gives the Dirichlet-decoupled kernel: zero across the
    origin and on it.
    """
    z = complex(z)
    _check_off_spectrum(z, tol_spec)
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[None, :]
    kp = principal_sqrt(1j - z)
    km = principal_sqrt(-1j - z)

    if coupled:
        pos = (x >= 0.0) & (y >= 0.0)
        same = pos | ((x <= 0.0) & (y <= 0.0))
    else:
        pos = x > 0.0
        same = x * y > 0.0
    k = np.where(pos, kp, km)  # same-side decay rate (unused on mixed cells)

    a = np.abs(x - y)
    b = np.abs(x) + np.abs(y)
    image = np.exp(-k * a) * _image_core(k, b - a)
    if not coupled:
        return np.where(same, image, 0.0)

    s = kp + km
    e_mixed = np.where(x > 0.0, -kp * np.abs(x) - km * np.abs(y),
                       -km * np.abs(x) - kp * np.abs(y))
    return np.where(same, image + np.exp(-k * b) / s, np.exp(e_mixed) / s)


def resolvent_kernel_grid(
    z: complex,
    x: np.ndarray,
    y: np.ndarray,
    tol_spec: float = DEFAULT_TOL_SPEC,
) -> np.ndarray:
    """Dense matrix R_z(x_i, y_j) of the resolvent kernel.

    Raises SpectrumError on the spectral rays (the endpoints +-i are
    admitted with their finite limiting values).
    """
    return _kernel_grid(z, x, y, tol_spec, coupled=True)


def resolvent_kernel(
    z: complex, x: float, y: float, tol_spec: float = DEFAULT_TOL_SPEC
) -> complex:
    """Resolvent kernel R_z(x, y) of -d2/dx2 + i*sgn(x) at one point."""
    return complex(resolvent_kernel_grid(z, [x], [y], tol_spec)[0, 0])


def dirichlet_kernel_grid(
    z: complex,
    x: np.ndarray,
    y: np.ndarray,
    tol_spec: float = DEFAULT_TOL_SPEC,
) -> np.ndarray:
    """Dense matrix of the kernel of the Dirichlet-decoupled resolvent.

    Zero whenever x and y lie on opposite sides of the origin (the two
    half-lines do not communicate) and on the boundary x = 0 or y = 0.
    """
    return _kernel_grid(z, x, y, tol_spec, coupled=False)


def dirichlet_kernel(
    z: complex, x: float, y: float, tol_spec: float = DEFAULT_TOL_SPEC
) -> complex:
    """Kernel of the Dirichlet-decoupled resolvent at one point."""
    return complex(dirichlet_kernel_grid(z, [x], [y], tol_spec)[0, 0])
