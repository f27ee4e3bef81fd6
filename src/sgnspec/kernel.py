"""The resolvent kernel of the operator -d2/dx2 + i*sgn(x) on grids.

The kernel is exact arithmetic on the two wave numbers

    k_plus  = sqrt(i - z),    k_minus = sqrt(-i - z)

(principal branch, see closed.principal_sqrt) and is valid off the two
spectral rays [0, inf) +- i.  This module evaluates it, and its
Dirichlet-decoupled variant, as dense NumPy matrices; the scalar kernel
is the 1x1 matrix, so both agree bitwise.  The scalar closed forms it
rests on (wave numbers, ray distances, the region partition) are defined
in closed and re-exported here.
"""

from __future__ import annotations

import numpy as np

from .closed import _check_off_spectrum, principal_sqrt
from .closed import (DEFAULT_TOL_SPEC, Region, WaveNumbers,  # re-exported
                     classify_region, in_half_strip, ray_distances,
                     spectrum_distance, wave_numbers)
from .errors import DomainError

# switch to a series for (e^w - 1)/w once |w| is this small
_SERIES_CUTOFF = 1e-6


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


def _kernel_grid(z: complex, x: np.ndarray, y: np.ndarray,
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
    origin and on it.  Raises DomainError where a value is not finite,
    which happens only for |x| or |y| near the float range.
    """
    z = complex(z)
    _check_off_spectrum(z)
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

    # at |x|, |y| near the float range k|x| overflows; the check below
    # turns the NaN that follows into an error, so the warnings are muted
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(x - y)
        b = np.abs(x) + np.abs(y)
        image = np.exp(-k * a) * _image_core(k, b - a)
        if coupled:
            s = kp + km
            e_mixed = np.where(x > 0.0, -kp * np.abs(x) - km * np.abs(y),
                               -km * np.abs(x) - kp * np.abs(y))
            out = np.where(same, image + np.exp(-k * b) / s,
                           np.exp(e_mixed) / s)
        else:
            out = np.where(same, image, 0.0)
    if not np.isfinite(out).all():
        raise DomainError(f"kernel at z={z} is not finite on these nodes")
    return out


def resolvent_kernel_grid(z: complex, x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
    """Dense matrix R_z(x_i, y_j) of the resolvent kernel.

    Raises SpectrumError on the spectral rays (the endpoints +-i are
    admitted with their finite limiting values), and DomainError where
    |x| or |y| is so close to the float range that a value is not finite.
    """
    return _kernel_grid(z, x, y, coupled=True)


def resolvent_kernel(z: complex, x: float, y: float) -> complex:
    """Resolvent kernel R_z(x, y) of -d2/dx2 + i*sgn(x) at one point."""
    return complex(resolvent_kernel_grid(z, [x], [y])[0, 0])


def dirichlet_kernel_grid(z: complex, x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
    """Dense matrix of the kernel of the Dirichlet-decoupled resolvent.

    Zero whenever x and y lie on opposite sides of the origin (the two
    half-lines do not communicate) and on the boundary x = 0 or y = 0.
    """
    return _kernel_grid(z, x, y, coupled=False)


def dirichlet_kernel(z: complex, x: float, y: float) -> complex:
    """Kernel of the Dirichlet-decoupled resolvent at one point."""
    return complex(dirichlet_kernel_grid(z, [x], [y])[0, 0])
