"""The resolvent kernel of the operator -d2/dx2 + i*sgn(x) at one point.

The kernel is exact arithmetic on the two wave numbers

    k_plus  = sqrt(i - z),    k_minus = sqrt(-i - z)

(principal branch, see closed.principal_sqrt) and is valid off the two
spectral rays [0, inf) +- i.  This module evaluates it, and its
Dirichlet-decoupled variant, at one point (x, y) in the standard library
only, so the kernel command starts without loading NumPy.  On a grid of
nodes the kernel is never formed: bounds._sides builds its O(n)
generators.  The scalar closed forms it rests on are defined in closed;
of them, only the region partition (classify_region) is re-exported
here.
"""

from __future__ import annotations

import cmath
import math

from .closed import (_check_off_spectrum, _coupling, _finite, _result,
                     wave_numbers)
from .closed import classify_region  # re-exported


def _kernel(z: complex, x: float, y: float, coupled: bool) -> complex:
    """The resolvent kernel at (x, y), full or Dirichlet.

    On one side of the origin the kernel is the image-charge difference
    (e^{-k|x-y|} - e^{-k(|x|+|y|)}) / (2k), with k = k_plus for x, y >= 0
    and k = k_minus for x, y <= 0, written as e^{-k|x-y|} (1 - e^{-kd})
    / (2k), d = |x|+|y|-|x-y|.  On one side d = 2 min(|x|, |y|), which is
    exact where the difference would cancel (|x| >> |y|).  The factor is
    -expm1(-kd) / (2k), which keeps its digits as kd -> 0 because
    Re k >= 0.  coupled=True adds the terms that pass through the origin,
    with the coupling c = 1/(k_plus + k_minus) of closed._coupling: the
    tail c e^{-k(|x|+|y|)} on the same side, and
    c e^{-k_plus|u| - k_minus|v|} across it, with u the positive and v the
    negative one of x, y.  At k = 0 (z = +-i) the factor is its limit
    min(|x|, |y|) and the tail is c, so neither 2 min(|x|, |y|) nor
    |x|+|y| is formed there: both may overflow where the kernel does not.
    coupled=False sets c = 0, which gives the Dirichlet-decoupled
    kernel: zero across the origin and on it, returned without
    computing anything, and no tail on one side, where e^{-k(|x|+|y|)}
    is not formed (it may overflow where the kernel does not).  The
    arithmetic is symmetric in x and y, so swapping them returns the
    same bits.  Raises DomainError for a
    non-finite x or y (closed._finite) and where the value is not
    finite (closed._result), which happens only for |x| or |y| near the
    float range.
    """
    z = _check_off_spectrum(z)
    x, y = float(x), float(y)  # NumPy scalars would switch the arithmetic
    _finite(x)
    _finite(y)
    kp, km = wave_numbers(z)
    c = _coupling(kp, km) if coupled else 0.0
    pos = x >= 0.0 and y >= 0.0
    same = pos or (x <= 0.0 and y <= 0.0)
    if not (c or (same and x and y)):  # Dirichlet: across or on the origin
        return 0j
    k = kp if pos else km
    try:
        if same:
            m = min(abs(x), abs(y))
            if k == 0.0:
                core = m
            else:  # -expm1(w) / (2k), expm1 taken apart as NumPy does
                w = -k * (2.0 * m)
                h = math.sin(0.5 * w.imag)
                em1 = complex(
                    math.expm1(w.real) * math.cos(w.imag) - 2.0 * h * h,
                    math.exp(w.real) * math.sin(w.imag))
                core = -em1 / (2.0 * k)
            out = cmath.exp(-k * abs(x - y)) * core
            if c:  # Dirichlet: no tail, whose e^{-k(|x|+|y|)} may overflow
                out += cmath.exp(-k * (abs(x) + abs(y))) * c if k else c
        else:
            u, v = (x, y) if x > 0.0 else (y, x)
            out = cmath.exp(-kp * u + km * v) * c
    except (ArithmeticError, ValueError):
        # k|x| overflows, or turns into a NaN that reaches a division
        out = math.inf
    return _result(out, "kernel at z={}, x={!r}, y={!r}", z, x, y)


def resolvent_kernel(z: complex, x: float, y: float) -> complex:
    """Resolvent kernel R_z(x, y) of -d2/dx2 + i*sgn(x) at one point.

    Raises SpectrumError on the spectral rays (the endpoints +-i are
    admitted with their finite limiting values), and DomainError for a
    non-finite x or y and where |x| or |y| is so close to the float
    range that the value is not finite.
    """
    return _kernel(z, x, y, coupled=True)


def dirichlet_kernel(z: complex, x: float, y: float) -> complex:
    """Kernel of the Dirichlet-decoupled resolvent at one point.

    Zero whenever x and y lie on opposite sides of the origin (the two
    half-lines do not communicate) and on the boundary x = 0 or y = 0.
    Raises as resolvent_kernel does.
    """
    return _kernel(z, x, y, coupled=False)
