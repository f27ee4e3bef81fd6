"""Quadrature application of the resolvent.

The two-sided norm bounds are closed forms and are defined in closed:
the Schur-test upper bound from the two row integrals of the kernel,
the lower bound from the explicit exponential pseudomode supported on
the positive half-line, outside the closed half-strip the numerical-range
bound, and the smoothed pseudomode's ratio.  They are re-exported here.

This module holds the O(n) layer of the resolvent kernel.  The
kernel is the Green's function psi_-(x_<) psi_+(x_>) / (k_plus +
k_minus); on each half-line it has the generators (k, t = |x|,
e = e^{-kt}, g = (1 - e^{-2kt}) / (2k)) plus the coupling
1 / (k_plus + k_minus) through the origin.  _sides builds them once per
(z, grid), with each half-line's scan blocks: the block-relative decay
d and the scalar carries between blocks (_blocks), from one complex exp
pass per half-line, and g from one expm1 pass.  The apply here and the
Birman-Schwinger HS norm and determinant in bs all read them, so no
other O(n) path builds its own, and the scans (_min_scan) only multiply
and sum.  The sides do not depend on the coupling, so the same sides
with the coupling 0 generate the Dirichlet-decoupled kernel, whose
Nystrom checks are test references.  The two half-lines are independent
jobs: on grids of at least pair._MIN_NODES nodes _sides builds them,
and _apply scans them, side by side on two threads (pair._both), with
the same bits as one after the other.  quadrature_operator_norm is the
one power iteration of the package.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .closed import _check_off_spectrum, wave_numbers
from .closed import (numrange_bound, pseudomode_lower_bound,  # re-exported
                     regularized_pseudomode_ratio, schur_upper_bound)
from .errors import ConfigError, ConvergenceError, DomainError
from .pair import _both
from .quadrature import (
    QuadratureGrid,
    decay_half_length,
    gauss_legendre_grid,
    oscillation_panel_width,
)

# max Re(k) * span of one scan block.  The modulus of the block decay d
# of _blocks is taken from the block's midpoint, so d and 1/d lie within
# e^{+-150} and the HS sum's squared moduli within e^{+-300}: the scanned
# terms keep a factor e^409 of headroom to the float overflow at e^709
# and to the underflow at e^-708
_EXP_BUDGET = 300.0


# ---------------------------------------------------------------------------
# quadrature application of the resolvent

def _half_lines(x: np.ndarray) -> tuple[slice, slice]:
    """Index slices of x >= 0 and of x < 0 for increasing x, each
    ordered by increasing t = |x|."""
    m = int(x.searchsorted(0.0))
    return slice(m, None), (slice(m - 1, None, -1) if m else slice(0, 0))


def _blocks(k: complex, t: np.ndarray):
    """Scan blocks of the increasing t at the decay rate Re k >= 0.

    Returns (e, d, blocks).  A block spans at most _EXP_BUDGET / Re k of
    t.  Its decay d = s e^{-k(t - r)}, with s = e^{Re k (t_m - r)}, takes
    the phase from the reference r (the origin on a first block that
    starts within half a span of it, else the block's first node) and
    the modulus from the midpoint t_m, so d and 1/d stay within
    e^{+-_EXP_BUDGET/2} and d_i / d_j = e^{-k(t_i - t_j)}.  Per block
    (start, stop, p, q), the carries p = e^{-k(r - t_{start-1})} / s and
    q = s e^{-k(t_stop - r)} bring in the previous and the next block (0
    where there is none).  e = e^{-kt} is e^{-k(t - r)} e^{-kr}, where
    r = 0 the direct exp.  One complex exp pass over t.
    """
    rate = max(k.real, 0.0)
    span = _EXP_BUDGET / rate if rate > 0.0 else math.inf
    n = t.size
    e = t * -k  # -k(t - r), made e^{-k(t - r)} below
    refs = []  # (start, stop, r, s) per block
    start = 0
    while start < n:
        stop = n if t[n - 1] - t[start] <= span else max(start + 1, int(
            np.searchsorted(t, t[start] + span, side="right")))
        r = t[start] if start or t[0] > 0.5 * span else 0.0
        if r:
            e[start:stop] = (t[start:stop] - r) * -k
        s = math.exp(rate * (0.5 * (t[start] + t[stop - 1]) - r))
        refs.append((start, stop, r, s))
        start = stop
    np.exp(e, out=e)
    d = np.empty_like(e)
    blocks = []
    for start, stop, r, s in refs:
        np.multiply(e[start:stop], s, out=d[start:stop])
        if r:
            e[start:stop] *= cmath.exp(-k * r)
        blocks.append((start, stop,
                       cmath.exp(-k * (r - t[start - 1])) / s if start else 0j,
                       s * cmath.exp(-k * (t[stop] - r)) if stop < n else 0j))
    return e, d, blocks


def _min_scan(d: np.ndarray, blocks, g: np.ndarray, c: np.ndarray,
              out: np.ndarray | None) -> np.ndarray:
    """S_i = sum_j e^{-k |t_i - t_j|} g(min(t_i, t_j)) c_j for increasing t,
    from the block decay d and the blocks (start, stop, p, q) of _blocks.

    The terms with t_j <= t_i are the forward scan d cumsum(g c / d); the
    others are g_i times the backward scan (reversed cumsum of d c) / d
    with its diagonal term removed.  The carries p and q bring in the
    neighbouring blocks' end values.  Only multiplies and sums: the
    exponentials are in d, p and q.  The arithmetic follows the dtype of
    the inputs, so the HS sum scans real squared moduli at rate 2 Re k.
    S is written to out, which may be a strided view, or to a new array
    when out is None.
    """
    fwd = g * c
    back = np.multiply(d, c, out=out)
    for start, stop, p, _ in blocks:
        f = fwd[start:stop]
        f /= d[start:stop]
        np.cumsum(f, out=f)
        if start:
            f += p * fwd[start - 1]
        f *= d[start:stop]
    for start, stop, _, q in reversed(blocks):
        b = back[start:stop]
        np.cumsum(b[::-1], out=b[::-1])
        if stop < back.size:
            b += q * back[stop]
        b /= d[start:stop]
    back -= c
    back *= g
    back += fwd
    return back


def _image_factor(k: complex, t: np.ndarray) -> np.ndarray:
    """(1 - e^{-2kt}) / (2k) for t >= 0, as expm1(-2kt) / (-2k), in one
    array (-a / b equals a / -b exactly).

    Re k >= 0, so expm1 keeps its digits as kt -> 0; at k = 0 (z = +-i)
    the factor is its limit t.
    """
    if k == 0.0:
        return t.astype(complex)
    g = -2.0 * k * t
    np.expm1(g, out=g)
    g /= -2.0 * k
    return g


def _sides(z: complex, x: np.ndarray):
    """The kernel's generators at z on the increasing nodes x, in O(n).

    Returns (c, sides): per half-line (x >= 0 with k = k_plus, then
    x < 0 with k = k_minus) the tuple (side, k, e, g, d, blocks) of the
    index slice, e = e^{-kt} with t = |x| increasing, the image factor
    g = (1 - e^{-2kt}) / (2k), and the scan blocks of _blocks (block
    decay d, per-block carries); and the coupling c = 1/(k_plus +
    k_minus) through the origin.  The sides do not depend on c, so
    (0.0, sides) generates the Dirichlet-decoupled kernel.  On one side
    the kernel is
    e^{-k(t_> - t_<)} g(t_<) + c e_i e_j, across it c e_i e_j: every
    O(n) quantity of the kernel reads these, and the scans on them call
    no exp.  The two half-lines are built side by side on large grids
    (pair._both).  Raises DomainError for a non-finite z and
    SpectrumError on the spectral rays, except at their endpoints +-i
    (closed._check_off_spectrum).
    """
    z = _check_off_spectrum(z)
    kk = wave_numbers(z)

    def side_at(side, k):
        t = np.abs(x[side])
        e, d, blocks = _blocks(k, t)
        return side, k, e, _image_factor(k, t), d, blocks

    plus, minus = _half_lines(x)
    sides = _both(x.size, lambda: side_at(plus, kk.k_plus),
                  lambda: side_at(minus, kk.k_minus))
    return 1.0 / (kk.k_plus + kk.k_minus), sides


def _apply(gen, c: np.ndarray) -> np.ndarray:
    """u_i = sum_j R(x_i, x_j) c_j in O(n), for weighted c and the
    generators gen of R: _sides(z, x), or (0.0, _sides(z, x)[1]) for the
    Dirichlet kernel.

    Per half-line the image-charge term e^{-k(t_> - t_<)} g(t_<) is one
    _min_scan; the rank-one term through the origin adds coupling *
    e_i (sum_j e_j c_j), on the same side and across it.  It vanishes
    for the Dirichlet kernel (coupling 0), which is then also zero at a
    node at 0 (there t = 0 and g = 0).  The rank-one weight depends on c
    only, so it comes first, and then each half-line scans into its own
    slice of u, side by side on large grids (pair._both).
    """
    coupling, sides = gen
    through = coupling * sum(np.dot(e, c[side]) for side, _, e, *_ in sides)
    u = np.empty(c.size, dtype=complex)

    def side_of_u(side, k, e, g, d, blocks):
        us = u[side]
        _min_scan(d, blocks, g, c[side], us)
        us += through * e

    plus, minus = sides
    _both(c.size, lambda: side_of_u(*plus), lambda: side_of_u(*minus))
    return u


def apply_resolvent(z: complex, grid: QuadratureGrid,
                    f: np.ndarray) -> np.ndarray:
    """u(x_i) = sum_j w_j R_z(x_i, x_j) f(x_j) on the grid, in O(n).

    Exploits the separable exponential structure of the kernel (see
    _apply): no kernel matrix is formed.  Matches the dense Nystrom sum
    to rounding, up to and including the ray endpoints z = +-i.  Raises
    ConfigError unless f has one value per node, and DomainError if f
    is not finite.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != grid.nodes.shape:
        raise ConfigError(f"f has shape {f.shape}, not the grid's "
                          f"{grid.nodes.shape}")
    if not np.isfinite(f).all():
        raise DomainError("f is not finite")
    return _apply(_sides(z, grid.nodes), grid.weights * f)


def quadrature_operator_norm(z: complex, grid: QuadratureGrid) -> float:
    """Operator norm of the discretized resolvent by power iteration.

    Iterates R R^H on the symmetrically weighted Nystrom operator
    sw_i R(x_i, x_j) sw_j, sw = sqrt(w), applying R in O(n) by the
    _apply scan on generators prepared once (R is complex symmetric, so
    R^H u is the conjugate of R applied to the conjugate of u).  Nothing
    is divided by a weight, so zero weights are allowed.  Raises
    ConvergenceError if the estimate has not settled to 1e-8 relative
    within 200 steps.  The start vector is fixed, so repeated calls
    return the same bits.
    """
    gen = _sides(z, grid.nodes)
    sw = np.sqrt(grid.weights)

    def m_apply(v):
        u = _apply(gen, sw * v)
        u *= sw
        return u

    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    v /= np.linalg.norm(v)
    val = 0.0
    for _ in range(200):
        u = m_apply(v)
        w = m_apply(np.conj(u, out=u))
        np.conj(w, out=w)
        nval = np.linalg.norm(w)
        w /= nval
        v = w
        if abs(nval - val) <= 1e-8 * nval:
            return math.sqrt(nval)
        val = nval
    raise ConvergenceError("power iteration not settled to 1e-08 in 200 steps")


def default_strip_grid(z: complex) -> QuadratureGrid:
    """Grid resolving both the oscillation and the slow decay at z."""
    return gauss_legendre_grid(decay_half_length(z),
                               oscillation_panel_width(z))
