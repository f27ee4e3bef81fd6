"""Quadrature application of the resolvent.

The two-sided norm bounds are closed forms and are defined in closed:
the Schur-test upper bound from the two row integrals of the kernel,
the lower bound from the explicit exponential pseudomode supported on
the positive half-line, outside the closed half-strip the numerical-range
bound, and the smoothed pseudomode's ratio.  They are re-exported here.

This module holds the O(n) layer of the resolvent kernel.  The
kernel is the Green's function c psi_-(x_<) psi_+(x_>), with the
coupling c = 1 / (k_plus + k_minus) of closed._coupling; on each
half-line, with t = |x|, it is e^{-k(t_> - t_<)} g(t_<) + c e_i e_j,
g = (1 - e^{-2kt}) / (2k) and e = e^{-kt}, plus c e_i e_j across the
origin.  _sides builds its generators once per (z, grid), in one
divide-free format: per half-line the block-relative decay d of the
scan blocks (_blocks), the image factor as a = g / d, and per block
the scalar carries and e0 with e = e0 d, from one complex exp and one
expm1 pass per half-line.  That is two complex n-vectors, 32 bytes per
node.  This module is the format's one reader: the apply (_apply) and
the Birman-Schwinger HS sum (_hs_sq, which bs.hs_norm calls) form
g = a d and e from d where they need them, no other module unpacks the
sides or their blocks, and the scans (_min_scan) only multiply and
sum, in place.  Scaling a and d by real weights scales the kernel on
both sides, which is how quadrature_operator_norm, the one power
iteration of the package, folds in the square roots of the quadrature
weights.  The sides do not depend on the coupling, so the same sides
with the coupling 0 generate the Dirichlet-decoupled kernel, whose
Nystrom checks are test references.  The two half-lines are
independent jobs: on grids of at least pair._MIN_NODES nodes _sides
builds them, and _apply scans them, side by side on two threads
(pair._both), with the same bits as one after the other.  The kernel's
diagonal, which the Birman-Schwinger determinant needs pointwise, is
_diagonal.  apply_resolvent and each power iterate of
quadrature_operator_norm pass closed's result gate (closed._result),
under np.errstate(all="ignore") for the whole call, so an overflow
reaches the gate without a NumPy warning; _apply itself, run once per
product, sets no error state.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .closed import _check_off_spectrum, _coupling, _result, wave_numbers
from .closed import (numrange_bound, pseudomode_lower_bound,  # re-exported
                     regularized_pseudomode_ratio, schur_upper_bound)
from .errors import ConfigError, ConvergenceError, DomainError
from .krylov import _start_vector
from .pair import _both
from .quadrature import (
    QuadratureGrid,
    decay_half_length,
    gauss_legendre_grid,
    oscillation_panel_width,
)

# max Re(k) * span of one scan block.  The modulus of the block decay d
# of _blocks is taken from the block's midpoint, so d and a / g = 1/d
# lie within e^{+-150} and the HS sum's squared moduli within e^{+-300}:
# the scanned terms keep a factor e^409 of headroom to the float
# overflow at e^709 and to the underflow at e^-708
_EXP_BUDGET = 300.0

# the smallest normal float
_TINY = float(np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# quadrature application of the resolvent

def _half_lines(x: np.ndarray) -> tuple[slice, slice]:
    """Index slices of x >= 0 and of x < 0 for increasing x, each
    ordered by increasing t = |x|."""
    m = int(x.searchsorted(0.0))
    return slice(m, None), (slice(m - 1, None, -1) if m else slice(0, 0))


def _blocks(k: complex, t: np.ndarray):
    """Scan blocks of the increasing t at the decay rate Re k >= 0.

    Returns (d, blocks).  A block spans at most _EXP_BUDGET / Re k of
    t.  Its decay d = s e^{-k(t - r)}, with s = e^{Re k (t_m - r)},
    takes the phase from the reference r (the origin on a first block
    that starts within half a span of it, else the block's first node)
    and the modulus from the midpoint t_m, so d and 1/d stay within
    e^{+-_EXP_BUDGET/2} and d_i / d_j = e^{-k(t_i - t_j)}.  Per block
    (start, stop, p, q, e0): the carries
    p = d_{start-1} e^{-k(r - t_{start-1})} / s and
    q = s e^{-k(t_stop - r)} / d_stop take a scan's sum at the previous
    block's last and the next block's first node into this block's
    cumsum domain (0 where there is none), and e0 = e^{-kr} / s gives
    e = e^{-kt} = e0 d on the block.  One complex exp pass over t.
    """
    rate = max(k.real, 0.0)
    span = _EXP_BUDGET / rate if rate > 0.0 else math.inf
    n = t.size
    refs = []  # (start, stop, r, s) per block
    start = 0
    while start < n:
        stop = n if t[n - 1] - t[start] <= span else max(start + 1, int(
            np.searchsorted(t, t[start] + span, side="right")))
        r = t[start] if start or t[0] > 0.5 * span else 0.0
        s = math.exp(rate * (0.5 * (t[start] + t[stop - 1]) - r))
        refs.append((start, stop, r, s))
        start = stop
    d = np.empty(n, dtype=complex)
    blocks = []
    for i, (start, stop, r, s) in enumerate(refs):
        block = d[start:stop]
        np.multiply(t[start:stop] - r if r else t[start:stop], -k, out=block)
        np.exp(block, out=block)
        block *= s
        p = (complex(d[start - 1]) * cmath.exp(-k * (r - t[start - 1])) / s
             if start else 0j)
        q = (s * cmath.exp(-k * (t[stop] - r)) / refs[i + 1][3]
             if stop < n else 0j)
        blocks.append((start, stop, p, q, cmath.exp(-k * r) / s))
    return d, blocks


def _min_scan(d: np.ndarray, blocks, a: np.ndarray, c: np.ndarray,
              out: np.ndarray, lift: complex) -> np.ndarray:
    """S_i = sum_j e^{-k |t_i - t_j|} g(min(t_i, t_j)) c_j + lift e_i for
    increasing t, from the generators a = g / d and d of one half-line
    and the blocks (start, stop, p, q, e0) of _blocks.

    With d_i / d_j = e^{-k(t_i - t_j)} on a block, the terms with
    t_j <= t_i are d_i F_i, F the cumsum of a c, and the others a_i E_i,
    E the exclusive reversed cumsum of d c.  The carries p and q bring
    in the neighbouring blocks' sums in the cumsum domain, and lift e_i
    = lift e0 d_i joins d_i F_i as the constant lift e0 added to F.
    Only multiplies and sums, in place: the exponentials are in d, p, q
    and e0.  S is written to out, which may be a strided view, and c is
    overwritten.  The arithmetic follows the dtype of the inputs, so the
    HS sum scans real squared moduli at rate 2 Re k.
    """
    np.multiply(a, c, out=out)
    c *= d
    end = 0.0  # F at the previous block's last node
    for start, stop, p, _, e0 in blocks:
        f = out[start:stop]
        np.cumsum(f, out=f)
        carry = p * end
        end = f[-1] + carry
        shift = carry + lift * e0
        if shift:
            f += shift
    out *= d
    n = c.size
    for start, stop, _, q, _ in reversed(blocks):
        b = c[start:stop]
        np.cumsum(b[::-1], out=b[::-1])
        if stop < n:
            b += q * c[stop]
    for start, stop, _, q, _ in blocks:  # E_i is the sum from i + 1 on
        tail = c[start + 1:stop]
        tail *= a[start:stop - 1]
        out[start:stop - 1] += tail
        if stop < n:
            out[stop - 1] += a[stop - 1] * q * c[stop]
    return out


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


def _diagonal(z: complex, x: np.ndarray):
    """The kernel's diagonal R(x_i, x_i) = g + c e^2 at z on the
    increasing nodes x, pointwise: no scan, so nothing is scaled to
    blocks.  Returns (c, (k_plus, k_minus), diagonal) with the coupling
    c = closed._coupling(k_plus, k_minus), g = _image_factor(k, t) and
    e = e^{-kt}, t = |x|.  Raises as _sides does.
    """
    z = _check_off_spectrum(z)
    kk = wave_numbers(z)
    c = _coupling(*kk)
    diag = np.empty(x.size, dtype=complex)
    for side, k in zip(_half_lines(x), (kk.k_plus, kk.k_minus)):
        t = np.abs(x[side])
        e = np.exp(t * -k)
        diag[side] = _image_factor(k, t) + c * e * e
    return c, (kk.k_plus, kk.k_minus), diag


def _sides(z: complex, x: np.ndarray):
    """The kernel's generators at z on the increasing nodes x, in O(n).

    Returns (c, sides): per half-line (x >= 0 with k = k_plus, then
    x < 0 with k = k_minus) the tuple (side, k, a, d, blocks) of the
    index slice, the scan generator a = g / d of the image factor
    g = (1 - e^{-2kt}) / (2k) with t = |x| increasing, and the scan
    blocks of _blocks (block decay d, per-block carries and e0 with
    e = e^{-kt} = e0 d); and the coupling c = 1/(k_plus + k_minus)
    through the origin, from closed._coupling.  The sides do not depend
    on c, so (0.0, sides) generates the Dirichlet-decoupled kernel.  On
    one side the kernel is e^{-k(t_> - t_<)} g(t_<) + c e_i e_j, across
    it c e_i e_j: every
    O(n) quantity of the kernel reads these, and the scans on them call
    no exp and divide by nothing.  Scaling a and d by the same real
    weights w scales the kernel to w_i R(x_i, x_j) w_j.  The two
    half-lines are built side by side on large grids (pair._both).
    Raises DomainError for a non-finite z and SpectrumError on the
    spectral rays, except at their endpoints +-i
    (closed._check_off_spectrum).
    """
    z = _check_off_spectrum(z)
    kk = wave_numbers(z)

    def side_at(side, k):
        t = np.abs(x[side])
        a = _image_factor(k, t)
        d, blocks = _blocks(k, t)
        a /= d
        return side, k, a, d, blocks

    plus, minus = _half_lines(x)
    sides = _both(x.size, lambda: side_at(plus, kk.k_plus),
                  lambda: side_at(minus, kk.k_minus))
    return _coupling(*kk), sides


def _apply(gen, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """u_i = sum_j R(x_i, x_j) c_j in O(n), for weighted c and the
    generators gen of R: _sides(z, x), or (0.0, _sides(z, x)[1]) for the
    Dirichlet kernel.

    Per half-line the image-charge term e^{-k(t_> - t_<)} g(t_<) is one
    _min_scan; the rank-one term through the origin adds coupling *
    e_i (sum_j e_j c_j), on the same side and across it, as the scans'
    lift.  It vanishes for the Dirichlet kernel (coupling 0), which is
    then also zero at a node at 0 (there t = 0 and g = 0).  The lift
    depends on c only, so it comes first, and then each half-line scans
    in its own slices of c and u, side by side on large grids
    (pair._both).  u is written to out, and c is overwritten.
    """
    coupling, sides = gen
    lift = 0.0
    if coupling:  # sum_j e_j c_j, pairwise in out, which the scans overwrite
        for side, _, _, d, blocks in sides:
            dc = np.multiply(d, c[side], out=out[side])
            lift += sum(e0 * dc[start:stop].sum()
                        for start, stop, *_, e0 in blocks)
        lift *= coupling

    def scan(side, k, a, d, blocks):
        _min_scan(d, blocks, a, c[side], out[side], lift)

    plus, minus = sides
    _both(c.size, lambda: scan(*plus), lambda: scan(*minus))
    return out


def _hs_sq(gen, left: np.ndarray, right: np.ndarray) -> float:
    """Squared HS norm of the Nystrom matrix left_i R(x_i, x_j) right_j,
    in O(n) time and memory, for the kernel generators gen of _sides on
    the grid's nodes (bs.hs_norm takes left and right from its weights).

    On one half-line, with t = |x|, the kernel is e^{-k(t_> - t_<)} h(t_<)
    with h = g + c e^2, c the coupling (0 for the Dirichlet kernel).  So
    |K_ij|^2 = a_i b_j |h|^2(t_<) e^{-2 Re k |t_i - t_j|} with
    a = |left|^2 and b = |right|^2, and the sum over one half-line is one
    real _min_scan at the rate 2 Re k, on the squared moduli of
    the generators' block decay d and carries p, q, with |h|^2 / |d|^2
    in place of a; g = a d and e = e0 d come from the generators.  The
    block across the origin is the rank one c e_i e_j.  A node at 0 sits
    on the positive side with t = 0, which both kernels agree with.
    """
    c, sides = gen
    a = np.abs(left) ** 2
    b = np.abs(right) ** 2
    total = 0.0
    tails = []  # (sum a |e|^2, sum b |e|^2) per side
    for side, _, amp, d, blocks in sides:
        e = np.empty_like(d)  # e^{-kt} = e0 d on each block
        for start, stop, *_, e0 in blocks:
            np.multiply(d[start:stop], e0, out=e[start:stop])
        decay = np.abs(e) ** 2
        tails.append((a[side] @ decay, b[side] @ decay))
        sq = np.abs(d) ** 2
        sq_blocks = [(start, stop, abs(p) ** 2, abs(q) ** 2, 0.0)
                     for start, stop, p, q, _ in blocks]
        h = amp * d + c * e * e
        total += a[side] @ _min_scan(
            sq, sq_blocks, np.abs(h) ** 2 / sq, b[side], np.empty(sq.size),
            0.0)
    (ap, bp), (am, bm) = tails
    total += (ap * bm + am * bp) * abs(c) ** 2
    return float(total)


def _weigh(gen, weights: np.ndarray):
    """The generators gen of _sides, scaled in place to those of the
    kernel sw_i R(x_i, x_j) sw_j, sw = sqrt(weights): a and d take sw,
    while the carries and e0 were formed before and do not, so nothing
    is divided by a weight and zero weights are allowed."""
    for side, _, a, d, _ in gen[1]:
        sw = np.sqrt(weights[side])
        a *= sw
        d *= sw
    return gen


@np.errstate(all="ignore")  # the result is gated
def apply_resolvent(z: complex, grid: QuadratureGrid,
                    f: np.ndarray) -> np.ndarray:
    """u(x_i) = sum_j w_j R_z(x_i, x_j) f(x_j) on the grid, in O(n).

    Exploits the separable exponential structure of the kernel (see
    _apply): no kernel matrix is formed.  Matches the dense Nystrom sum
    to rounding, up to and including the ray endpoints z = +-i.  Raises
    ConfigError unless f has one value per node, and DomainError if f
    is not finite and where an entry of u leaves the float range.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != grid.nodes.shape:
        raise ConfigError(f"f has shape {f.shape}, not the grid's "
                          f"{grid.nodes.shape}")
    if not np.isfinite(f).all():
        raise DomainError("f is not finite")
    c = grid.weights * f
    u = _apply(_sides(z, grid.nodes), c, np.empty_like(c))
    # the largest part of an entry: finite exactly where every entry is
    _result(np.abs(u.view(float)).max(), "the resolvent applied at z={}", z)
    return u


@np.errstate(all="ignore")  # each step is gated
def quadrature_operator_norm(z: complex, grid: QuadratureGrid) -> float:
    """Operator norm of the discretized resolvent by power iteration.

    Iterates R R^H on the symmetrically weighted Nystrom operator
    sw_i R(x_i, x_j) sw_j, sw = sqrt(w), applying it in O(n) by the
    _apply scan on generators prepared once with sw folded into a and d
    (R is complex symmetric, so R^H u is the conjugate of R applied to
    the conjugate of u).  The iteration holds two work vectors and each
    product scans in its input, so the call needs ~64 bytes per node
    besides the grid.  Nothing is divided by a weight, so zero weights
    are allowed.  Where R R^H would underflow (z near the float range,
    ||R|| ~ 5e-156), a step scales its first product to unit norm and
    the estimate is carried as that norm times the second's, so the
    norm comes back positive; every other operator keeps its steps
    unscaled.  Raises ConvergenceError if the estimate has not
    settled to 1e-8 relative within 200 steps, and DomainError as soon
    as an iterate leaves the float range.  The start vector is fixed
    (krylov._start_vector's 2n entries, the first n as real parts and
    the next n as imaginary parts), so repeated calls return the same
    bits.
    """
    gen = _weigh(_sides(z, grid.nodes), grid.weights)
    n = grid.size
    v = np.empty(n, dtype=complex)
    u = np.empty(n, dtype=complex)
    # the start vector, made in u's memory
    draws = u.view(float)
    _start_vector(draws)
    v.real = draws[:n]
    v.imag = draws[n:]
    v *= 1.0 / np.linalg.norm(v)
    val, scale = 0.0, 1.0  # the last estimate of ||R||^2 is val * scale
    for _ in range(200):
        np.conj(_apply(gen, v, u), out=u)
        last, scale = scale, 1.0
        if not val * last >= _TINY:  # the first step, or a tiny operator
            size = np.linalg.norm(u)
            if size and size * size < _TINY:  # R u would underflow
                scale = size
                u *= 1.0 / size
        np.conj(_apply(gen, u, v), out=v)
        nval = _result(np.linalg.norm(v), "the power iterate at z={}", z)
        v *= 1.0 / nval
        if abs(nval - val * (last / scale)) <= 1e-8 * nval:
            return math.sqrt(scale) * math.sqrt(nval)
        val = nval
    raise ConvergenceError("power iteration not settled to 1e-08 in 200 steps")


def default_strip_grid(z: complex) -> QuadratureGrid:
    """Grid resolving both the oscillation and the slow decay at z."""
    return gauss_legendre_grid(decay_half_length(z),
                               oscillation_panel_width(z))
