"""Scalar closed forms of -d2/dx2 + i*sgn(x) and of its solvable models.

Everything here is exact arithmetic on the two wave numbers

    k_plus  = sqrt(i - z),    k_minus = sqrt(-i - z),

taken with the principal branch of the square root (cut on (-inf, 0],
the cut itself mapping to the positive imaginary axis).  The essential
spectrum consists of the two rays [0, inf) + i and [0, inf) - i.  The
distances |z -+ i| = |k_+-|^2 to their endpoints are formed in one
place, _to_i, which returns inf where they leave the float range.

The module holds the package's three gates.  Every spectral parameter
passes _off_spectrum (DomainError unless z is finite, through _finite,
SpectrumError on a ray), in the bounds, the kernels, the grids, the
norms and the FD oracle; the other complex arguments and a kernel's
points x, y pass _finite.  Every real setting of closed, kernel,
quadrature, bs and fdop (a length, a half-width, a well depth, an
amplitude or coupling, which may be complex, a node count) passes the
setting gate: _setting (finite), _positive (finite and positive) or
_count (an integer of at least k), each a ConfigError that names it; so
do the settings that bs derives (a potential's L1 norm, the delta well's
depth).  The smoothing scale and the curve parameter r keep their own
checks, which raise DomainError.  Every public numeric result that can
leave the float range passes the result gate, _result: a DomainError
whose message says "not finite" and "float range" and is built only when
it raises.  It takes the bounds and the smoothed ratio, the ray
distances, the delta eigenvalue, the curve point and the step residual
here, the kernel, the resolvent applied on a grid and each power iterate
in bounds, and the HS norms, ||L|| and the spectral radius in bs; no
other module tests a result for finiteness (the iterations' checks on
their iterates raise ConvergenceError or SingularError).  Besides, the
module holds the region partition of the plane, the Schur, pseudomode
and numerical-range bounds on the resolvent norm together with
norm_bounds, the one place that decides which of them holds at a point,
the smoothed pseudomode's quality ratio, and the spectral data of the
point interaction, the exceptional coupling curve, the step-like well
and the Dirichlet decoupling, and the bitwise copy of numpy.linspace
that the CLI sweeps and the field grids sample with.  It uses the
standard library only, so the CLI commands that print these numbers
start without loading NumPy.  Every name has this one implementation
and, apart from 12 names that kernel, bounds, field and models re-export
for their existing callers, this one import path.  The coupling
c = 1/(k_plus + k_minus) through the origin, which the kernel, its O(n)
generators and the bounds all carry, is formed in one place, _coupling,
so that it keeps its digits on both sides of the plane.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from itertools import count
from typing import NamedTuple

from .errors import (ConfigError, DomainError, SgnSpecError, SpectrumError,
                     ZeroCouplingError)

# the one spectrum tolerance: a point this close to a ray is on it
DEFAULT_TOL_SPEC = 1e-12

# most brackets find_step_eigenvalues visits (~3 s on one x86 core)
MAX_STEP_BRACKETS = 100_000

# width to which find_step_eigenvalues bisects each bracket
_STEP_TOL = 1e-12


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


class WaveNumbers(NamedTuple):
    k_plus: complex
    k_minus: complex


def wave_numbers(z: complex) -> WaveNumbers:
    """Both wave numbers at spectral parameter ``z``."""
    z = complex(z)
    return WaveNumbers(principal_sqrt(1j - z), principal_sqrt(-1j - z))


def _coupling(kp: complex, km: complex) -> complex:
    """The coupling c = 1/(k_plus + k_minus) through the origin, the one
    place that forms k_plus +- k_minus.

    k_plus^2 - k_minus^2 = 2i, so c = (k_plus - k_minus)/(2i) as well.
    The sum cancels for Re z >> 1, where k_+- ~ +-i sqrt(Re z), and the
    difference for Re z << -1, where k_plus ~ k_minus.  Their moduli
    multiply to 2, so the one of at least sqrt(2) has not cancelled:
    the sum where |s| >= sqrt(2), the difference elsewhere, each giving
    c to rounding.
    """
    s = kp + km
    if abs(s) >= math.sqrt(2.0):
        return 1.0 / s
    return (kp - km) * -0.5j


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace(lo, hi, n) as a list, bitwise: the same float
    operations in the same order, so that sampling an axis needs no
    NumPy."""
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]
    div = n - 1
    step = delta / div
    if step == 0.0:  # subnormal step: numpy scales i / div by delta
        ys = [float(i) / div * delta + lo for i in range(div)]
    else:
        ys = [float(i) * step + lo for i in range(div)]
    return ys + [hi]


# ---------------------------------------------------------------------------
# regions of the spectral plane

class Region(enum.Enum):
    D_PLUS = "D_PLUS"
    D_MINUS = "D_MINUS"
    U = "U"
    W = "W"
    SPECTRUM = "SPECTRUM"


def _to_i(z: complex) -> tuple[float, float]:
    """|z - i| and |z + i|: hypot of the parts, as abs() forms them, but
    inf where abs() would raise OverflowError."""
    return math.hypot(z.real, z.imag - 1.0), math.hypot(z.real, z.imag + 1.0)


def _rays(z: complex) -> tuple[float, float]:
    """Distances from z to the rays [0,inf)+i and [0,inf)-i, inf where
    they leave the float range (such a z is off both rays)."""
    if z.real >= 0.0:
        return abs(z.imag - 1.0), abs(z.imag + 1.0)
    return _to_i(z)


def ray_distances(z: complex) -> tuple[float, float]:
    """Distances from ``z`` to the rays [0,inf)+i and [0,inf)-i.  Raises
    DomainError for a non-finite z and where a distance leaves the float
    range (both parts of z near it, Re z < 0)."""
    pair = _rays(_finite(z))
    _result(max(pair), "distance from z={} to a ray", z)
    return pair


def spectrum_distance(z: complex) -> float:
    """Distance from ``z`` to the essential spectrum; raises as
    ray_distances."""
    return min(ray_distances(z))


def in_half_strip(z: complex) -> bool:
    """Open half-strip S = [0,inf) + i(-1,1)."""
    z = complex(z)
    return z.real >= 0.0 and abs(z.imag) < 1.0


def classify_region(z: complex) -> Region:
    """Partition tag of the complex plane.

    The two disks |z -+ i| <= 3/2 are closed and win boundary ties over
    W and U; a point within DEFAULT_TOL_SPEC of either spectral ray is
    SPECTRUM regardless.  Raises DomainError for a non-finite z
    (_finite).
    """
    z = _finite(z)
    if min(_rays(z)) <= DEFAULT_TOL_SPEC:
        return Region.SPECTRUM
    in_plus = in_minus = False
    # a fast path: both disks lie in this box, and most points skip _to_i
    if abs(z.real) <= 1.5 and abs(z.imag) <= 2.5:
        in_plus, in_minus = (d <= 1.5 for d in _to_i(z))
    if in_plus and in_minus:
        return Region.D_PLUS if z.imag >= 0.0 else Region.D_MINUS
    if in_plus:
        return Region.D_PLUS
    if in_minus:
        return Region.D_MINUS
    if in_half_strip(z):
        return Region.W
    return Region.U


def _finite(z: complex) -> complex:
    """z as a complex; DomainError unless both its parts are finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite")
    return z


def _setting(value, name: str):
    """The one gate for a real setting, and for a complex amplitude or
    coupling: value unchanged, ConfigError naming it unless finite."""
    if not cmath.isfinite(value):
        raise ConfigError(f"{name} must be finite, not {value!r}")
    return value


def _positive(value: float, name: str) -> float:
    """value unchanged; ConfigError naming it unless 0 < value < inf."""
    if not 0.0 < value < math.inf:
        raise ConfigError(
            f"{name} must be finite and positive, not {value!r}")
    return value


def _count(value: int, least: int, name: str) -> int:
    """value as an int; ConfigError naming it unless it is an integer
    (operator.index: not 3.0, not a NumPy float) of at least least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(
            f"{name} must be an integer, not {value!r}") from None
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, not {value}")
    return value


def _off_spectrum(z: complex) -> complex:
    """The one gate for a spectral parameter: z as a finite complex off
    the essential spectrum.

    Raises DomainError unless z is finite (a NaN distance is not <= tol,
    so the ray test alone would admit it) and SpectrumError within
    DEFAULT_TOL_SPEC of a ray, the endpoints +-i included.  No other
    module compares a ray distance with DEFAULT_TOL_SPEC in order to
    raise.
    """
    z = _finite(z)
    if min(_rays(z)) <= DEFAULT_TOL_SPEC:
        raise SpectrumError(f"z={z} lies on the essential spectrum")
    return z


def _check_off_spectrum(z: complex) -> complex:
    """_off_spectrum with the ray endpoints +-i admitted, where the
    kernel stays bounded (its limit exists)."""
    z = _finite(z)
    if min(_to_i(z)) > DEFAULT_TOL_SPEC:
        _off_spectrum(z)
    return z


# ---------------------------------------------------------------------------
# two-sided resolvent-norm bounds

def _strip_wave_numbers(z: complex) -> WaveNumbers:
    z = complex(z)
    if not in_half_strip(z):
        raise DomainError(f"z={z} is not inside the half-strip")
    return wave_numbers(_off_spectrum(z))


def _result(value, what: str, *args):
    """The one gate for a numeric result: value, real or complex,
    unchanged; DomainError unless finite.  The message, what formatted
    with args, is built only when the gate raises."""
    if not cmath.isfinite(value):
        raise DomainError(f"{what.format(*args)} leaves the float range: "
                          f"{value} is not finite")
    return value


def schur_upper_bound(z: complex) -> float:
    """Schur-test upper bound on the resolvent norm, z inside the strip.

    Maximum of the two closed-form row-integral bounds (x > 0 and x < 0);
    no quadrature involved.  Raises DomainError outside the open
    half-strip and if the bound overflows, and SpectrumError (a
    DomainError) within DEFAULT_TOL_SPEC of a ray.
    """
    return _schur(*_strip_wave_numbers(z), z)


def _schur(kp: complex, km: complex, z: complex) -> float:
    # |k_plus + k_minus| = 1/|c| and |k_plus - k_minus| = 2|c|
    c = abs(_coupling(kp, km))
    row_plus = c / km.real + (1.0 + 2.0 * c * c) / (2.0 * kp.real * abs(kp))
    row_minus = c / kp.real + (1.0 + 2.0 * c * c) / (2.0 * km.real * abs(km))
    return _result(max(row_plus, row_minus), "bound at z={}", z)


def pseudomode_lower_bound(z: complex) -> float:
    """Lower bound attained by the exponential pseudomode.

    Exact value of the ratio bound: 1 / (2 sqrt(Re k+ Re k-) |k+ + k-|).
    It holds in W and D+-, which cover every point of the open
    half-strip off the rays.  Raises DomainError outside the open
    half-strip and if the bound overflows, and SpectrumError within
    DEFAULT_TOL_SPEC of a ray.
    """
    return _pseudomode(*_strip_wave_numbers(z), z)


def _pseudomode(kp: complex, km: complex, z: complex) -> float:
    return _result(abs(_coupling(kp, km))
                   / (2.0 * math.sqrt(kp.real * km.real)), "bound at z={}", z)


def half_strip_distance(z: complex) -> float:
    """Distance from z to the closed half-strip [0,inf) + i[-1,1]."""
    z = complex(z)
    dy = max(abs(z.imag) - 1.0, 0.0)
    if z.real >= 0.0:
        return dy
    return math.hypot(z.real, dy)


def numrange_bound(z: complex) -> float:
    """Resolvent bound 1/dist(z, S-bar) from m-sectoriality, z outside S-bar.

    Raises DomainError inside the closed half-strip and where the
    distance is so small that the bound overflows, and SpectrumError
    within DEFAULT_TOL_SPEC of a ray.
    """
    d = half_strip_distance(z)
    if d == 0.0:
        raise DomainError(f"z={z} lies in the closed half-strip")
    _off_spectrum(z)
    return _result(1.0 / d, "bound at z={}", z)


# statuses of a point, as norm_bounds decides them
STATUS_OK = "ok"              # pseudomode lower and Schur upper bound
STATUS_NUMRANGE = "numrange"  # the numerical-range bound, lower = upper
STATUS_SPECTRUM = "spectrum"  # on a ray: the norm is infinite
STATUS_SKIPPED = "skipped"    # the bound that holds overflows


class NormBounds(NamedTuple):
    """Where z lies and the resolvent-norm bounds that hold there."""

    region: Region
    status: str
    lower: float
    upper: float
    error: SgnSpecError | None = None  # why there are no finite bounds


def norm_bounds(z: complex) -> NormBounds:
    """Classify z once and evaluate the bound that holds there.

    Within DEFAULT_TOL_SPEC of a spectral ray the norm is infinite:
    status "spectrum", lower = upper = inf, error a SpectrumError.  In
    the open half-strip the pseudomode lower and Schur upper bounds
    hold, from one pair of wave numbers (status "ok").  Everywhere else
    the numerical-range bound 1/dist(z, S-bar) is an upper bound, equal
    to the norm where |Im z| >= 1; it is reported as lower = upper
    (status "numrange"), which overstates the lower bound for Re z < 0,
    |Im z| < 1.  Where that bound overflows the status is "skipped",
    lower = upper = nan, and error is the DomainError.  Raises
    DomainError for a non-finite z (classify_region).
    """
    z = complex(z)
    region = classify_region(z)
    if region is Region.SPECTRUM:
        error = SpectrumError(f"z={z} lies on the essential spectrum")
        return NormBounds(region, STATUS_SPECTRUM, math.inf, math.inf, error)
    try:
        if in_half_strip(z):
            kp, km = principal_sqrt(1j - z), principal_sqrt(-1j - z)
            return NormBounds(region, STATUS_OK, _pseudomode(kp, km, z),
                              _schur(kp, km, z))
        # numrange_bound, less the checks the region already made
        bound = _result(1.0 / half_strip_distance(z), "bound at z={}", z)
    except DomainError as exc:
        return NormBounds(region, STATUS_SKIPPED, math.nan, math.nan, exc)
    return NormBounds(region, STATUS_NUMRANGE, bound, bound)


# ---------------------------------------------------------------------------
# smoothed pseudomode

def _scaled_ramp_integral(u: float) -> float:
    """u I(u) for u >= 0, where I(u) = int_0^1 (1 - t)^2 e^{-ut} dt.

    Below u = 1, where I(u) = (u^2 - 2u + 2 - 2e^{-u}) / u^3 cancels, by
    its series (term 20 is below 1e-20); above by that form times u,
    divided through by u^2, so u = inf gives 1.
    """
    if u < 1.0:
        return 2.0 * u * sum((-u) ** n / math.factorial(n + 3)
                             for n in range(20))
    return 1.0 - 2.0 / u + (2.0 - 2.0 * math.exp(-u)) / (u * u)


def regularized_pseudomode_ratio(z: complex, smoothing_scale: float) -> float:
    """||g0|| / ||(Hsmooth - z) g0||, in closed form, where Hsmooth has the
    sign potential smoothed on [-a, 0] to the ramp i (2x/a + 1).

    g0 = R_z f0 for f0 = e^{-qx} on x > 0 (k = k_plus, q = conj(k)), so
    (Hsmooth - z) g0 = f0 - h g0 with h = -i (2x/a + 2) on [-a, 0).  With
    B = -1/(q^2 - k^2), C = c/(k + q), c = _coupling(k, k_minus), A = C - B:
    g0 = A e^{-kx} + B e^{-qx} on x > 0 and C e^{k_minus x} on x < 0, so
    ||g0||^2 = (|A|^2 + |B|^2)/(2 Re k) + Re(A conj(B)/k)
    + |C|^2/(2 Re k_minus) and ||f0 - h g0||^2 = 1/(2 Re k)
    + 4a |C|^2 I(2a Re k_minus), I as in _scaled_ramp_integral.
    q^2 - k^2 is formed as -4i Re k Im k, which does not cancel.  At
    a = 1 the ratio tends to sqrt(3/2) (Re z)^{1/4}.  Raises DomainError
    unless 0 < a < inf and z is in W, and where ||g0||^2 ~ (Re z)^{5/2}
    overflows (Re z > ~1e123).
    """
    z = complex(z)
    a = float(smoothing_scale)
    if not 0.0 < a < math.inf:
        raise DomainError("smoothing scale must be positive and finite")
    if classify_region(z) is not Region.W:
        raise DomainError(f"z={z} outside region W")
    k, km = _strip_wave_numbers(z)
    amp_b = 1.0 / (4j * k.real * k.imag)
    amp_c = _coupling(k, km) / (2.0 * k.real)
    mod_a, mod_b, mod_c = abs(amp_c - amp_b), abs(amp_b), abs(amp_c)
    g_sq = ((mod_a * mod_a + mod_b * mod_b) / (2.0 * k.real)
            + ((amp_c - amp_b) * amp_b.conjugate() / k).real
            + mod_c * mod_c / (2.0 * km.real))
    r_sq = (1.0 / (2.0 * k.real) + 4.0 * mod_c * mod_c
            * _scaled_ramp_integral(2.0 * km.real * a) / (2.0 * km.real))
    return _result(math.sqrt(g_sq / r_sq), "ratio at z={}", z)


# ---------------------------------------------------------------------------
# point interaction

def delta_eigenvalue(alpha: complex) -> complex:
    """The candidate discrete eigenvalue 1/alpha^2 - alpha^2/4 of
    H - alpha delta, the convention of fdop.build_fd's center_jump.

    It solves the squared eigenvalue condition, and is an eigenvalue
    only where delta_eigenvalue_exists says so: for real alpha > 0 it
    is one, real and diverging like alpha^{-2} as the coupling
    vanishes; for real alpha < 0 it is not.  Raises DomainError for a
    non-finite alpha and where alpha^2 or the value over- or underflows.
    """
    alpha = _finite(alpha)
    if alpha == 0.0:
        raise ZeroCouplingError("point interaction needs alpha != 0")
    try:
        a2 = alpha**2
        lam = 1.0 / a2 - a2 / 4.0
    except (OverflowError, ZeroDivisionError):  # alpha^2 overflows or is 0
        lam = math.inf
    return _result(lam, "eigenvalue at alpha={}", alpha)


def delta_eigenvalue_exists(alpha: complex) -> bool:
    """Whether the candidate value lam is an eigenvalue of H - alpha delta.

    Its eigenfunction would be e^{-k_plus x} on x > 0 and e^{k_minus x}
    on x < 0 with k_plus + k_minus = alpha; the candidate wave numbers
    alpha/2 +- i/alpha square to +-i - lam, and lam is an eigenvalue
    exactly when both are the principal roots k_+-(lam), that is when
    Re(alpha/2 +- i/alpha) > 0, or Re alpha |alpha|^2 > 2 |Im alpha|.
    So the couplings with an eigenvalue form a window about the positive
    real axis of half-angle arctan(|alpha|^2 / 2), whose edge is the
    exceptional curve (gamma_point).  lam must also lie farther than
    DEFAULT_TOL_SPEC from the rays.  Raises as delta_eigenvalue.
    """
    lam = delta_eigenvalue(alpha)
    a, b = complex(alpha).real, complex(alpha).imag
    # divided through by |alpha|^2, which stays a float where lam does;
    # Re alpha |alpha|^2 itself underflows for real alpha below ~1e-108
    return (min(_rays(lam)) > DEFAULT_TOL_SPEC
            and a > 2.0 * abs(b) / (a * a + b * b))


def gamma_point(r: float, sigma: tuple[int, int, int]) -> complex:
    """One point of the exceptional coupling curve.

    alpha = s1 sqrt(-2(r + i s2) + 2 s3 sqrt(r (r + 2 i s2))), r >= 0.
    Couplings on this curve push the candidate eigenvalue onto the
    essential spectrum, so the point interaction has no eigenvalue there.

    With q = sqrt(r (r + 2 i s2)) and w = q + r + i s2 the radicand is
    -2w for s3 = -1, and for s3 = +1 it is 2 (q - r - i s2) = 2/w,
    because q^2 - (r + i s2)^2 = s2^2 = 1; the quotient avoids the
    cancellation of that difference as r grows.  q is formed as
    sqrt(r) sqrt(r + 2 i s2), so it does not overflow.  Raises
    DomainError where the point is not a finite float.
    """
    if r < 0.0:
        raise DomainError("curve parameter r must be nonnegative")
    s1, s2, s3 = sigma
    if not all(s in (-1, 1) for s in (s1, s2, s3)):
        raise ConfigError("sigma entries must be +-1")
    w = _result(math.sqrt(r) * cmath.sqrt(r + 2j * s2) + r + 1j * s2,
                "curve point at r={!r}", r)
    return _result(s1 * cmath.sqrt(2.0 / w if s3 == 1 else -2.0 * w),
                   "curve point at r={!r}", r)


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
    sinh/cosh automatically.  Raises DomainError for a non-finite lam,
    outside |Im lam| < 1 and where the residual leaves the float range
    (at a = 1, b = 3: lam below ~-1.3e5, where cosh(2a |s|) overflows,
    and above ~1e154, where lam^2 does), and ConfigError unless
    0 < a < inf and b is finite.
    """
    lam = _finite(lam)
    if abs(lam.imag) >= 1.0:
        raise DomainError("the residual form is valid only for |Im lam| < 1")
    _positive(a, "half-width a")
    return _result(_step_residual(lam, a, _setting(b, "well depth b")),
                   "residual at lam={}", lam)


def _step_residual(lam: complex, a: float, b: complex) -> complex:
    """step_implicit_residual without its gates: inf where sin or cos of
    a huge argument fails, and whatever the arithmetic gives otherwise.
    For real lam > -b and real b the value is real (its imaginary part
    is zero or a rounding error)."""
    s = cmath.sqrt(lam + b)
    w = 2.0 * a * s
    try:
        if abs(w) < 1e-8:
            sinc = 2.0 * a * (1.0 - w * w / 6.0)
        else:
            sinc = cmath.sin(w) / s
        jump = cmath.sqrt(lam + 1j) - cmath.sqrt(lam - 1j)
        return ((cmath.sqrt(lam * lam + 1.0) - lam - b) * sinc
                - 1j * jump * cmath.cos(w))
    except (ArithmeticError, ValueError):  # sin, cos of a huge argument
        return math.inf


def find_step_eigenvalues(a: float, b: float,
                          lam_max: float) -> list[float]:
    """All real eigenvalues of the step model in (-b, lam_max].

    Bracket k runs between consecutive zeros of sin(2a sqrt(lam+b)),
    from (k pi / (2a))^2 - b to ((k+1) pi / (2a))^2 - b.  At its ends the
    real residual of step_implicit_residual is cos(k pi) and
    cos((k+1) pi) times 2 Im sqrt(lam+i) > 0, so its sign there is
    (-1)^k and (-1)^(k+1), known without evaluating it: every bracket
    holds a root, however close to an end it lies.  Bisects
    the sign of that residual inside each bracket, to width _STEP_TOL
    or down to adjacent floats, and returns one root per bracket.
    Raises DomainError where a bracket overflows or holds no float
    strictly inside its ends (a tiny a, or a b or lam_max huge against
    (pi / (2a))^2), or where the residual leaves the float range (lam
    above ~1e154, where lam^2 overflows), and ConfigError unless
    0 < a < inf and b is finite, and where the brackets below lam_max,
    about 2a sqrt(lam_max + b) / pi of them, exceed MAX_STEP_BRACKETS
    (a NaN or +inf lam_max too; at -inf there are none).
    """
    _positive(a, "half-width a")
    b = _setting(float(b), "well depth b")
    if lam_max <= -b:
        return []
    brackets = 2.0 * a * math.sqrt(lam_max + b) / math.pi
    roots = []
    for k in count():
        try:
            lo = (k * math.pi / (2.0 * a)) ** 2 - b
            hi = ((k + 1) * math.pi / (2.0 * a)) ** 2 - b
        except OverflowError:
            raise DomainError(
                f"eigenvalue bracket {k} overflows at a={a!r}") from None
        if lo > lam_max:
            break
        if not lo < 0.5 * (lo + hi) < hi:
            raise DomainError(
                f"eigenvalue bracket [{lo!r}, {hi!r}] is below float "
                f"resolution at a={a!r}, b={b!r}")
        if not brackets <= MAX_STEP_BRACKETS:  # or NaN; once bracket 0 fits
            raise ConfigError(f"more than {MAX_STEP_BRACKETS} eigenvalue "
                              f"brackets below lam_max={lam_max!r}")
        while hi - lo > _STEP_TOL:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # lo and hi are adjacent floats
            res = _result(_step_residual(mid, a, b), "residual at lam={}", mid)
            if (-1) ** k * res.real > 0.0:  # the sign at lo
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        if lam <= lam_max:
            roots.append(lam)
    return roots


# ---------------------------------------------------------------------------
# Dirichlet decoupling

def dirichlet_resolvent_norm(z: complex) -> float:
    """Exact resolvent norm of the Dirichlet-decoupled operator.

    The operator splits into two shifted self-adjoint halves, so the
    norm is the reciprocal distance to the nearer spectral ray:
    max(1/dist(z, i + [0, inf)), 1/dist(z, -i + [0, inf))).  Raises
    SpectrumError within DEFAULT_TOL_SPEC of the rays, so the norm is
    below 1/DEFAULT_TOL_SPEC, and DomainError for a non-finite z (see
    _off_spectrum).
    """
    return 1.0 / min(_rays(_off_spectrum(z)))
