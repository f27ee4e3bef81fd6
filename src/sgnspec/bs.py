"""Birman-Schwinger machinery for perturbations of the signed-damping operator.

For a perturbation eps*V the Birman-Schwinger operator is
K_z = |V|^{1/2} R_z V_{1/2} with V_{1/2} = V / |V|^{1/2}; z is an
eigenvalue of the perturbed operator iff -1 is an eigenvalue of eps*K_z.
This module discretizes K_z by a symmetric Nystrom scheme on a
Gauss-Legendre grid covering the support of V, computes Hilbert-Schmidt
norms, the singular/regular decomposition K = L + M, locates eigenvalues
through the determinant of I + eps*K_z, and measures weak-coupling rates.
The package has no kernel matrix (the dense one is a test reference):
the norms and the spectral radius run on the kernel's generators of
bounds._sides, built once per z, which this module passes to bounds
and never unpacks: the HS norm is bounds._hs_sq, the products are
bounds._apply.  The determinant reads the kernel's diagonal
(bounds._diagonal).  The norms come from O(n) decaying scans, the
spectral radius from the package's matrix-free Arnoldi
(krylov._dominant_eigenvalue) on bounds._apply, and the determinant
from an O(n) 2x2 transfer-matrix recursion (a discrete Jost function).
A coupling, an amplitude, a radius, a well depth and an L1 norm pass
closed's setting gate, and every norm and radius closed's result gate
(_result).  hs_norm and decomposition_diagnostics run under
np.errstate(all="ignore"), so a sum that overflows reaches the gate
without a NumPy warning.  Nothing here loads SciPy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds
from .closed import (_check_off_spectrum, _finite, _positive, _result,
                     _setting)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     EigenvalueLost, ZeroCouplingError)
from .krylov import _EPS_TOL, _dominant_eigenvalue
from .quadrature import QuadratureGrid, gauss_legendre_grid, \
    oscillation_panel_width


@dataclass(frozen=True)
class PotentialSpec:
    """A perturbing potential with the metadata the quadrature needs.

    func maps an array of points to (complex) potential values;
    half_length bounds the effective support [-L, L]; l1 is the exact
    L1 norm, in closed form.  Raises ConfigError unless l1 is finite.
    """

    func: Callable[[np.ndarray], np.ndarray]
    half_length: float
    l1: float

    def __post_init__(self):
        _setting(self.l1, "the L1 norm of the potential")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)),
                          dtype=complex)


def gaussian(amplitude: float = -1.0, width: float = 1.0) -> PotentialSpec:
    """V(x) = amplitude * exp(-(x/width)^2).  Raises ConfigError unless
    the (possibly complex) amplitude is finite, 0 < width < inf and the
    L1 norm is finite."""
    _setting(amplitude, "amplitude")
    _positive(width, "width")

    def v(x):
        return amplitude * np.exp(-((x / width) ** 2))

    return PotentialSpec(func=v, half_length=8.0 * width,
                         l1=abs(amplitude) * width * math.sqrt(math.pi))


def box(amplitude: float, radius: float) -> PotentialSpec:
    """V(x) = amplitude on (-radius, radius), zero outside.  Raises
    ConfigError unless the amplitude is finite, 0 < radius < inf and the
    L1 norm is finite."""
    _setting(amplitude, "amplitude")
    _positive(radius, "radius")

    def v(x):
        return amplitude * (np.abs(x) < radius)

    return PotentialSpec(func=v, half_length=radius,
                         l1=2.0 * abs(amplitude) * radius)


def delta_bump(alpha: float, radius: float = 2.5e-4) -> PotentialSpec:
    """Narrow box of integral -alpha, approximating the delta well.

    The point interaction with coupling alpha binds through the
    matching condition u'(0+) - u'(0-) = alpha u(0); its potential
    realization is the well of depth alpha/(2 radius).  Raises
    ZeroCouplingError for alpha = 0, and ConfigError unless alpha is
    finite, 0 < radius < inf and the depth is finite.
    """
    if _setting(alpha, "delta coupling alpha") == 0.0:
        raise ZeroCouplingError("delta coupling must be nonzero")
    _positive(radius, "radius")
    depth = -alpha / (2.0 * radius)
    return box(_setting(depth, "well depth alpha/(2 radius)"), radius)


def potential_grid(z: complex, pot: PotentialSpec) -> QuadratureGrid:
    """Composite Gauss-Legendre grid over supp V resolving e^{i sqrt(Re z) x}.

    Raises DomainError for a non-finite z and SpectrumError on the
    spectral rays, where K_z is not defined.
    """
    _check_off_spectrum(z)
    panel = oscillation_panel_width(z)
    panel = min(panel, pot.half_length / 4)  # four panels per half at least
    return gauss_legendre_grid(pot.half_length, panel)


def _weights(pot: PotentialSpec, grid: QuadratureGrid
             ) -> tuple[np.ndarray, np.ndarray]:
    """Row and column weights of the symmetric Nystrom matrix of K_z.

    Entry (i, j) is left_i R(x_i, x_j) right_j with left = sw |V|^{1/2}
    and right = V_{1/2} sw, where sw are the square roots of the
    quadrature weights and V_{1/2} = V / |V|^{1/2} (zero where V is).
    """
    v = pot(grid.nodes)
    mod = np.abs(v)
    root = np.sqrt(mod)
    signed = np.zeros_like(v)
    nz = mod > 0.0
    signed[nz] = v[nz] / root[nz]
    sw = np.sqrt(grid.weights)
    return sw * root, signed * sw


def k_matvec(z: complex, pot: PotentialSpec, grid: QuadratureGrid
             ) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free application of the Nystrom matrix in O(n) per call,
    on the kernel's generators at z, built once.  The returned function
    raises ConfigError unless its vector has one value per node."""
    left, right = _weights(pot, grid)
    gen = bounds._sides(z, grid.nodes)

    def apply(vec):
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != left.shape:
            raise ConfigError(f"vector has shape {vec.shape}, not the "
                              f"grid's {left.shape}")
        u = bounds._apply(gen, right * vec, np.empty(vec.size, dtype=complex))
        u *= left
        return u

    return apply


@np.errstate(all="ignore")  # the result is gated
def hs_norm(z: complex, pot: PotentialSpec, grid: QuadratureGrid) -> float:
    """Hilbert-Schmidt (Frobenius) norm of the Nystrom matrix of K_z.

    Summed in O(n) time and memory from the separable exponential form of
    the kernel (see bounds._hs_sq); no kernel matrix is formed.  Raises
    DomainError where the norm leaves the float range.
    """
    return _result(math.sqrt(bounds._hs_sq(bounds._sides(z, grid.nodes),
                                           *_weights(pot, grid))),
                   "the HS norm at z={}", z)


def l_hs_closed(z: complex, pot: PotentialSpec) -> float:
    """Exact Hilbert-Schmidt norm of L_z: sqrt(Re z) * ||V||_1.  Raises
    DomainError for a non-finite z, unless Re z > 0 and where the norm
    leaves the float range."""
    z = _finite(z)
    if z.real <= 0.0:
        raise DomainError("singular part needs Re z > 0")
    return _result(math.sqrt(z.real) * pot.l1, "||L_z|| at z={}", z)


@np.errstate(all="ignore")  # the result is gated
def decomposition_diagnostics(z: complex, pot: PotentialSpec) -> dict:
    """HS norms of K_z, L_z and the remainder M_z = K_z - L_z at z, on
    potential_grid(z, pot).

    L_z is the rank-one singular part with kernel
    sqrt(Re z) |V|^{1/2}(x) e^{-i sqrt(Re z)(x+y)} V_{1/2}(y).  ||K|| is
    summed in O(n) (see hs_norm), ||L|| is the product of the norms of
    its two factors, and ||M||^2 = ||K||^2 - 2 Re<K, L> + ||L||^2 with
    <K, L> from one O(n) matrix-free product, so the whole call costs
    O(n) time and memory.  ||M|| stays bounded while ||K||^2 and ||L||^2
    grow like Re z, so m_hs carries an absolute error of about the
    rounding error of ||K||^2: its relative accuracy drops by roughly the
    factor (k_hs / m_hs)^2 as Re z grows.  Raises DomainError where a
    norm leaves the float range, where ||M||^2 comes out negative (||M||
    is then below the rounding error of ||K||^2, as at delta_bump(1.0)
    and Re z = 5e8), and as l_hs_closed and potential_grid do.
    """
    z = complex(z)
    l_closed = l_hs_closed(z, pot)
    grid = potential_grid(z, pot)
    left, right = _weights(pot, grid)
    kappa = math.sqrt(z.real)
    phase = np.exp(-1j * kappa * grid.nodes)
    col = kappa * (left * phase)
    row = phase * right
    gen = bounds._sides(z, grid.nodes)
    k_sq = bounds._hs_sq(gen, left, right)
    l_hs = float(np.linalg.norm(col) * np.linalg.norm(row))
    c = right * np.conj(row)
    kl = np.vdot(col, left * bounds._apply(gen, c, np.empty_like(c)))
    # not finite where any of k_sq, kl and l_hs is not
    m_sq = _result(k_sq - 2.0 * kl.real + l_hs * l_hs,
                   "||M_z||^2 at z={}", z)
    if m_sq < 0.0:
        raise DomainError(f"||M_z|| at z={z} is below the rounding error of "
                          f"||K_z||^2 = {k_sq!r}")
    return {
        "k_hs": math.sqrt(k_sq),
        "l_hs": l_hs,
        "l_hs_closed": l_closed,
        "m_hs": math.sqrt(m_sq),
        "n": grid.size,
    }


def hs_growth_rates(pot: PotentialSpec, re_values: Sequence[float]) -> dict:
    """Log-log slopes of the HS norms of K, L, M along Re z.

    Fits ||.||_HS ~ C (Re z)^p by least squares over the given real
    parts at Im z = 0.5; returns the three exponents and the raw samples.
    Raises ConfigError for fewer than three distinct real parts, and as
    decomposition_diagnostics does (DomainError for a non-finite one).
    """
    res = np.asarray(sorted(re_values), dtype=float)
    if np.unique(res).size < 3:
        raise ConfigError("a rate needs three sample points, all distinct")
    rows = [decomposition_diagnostics(r + 0.5j, pot) for r in res]
    out = {"re_values": res}
    for key in ("k_hs", "l_hs", "m_hs"):
        vals = np.array([row[key] for row in rows])
        out[key] = vals
        out[key + "_slope"] = float(
            np.polyfit(np.log(res), np.log(vals), 1)[0])
    return out


def spectral_radius(z: complex, eps: float, pot: PotentialSpec) -> float:
    """Spectral radius of eps * K_z, |eps| times that of K_z, on
    potential_grid(z, pot).

    Arnoldi (krylov._dominant_eigenvalue) finds the eigenvalue of
    largest modulus of K_z, applied matrix-free in O(n) per product
    (k_matvec), and stops when the Ritz residual falls to machine
    epsilon relative to the Ritz value (krylov._EPS_TOL), as ARPACK's
    eigs did at its default tol=0.  The start vector is fixed, so
    repeated calls return the same bits.  The last digits carry no error
    estimate and follow the rounding of the products where the
    eigenvalue is ill-conditioned: at gaussian(-1, 5), 100 + 0.5i its
    condition number is 1331, and relative noise of 2e-16 in each
    product moves the radius by up to ~5e-14 relative.  Raises
    ConfigError for a non-finite eps, DomainError for a non-finite z and
    where the radius leaves the float range, SpectrumError on the
    spectral rays and ConvergenceError if Arnoldi has not converged
    within krylov._RESTARTS restarts.
    """
    _setting(eps, "coupling eps")
    grid = potential_grid(z, pot)
    lam = _dominant_eigenvalue(k_matvec(z, pot, grid), grid.size, _EPS_TOL)
    return _result(float(abs(eps)) * float(abs(lam)),
                   "the spectral radius at z={}", z)


def _normalized_det(eps: float, pot: PotentialSpec, grid: QuadratureGrid):
    """Sign/log-magnitude factory for det(I + eps K_z) on a fixed grid.

    The kernel is the Green's function R(x, y) = w psi_-(x_<) psi_+(x_>)
    with the coupling w = 1/(k_plus + k_minus) of closed._coupling,
    psi_+ = e^{-k_plus x} on x >= 0 and psi_- = e^{k_minus x} on
    x <= 0, each continued across 0.  So the Nystrom matrix is
    quasiseparable of order one, and Gaussian
    elimination on I + D R in node order, D = eps left right, carries a
    single number tau_k = N / M.  Each step is a 2x2 transfer matrix in
    the diagonal c_k = R(x_k, x_k), the weight d_k and the step ratio
    rho_k = psi_+(x_{k+1}) / psi_+(x_k), with |rho| <= ~1:

        (N, M) <- (rho^2 ((1 - d c) N + d c^2 M), (1 + d c) M - d N)

    from (N, M) = (0, 1), and det = M times the scales divided out.  The
    pivots 1 + d (c - tau) telescope into M and are never divided by,
    so a vanishing leading minor costs no accuracy; (N, M) is rescaled
    to |N| + |M| = 1 at every step, so nothing overflows.  Both inputs
    come from the kernel's diagonal (bounds._diagonal): c_k = g + w e^2,
    and psi_+ = R(x, x) / (w psi_-) with psi_- = e on x < 0.  O(n) time
    and memory per z; no kernel matrix is formed.
    """
    left, right = _weights(pot, grid)
    d = (eps * left * right).tolist()
    x = grid.nodes
    # steps of x split at 0, for the exponents of psi_+ on either side
    step_plus = np.diff(np.maximum(x, 0.0))
    step_minus = np.diff(np.minimum(x, 0.0))
    neg = x < 0.0

    def det_at(z: complex):
        c, (kp, km), diag = bounds._diagonal(z, x)
        # psi_+ e^{k x}, k per side: 1 on x >= 0; on x < 0, where
        # psi_- = e^{k_minus x}, it is psi_- psi_+ = R(x, x) / c
        amp = np.ones(x.size, dtype=complex)
        amp[neg] = diag[neg] / c
        rho_sq = np.ones(x.size, dtype=complex)
        rho_sq[:-1] = (amp[1:] / amp[:-1]) ** 2 * np.exp(
            -2.0 * (kp * step_plus + km * step_minus))
        n_, m_, log_scale = 0j, 1 + 0j, 0.0
        try:
            for r2, dk, ck in zip(rho_sq.tolist(), d, diag.tolist()):
                dc = dk * ck
                n_, m_ = (r2 * ((1.0 - dc) * n_ + dc * ck * m_),
                          (1.0 + dc) * m_ - dk * n_)
                s = abs(n_) + abs(m_)
                n_ /= s
                m_ /= s
                log_scale += math.log(s)
            mag = abs(m_)
            return m_ / mag, log_scale + math.log(mag)
        except ZeroDivisionError:  # M, or all of (N, M), is exactly 0
            return 0j, -math.inf

    return det_at


def find_eigenvalue(eps: float, pot: PotentialSpec, z0: complex) -> complex:
    """Root of det(I + eps K_z) = 0 near z0 by the secant method.

    The grid is potential_grid(4 |Re z0| + 1, pot), which resolves the
    oscillations somewhat beyond the starting guess.  Each determinant
    is an O(n) transfer-matrix recursion on the grid (see
    _normalized_det), so a secant step costs O(n) whatever the well:
    milliseconds for a Gaussian seeded at Re z ~ 10^3 (n ~ 3000).  The
    determinant is renormalized by its magnitude at z0 so the secant
    updates work with O(1) numbers.  Raises ConvergenceError if no step
    is below 1e-10 max(1, |z|) within 60 steps, or as soon as a
    determinant value or a secant iterate is not finite (before the
    kernel is evaluated there), ConfigError for a non-finite eps,
    DomainError for a non-finite z0 and SpectrumError where z0 or an
    iterate lies on a spectral ray.
    """
    if _setting(eps, "coupling eps") == 0.0:
        raise ZeroCouplingError("coupling eps must be nonzero")
    grid = potential_grid(4.0 * abs(complex(z0).real) + 1.0, pot)
    det_at = _normalized_det(eps, pot, grid)
    _, ref_log = det_at(z0)

    def g(z: complex) -> complex:
        sign, logabs = det_at(z)
        val = sign * cmath.exp(min(logabs - ref_log, 300.0))
        if not cmath.isfinite(val):
            raise ConvergenceError(f"non-finite determinant at z={z}")
        return val

    za = complex(z0)
    zb = za + (abs(za) + 1.0) * 1e-4 * (1.0 + 0.3j)
    ga, gb = g(za), g(zb)
    for _ in range(60):
        denom = gb - ga
        if denom == 0.0:
            raise ConvergenceError("secant stalled: flat determinant")
        zc = zb - gb * (zb - za) / denom
        if not cmath.isfinite(zc):
            raise ConvergenceError(
                f"secant step from z={zb} left the finite plane")
        if abs(zc - zb) <= 1e-10 * max(1.0, abs(zb)):
            return zc
        za, ga = zb, gb
        zb = zc
        gb = g(zb)
    raise ConvergenceError(
        f"determinant root search did not converge from z0={z0}")


@dataclass(frozen=True)
class RootSearch:
    """Outcome of a determinant root search from several seeds.

    roots: the distinct roots, sorted by (Re, Im); failed: one
    (seed, reason) pair per seed whose secant search raised, in seed
    order, so "no root" can be told apart from "every search failed".
    """

    roots: np.ndarray
    failed: tuple[tuple[complex, str], ...]


def search_eigenvalues(eps: float, pot: PotentialSpec,
                       seeds: Sequence[complex]) -> RootSearch:
    """Distinct determinant roots found from a collection of seeds (two
    within 1e-6 max(1, |z|) are one), together with the seeds whose
    search failed and why: a ConvergenceError, a DomainError, which
    includes a secant iterate on a spectral ray (SpectrumError), or a
    ConfigError, where the seed's grid would pass quadrature.MAX_GL_NODES.
    Raises ConfigError for a non-finite eps."""
    _setting(eps, "coupling eps")
    roots: list[complex] = []
    failed: list[tuple[complex, str]] = []
    for z0 in seeds:
        try:
            z = find_eigenvalue(eps, pot, z0)
        except (ConfigError, ConvergenceError, DomainError) as exc:
            failed.append((complex(z0), str(exc)))
            continue
        if all(abs(z - r) > 1e-6 * max(1.0, abs(r)) for r in roots):
            roots.append(z)
    return RootSearch(
        roots=np.array(sorted(roots, key=lambda w: (w.real, w.imag))),
        failed=tuple(failed))


def weak_coupling_rate(pot: PotentialSpec,
                       eps_values: Sequence[float] = (0.5, 0.25, 0.125)
                       ) -> dict:
    """Divergence exponent of the eigenvalue as the coupling vanishes.

    Tracks the eigenvalue z(eps) of the operator perturbed by eps*V by
    continuation through the determinant root, then fits
    log Re z(eps) ~ p log eps.  The search at the largest eps starts at
    z = 1 / (eps ||V||_1)^2.  For delta-like wells the eigenvalue
    escapes to +infinity like eps^{-2}, so p is close to -2.  Raises
    ConfigError for a non-finite coupling and for fewer than three
    distinct ones, and ZeroCouplingError, before any search, for a zero
    one.
    """
    eps_values = sorted((_setting(eps, "coupling eps") for eps in eps_values),
                        reverse=True)
    if len(set(eps_values)) < 3:
        raise ConfigError("a rate fit needs three couplings, all distinct")
    if 0.0 in eps_values:
        raise ZeroCouplingError("coupling eps must be nonzero")
    if pot.l1 == 0.0:
        raise ZeroCouplingError("potential integrates to zero")
    roots = []
    guess = complex(1.0 / (eps_values[0] * pot.l1) ** 2)
    for i, eps in enumerate(eps_values):
        try:
            z = find_eigenvalue(eps, pot, guess)
        except ConvergenceError as exc:
            raise EigenvalueLost(
                f"lost the eigenvalue branch at eps={eps}") from exc
        if z.real <= 0.0:
            raise EigenvalueLost(
                f"root left the right half-plane at eps={eps}: {z}")
        roots.append(z)
        if i + 1 < len(eps_values):
            ratio = (eps / eps_values[i + 1]) ** 2
            guess = z * ratio
    eps_arr = np.array(eps_values)
    z_arr = np.array(roots)
    slope = float(np.polyfit(np.log(eps_arr), np.log(z_arr.real), 1)[0])
    return {"eps": eps_arr, "eigenvalues": z_arr, "slope": slope}


def escape_scan(pot: PotentialSpec, eps: float,
                re_values: Sequence[float]) -> dict:
    """Max spectral radius of eps K_z over a sweep of real parts, at
    Im z = 0.5.

    If the maximum stays below one, -1 is never an eigenvalue of
    eps K_z along the sweep, certifying the absence of eigenvalues of
    the perturbed operator there.  Raises ConfigError for an empty
    sweep, and as spectral_radius does.
    """
    res = np.asarray(sorted(re_values), dtype=float)
    if res.size == 0:
        raise ConfigError("need at least one real part to scan")
    radii = np.array([
        spectral_radius(r + 0.5j, eps, pot) for r in res])
    return {"re_values": res, "radii": radii,
            "max_radius": float(radii.max()),
            "escaped": bool(radii.max() < 1.0)}
