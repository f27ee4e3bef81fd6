"""Independent references for the tests.

The dense resolvent kernel matrix is built from the image-charge form
with its own series/expm1 core, so it shares no arithmetic with the
O(n) generators and scans of bounds, nor with the scalar kernel.  The
finite-difference matrix comes dense and in the (3, n) banded storage
of scipy.linalg.solve_banded, so the tests can check the tridiagonal LU
solvers against LAPACK's dense and banded ones.  The dense references
for the O(n) Birman-Schwinger paths build the n x n Nystrom matrix from
its definition, so they share no code with the structured scans and
recursions they check.  The smoothed-pseudomode ratio is computed by
quadrature of the pseudomode and its image under the resolvent, so it
shares no code with the closed form it checks.  power_norm is the
power iteration of bounds.quadrature_operator_norm with its step count
and tolerance as arguments, so a dense matrix can be run through the
same iteration.  mp_coupling and mp_kernel are the coupling
1/(k_plus + k_minus) and the kernel in mpmath at raised precision, so
the tests can hold the float forms to rounding where the float sum
cancels.  The Nystrom checks of the Dirichlet-decoupled model
(its operator norm and its Birman-Schwinger HS norm) run the package's
O(n) generators with the coupling through the origin set to 0; the
tests hold them against the dense matrices here and the exact norm
1 / dist(z, sigma).  The field renderers and the CSV loader go through
csv.writer, the indenting json.dumps and csv.DictReader, one row or
dict per point, so they share no formatting or parsing code with the
templates and the column-wise reader they check; the renderers take the
grid points from NumPy's linspace and broadcasting, not from
GridSpec.points().  arpack_sigma_min, arpack_eigenvalue_near and
arpack_spectral_radius are the ARPACK calls (eigsh, eigs) that the FD
oracle and the Birman-Schwinger spectral radius ran before the
package's own Arnoldi, with the same start vector, tolerance and
iteration budget, so the tests can hold the package's Krylov iteration
against them.
"""

import csv
import io
import json
import math

import numpy as np

from sgnspec.bounds import _apply, _hs_sq, _sides, apply_resolvent
from sgnspec.bs import _weights, k_matvec, potential_grid
from sgnspec.closed import (DEFAULT_TOL_SPEC, _check_off_spectrum,
                            gamma_point, principal_sqrt, spectrum_distance,
                            wave_numbers)
from sgnspec.errors import ConvergenceError, DomainError, SpectrumError
from sgnspec.fdop import _tridiag_lu
from sgnspec.quadrature import (QuadratureGrid, decay_half_length,
                                oscillation_panel_width)


def _image_core(k, d):
    """(1 - e^{-k d}) / (2k) for d >= 0: a series in w = -k d below
    |w| = 1e-6, expm1 above it, so it stays finite at k = 0."""
    w = -k * d
    small = np.abs(w) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(w) / (2.0 * k)
    ws = w[small]
    if ws.size:
        out[small] = 0.5 * d[small] * (
            1.0 + ws * (0.5 + ws * (1.0 / 6.0 + ws / 24.0)))
    return out


def kernel_matrix(z, x, y, coupled=True):
    """Dense matrix of the resolvent kernel at (x_i, y_j), full or, with
    coupled=False, Dirichlet-decoupled.

    On one side of the origin the image-charge difference
    e^{-k|x-y|} (1 - e^{-kd}) / (2k), d = |x|+|y|-|x-y|, k = k_plus for
    x, y >= 0 and k_minus for x, y <= 0.  There d = 2 min(|x|, |y|),
    which keeps its digits where the difference cancels (|x| >> |y|).
    coupled adds the terms through
    the origin, e^{-k(|x|+|y|)} / (k_plus + k_minus) on the same side
    and e^{-k_plus|u| - k_minus|v|} / (k_plus + k_minus) across it (u
    the positive and v the negative one of x, y).  Raises SpectrumError
    on the rays except at +-i, and DomainError where a value is not
    finite.
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
        same = (pos & (y > 0.0)) | ((x < 0.0) & (y < 0.0))
    k = np.where(pos, kp, km)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(x - y)
        b = np.abs(x) + np.abs(y)
        d = 2.0 * np.minimum(np.abs(x), np.abs(y))  # b - a on one side
        image = np.exp(-k * a) * _image_core(k, d)
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


def mp_coupling(z, dps=60):
    """c = 1/(k_plus + k_minus) at z in mpmath with dps digits, as a
    complex: the sum cancels to ~1/sqrt(Re z) for Re z >> 1, so dps
    covers the digits it loses up to Re z ~ 1e30."""
    import mpmath
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z)
        return complex(1 / (mpmath.sqrt(1j - zm) + mpmath.sqrt(-1j - zm)))


def mp_kernel(z, x, y, dps=60):
    """The resolvent kernel at (x, y) in mpmath with dps digits: the
    image-charge difference plus c e^{-k(|x|+|y|)} on one side of the
    origin, c e^{-k_plus|u| - k_minus|v|} across it."""
    import mpmath
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z)
        kp, km = mpmath.sqrt(1j - zm), mpmath.sqrt(-1j - zm)
        c = 1 / (kp + km)
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        if x * y < 0:
            u, v = (x, y) if x > 0 else (y, x)
            return complex(c * mpmath.exp(-kp * u + km * v))
        k = kp if x + y >= 0 else km
        far = mpmath.exp(-k * (abs(x) + abs(y)))
        return complex((mpmath.exp(-k * abs(x - y)) - far) / (2 * k)
                       + c * far)


def power_norm(apply, weights, max_iter, tol):
    """Norm of a discretized integral operator by power iteration.

    apply(c) returns sum_j R(x_i, x_j) c_j for a weighted vector c and a
    complex symmetric kernel R.  Iterates R R^H on sw_i R(x_i, x_j) sw_j,
    sw = sqrt(weights), from the start vector of
    quadrature_operator_norm.  Raises ConvergenceError if the estimate
    has not settled to tol within max_iter steps.
    """
    rng = np.random.default_rng(0)
    sw = np.sqrt(weights)

    def m_apply(v):
        return sw * apply(sw * v)

    v = rng.standard_normal(sw.size) + 1j * rng.standard_normal(sw.size)
    v /= np.linalg.norm(v)
    val = 0.0
    for _ in range(max_iter):
        w = np.conj(m_apply(np.conj(m_apply(v))))
        nval = np.linalg.norm(w)
        v = w / nval
        if abs(nval - val) <= tol * nval:
            return math.sqrt(nval)
        val = nval
    raise ConvergenceError(
        f"power iteration not settled to {tol:g} in {max_iter} steps")


def dirichlet_sides(z, grid):
    """The O(n) generators of the Dirichlet kernel: the full kernel's
    sides with the coupling through the origin set to 0."""
    return 0.0, _sides(z, grid.nodes)[1]


def dirichlet_quadrature_norm(z, grid):
    """Operator norm of the discretized Dirichlet resolvent.

    The top singular values of a self-adjoint half cluster, so the
    iteration runs to 1e-13 in up to 5000 steps.  Raises SpectrumError
    on the spectral rays, endpoints +-i included, where the exact norm
    is infinite.
    """
    z = complex(z)
    if spectrum_distance(z) <= DEFAULT_TOL_SPEC:
        raise SpectrumError(f"z={z} lies on the spectrum")
    gen = dirichlet_sides(z, grid)
    return power_norm(lambda c: _apply(gen, c, np.empty_like(c)),
                      grid.weights, 5000, 1e-13)


def dirichlet_bs_hs_norm(z, pot, grid=None):
    """HS norm of the Dirichlet Birman-Schwinger operator in O(n), on
    potential_grid(z, pot) unless a grid is given."""
    if grid is None:
        grid = potential_grid(z, pot)
    return math.sqrt(_hs_sq(dirichlet_sides(z, grid),
                            *_weights(pot, grid)))


def gamma_branch(sigma, r_values):
    """The branch of the exceptional curve sampled at the given r values."""
    return np.array([gamma_point(r, sigma) for r in r_values])


def fd_dense(op):
    """The finite-difference matrix A as a dense array."""
    return (np.diag(op.diag) + np.diag(op.offdiag, 1)
            + np.diag(op.offdiag, -1))


def fd_banded(op, shift):
    """(3, n) banded storage of A - shift for scipy.linalg.solve_banded."""
    ab = np.zeros((3, op.size), dtype=complex)
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - shift
    ab[2, :-1] = op.offdiag
    return ab


def arpack_sigma_min(op, z):
    """Smallest singular value of A - z by ARPACK's Lanczos (eigsh) on
    ((A - z)(A - z)^H)^{-1}, applied by the tridiagonal LU solver."""
    import scipy.sparse.linalg as spla

    solve = _tridiag_lu(op, z)
    lin = spla.LinearOperator((op.size, op.size), dtype=complex,
                              matvec=lambda v: solve(solve(v, "N"), "C"))
    v0 = np.random.default_rng(0).standard_normal(op.size)
    mu = spla.eigsh(lin, k=1, which="LM", tol=1e-9, maxiter=5000, v0=v0,
                    return_eigenvectors=False)[0]
    return 1.0 / math.sqrt(mu)


def arpack_eigenvalue_near(op, target):
    """The eigenvalue of the FD matrix closest to target by ARPACK's
    shift-invert Arnoldi (eigs, tol=0), as a one-element array."""
    import scipy.sparse.linalg as spla

    inv = spla.LinearOperator((op.size, op.size), dtype=complex,
                              matvec=_tridiag_lu(op, target))
    v0 = np.random.default_rng(0).standard_normal(op.size)
    mu = spla.eigs(inv, k=1, which="LM", return_eigenvectors=False,
                   maxiter=2000, v0=v0)
    return target + 1.0 / mu


def arpack_spectral_radius(z, eps, pot):
    """Spectral radius of eps * K_z on potential_grid(z, pot) by ARPACK's
    Arnoldi (eigs, tol=0) on the matrix-free k_matvec."""
    import scipy.sparse.linalg as spla

    grid = potential_grid(z, pot)
    op = spla.LinearOperator((grid.size, grid.size), dtype=complex,
                             matvec=k_matvec(z, pot, grid))
    v0 = np.random.default_rng(0).standard_normal(grid.size)
    lam = spla.eigs(op, k=1, which="LM", v0=v0, return_eigenvectors=False,
                    maxiter=3000)
    return float(eps * abs(lam[0]))


def weights(pot, grid):
    """sw |V|^{1/2} and V_{1/2} sw, from the definition."""
    v = pot(grid.nodes)
    root = np.sqrt(np.abs(v))
    signed = np.where(root > 0.0, v / np.where(root > 0.0, root, 1.0), 0.0)
    sw = np.sqrt(grid.weights)
    return sw * root, signed * sw


def assemble_k(z, pot, grid, coupled=True):
    """Dense symmetric Nystrom matrix of |V|^{1/2} kernel V_{1/2}, for the
    full kernel or, with coupled=False, the Dirichlet one."""
    left, right = weights(pot, grid)
    return (left[:, None] * kernel_matrix(z, grid.nodes, grid.nodes, coupled)
            * right[None, :])


def dense_logdet(eps, pot, grid, z):
    """(sign, log|det|) of I + eps K_z by LAPACK LU with pivoting."""
    sign, logabs = np.linalg.slogdet(
        np.eye(grid.size) + eps * assemble_k(z, pot, grid))
    return complex(sign), float(logabs)


def pseudomode_samples(z, grid):
    """The exponential quasi-mode: e^{-conj(k+) x} on x > 0, zero elsewhere."""
    kp = wave_numbers(z).k_plus
    x = grid.nodes
    out = np.zeros(x.size, dtype=complex)
    mask = x > 0.0
    out[mask] = np.exp(-np.conj(kp) * x[mask])
    return out


def pseudomode_grid(z, a, order=10):
    """Composite Gauss-Legendre grid on [-L, L], L = decay_half_length(z),
    with panel edges at 0, +-a and +-L and panels no wider than
    oscillation_panel_width(z): the smoothing kink at -a falls between
    panels."""
    half = decay_half_length(z)
    panel = oscillation_panel_width(z)
    edges = [0.0, a, half] if a < half else [0.0, half]
    right = np.unique(np.concatenate([
        np.linspace(lo, hi, int(np.ceil((hi - lo) / panel)) + 1)
        for lo, hi in zip(edges, edges[1:])]))
    xr, wr = np.polynomial.legendre.leggauss(order)
    mids = 0.5 * (right[:-1] + right[1:])
    halves = 0.5 * np.diff(right)
    nodes = (mids[:, None] + halves[:, None] * xr).ravel()
    wts = (halves[:, None] * wr).ravel()
    return QuadratureGrid(np.concatenate([-nodes[::-1], nodes]),
                          np.concatenate([wts[::-1], wts]), half)


def pseudomode_ratio(z, a):
    """||g0|| / ||f0 - h g0|| by quadrature on pseudomode_grid(z, a).

    f0 is the quasi-mode, g0 = R_z f0 by apply_resolvent, and
    h = -i (2x/a + 2) on [-a, 0) is the sign potential minus its
    smoothing by the linear ramp i (2x/a + 1) there.
    """
    grid = pseudomode_grid(z, a)
    x = grid.nodes
    f0 = pseudomode_samples(z, grid)
    g0 = apply_resolvent(z, grid, f0)
    h = np.where((x >= -a) & (x < 0.0), -1j * (2.0 * x / a + 2.0), 0.0)
    return grid.norm(g0) / grid.norm(f0 - h * g0)


_FIELD_COLUMNS = ("re", "im", "region", "status",
                  "lower", "upper", "oracle", "oracle_err")


def _fmt(x):
    return repr(float(x))


def grid_points(grid):
    """(im_count, re_count) array of the grid points, built as NumPy's
    linspace and broadcasting give them, signed zeros included."""
    re = np.linspace(grid.re_min, grid.re_max, grid.re_count)
    im = np.linspace(grid.im_min, grid.im_max, grid.im_count)
    return re[None, :] + 1j * im[:, None]


def _field_rows(fld):
    """Formatted cells of each grid point in row-major order, in
    _FIELD_COLUMNS order; without an oracle the two oracle cells are
    left out."""
    pts = grid_points(fld.grid)
    floats = [pts.real, pts.imag, fld.lower, fld.upper]
    if fld.oracle is not None:
        floats += [fld.oracle, fld.oracle_err]
    re, im, lower, upper, *oracle = (
        [_fmt(v) for v in np.ravel(col).tolist()] for col in floats)
    region = [str(v) for v in np.ravel(fld.region)]
    status = [str(v) for v in np.ravel(fld.status)]
    return zip(re, im, region, status, lower, upper, *oracle)


def field_to_csv(fld):
    """The field as CSV text, one csv.writer row per point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELD_COLUMNS)
    empty = () if fld.oracle is not None else ("", "")
    writer.writerows(row + empty for row in _field_rows(fld))
    return buf.getvalue()


def field_to_json(fld):
    """The field as one json.dumps(indent=2, sort_keys=True) document, one
    dict per point."""
    g = fld.grid
    doc = {
        "grid": {"re_min": _fmt(g.re_min), "re_max": _fmt(g.re_max),
                 "re_count": g.re_count, "im_min": _fmt(g.im_min),
                 "im_max": _fmt(g.im_max), "im_count": g.im_count},
        "meta": fld.meta,
        "points": [dict(zip(_FIELD_COLUMNS, row))
                   for row in _field_rows(fld)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_field_csv(path):
    """Column arrays of an exported CSV, one csv.DictReader dict per row."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for col in _FIELD_COLUMNS:
        vals = [r[col] for r in rows]
        if col in ("region", "status"):
            out[col] = np.array(vals, dtype=object)
        else:
            out[col] = np.array(
                [math.nan if v == "" else float(v) for v in vals])
    return out
