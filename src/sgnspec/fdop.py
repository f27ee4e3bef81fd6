"""Finite-difference discretization oracle.

Independent second-order discretization of -u'' + V u on a truncated
interval [-L, L] with Dirichlet ends, used to cross-check the closed-form
kernel, the bound sandwich, and the model eigenvalues.  Everything here is
deliberately generic: no closed-form knowledge of the resolvent enters.
Both solvers, the sigma_min Lanczos and the shift-invert eigensolver,
factor the tridiagonal A - shift once per shift (LAPACK gttrf, partial
pivoting, O(n)) and then only back-substitute (gttrs).  Both find the
dominant eigenvalue of the inverted operator with the package's NumPy
Arnoldi (krylov._dominant_eigenvalue), which tests for convergence
after its first few products and whenever its basis is full, and
restarts Krylov-Schur style from its leading Ritz vectors.  The
oracle's coarse and fine grids are independent: from pair._MIN_NODES
nodes on the two grids together they run side by side on two threads
(pair._both), with the same bits as one after the other.  SciPy's
LAPACK wrappers are imported inside _tridiag_lu, and by
resolvent_norm_fd before it pairs the grids, so that importing this
module does not load SciPy; nothing here loads scipy.sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed import _count, _finite, _off_spectrum, _positive, _setting
from .errors import ConfigError, SingularError
from .krylov import _dominant_eigenvalue
from .pair import _both
from .quadrature import decay_half_length

# most coarse nodes resolvent_norm_fd derives for itself (the fine grid
# has twice as many).  At 1000 + 0.5i the rule asks for 269,051: the
# call takes 0.4-0.55 s and ~220 MB peak RSS with its two grids side by
# side, 0.5-0.57 s and ~173 MB one after the other (2-core x86, one BLAS
# thread, SciPy's import included).
MAX_ORACLE_NODES = 300_001

# h * kappa on the derived grid, so that h^2 * Re z <= 0.3 in the strip
_H_KAPPA = math.sqrt(0.3)

# each job's residual tolerance relative to the Ritz value, as in the
# ARPACK calls the Arnoldi replaced (eigsh tol=1e-9, eigs tol=0)
_SIGMA_TOL = 1e-9
_EIG_TOL = float(np.finfo(float).eps)


def _sign(x: np.ndarray) -> np.ndarray:
    """The unperturbed potential i sgn(x)."""
    return 1j * np.sign(x)


@dataclass(frozen=True)
class FDOperator:
    """Tridiagonal discretization of a Schrodinger operator.

    nodes: interior grid points (Dirichlet values at +-L are eliminated)
    diag, offdiag: matrix entries; the matrix is complex symmetric.
    """

    nodes: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    half_length: float
    step: float

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class OracleResult:
    """A finite-difference estimate together with a Richardson error bar."""

    value: float
    error: float
    n: int


def step_potential(a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """Potential of the step model: the perturbation cancels the
    imaginary sign on (-a, a) and replaces it by the real well -b.
    Raises ConfigError unless 0 < a < inf and b is finite."""
    _positive(a, "half-width a")
    _setting(b, "well depth b")

    def v(x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x) < a, -b + 0j, 1j * np.sign(x))

    return v


def build_fd(n: int, half_length: float,
             potential: Callable[[np.ndarray], np.ndarray] = _sign,
             center_jump: float = 0.0,
             cell_average: bool = False) -> FDOperator:
    """Second-order centered finite differences on (-L, L), Dirichlet ends.

    potential maps the nodes to the values of V; it defaults to the sign
    potential i sgn(x).  n is the number of interior nodes; use odd n so
    that x = 0 is a node (required when center_jump is nonzero).
    center_jump adds the grid representation of a delta well with
    coupling alpha at the origin: matching condition
    u'(0+) - u'(0-) = alpha u(0), realized as -alpha/h on the center
    diagonal entry.  cell_average samples the potential by
    a 33-point average over each grid cell instead of pointwise, which
    restores second order for discontinuous potentials off the grid.
    Raises ConfigError unless n is an integer >= 3, half_length is
    finite and positive and center_jump is finite.
    """
    n = _count(n, 3, "n")
    _positive(half_length, "half_length")
    _setting(center_jump, "center_jump")
    if not callable(potential):
        raise ConfigError(f"potential must be callable, not {potential!r}")
    h = 2.0 * half_length / (n + 1)
    x = -half_length + h * np.arange(1, n + 1)
    if cell_average:
        # summed one offset at a time: O(n) memory, not an (n, 33) array
        vx = np.zeros(n, dtype=complex)
        for off in (np.arange(33) - 16.0) / 33.0 * h:
            vx += potential(x + off)
        vx /= 33.0
    else:
        vx = potential(x).astype(complex)
    diag = 2.0 / h**2 + vx
    if center_jump != 0.0:
        if n % 2 == 0:
            raise ConfigError("center_jump needs odd n so that 0 is a node")
        diag[n // 2] += -center_jump / h
    offdiag = np.full(n - 1, -1.0 / h**2, dtype=complex)
    return FDOperator(nodes=x, diag=diag, offdiag=offdiag,
                      half_length=half_length, step=h)


def _tridiag_lu(op: FDOperator,
                shift: complex) -> Callable[[np.ndarray, str], np.ndarray]:
    """Solver for (A - shift) from one LU factorization (LAPACK gttrf).

    Factoring costs O(n) with partial pivoting; each solve(b, trans) is
    one O(n) gttrs back-substitution on the stored factors, applying
    (A - shift)^{-1} for trans="N" and (A - shift)^{-H} for trans="C".
    Raises SingularError if A - shift is exactly singular.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=complex)
    dl, d, du, du2, ipiv, info = gttrf(op.offdiag, op.diag - shift,
                                       op.offdiag)
    if info > 0:
        raise SingularError(f"A - shift singular at shift={shift}")

    def solve(b: np.ndarray, trans: str = "N") -> np.ndarray:
        return gttrs(dl, d, du, du2, ipiv, b, trans=trans)[0]

    return solve


def _sigma_min_banded(op: FDOperator, z: complex) -> float:
    """Smallest singular value of (A - z) via Lanczos on the inverted
    normal operator ((A - z)(A - z)^H)^{-1}.

    A - z is factored once (see _tridiag_lu); each Lanczos step is then
    two back-substitutions on those factors, one with (A - z) and one
    with its adjoint, and _dominant_eigenvalue stops at the relative
    residual _SIGMA_TOL.  Lanczos rather than power iteration because
    the two smallest singular values can lie close.  On the grids that
    resolvent_norm_fd takes, sigma_2/sigma_1 is 7 to 500 in the
    half-strip (5 + 0.5i through 300 + 0.3i), where Lanczos stops after
    a handful of steps, but only 1.009 to 1.13 left of it or above it
    (2 + 3i, -3 + 0.1i, -0.5, -1 + 0.5i); on a grid with h * kappa >= 2
    (see _resolved_n) they cluster to ~1e-6 relative, and the
    Krylov-Schur restarts carry the iteration.  op is dropped once
    factored: a caller that passes its only reference frees it.  The
    Lanczos start vector
    is fixed (krylov's), so repeated calls return the same bits.  Raises
    ConvergenceError if Lanczos does not converge within
    krylov._RESTARTS restarts and SingularError if A - z is singular.
    """
    size = op.size
    solve = _tridiag_lu(op, z)
    del op  # the factors are all the solves need
    mu = _dominant_eigenvalue(lambda v: solve(solve(v, "N"), "C"), size,
                              True, _SIGMA_TOL)
    if not mu > 0.0:
        raise SingularError(f"inverse normal operator degenerate at z={z}")
    return 1.0 / math.sqrt(mu)


def _resolved_n(z: complex, half_length: float, n: int | None) -> int:
    """The coarse grid resolvent_norm_fd takes at z.

    An explicit n is kept while h * kappa < 2, where h = 2L/(n + 1) and
    kappa = max(|k+|, |k-|, 1), |k+-|^2 = |z -+ i|.  Past that,
    (h * kappa)^2 >= 4 puts the pseudomodes' oscillation
    e^{i sqrt(Re z) x} above the top of the FD Laplacian's symbol, 4/h^2:
    the grid cannot represent it, and n is derived as when it is None.

    The derived n is the smallest odd n >= 2001 with
    h * kappa <= _H_KAPPA.  In the half-strip |k|^2 >= Re z, so
    h^2 * Re z <= 0.3, which resolves the oscillation; elsewhere kappa
    resolves the pseudomodes' O(1) decay.  Raises ConfigError if an
    explicit n is not an integer >= 3, and, naming n, if the derived n
    exceeds MAX_ORACLE_NODES.
    """
    kappa = math.sqrt(max(abs(z - 1j), abs(z + 1j), 1.0))
    if n is not None:
        n = _count(n, 3, "n")  # as build_fd, before n + 1 can be 0
        if 2.0 * half_length / (n + 1) * kappa < 2.0:
            return n
    need = 2.0 * half_length * kappa / _H_KAPPA - 1.0
    if not need <= MAX_ORACLE_NODES:  # also an inf or NaN need
        n = math.ceil(need) | 1 if math.isfinite(need) else need
        raise ConfigError(f"the FD oracle at z={z} needs n = {n} nodes, "
                          f"more than MAX_ORACLE_NODES = {MAX_ORACLE_NODES}")
    n = max(2001, math.ceil(need) | 1)
    while 2.0 * half_length / (n + 1) * kappa > _H_KAPPA:  # rounding
        n += 2
    return n


def resolvent_norm_fd(z: complex, n: int | None = None) -> OracleResult:
    """Resolvent norm estimate 1/sigma_min(A - z) from the FD matrix of
    the unperturbed operator on [-L, L], L = decay_half_length(z).

    sigma_min comes from Lanczos on the inverted normal operator, one
    tridiagonal factorization per call and two back-substitutions per
    step (see _sigma_min_banded), at every n.  The computation is repeated
    at half the step size; the fine value is reported, with the
    Richardson extrapolation residual |v_fine - v_coarse| / 3 of the
    second-order scheme as its error, and the fine n.  The fine grid is
    built first; from pair._MIN_NODES nodes on the two together its
    Lanczos runs on a thread of its own while the calling thread builds
    and runs the coarse grid (pair._both), with the same bits, and where
    both fail the coarse grid's error is raised, as in the serial order.
    Each grid's operator is dropped once factored (_sigma_min_banded),
    so the two grids hold their factors and Krylov bases but not two
    operators.

    The grid must resolve the oscillation e^{i sqrt(Re z) x} of the
    pseudomodes.  With h = 2L/(n + 1) and kappa = max(|k+|, |k-|, 1),
    an explicit n is used while h * kappa < 2.  At h * kappa >= 2 the
    oscillation lies above the top of the FD Laplacian's symbol, 4/h^2,
    so the call takes the grid it derives when n is None: the smallest
    odd n >= 2001 with h * kappa <= sqrt(0.3) (see _resolved_n), which
    is 2001 wherever 2001 already resolves z.  At z = 76.58 - 0.486i an
    explicit n = 2001 has h * kappa = 5.5, so the call runs n = 20,045
    and returns 204.45 +- 4.6, inside the proved sandwich [87.6, 403.0].

    The error measures h only, not the truncation at L.  Left of the
    strip the norm sits at the threshold of the essential spectrum and
    the truncated problem reaches it like 1/L^2: at z = -1 + 0.5i this
    returns 0.87691049 +- 6.8e-8, below the rigorous lower bound
    1/dist(z, sigma(H)) = 0.89442719.

    z passes closed._off_spectrum: raises DomainError for a non-finite z
    and SpectrumError on the spectral rays (endpoints +-i included),
    where the norm is infinite; ConfigError, before any allocation, if
    the derived n exceeds MAX_ORACLE_NODES (also where it replaces an
    explicit n), ConvergenceError if Lanczos does not converge and
    SingularError if A - z is singular.
    """
    z = _off_spectrum(z)
    half_length = decay_half_length(z)
    n = _resolved_n(z, half_length, n)
    n_fine = 2 * n + 1  # halves h while keeping 0 on the grid for odd n
    # loaded here, so that the two grids' threads never race its import
    import scipy.linalg.lapack  # noqa: F401
    # public functions run on the calling thread (see pair), so the fine
    # grid is built here; its job takes the only reference, and each
    # job drops its operator once factored
    fine = [build_fd(n_fine, half_length)]
    sigma = _both(n + n_fine,
                  lambda: _sigma_min_banded(build_fd(n, half_length), z),
                  lambda: _sigma_min_banded(fine.pop(), z))
    coarse, fine = (1.0 / s for s in sigma)
    return OracleResult(value=fine, error=abs(fine - coarse) / 3.0, n=n_fine)


def eigenvalue_near(target: complex, n: int, half_length: float,
                    potential: Callable = _sign,
                    center_jump: float = 0.0,
                    cell_average: bool = False) -> np.ndarray:
    """The eigenvalue closest to target via shift-invert Arnoldi, as a
    one-element array.

    A - target is factored once (see _tridiag_lu), so each Arnoldi step
    is one O(n) back-substitution; _dominant_eigenvalue stops when the
    Ritz residual falls to machine epsilon relative to the Ritz value.
    Works on fine grids (n ~ 10^5 - 10^6) where the dense solve is out
    of reach; accuracy is then limited only by the discretization.  The
    Arnoldi start vector is fixed (krylov's), so repeated calls return
    the same bits.  Raises DomainError for a non-finite target,
    ConfigError for the grid as build_fd does, SingularError if
    A - target is exactly singular and ConvergenceError if Arnoldi does
    not converge within krylov._RESTARTS restarts.
    """
    _finite(target)
    op = build_fd(n, half_length, potential, center_jump, cell_average)
    size = op.size
    solve = _tridiag_lu(op, target)
    del op  # the factors are all the solves need
    mu = _dominant_eigenvalue(solve, size, False, _EIG_TOL)
    return np.array([target + 1.0 / mu])
