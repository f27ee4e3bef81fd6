"""Finite-difference discretization oracle.

Independent second-order discretization of -u'' + V u on a truncated
interval [-L, L] with Dirichlet ends, used to cross-check the closed-form
kernel, the bound sandwich, and the model eigenvalues.  Everything here is
deliberately generic: no closed-form knowledge of the resolvent enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceError, SingularError, \
    SpectrumError
from .kernel import DEFAULT_TOL_SPEC, spectrum_distance
from .quadrature import decay_half_length

_POTENTIALS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sgn": lambda x: 1j * np.sign(x),
    "free": lambda x: np.zeros_like(x, dtype=complex),
}


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

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return a

    def sparse(self) -> sp.csc_matrix:
        return sp.diags(
            [self.offdiag, self.diag, self.offdiag], [-1, 0, 1],
            format="csc", dtype=complex)

    def banded(self, shift: complex = 0.0) -> np.ndarray:
        """(3, n) banded storage of (A - shift) for solve_banded."""
        n = self.size
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = self.offdiag
        ab[1, :] = self.diag - shift
        ab[2, :-1] = self.offdiag
        return ab


@dataclass(frozen=True)
class OracleResult:
    """A finite-difference estimate together with a Richardson error bar."""

    value: float
    error: float
    n: int


def smoothed_sign(scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """i times the piecewise-linear regularization of sign with ramp [-a, 0]."""
    a = float(scale)
    if a <= 0.0:
        raise ConfigError("smoothing scale must be positive")

    def v(x: np.ndarray) -> np.ndarray:
        ramp = np.clip(2.0 * x / a + 1.0, -1.0, 1.0)
        out = np.where(x >= 0.0, 1.0, np.where(x <= -a, -1.0, ramp))
        return 1j * out

    return v


def step_potential(a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """Potential of the step model: the perturbation cancels the
    imaginary sign on (-a, a) and replaces it by the real well -b."""

    def v(x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x) < a, -b + 0j, 1j * np.sign(x))

    return v


def build_fd(n: int, half_length: float,
             potential: str | Callable[[np.ndarray], np.ndarray] = "sgn",
             center_jump: float = 0.0,
             cell_average: bool = False) -> FDOperator:
    """Second-order centered finite differences on (-L, L), Dirichlet ends.

    n is the number of interior nodes; use odd n so that x = 0 is a node
    (required when center_jump is nonzero).  center_jump adds the grid
    representation of a delta well with coupling alpha at the origin:
    matching condition u'(0+) - u'(0-) = alpha u(0), realized as -alpha/h
    on the center diagonal entry.  cell_average samples the potential by
    a 33-point average over each grid cell instead of pointwise, which
    restores second order for discontinuous potentials off the grid.
    """
    if n < 3:
        raise ConfigError("need at least 3 interior nodes")
    v = _POTENTIALS[potential] if isinstance(potential, str) else potential
    h = 2.0 * half_length / (n + 1)
    x = -half_length + h * np.arange(1, n + 1)
    if cell_average:
        offs = (np.arange(33) - 16.0) / 33.0 * h
        vx = np.mean(v(x[:, None] + offs[None, :]), axis=1)
    else:
        vx = v(x).astype(complex)
    diag = 2.0 / h**2 + vx
    if center_jump != 0.0:
        if n % 2 == 0:
            raise ConfigError("center_jump needs odd n so that 0 is a node")
        diag[n // 2] += -center_jump / h
    offdiag = np.full(n - 1, -1.0 / h**2, dtype=complex)
    return FDOperator(nodes=x, diag=diag, offdiag=offdiag,
                      half_length=half_length, step=h)


def _sigma_min_banded(op: FDOperator, z: complex, tol: float = 1e-9) -> float:
    """Smallest singular value of (A - z) via Lanczos on the inverted
    normal operator ((A - z)(A - z)^H)^{-1}.

    Each application costs two banded solves; A is complex symmetric so
    the adjoint factor is just the conjugated band.  Lanczos rather than power iteration because the extreme singular
    values cluster along the pseudospectral plateau.
    """
    ab = op.banded(z)
    ab_conj = np.conj(ab)

    def inv_normal(v):
        # A - z is complex symmetric, so (A - z)^H = conj(A - z) and the
        # adjoint solve is a plain solve with the conjugated band.
        try:
            w = sla.solve_banded((1, 1), ab, v)
            return sla.solve_banded((1, 1), ab_conj, w)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularError(f"A - z singular at z={z}") from exc

    lin = spla.LinearOperator((op.size, op.size), matvec=inv_normal,
                              dtype=complex)
    try:
        mu = spla.eigsh(lin, k=1, which="LM", tol=tol, maxiter=5000,
                        return_eigenvectors=False)[0]
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge for sigma_min at z={z}") from exc
    if not np.isfinite(mu) or mu <= 0.0:
        raise SingularError(f"inverse normal operator degenerate at z={z}")
    return 1.0 / math.sqrt(mu)


def resolvent_norm_fd(z: complex, n: int = 2001,
                      half_length: float | None = None,
                      potential: str | Callable = "sgn",
                      center_jump: float = 0.0,
                      richardson: bool = True) -> OracleResult:
    """Resolvent norm estimate 1/sigma_min(A - z) from the FD matrix.

    sigma_min comes from Lanczos on the inverted normal operator, two
    banded solves per step (see _sigma_min_banded), at every n.  With
    richardson=True the computation is repeated at half the step size and
    the reported error is the Richardson extrapolation residual
    |v_fine - v_coarse| / 3 of the second-order scheme.  Raises
    SpectrumError on the spectral rays (endpoints +-i included), where
    the norm is infinite, ConvergenceError if Lanczos does not converge
    and SingularError if A - z is singular.
    """
    z = complex(z)
    if spectrum_distance(z) <= DEFAULT_TOL_SPEC:
        raise SpectrumError(f"z={z} lies on the essential spectrum")
    if half_length is None:
        half_length = decay_half_length(z)

    def norm_at(m: int) -> float:
        op = build_fd(m, half_length, potential, center_jump)
        return 1.0 / _sigma_min_banded(op, z)

    coarse = norm_at(n)
    if not richardson:
        return OracleResult(value=coarse, error=math.nan, n=n)
    n_fine = 2 * n + 1  # halves h while keeping 0 on the grid for odd n
    fine = norm_at(n_fine)
    return OracleResult(value=fine, error=abs(fine - coarse) / 3.0, n=n_fine)


def eigenvalue_near(target: complex, n: int, half_length: float,
                    potential: str | Callable = "sgn",
                    center_jump: float = 0.0,
                    cell_average: bool = False,
                    k: int = 1) -> np.ndarray:
    """Eigenvalues closest to target via sparse LU shift-invert Arnoldi.

    Works on fine grids (n ~ 10^5 - 10^6) where the dense solve is out of
    reach; accuracy is then limited only by the discretization.
    """
    op = build_fd(n, half_length, potential, center_jump, cell_average)
    a = op.sparse() - target * sp.identity(n, dtype=complex, format="csc")
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise SingularError(f"shift {target} hit an eigenvalue") from exc
    inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=complex)
    mu = spla.eigs(inv, k=k, which="LM", return_eigenvectors=False,
                   maxiter=2000)
    vals = target + 1.0 / mu
    return vals[np.argsort(np.abs(vals - target))]

