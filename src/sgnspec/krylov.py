"""The package's one Krylov iteration: the eigenvalue of largest modulus
of a matrix-free operator, by Arnoldi (Lanczos when Hermitian) with
Krylov-Schur restarts.

The FD oracle runs it on its inverted tridiagonal operators
(fdop._sigma_min_banded, fdop.eigenvalue_near) and the Birman-Schwinger
code on the Nystrom matrix of K_z (bs.spectral_radius).  The callers
pass the operator, its size, whether it is Hermitian and a tolerance;
the start vector and the restart budget (_RESTARTS) are this module's.
NumPy only: no SciPy is loaded here.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, SingularError

# the Krylov basis and the Ritz vectors a restart keeps
_BASIS = 20
_KEEP = 10
# products after which the Ritz pair is tested while the basis fills
# (fewer once the residual's trend rules them out, see
# _dominant_eigenvalue), and the factor by which the trend must miss
# the tolerance to rule them out
_EARLY_TESTS = 6
_EARLY_MARGIN = 1e3
# restarts before ConvergenceError: the largest maxiter of the ARPACK
# calls this iteration replaced (5000, 2000 and 3000), never measured
_RESTARTS = 5000


def _dominant_eigenvalue(matvec: Callable[[np.ndarray], np.ndarray],
                         n: int, hermitian: bool, tol: float) -> complex:
    """Eigenvalue of largest modulus of the operator v -> matvec(v) on
    vectors of length n, by Arnoldi (Lanczos when hermitian) with
    Krylov-Schur restarts.

    The basis is a row-major (_BASIS + 1, n) array, each new vector
    orthogonalized by two passes of classical Gram-Schmidt.  A test
    computes the Ritz pair (theta, y) of largest modulus of the small
    projected matrix (eigh when hermitian) and stops the iteration once
    the residual |beta y_last| <= tol * |theta|, ARPACK's criterion.

    One test is a small dense eigenproblem, which costs more than a
    product of the Birman-Schwinger operator at its grid sizes, so the
    Ritz pair is tested only after each of the first _EARLY_TESTS
    products, whenever the basis is full, and once the products span
    the whole space (n < _BASIS).  An operator whose dominant eigenvalue
    is well separated, as the FD oracle's are in the half-strip,
    converges within the early tests.  They stop as soon as the relative
    residual, extrapolated from the last test at the rate between the
    last two, would still exceed _EARLY_MARGIN * tol at the last early
    test: the residual then falls too slowly for them to succeed.

    A full basis restarts from the _KEEP leading Ritz vectors,
    orthonormalized, and the Krylov decomposition they span (Stewart,
    SIAM J. Matrix Anal. Appl. 23 (2001); Wu-Simon, SIAM J. Matrix Anal.
    Appl. 22 (2000)): unlike a restart from one Ritz vector, that keeps
    the convergence of clustered eigenvalues.  The start vector is the
    fixed standard normal draw of np.random.default_rng(0), so the
    result depends only on the operator and repeated calls return the
    same bits.  Raises ConvergenceError after _RESTARTS restarts and
    SingularError if a product is not finite.
    """
    v0 = np.random.default_rng(0).standard_normal(n)
    basis = np.empty((_BASIS + 1, n), dtype=complex)
    proj = np.zeros((_BASIS + 1, _BASIS), dtype=complex)
    basis[0] = v0 / np.linalg.norm(v0)
    ritz = np.linalg.eigh if hermitian else np.linalg.eig
    start = 0  # vectors carried over from the last restart
    early = _EARLY_TESTS
    last = math.inf  # relative residual of the last early test
    for _ in range(_RESTARTS + 1):
        for j in range(start, _BASIS):
            w = matvec(basis[j])
            done = basis[:j + 1]
            h = np.conj(done @ np.conj(w))
            w = w - h @ done
            again = np.conj(done @ np.conj(w))
            w -= again @ done
            # np.linalg.norm's arithmetic, without its overhead
            beta = math.sqrt(w.real @ w.real + w.imag @ w.imag)
            if not math.isfinite(beta):
                raise SingularError("Krylov product is not finite")
            proj[:j + 1, j] = h + again
            proj[j + 1, j] = beta
            if j < early or j + 1 in (_BASIS, n):
                vals, vecs = ritz(proj[:j + 1, :j + 1])
                top = np.argmax(np.abs(vals))
                resid, size = abs(beta * vecs[j, top]), abs(vals[top])
                if resid <= tol * size:
                    return vals[top]
                if j < early:
                    rel = resid / size if size else math.inf
                    rate = min(rel / last, 1.0)
                    if rel * rate ** (early - 1 - j) > _EARLY_MARGIN * tol:
                        early = j + 1
                    last = rel
            # a multiply, not a complex division, for the same bits
            np.multiply(w, 1.0 / beta, out=basis[j + 1])
        # the basis is full: keep the leading Ritz vectors of the last
        # test and their Krylov decomposition A U = U schur + v coupling
        lead = np.argsort(-np.abs(vals), kind="stable")[:_KEEP]
        if hermitian:
            q = vecs[:, lead]
            schur = np.diag(vals[lead])
        else:
            q = np.linalg.qr(vecs[:, lead])[0]
            schur = q.conj().T @ proj[:_BASIS] @ q
        coupling = proj[_BASIS] @ q
        basis[:_KEEP] = q.T @ basis[:_BASIS]
        basis[_KEEP] = basis[_BASIS]
        proj[:] = 0.0
        proj[:_KEEP, :_KEEP] = schur
        proj[_KEEP, :_KEEP] = coupling
        start = _KEEP
    raise ConvergenceError(
        f"Krylov iteration not converged in {_RESTARTS} restarts")
