"""Dense references for the O(n) Birman-Schwinger paths, for the tests.

Each builds the n x n Nystrom matrix from its definition, so it shares
no code with the structured scans and recursions it checks.
"""

import numpy as np

from sgnspec.kernel import resolvent_kernel_grid


def weights(pot, grid):
    """sw |V|^{1/2} and V_{1/2} sw, from the definition."""
    v = pot(grid.nodes)
    root = np.sqrt(np.abs(v))
    signed = np.where(root > 0.0, v / np.where(root > 0.0, root, 1.0), 0.0)
    sw = np.sqrt(grid.weights)
    return sw * root, signed * sw


def assemble_k(z, pot, grid, kernel=resolvent_kernel_grid):
    """Dense symmetric Nystrom matrix of |V|^{1/2} kernel V_{1/2}."""
    left, right = weights(pot, grid)
    return left[:, None] * kernel(z, grid.nodes, grid.nodes) * right[None, :]


def dense_logdet(eps, pot, grid, z):
    """(sign, log|det|) of I + eps K_z by LAPACK LU with pivoting."""
    sign, logabs = np.linalg.slogdet(
        np.eye(grid.size) + eps * assemble_k(z, pot, grid))
    return complex(sign), float(logabs)
