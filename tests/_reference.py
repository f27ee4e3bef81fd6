"""Independent references for the tests.

The dense references for the O(n) Birman-Schwinger paths build the
n x n Nystrom matrix from its definition, so they share no code with the
structured scans and recursions they check.  The smoothed-pseudomode
ratio is computed by quadrature of the pseudomode and its image under
the resolvent, so it shares no code with the closed form it checks.
"""

import numpy as np

from sgnspec.bounds import apply_resolvent
from sgnspec.kernel import resolvent_kernel_grid, wave_numbers
from sgnspec.quadrature import (QuadratureGrid, decay_half_length,
                                oscillation_panel_width)


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
