"""Quadrature grids on symmetric intervals [-L, L].

Two builders: composite Gauss-Legendre (default for norm integrals) and
uniform trapezoid (used where nodes must line up with a finite-difference
grid).  Panel boundaries always include 0 so that the sign flip of the
potential and the support edges of perturbations fall between panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed import (_count, _finite, _off_spectrum, _positive,
                     wave_numbers)
from .errors import ConfigError

# nodes per Gauss-Legendre panel, and nodes per oscillation wavelength
_GL_ORDER = 10
_POINTS_PER_WAVELENGTH = 20.0

# most nodes gauss_legendre_grid builds (a multiple of 2 * _GL_ORDER).
# At 1e6 nodes quadrature_operator_norm peaks at ~125 MB (998,480 nodes
# at 2980 + 0.3i) and bs.spectral_radius, with its 21-vector Krylov
# basis, at ~490 MB (992,820 nodes at 3.8e8 + 0.5i), grid and imports
# included (ru_maxrss, 2-core x86, one BLAS thread); default_strip_grid
# needs ~0.59e6 at 1767 + 0.3i
MAX_GL_NODES = 1_000_000


@dataclass(frozen=True)
class QuadratureGrid:
    nodes: np.ndarray
    weights: np.ndarray
    half_length: float

    def __post_init__(self):
        n = self.nodes
        if n.ndim != 1 or n.size < 2:
            raise ConfigError("grid needs at least two nodes")
        if self.weights.shape != n.shape:
            raise ConfigError("weights must match the nodes in shape")
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(self.weights))):
            raise ConfigError("nodes and weights must be finite")
        if not np.all(np.diff(n) > 0.0):
            raise ConfigError("nodes must be strictly increasing")
        if np.any(self.weights < 0.0):
            raise ConfigError("weights must be non-negative")

    @property
    def size(self) -> int:
        return self.nodes.size

    def norm(self, samples: np.ndarray) -> float:
        """Quadrature L2 norm of samples on the grid."""
        return math.sqrt(float(np.sum(self.weights * np.abs(samples) ** 2)))


@lru_cache(maxsize=None)
def _gl_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    return tuple(x), tuple(w)


def gauss_legendre_grid(half_length: float,
                        panel_width: float) -> QuadratureGrid:
    """Composite Gauss-Legendre grid on [-L, L], symmetric about 0.

    Equal panels of width at most panel_width on [0, L], mirrored, with
    _GL_ORDER nodes each.  Raises ConfigError unless both lengths are
    finite and positive, and, before any allocation, where the grid's
    2 * _GL_ORDER * ceil(L / panel_width) nodes exceed MAX_GL_NODES.
    """
    # inf where the quotient overflows
    panels = (_positive(half_length, "half_length")
              / _positive(panel_width, "panel_width"))
    if not panels <= MAX_GL_NODES // (2 * _GL_ORDER):
        raise ConfigError(f"the grid needs {2 * _GL_ORDER * panels:.3g} "
                          f"nodes, more than MAX_GL_NODES = {MAX_GL_NODES}")
    m = max(1, int(math.ceil(panels)))
    right = np.linspace(0.0, half_length, m + 1)
    xr, wr = map(np.array, _gl_rule())
    mids = 0.5 * (right[:-1] + right[1:])
    half = 0.5 * np.diff(right)
    nodes_pos = (mids[:, None] + half[:, None] * xr[None, :]).ravel()
    weights_pos = (half[:, None] * wr[None, :]).ravel()
    nodes = np.concatenate([-nodes_pos[::-1], nodes_pos])
    weights = np.concatenate([weights_pos[::-1], weights_pos])
    return QuadratureGrid(nodes, weights, half_length)


def trapezoid_grid(half_length: float, n: int) -> QuadratureGrid:
    """Uniform trapezoid grid with n nodes including both endpoints.

    Raises ConfigError unless half_length is finite and positive and n
    is an odd integer of at least 3 (so that 0 is a node).
    """
    _positive(half_length, "half_length")
    n = _count(n, 3, "n")
    if n % 2 == 0:
        raise ConfigError("n must be odd so that 0 is a node")
    nodes = np.linspace(-half_length, half_length, n)
    h = nodes[1] - nodes[0]
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureGrid(nodes, weights, half_length)


def oscillation_panel_width(z: complex) -> float:
    """Panel width resolving the e^{+-i sqrt(Re z) x} oscillation.

    _POINTS_PER_WAVELENGTH nodes of _GL_ORDER-node Gauss panels per
    wavelength 2 pi / sqrt(Re z); capped at 1 for slowly varying kernels
    (Re z <= 1).  Raises DomainError for a non-finite z.
    """
    tau = max(_finite(z).real, 1.0)
    wavelength = 2.0 * math.pi / math.sqrt(tau)
    return min(1.0, wavelength * _GL_ORDER / _POINTS_PER_WAVELENGTH)


def decay_half_length(z: complex) -> float:
    """Truncation L >= 10 with e^{-Re k * L} < 1e-8.

    Re k is the slower of the two exact decay rates, min(Re k_plus,
    Re k_minus), everywhere; inside the half-strip it is small, about
    (1 - |Im z|) / (2 sqrt(Re z)), so L grows like sqrt(Re z).  z passes
    closed._off_spectrum, so both rates are positive: raises DomainError
    for a non-finite z and SpectrumError on the rays, endpoints included.
    """
    kk = wave_numbers(_off_spectrum(z))
    rate = min(kk.k_plus.real, kk.k_minus.real)
    return max(10.0, -math.log(1e-8) / rate)
