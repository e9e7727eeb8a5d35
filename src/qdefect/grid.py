"""Radial and polar grids on the disk, with quadrature weights.

All radial integrals carry the polar measure ``r dr``.  Two node-weight
sets are provided: trapezoidal weights (the measure absorbed into the
nodes; exact for ``int r dr``) and the lumped piecewise-linear masses,
which are strictly positive including the origin node and are used to
normalise discrete gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, _is_int, _is_real

# 5-point Gauss-Legendre rule mapped to [0, 1]; exact through degree 9,
# enough for the quartic potential of piecewise-linear profile data.
_x, _w = np.polynomial.legendre.leggauss(5)
GAUSS_XI = 0.5 * (_x + 1.0)
GAUSS_W = 0.5 * _w
del _x, _w

# First interior node of a graded grid, as a fraction of the radius.
_FIRST_NODE = 1e-3


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing sample radii ``0 = r_0 < ... < r_N = R``.

    The nodes are the whole grid, held as the grid's own read-only copy;
    :meth:`uniform` and :meth:`graded` build the two standard spacings.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 17:
            raise GridError("radial grid needs at least N >= 16 segments")
        if nodes[0] != 0.0:
            raise GridError("radial grid must start at r = 0")
        if not np.all(np.diff(nodes) > 0.0):  # a NaN node fails too
            raise GridError("radial nodes must be strictly increasing")
        if not math.isfinite(nodes[-1]):
            raise GridError("radial grid must end at a finite radius")
        nodes.flags.writeable = False

    @classmethod
    def uniform(cls, radius: float, n: int) -> "RadialGrid":
        """Uniform grid with ``n`` segments on ``[0, radius]``."""
        _check_spacing(radius, n)
        return cls(np.linspace(0.0, radius, n + 1))

    @classmethod
    def graded(cls, radius: float, n: int) -> "RadialGrid":
        """Power-law grading toward the origin, ``r_i = R (i/n)^gamma``.

        ``gamma = max(1, ln 1000 / ln n)`` puts the first interior node at
        ``1e-3 * radius`` for ``n < 1000``; from ``n = 1000`` on ``gamma``
        is 1 and the grid is uniform (bit for bit :meth:`uniform` where
        ``n`` is a power of two).  The spacing varies smoothly, which
        keeps centred stencils second order and avoids the stiffness
        spikes of abrupt mesh-size jumps.
        """
        _check_spacing(radius, n)
        gamma = max(1.0, math.log(1.0 / _FIRST_NODE) / math.log(n))
        nodes = radius * (np.arange(n + 1) / n) ** gamma
        nodes[-1] = radius
        return cls(nodes)

    @classmethod
    def for_defect(cls, radius: float, n: int, k: int) -> "RadialGrid":
        """The CLI's grid: :meth:`uniform` for |k| = 1, :meth:`graded` (a
        power law, uniform for ``n >= 1000``) for steeper cores."""
        if abs(k) <= 1:
            return cls.uniform(radius, n)
        return cls.graded(radius, n)

    # -- derived quantities -------------------------------------------------

    @property
    def radius(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_segments(self) -> int:
        return self.nodes.size - 1

    @property
    def h(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoidal weights for ``int_0^R f(r) r dr``; exact for f = 1."""
        r = self.nodes
        h = self.h
        w = np.zeros_like(r)
        w[:-1] += 0.5 * h * r[:-1]
        w[1:] += 0.5 * h * r[1:]
        return w

    @property
    def node_masses(self) -> np.ndarray:
        """Lumped hat-function masses ``int phi_i(r) r dr``; all positive."""
        r = self.nodes
        h = self.h
        m = np.zeros_like(r)
        m[:-1] += h * (2.0 * r[:-1] + r[1:]) / 6.0
        m[1:] += h * (r[:-1] + 2.0 * r[1:]) / 6.0
        return m

    def same_nodes(self, other: "RadialGrid") -> bool:
        return bool(np.array_equal(self.nodes, other.nodes))  # False for other shapes


def _check_spacing(radius: float, n: int) -> None:
    """``GridError`` unless ``radius`` is a real number > 0 and ``n`` an integer number of
    segments >= 16."""
    if not (_is_real(radius) and radius > 0.0):
        raise GridError(f"radius must be positive, got {radius}")
    if not (_is_int(n) and n >= 16):
        raise GridError(f"radial grid needs an integer N >= 16 segments, got {n!r}")


@dataclass(frozen=True)
class PolarGrid:
    """Tensor-product grid: shared radial nodes x uniform angles on [0, 2pi)."""

    radial: RadialGrid
    m: int = 256

    def __post_init__(self):
        if not (_is_int(self.m) and self.m >= 64 and self.m % 2 == 0):
            raise GridError(f"angular count must be an even integer >= 64, got {self.m!r}")

    @property
    def phis(self) -> np.ndarray:
        return (2.0 * np.pi / self.m) * np.arange(self.m)

    @property
    def dphi(self) -> float:
        return 2.0 * np.pi / self.m


def three_point_derivatives(y: np.ndarray, r: np.ndarray, axis: int):
    """First and second derivatives at the nodes ``1..len-2`` of the radii ``r``.

    Three-point stencils on the non-uniform spacing, second order on a
    smoothly graded grid; ``y`` is sampled at ``r`` along ``axis`` (0 for
    radial profiles, 1 for ``(5, rings, M)`` field blocks) and the other
    axes broadcast.
    """
    shape = (-1,) + (1,) * (y.ndim - 1 - axis)
    hm = (r[1:-1] - r[:-2]).reshape(shape)
    hp = (r[2:] - r[1:-1]).reshape(shape)
    denom = hm * hp * (hm + hp)
    lead = (slice(None),) * axis
    ym, yc, yp = (y[lead + (s,)] for s in (slice(None, -2), slice(1, -1), slice(2, None)))
    d1 = (hm * hm * yp - hp * hp * ym + (hp * hp - hm * hm) * yc) / denom
    d2 = 2.0 * (hm * yp + hp * ym - (hm + hp) * yc) / denom
    return d1, d2
