"""Material and geometry parameters of the Landau-de Gennes model.

The bulk potential ``f(Q) = -a2/2 |Q|^2 - b2/3 tr(Q^3) + c2/4 |Q|^4`` is
minimised over uniaxial tensors ``s (n x n - I/3)`` at the equilibrium
order parameter ``s_plus``; that value fixes the amplitude of the Dirichlet
boundary data on the disk of radius ``R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import InvalidParams, _is_int


def check_k(k) -> int:
    """``k`` as a plain ``int`` if it is an integer (not a bool) with ``0 < |k| <= 2**62``,
    beyond which ``k^2 / r^2`` overflows; else :class:`InvalidParams`."""
    if _is_int(k) and 0 < abs(int(k)) <= 2**62:
        return int(k)
    raise InvalidParams(
        f"k must be a nonzero integer (k in Z \\ {{0}}) with |k| <= 2**62, got {k!r}")


def equilibrium_order_parameter(a2: float, b2: float, c2: float) -> float:
    """Positive minimiser of the bulk potential over uniaxial tensors."""
    return (b2 + math.sqrt(b2 * b2 + 24.0 * a2 * c2)) / (4.0 * c2)


@dataclass(frozen=True)
class ModelParams:
    """Physical and geometric parameters plus the derived ``s_plus``.

    ``s_plus`` is not an argument: it is always the equilibrium order
    parameter of ``a2``, ``b2`` and ``c2``.

    Parameters
    ----------
    a2, b2, c2 : float
        Bulk potential coefficients; ``a2, c2 > 0`` and ``b2 >= 0``, with
        ``s_plus^2`` finite.
    L : float
        Elastic constant, ``> 0`` with ``1/L`` finite (``L`` at least
        about ``5.6e-309``).  The value ``0`` is accepted as the symbolic
        harmonic-map limit; operations that need ``L > 0`` reject it
        explicitly.
    R : float
        Disk radius, ``0 < R < inf``.  No library solver reads it: the grid
        carries the disk.  The CLI sizes its grids with it, and
        :func:`~qdefect.harmonic.uniaxial_escape_components` scales ``r``
        by it.
    k : int
        Defect index numerator (the director winds by ``k/2`` turns), as
        :func:`check_k` accepts it; stored as a plain ``int``.
    """

    a2: float
    b2: float
    c2: float
    L: float
    R: float
    k: int
    s_plus: float = field(init=False)

    def __post_init__(self):
        if not (self.a2 > 0.0 and math.isfinite(self.a2)):
            raise InvalidParams(f"a2 must be positive, got {self.a2}")
        if not (self.c2 > 0.0 and math.isfinite(self.c2)):
            raise InvalidParams(f"c2 must be positive, got {self.c2}")
        if not (self.b2 >= 0.0 and math.isfinite(self.b2)):
            raise InvalidParams(f"b2 must be nonnegative, got {self.b2}")
        if not (self.L >= 0.0 and math.isfinite(self.L)):
            raise InvalidParams(f"L must be >= 0 and finite, got {self.L}")
        if self.L != 0.0 and 1.0 / float(self.L) == math.inf:
            raise InvalidParams(f"L = {self.L} is too small: 1/L overflows")
        if not (0.0 < self.R < math.inf):
            raise InvalidParams(f"R must satisfy 0 < R < inf, got {self.R}")
        object.__setattr__(self, "k", check_k(self.k))
        s = equilibrium_order_parameter(self.a2, self.b2, self.c2)
        object.__setattr__(self, "s_plus", s)
        if not math.isfinite(self.limit_norm_sq):
            raise InvalidParams(
                f"a2 = {self.a2}, b2 = {self.b2}, c2 = {self.c2} give s_plus = {s}, "
                "whose square overflows"
            )

    @property
    def boundary_u(self) -> float:
        """Planar-mode amplitude of the boundary data, ``s_plus / sqrt(2)``."""
        return self.s_plus / math.sqrt(2.0)

    @property
    def boundary_v(self) -> float:
        """Out-of-plane-mode amplitude of the boundary data, ``-s_plus / sqrt(6)``."""
        return -self.s_plus / math.sqrt(6.0)

    @property
    def limit_norm_sq(self) -> float:
        """Pointwise norm constraint ``(2/3) s_plus^2`` of the L -> 0 limit."""
        return (2.0 / 3.0) * self.s_plus * self.s_plus

    def with_updates(self, **kwargs) -> "ModelParams":
        """Copy with replaced fields and ``s_plus`` recomputed."""
        return replace(self, **kwargs)
