"""Closed-form machinery for the vanishing-elastic-constant limit.

As ``L -> 0`` the energy Gamma-converges to Dirichlet minimisation under
the pointwise constraint ``|Q|^2 = (2/3) s_plus^2``; within the two-mode
ansatz the constraint is absorbed by the angle substitution

    u = sqrt(2/3) s_plus sin(psi),   v = -sqrt(2/3) s_plus cos(psi),

whose stationary profiles obey a pendulum-type first integral and are
known in closed form.  Two biaxial branches exist for every index, with
``tan(psi/2) = (r/R)^{+-|k|} / sqrt(3)``; for even index there is a third,
uniaxial solution whose director escapes out of plane at the core.

Tensors are coordinates first: the escape solution samples to
``(5,) + shape``, and separable angular factors are ``(5, A, M)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, InvalidParams
from .field import separable_dirichlet_quadrature
from .grid import PolarGrid, RadialGrid
from .params import ModelParams, check_k
from .reduced import Profile, _dirichlet, _P1Gauss
from .tensor import frame_escape_components, frame_fn_components

_SQRT23 = math.sqrt(2.0 / 3.0)
_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)


class Branch(enum.Enum):
    """Selector for the explicit limit solutions."""

    MINUS = "minus"
    PLUS = "plus"
    UNIAXIAL_ESCAPE = "uniaxial"


def explicit_arrays(branch, k: int, s_plus: float, nodes: np.ndarray):
    """Raw ``(u, v)`` samples of an explicit biaxial branch.

    ``branch`` is a :class:`Branch` or its string value.  No parameter
    validation; :func:`explicit_profile` is the checked entry point.
    """
    branch = Branch(branch)
    kk = abs(k)
    r = np.asarray(nodes, dtype=float)
    radius = float(r[-1])
    rk = (r / radius) ** kk  # normalised to avoid overflow for large k
    if branch is Branch.MINUS:
        den = rk * rk + 3.0
        u = 2.0 * _SQRT2 * s_plus * rk / den
        v = _SQRT23 * s_plus * (rk * rk - 3.0) / den
    elif branch is Branch.PLUS:
        den = 3.0 * rk * rk + 1.0
        u = 2.0 * _SQRT2 * s_plus * rk / den
        v = _SQRT23 * s_plus * (1.0 - 3.0 * rk * rk) / den
    else:
        raise InvalidParams("explicit (u, v) profiles exist for MINUS and PLUS only")
    return u, v


def explicit_profile(branch, params: ModelParams, grid: RadialGrid) -> Profile:
    """Sample an explicit limit branch on the grid.

    Requires ``b2 = 0`` (the limit constraint then reads
    ``u^2 + v^2 = a2/c2 = (2/3) s_plus^2``).  The uniaxial escape branch is
    not expressible through ``(u, v)``; ask for its field directly.
    """
    if params.b2 != 0.0:
        raise InvalidParams("explicit limit profiles require b2 = 0")
    branch = Branch(branch)
    if branch is Branch.UNIAXIAL_ESCAPE:
        raise InvalidParams(
            "the uniaxial escape solution leaves the two-mode ansatz; "
            "use uniaxial_escape_components"
        )
    u, v = explicit_arrays(branch, params.k, params.s_plus, grid.nodes)
    return Profile(grid, u, v)


# ---------------------------------------------------------------------------
# angle parametrisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiProfile:
    """Samples of the constraint angle ``psi(r)`` on a radial grid; frozen, and holding
    its own float copy of the caller's samples, as ``Profile`` is."""

    grid: RadialGrid
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", np.array(self.psi, dtype=float))
        if self.psi.shape != self.grid.nodes.shape:
            raise GridError("psi samples do not match the grid")


def psi_of_branch(branch, params: ModelParams, grid: RadialGrid) -> PsiProfile:
    """Angle profiles ``tan(psi/2) = (r/R)^{-+|k|} / sqrt(3)`` of the branches.

    Endpoint values use the analytic limits: ``psi(0)`` is 0 (MINUS) or pi
    (PLUS), and ``psi(R) = pi/3`` exactly for both.
    """
    if params.b2 != 0.0:
        raise InvalidParams("the angle parametrisation requires b2 = 0")
    branch = Branch(branch)
    kk = abs(params.k)
    rho = grid.nodes / grid.radius
    psi = np.empty_like(rho)
    if branch is Branch.MINUS:
        psi[:] = 2.0 * np.arctan(rho**kk / math.sqrt(3.0))
        psi[0] = 0.0
    elif branch is Branch.PLUS:
        psi[0] = math.pi
        psi[1:] = 2.0 * np.arctan(rho[1:] ** (-kk) / math.sqrt(3.0))
    else:
        raise InvalidParams("no angle parametrisation for the uniaxial branch")
    psi[-1] = math.pi / 3.0
    return PsiProfile(grid, psi)


def _first_derivative_o4(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fourth-order FD first derivative at interior nodes (5-node windows).

    Weights come from a local polynomial fit in scaled coordinates, so
    nonuniform grids are handled and the Vandermonde systems stay well
    conditioned.
    """
    n = x.size
    first = np.clip(np.arange(1, n - 1) - 2, 0, n - 5)
    cols = first[:, None] + np.arange(5)[None, :]
    dx = x[cols] - x[1:-1][:, None]
    scale = np.max(np.abs(dx), axis=1, keepdims=True)
    t = dx / scale
    powers = t[..., None] ** np.arange(5)[None, None, :]  # (m, 5 nodes, 5 powers)
    rhs = np.zeros((n - 2, 5, 1))
    rhs[:, 1, 0] = 1.0
    w = np.linalg.solve(np.swapaxes(powers, 1, 2), rhs)[..., 0] / scale
    return np.sum(w * y[cols], axis=1)


def first_integral_defect(psi_profile: PsiProfile, k: int) -> np.ndarray:
    """Per-node defect ``alpha(r) = sin^2(psi) - r^2 psi'^2 / k^2``.

    Exact limit solutions give zero, so the samples measure deviation from
    the pendulum first integral.  The derivative uses fourth-order FD
    weights: a second-order stencil's own truncation
    (``~ h^2 r^2 psi' psi'''``) would swamp the defect of interest on the
    steeper branch at practical resolutions.
    """
    k = check_k(k)
    r = psi_profile.grid.nodes
    dpsi = _first_derivative_o4(r, psi_profile.psi)
    ri = r[1:-1]
    s = np.sin(psi_profile.psi[1:-1])
    return s * s - (ri * dpsi) ** 2 / float(k * k)


# ---------------------------------------------------------------------------
# constrained Dirichlet energy
# ---------------------------------------------------------------------------

@dataclass
class E0Result:
    """Extended-real value of the constrained limit energy.

    ``value`` is None (the infinite-energy sentinel) when the input
    violates the norm constraint, and ``max_deviation`` reports the largest
    relative constraint violation.
    """

    value: float | None
    max_deviation: float


def e0_energy(p, params: ModelParams) -> E0Result:
    """Constrained Dirichlet energy (per unit angle) of a limit profile.

    Accepts a :class:`~qdefect.reduced.Profile` (checked against the
    constraint ``u^2 + v^2 = (2/3) s_plus^2`` to 1e-8 relative) or a
    :class:`PsiProfile` (constraint built in).  Constraint violations,
    non-finite samples among them, yield the infinite sentinel; a
    non-finite angle reports a NaN deviation, as its ``sin^2 + cos^2`` is.
    """
    if isinstance(p, PsiProfile):  # the Dirichlet sum of (psi, 0) with u = sin(psi)
        if not np.all(np.isfinite(p.psi)):
            return E0Result(value=None, max_deviation=math.nan)
        q = _P1Gauss(p.grid, params)
        dpsi = np.diff(p.psi) / q.h
        sg = np.sin(q.at_gauss(p.psi))
        value = params.limit_norm_sq * float(_dirichlet(q, dpsi * dpsi, sg * sg))
        return E0Result(value=value, max_deviation=0.0)

    if not isinstance(p, Profile):
        raise InvalidParams(f"expected Profile or PsiProfile, got {type(p)!r}")
    target = params.limit_norm_sq
    dev = float(np.max(np.abs(p.norm_sq_samples() - target))) / target
    if not dev <= 1e-8:  # a NaN sample violates the constraint too
        return E0Result(value=None, max_deviation=dev)
    q = _P1Gauss(p.grid, params)
    pt = q.point(p.u, p.v)
    value = float(_dirichlet(q, pt.du * pt.du + pt.dv * pt.dv, pt.uu))
    return E0Result(value=value, max_deviation=dev)


@dataclass
class DirichletEnergy:
    """Closed-form Dirichlet energy of an explicit branch plus a quadrature check."""

    closed_form: float
    quadrature: float


def closed_form_dirichlet(branch, params: ModelParams) -> float:
    """Exact 2D Dirichlet energies: ``(2/3)|k| pi s+^2`` (MINUS) else ``2|k| pi s+^2``."""
    branch = Branch(branch)
    kk = abs(params.k)
    s2 = params.s_plus**2
    if branch is Branch.MINUS:
        return (2.0 / 3.0) * kk * math.pi * s2
    if branch is Branch.UNIAXIAL_ESCAPE and params.k % 2 != 0:
        raise InvalidParams("the uniaxial escape solution needs even k")
    return 2.0 * kk * math.pi * s2


def dirichlet_energy_2d(
    branch, params: ModelParams, n_r: int = 256, m_phi: int = 256
) -> DirichletEnergy:
    """Closed-form 2D Dirichlet energy with an independent quadrature check.

    The quadrature is the classic finite-difference sum on an
    ``n_r x m_phi`` polar grid; it approaches the closed form at second
    order.  Every explicit field is separable, ``sum_a f_a(r) G_a(phi)``
    (``u F_n + v F_3`` for the biaxial branches, three terms for the
    escape), so the sum comes from per-ring Gram sums in ``O(n_r + m_phi)``
    without sampling the field.  The sum is invariant under scaling ``r``,
    so it is evaluated on ``rho = r / R``, which keeps it finite for any
    accepted ``R``.
    """
    if params.b2 != 0.0:
        raise InvalidParams("explicit limit fields require b2 = 0")
    branch = Branch(branch)
    closed = closed_form_dirichlet(branch, params)
    pg = PolarGrid(RadialGrid.uniform(1.0, n_r), m_phi)
    rho = pg.radial.nodes
    if branch is Branch.UNIAXIAL_ESCAPE:
        f, g = _escape_factors(rho, pg.phis, params.k, params.s_plus)
    else:
        f = np.stack(explicit_arrays(branch, params.k, params.s_plus, rho), axis=1)
        g = np.zeros((5, 2, m_phi))  # (F_n, F_3)
        g[:, 0] = frame_fn_components(pg.phis, params.k)
        g[0, 1] = 1.0
    return DirichletEnergy(closed_form=closed, quadrature=separable_dirichlet_quadrature(f, g, pg))


# ---------------------------------------------------------------------------
# uniaxial escape solution
# ---------------------------------------------------------------------------

def _escape_factors(rho, phi, k: int, s: float):
    """Factors of the escape field ``s (m x m - I/3) = sum_a f_a(rho) G_a(phi)``,
    ``m = (planar n(phi), m3)``, ``rho = r / R``, on the orthonormal frame
    ``G = (F_n, escape mode, F_3)``.  With ``m3^2 = 1 - planar^2`` the field is
    ``s planar^2 (n n - e3 e3) + s planar m3 (n e3 + e3 n) + s (e3 e3 - I/3)``,
    whose frame coordinates are ``s planar^2 / sqrt(2)``, ``sqrt(2) s planar m3``
    and ``s (2 - 3 planar^2) / sqrt(6)``.  ``f`` is ``rho.shape + (3,)``, ``G`` ``(5, 3) + phi.shape``."""
    rho_half = rho ** (abs(k) // 2)
    rho_k = rho_half * rho_half
    den = 1.0 + rho_k
    planar, m3 = 2.0 * rho_half / den, (1.0 - rho_k) / den
    p2 = planar * planar
    f = np.stack([s * p2 / _SQRT2, _SQRT2 * s * planar * m3, s * (2.0 - 3.0 * p2) / _SQRT6], axis=-1)
    g = np.zeros((5, 3) + phi.shape)
    g[:, 0] = frame_fn_components(phi, k)
    g[:, 1] = frame_escape_components(phi, k)
    g[0, 2] = 1.0
    return f, g


def uniaxial_escape_components(r, phi, params: ModelParams) -> np.ndarray:
    """Components of the out-of-plane escape solution (even k only).

    ``U = s_plus (m x m - I/3)`` where the unit director ``m`` tilts from
    the planar boundary winding to ``e3`` at the core; ``r`` and ``phi``
    broadcast against each other.
    """
    if params.k % 2 != 0:
        raise InvalidParams("the uniaxial escape solution needs even k")
    rho = np.asarray(r, dtype=float) / params.R
    f, g = _escape_factors(rho, np.asarray(phi, dtype=float), params.k, params.s_plus)
    return np.stack([sum(f[..., a] * g[c, a] for a in range(3)) for c in range(5)])

