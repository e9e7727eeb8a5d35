"""Q-tensor fields on the disk: lifting, energies, residuals, stability.

Two discretisations coexist deliberately:

* a classic finite-difference scheme (compact/centred stencils in the
  angle, trapezoidal node quadrature in radius) behind
  :func:`ldg_energy_2d`, :func:`el_residual_2d` and the Dirichlet
  quadrature helpers -- an independent route used to cross-check the
  reduced 1D functional, streamed over blocks of rings so that its
  working memory is O(block x M);
* a consistent scheme (Fourier differentiation in the angle, the same
  per-segment Gauss rule in radius as the reduced energy) behind
  :func:`ldg_energy_spectral`, :func:`second_variation` and
  :func:`energy_gap`.  Sharing quadrature points with the 1D solver makes
  lifted minimisers exactly stationary for the discrete 2D functional, so
  the quadratic-form expansion of the energy difference holds to
  round-off instead of to scheme mismatch.

One kernel, :class:`_GaussRings`, evaluates the consistent scheme from
node products and Parseval ring sums; nothing is interpolated to the
Gauss radii except ``tr Q^3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionInvalid, GridError, InvalidParams
from .grid import GAUSS_XI, PolarGrid
from .params import ModelParams
from .reduced import Profile
from . import tensor
from .tensor import F3_COMPONENTS, frame_fn_components


@dataclass
class Field2D:
    """Q-tensor samples on a polar grid, components ``(N+1, M, 5)``."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.radial.nodes.size, self.grid.m, 5)
        if self.values.shape != expected:
            raise GridError(
                f"field values {self.values.shape} do not match grid {expected}"
            )

    def copy(self) -> "Field2D":
        return Field2D(self.grid, self.values.copy())

    def same_grid(self, other: "Field2D") -> bool:
        return self.grid.m == other.grid.m and self.grid.radial.same_nodes(
            other.grid.radial
        )


def _lift_rows(u: np.ndarray, v: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """``u F_n + v F_3`` on the rings sampled by ``u, v``; ``fn`` is ``F_n(phi)``, ``(M, 5)``."""
    vals = u[:, None, None] * fn
    vals += v[:, None, None] * F3_COMPONENTS
    return vals


def lift(profile: Profile, k: int, grid: PolarGrid) -> Field2D:
    """Lift radial samples to the disk: ``Y(r, phi) = u F_n(phi) + v F_3``."""
    if not profile.grid.same_nodes(grid.radial):
        raise GridError("profile radial nodes do not match the polar grid")
    return Field2D(grid, _lift_rows(profile.u, profile.v, frame_fn_components(grid.phis, k)))


# ---------------------------------------------------------------------------
# classic finite-difference scheme
# ---------------------------------------------------------------------------

# Bytes of one ``(rings, M, 5)`` block array, measured on the CLI commands:
# 80 KB blocks pay per-block overhead (2 rings at M = 1024), and blocks of
# 1 MB or more made the M = 256 passes slower again; 320-640 KB were level.
_BLOCK_BYTES = 512 * 1024


def _ring_blocks(m: int, start: int, stop: int):
    """Ranges ``[lo, hi)`` of at most ``_BLOCK_BYTES / (40 m)`` rings covering ``start..stop-1``."""
    step = max(1, _BLOCK_BYTES // (40 * m))
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _fd_terms(rows, grid: PolarGrid, params: ModelParams | None = None):
    """``0.5 int |grad Q|^2`` via radial slopes and centred angular stencils,
    and with ``params`` the bulk integral ``int f(Q)``, else ``None``.

    ``rows(lo, hi)`` returns the samples of rings ``lo..hi-1``.  The loop
    streams ring blocks (each reads one ring past its end for the slopes)
    and keeps per-ring sums, so no full-size array is live and the final
    sums run over the same per-ring values in the same order as a
    full-array pass.
    """
    radial = grid.radial
    r = radial.nodes
    h = radial.h
    dphi = grid.dphi
    n = r.size
    slope_sq = np.empty(n - 1)
    edge_sq = np.empty(n)
    dens = None if params is None else np.empty(n)
    for lo, hi in _ring_blocks(grid.m, 0, n):
        top = min(hi + 1, n)
        vals = rows(lo, top)
        slopes = (vals[1:] - vals[:-1]) / h[lo:top - 1, None, None]
        slope_sq[lo:top - 1] = np.sum(tensor.frob_sq(slopes), axis=1)
        # angular edges: piecewise-linear in phi on each ring
        own = vals[: hi - lo]
        edges = (np.roll(own, -1, axis=1) - own) / dphi
        edge_sq[lo:hi] = np.sum(tensor.frob_sq(edges), axis=1)
        if dens is not None:
            dens[lo:hi] = np.sum(tensor.bulk_density(own, params), axis=1)

    seg_w = 0.5 * h * (r[:-1] + r[1:])  # exact int_seg r dr
    rad_part = float(np.sum(seg_w * slope_sq) * dphi)
    wtrap = radial.weights  # zero at the origin node, so no 1/r^2 blow-up
    ang_part = float(np.sum(wtrap[1:] / (r[1:] ** 2) * edge_sq[1:]) * dphi)
    pot = None if dens is None else float(np.sum(wtrap * dens) * dphi)
    return 0.5 * (rad_part + ang_part), pot


def _field_rows(field: Field2D):
    return lambda lo, hi: field.values[lo:hi]


def dirichlet_quadrature(field: Field2D) -> float:
    """Numerical Dirichlet energy ``0.5 int |grad Q|^2`` of a sampled field."""
    return _fd_terms(_field_rows(field), field.grid)[0]


def fd_energy_terms(field: Field2D, params: ModelParams):
    """``(dirichlet_quadrature(field), int f(Q))`` from one streamed pass.

    :func:`ldg_energy_2d` is ``dirichlet + potential / L`` of these.
    """
    return _fd_terms(_field_rows(field), field.grid, params)


def ldg_energy_2d(field: Field2D, params: ModelParams) -> float:
    """Landau-de Gennes energy ``int 0.5 |grad Q|^2 + f(Q)/L`` over the disk.

    Classic second-order quadrature, independent of the reduced 1D
    discretisation; for lifted ansatz fields it reproduces ``2 pi`` times
    the reduced energy up to O(h^2).
    """
    if params.L <= 0.0:
        raise InvalidParams("ldg_energy_2d requires L > 0")
    dirichlet, pot = fd_energy_terms(field, params)
    return dirichlet + pot / params.L


def _laplacian(values: np.ndarray, r: np.ndarray, dphi: float) -> np.ndarray:
    """Five-point polar Laplacian at the rings ``1..len-2`` of ``values`` (radii ``r``)."""
    hm = (r[1:-1] - r[:-2])[:, None, None]
    hp = (r[2:] - r[1:-1])[:, None, None]
    denom = hm * hp * (hm + hp)
    vm = values[:-2]
    vc = values[1:-1]
    vp = values[2:]
    d1 = (hm * hm * vp - hp * hp * vm + (hp * hp - hm * hm) * vc) / denom
    d2 = 2.0 * (hm * vp + hp * vm - (hm + hp) * vc) / denom
    ddphi = (np.roll(vc, -1, axis=1) - 2.0 * vc + np.roll(vc, 1, axis=1)) / dphi**2
    ri = r[1:-1][:, None, None]
    return d2 + d1 / ri + ddphi / ri**2


def polar_laplacian(values: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """Five-point polar Laplacian on interior rings ``1..N-1``.

    The origin ring is excluded: the stencil is singular there and every
    field of interest is smooth across it.
    """
    return _laplacian(values, grid.radial.nodes, grid.dphi)


def polar_gradient_sq(values: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """``|grad Q|^2`` (Frobenius) on interior rings via compact stencils.

    Squared one-sided differences are averaged onto the nodes (the
    consistent partner of the three-point second difference), which
    carries a four-fold smaller angular truncation constant than centred
    first differences.
    """
    r = grid.radial.nodes
    h = grid.radial.h
    fwd = (values[1:] - values[:-1]) / h[:, None, None]
    fsq = tensor.frob_sq(fwd)  # (N, M) at segment midpoints
    hm = h[:-1][:, None]
    hp = h[1:][:, None]
    rad = (hm * fsq[:-1] + hp * fsq[1:]) / (hm + hp)

    vc = values[1:-1]
    edge = (np.roll(vc, -1, axis=1) - vc) / grid.dphi
    esq = tensor.frob_sq(edge)
    ang = 0.5 * (esq + np.roll(esq, 1, axis=1))
    ri = r[1:-1][:, None]
    return rad + ang / ri**2


@dataclass
class ResidualField:
    """Tensor-valued residual samples on the interior rings."""

    rings: np.ndarray
    values: np.ndarray

    def norms(self) -> np.ndarray:
        return np.sqrt(tensor.frob_sq(self.values))

    def max_norm(self, r_min: float = 0.0) -> float:
        """Max Frobenius norm over rings with ``r >= r_min``.

        Near the origin the angular stencil error scales like
        ``dphi^2 / r``, so quality metrics should pass a bulk cutoff
        (0.05 R is used by the verification suite).
        """
        mask = self.rings >= r_min
        return float(np.max(self.norms()[mask]))


def el_residual_2d(field: Field2D, params: ModelParams) -> ResidualField:
    """Euler-Lagrange residual ``L lap Q + a2 Q + b2 (Q^2 - |Q|^2 I/3) - c2 |Q|^2 Q``.

    Evaluated with the five-point polar stencil on interior rings; each
    sample stays symmetric traceless by construction of the component
    representation.
    """
    if params.L <= 0.0:
        raise InvalidParams("el_residual_2d requires L > 0")
    r = field.grid.radial.nodes
    values = field.values
    res = np.empty((r.size - 2,) + values.shape[1:])
    for lo, hi in _ring_blocks(field.grid.m, 1, r.size - 1):
        lap = _laplacian(values[lo - 1:hi + 1], r[lo - 1:hi + 1], field.grid.dphi)
        vc = values[lo:hi]
        nsq = tensor.frob_sq(vc)[..., None]
        res[lo - 1:hi - 1] = (
            params.L * lap
            + params.a2 * vc
            + params.b2 * tensor.deviatoric_square(vc)
            - params.c2 * nsq * vc
        )
    return ResidualField(rings=r[1:-1].copy(), values=res)


# ---------------------------------------------------------------------------
# consistent spectral/Gauss scheme
# ---------------------------------------------------------------------------

def _orthonormal(values: np.ndarray) -> np.ndarray:
    """Samples ``(N+1, M, 5)`` as ``(5, N+1, M)`` coordinates in which the
    Frobenius product is Euclidean (an orthonormal basis of the tensors)."""
    q11, q12, q13, q22, q23 = np.moveaxis(values, -1, 0)
    r2 = math.sqrt(2.0)
    return np.stack([math.sqrt(1.5) * (q11 + q22), (q11 - q22) / r2, r2 * q12, r2 * q13, r2 * q23])


class _GaussRings:
    """The spectral/Gauss kernel of one polar grid, built per public call.

    At ``xi`` on segment ``i`` a product of two piecewise-linear fields is
    ``(1-xi)^2 a_i:b_i + 2 xi (1-xi) a_i:b_{i+1} + xi^2 a_{i+1}:b_{i+1}``,
    so Gauss sums are weighted sums of node products (fields given by
    :func:`_orthonormal`).  ``wg``: Gauss weights of ``int f r dr dphi``;
    ``inv_rg2``: inverse squared Gauss radii; ``coef``: the node weights.
    """

    def __init__(self, grid: PolarGrid):
        self.m = grid.m
        self.h = grid.radial.h
        rg, wg = grid.radial.gauss_points()
        self.wg = wg * grid.dphi
        self.inv_rg2 = 1.0 / (rg * rg)
        lo = 1.0 - GAUSS_XI
        self.coef = np.stack([lo * lo, 2.0 * lo * GAUSS_XI, GAUSS_XI * GAUSS_XI])

    @staticmethod
    def products(a: np.ndarray, b: np.ndarray | None = None):
        """Node products ``a_i:b_i`` and ``(a_i:b_{i+1} + a_{i+1}:b_i) / 2`` per point."""
        b = a if b is None else b
        cross = np.einsum("cij,cij->ij", a[:, :-1], b[:, 1:])
        if b is not a:
            cross = 0.5 * (cross + np.einsum("cij,cij->ij", a[:, 1:], b[:, :-1]))
        return np.einsum("cij,cij->ij", a, b), cross

    def integrate(self, prods, weight=1.0) -> float:
        """``int w a:b`` from node products (per point or ring sums), ``w`` at the Gauss radii."""
        nodes, cross = (p.sum(axis=1) if p.ndim == 2 else p for p in prods)
        c = (self.wg * weight) @ self.coef.T
        return float(np.sum(c[:, 0] * nodes[:-1] + c[:, 1] * cross + c[:, 2] * nodes[1:]))

    def integrate_pair(self, a, b) -> float:
        """``int (a:a')(b:b')`` from per-point node products: nine ring sums."""
        sa = np.stack([a[0][:-1], a[1], a[0][1:]])
        sb = np.stack([b[0][:-1], b[1], b[0][1:]])
        k = np.einsum("ig,ag,bg->abi", self.wg, self.coef, self.coef)
        return float(np.sum(k * np.einsum("aij,bij->abi", sa, sb)))

    def radial_sq(self, a: np.ndarray) -> np.ndarray:
        """Ring sums of ``|d_r a|^2`` per segment, from the slopes themselves."""
        d = a[:, 1:] - a[:, :-1]
        return np.einsum("cij,cij->i", d, d) / (self.h * self.h)

    def phi_products(self, a: np.ndarray):
        """Ring sums of ``d_phi a_i : d_phi a_i`` and ``d_phi a_i : d_phi a_{i+1}``
        by Parseval: mode ``k`` weighs ``2 k^2 / M``, the Nyquist mode 0, as in
        Fourier differentiation; real and imaginary parts sum in one pass."""
        hat = np.fft.rfft(a)
        hat *= np.arange(self.m // 2 + 1)
        hat[..., -1] = 0.0
        parts = hat.view(float)
        scale = 2.0 / self.m
        cross = np.einsum("cik,cik->i", parts[:, :-1], parts[:, 1:])
        return np.einsum("cik,cik->i", parts, parts) * scale, cross * scale

    def dirichlet(self, rad: np.ndarray, phi, weight=1.0) -> float:
        """``0.5 int w |grad a|^2`` from :meth:`radial_sq` and :meth:`phi_products`."""
        radial = float(np.sum((self.wg * weight).sum(axis=1) * rad))
        return 0.5 * (radial + self.integrate(phi, weight * self.inv_rg2))


def ldg_energy_spectral(field: Field2D, params: ModelParams) -> float:
    """Landau-de Gennes energy under the consistent spectral/Gauss scheme.

    For lifted ansatz fields this equals ``2 pi`` times the reduced 1D
    energy to round-off by construction (same radial quadrature, exact
    angular differentiation of band-limited data).
    """
    if params.L <= 0.0:
        raise InvalidParams("ldg_energy_spectral requires L > 0")
    kern = _GaussRings(field.grid)
    q = _orthonormal(field.values)
    t = kern.products(q)
    bulk = 0.25 * params.c2 * kern.integrate_pair(t, t) - 0.5 * params.a2 * kern.integrate(t)
    if params.b2 != 0.0:
        v = field.values
        cubic = [tensor.trace_cubed((1 - xi) * v[:-1] + xi * v[1:]).sum(axis=1) for xi in GAUSS_XI]
        bulk -= (params.b2 / 3.0) * float(np.sum(kern.wg * np.stack(cubic, axis=1)))
    return kern.dirichlet(kern.radial_sq(q), kern.phi_products(q)) + bulk / params.L


def _quadratic_form(kern: _GaussRings, y: np.ndarray, p: np.ndarray, phi, params: ModelParams):
    """``0.5 int |grad P|^2 + (1/2L) int |P|^2 (-a2 + c2 |Y|^2)``, node products of ``P``."""
    pp = kern.products(p)
    pot = params.c2 * kern.integrate_pair(pp, kern.products(y)) - params.a2 * kern.integrate(pp)
    return kern.dirichlet(kern.radial_sq(p), phi) + pot / (2.0 * params.L), pp


def _require_boundary_vanishing(values: np.ndarray, scale: float):
    if float(np.max(np.abs(values[-1]))) > 1e-10 * max(scale, 1e-300):
        raise InvalidParams("perturbation must vanish on the boundary ring")


@dataclass
class SecondVariationResult:
    """Quadratic form of the energy about a solution, two evaluations.

    ``direct`` is ``0.5 int |grad P|^2 + (1/2L) int |P|^2 (-a2 + c2 |Y|^2)``;
    ``hardy`` rewrites it as ``0.5 int v^2 |grad(P/v)|^2`` using the
    strictly negative profile component ``v``.  The two agree to
    discretisation error.
    """

    direct: float
    hardy: float
    perturbation_norm_sq: float

    @property
    def rayleigh(self) -> float:
        return self.direct / self.perturbation_norm_sq


def second_variation(
    field_y: Field2D, params: ModelParams, perturbation: Field2D
) -> SecondVariationResult:
    """Second variation of the energy at the two-mode solution ``Y``.

    Requires ``b2 = 0`` (the cubic term would contribute otherwise) and a
    perturbation vanishing on the boundary ring.  The weighted (Hardy)
    form needs ``v < 0`` strictly; otherwise
    :class:`~qdefect.errors.DecompositionInvalid` is raised.

    Both forms come from node products of ``P`` and ``Y`` (which need not be
    lifted) and from one transform of ``P``, whose Parseval ring sums the
    Hardy form reuses divided by ``v_i v_{i'}``.
    """
    if params.b2 != 0.0:
        raise InvalidParams("second_variation is defined for b2 = 0 only")
    if params.L <= 0.0:
        raise InvalidParams("second_variation requires L > 0")
    if not field_y.same_grid(perturbation):
        raise GridError("solution and perturbation live on different grids")
    pv = perturbation.values
    yv = field_y.values
    _require_boundary_vanishing(pv, float(np.max(np.abs(pv))))

    v = tensor.frob_dot(yv[:, 0, :], F3_COMPONENTS)
    if np.any(v >= -1e-10):
        raise DecompositionInvalid(
            "profile component v must be <= -1e-10 at every node for P = v U"
        )

    kern = _GaussRings(field_y.grid)
    p = _orthonormal(pv)
    nodes, cross = kern.phi_products(p)
    direct, pp = _quadratic_form(kern, _orthonormal(yv), p, (nodes, cross), params)
    hardy = kern.dirichlet(
        kern.radial_sq(p / v[:, None]),
        (nodes / (v * v), cross / (v[:-1] * v[1:])),
        ((1.0 - GAUSS_XI) * v[:-1, None] + GAUSS_XI * v[1:, None]) ** 2,
    )
    return SecondVariationResult(direct, hardy, perturbation_norm_sq=kern.integrate(pp))


@dataclass
class EnergyGapResult:
    """Energy difference ``F(Y+P) - F(Y)`` evaluated two ways.

    ``direct`` subtracts two full energy evaluations; ``decomposition``
    sums the second variation and the quartic remainder
    ``(c2/4L) int (|P|^2 + 2 tr(Y P))^2``.  With shared quadrature the two
    differ only by the first variation at ``Y``, which vanishes at a
    converged lifted minimiser.
    """

    direct: float
    decomposition: float
    quadratic_form: float
    quartic_term: float


def energy_gap(field_y: Field2D, field_yp: Field2D, params: ModelParams) -> EnergyGapResult:
    """Two-route evaluation of the energy excess of ``Y + P`` over ``Y``.

    The quartic remainder squares ``s = |P|^2 + 2 tr(Y P)``, which is linear
    in node products, so its Gauss sum is one :meth:`_GaussRings.integrate_pair`.
    """
    if params.b2 != 0.0:
        raise InvalidParams("energy_gap is defined for b2 = 0 only")
    if not field_y.same_grid(field_yp):
        raise GridError("fields live on different grids")
    yv = field_y.values
    pv = field_yp.values - yv
    _require_boundary_vanishing(pv, float(np.max(np.abs(pv))) or 1.0)

    direct = ldg_energy_spectral(field_yp, params) - ldg_energy_spectral(field_y, params)
    kern = _GaussRings(field_y.grid)
    y, p = _orthonormal(yv), _orthonormal(pv)
    quad_form, pp = _quadratic_form(kern, y, p, kern.phi_products(p), params)
    yp = kern.products(y, p)
    s = (pp[0] + 2.0 * yp[0], pp[1] + 2.0 * yp[1])
    quart = kern.integrate_pair(s, s) * params.c2 / (4.0 * params.L)
    return EnergyGapResult(direct, quad_form + quart, quadratic_form=quad_form, quartic_term=quart)


# ---------------------------------------------------------------------------
# perturbation sampling
# ---------------------------------------------------------------------------

def random_perturbation(
    grid: PolarGrid,
    seed: int,
    max_freq: int = 6,
    concentrate: str | None = None,
    norm: float = 1.0,
) -> Field2D:
    """Random smooth boundary-vanishing perturbation field.

    Band-limited Fourier modes in the angle ride on smooth radial bumps;
    angular mode ``m`` carries an ``(r/R)^min(m,2)`` factor so the field is
    single-valued at the origin.  ``concentrate`` selects an envelope
    biased toward the core (``"core"``), the rim (``"boundary"``) or
    neither.  The result is scaled to the requested L2 norm.
    """
    rng = np.random.default_rng(seed)
    r = grid.radial.nodes
    radius = grid.radial.radius
    rho = r / radius
    phis = grid.phis
    if concentrate == "core":
        envelope = (1.0 - rho) * np.exp(-((4.0 * rho) ** 2))
    elif concentrate == "boundary":
        envelope = rho * (1.0 - rho) * np.exp(-((4.0 * (1.0 - rho)) ** 2))
    else:
        envelope = np.sin(np.pi * rho)

    comps = np.zeros((5, r.size, grid.m))  # components first: each is one outer-product sum
    term = np.empty((r.size, grid.m))
    for comp in comps:
        for m in range(max_freq + 1):
            amp = 1.0 / (1.0 + m * m)
            ca = rng.standard_normal() * amp
            sa = rng.standard_normal() * amp if m > 0 else 0.0
            # an extra random smooth radial wiggle keeps samples diverse
            wig = 1.0 + 0.3 * np.sin((1 + rng.integers(1, 4)) * np.pi * rho + rng.uniform(0, 2 * np.pi))
            shape = envelope * rho ** min(m, 2) * wig
            ang = ca * np.cos(m * phis) + sa * np.sin(m * phis)
            comp += np.multiply.outer(shape, ang, out=term)
    comps[:, -1] = 0.0
    comps[:, 0] = comps[:, 0, :1]  # single-valued at the origin
    w = grid.radial.weights
    nsq = float(np.sum(w * np.sum(tensor.frob_sq(np.moveaxis(comps, 0, -1)), axis=1)) * grid.dphi)
    if nsq > 0.0:
        comps *= norm / math.sqrt(nsq)
    return Field2D(grid, np.ascontiguousarray(np.moveaxis(comps, 0, -1)))

