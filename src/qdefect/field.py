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
Gauss radii except ``tr Q^3``.  It streams the same ring blocks as the
finite-difference scheme and keeps only per-ring sums, so its working
memory is O(block x M) too; a non-finite field shows in those sums and
raises :class:`~qdefect.errors.InvalidParams`.
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

# Rows map the components ``(q11, q12, q13, q22, q23)`` to coordinates in which
# the Frobenius product is Euclidean (an orthonormal basis of the tensors).
_R15 = math.sqrt(1.5)
_R2 = math.sqrt(2.0)
_ORTHONORMAL = np.array([
    [_R15, 0.0, 0.0, _R15, 0.0],
    [1.0 / _R2, 0.0, 0.0, -1.0 / _R2, 0.0],
    [0.0, _R2, 0.0, 0.0, 0.0],
    [0.0, 0.0, _R2, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, _R2],
])


def _coords(values: np.ndarray) -> np.ndarray:
    """Samples ``(rings, M, 5)`` as ``(5, rings, M)`` orthonormal coordinates."""
    rings, m, _ = values.shape
    return (_ORTHONORMAL @ values.reshape(-1, 5).T).reshape(5, rings, m)


def _products(a: np.ndarray, b: np.ndarray | None = None):
    """Per-point node products ``a_i:b_i`` and ``(a_i:b_{i+1} + a_{i+1}:b_i) / 2`` of a block."""
    b = a if b is None else b
    cross = np.einsum("cij,cij->ij", a[:, :-1], b[:, 1:])
    if b is not a:
        cross = 0.5 * (cross + np.einsum("cij,cij->ij", a[:, 1:], b[:, :-1]))
    return np.einsum("cij,cij->ij", a, b), cross


def _pair(a, b) -> np.ndarray:
    """Segment sums ``(3, 3, segments)`` of ``(a:a')(b:b')`` terms from per-point node
    products: the rows pair ``a_i``, the cross term and ``a_{i+1}`` with the same of ``b``."""
    sa = np.stack([a[0][:-1], a[1], a[0][1:]])
    sb = np.stack([b[0][:-1], b[1], b[0][1:]])
    return np.einsum("aij,bij->abi", sa, sb)


class _RingSums:
    """Ring sums of one field ``a``, filled block by block by :meth:`_GaussRings.add`.

    ``nodes``, ``cross``: ``a_i:a_i`` and ``a_i:a_{i+1}``; ``rad``: ``|d_r a|^2``
    per segment, from the slopes themselves; ``dphi``, ``dphi_cross``: the node
    products of ``d_phi a`` by Parseval.
    """

    def __init__(self, n: int):
        self.nodes, self.dphi = np.empty(n), np.empty(n)
        self.cross, self.dphi_cross, self.rad = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1)

    def __iter__(self):
        return iter((self.nodes, self.cross, self.rad, self.dphi, self.dphi_cross))


class _GaussRings:
    """The spectral/Gauss kernel of one polar grid, built per public call.

    At ``xi`` on segment ``i`` a product of two piecewise-linear fields is
    ``(1-xi)^2 a_i:b_i + 2 xi (1-xi) a_i:b_{i+1} + xi^2 a_{i+1}:b_{i+1}``,
    so Gauss sums are weighted sums of node products.  Callers stream the
    rings with :meth:`stream`, reduce each block to ring sums (:meth:`add`,
    :func:`_pair`) and weigh those: ``wg``: Gauss weights of
    ``int f r dr dphi``; ``inv_rg2``: inverse squared Gauss radii; ``coef``:
    the node weights.
    """

    def __init__(self, grid: PolarGrid):
        self.m = grid.m
        self.n = grid.radial.nodes.size
        self.h_sq = grid.radial.h * grid.radial.h
        rg, wg = grid.radial.gauss_points()
        self.wg = wg * grid.dphi
        self.inv_rg2 = 1.0 / (rg * rg)
        lo = 1.0 - GAUSS_XI
        self.coef = np.stack([lo * lo, 2.0 * lo * GAUSS_XI, GAUSS_XI * GAUSS_XI])
        # Parseval: mode k weighs 2 k^2 / M, the Nyquist mode 0, as in Fourier
        # differentiation
        self.freq = np.arange(self.m // 2 + 1.0)
        self.freq[-1] = 0.0

    def stream(self, block) -> None:
        """Call ``block(lo, hi, top)`` per ring block, with non-finite
        arithmetic quiet: it shows in the ring sums, which callers check
        with :func:`_require_finite`.

        A block owns rings ``lo..hi-1`` and reads ``lo..top-1``, one ring
        past its end for the slopes and the ``i, i+1`` node products, so it
        holds segments ``lo..top-2``.  Its temporaries die when ``block``
        returns, so at most one block's arrays are live.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in _ring_blocks(self.m, 0, self.n):
                block(lo, hi, min(hi + 1, self.n))

    def add(self, sums: _RingSums, lo: int, hi: int, a: np.ndarray):
        """Fill ``sums`` from the block ``a`` (coordinates of rings ``lo..``);
        returns its per-point :func:`_products` for the :func:`_pair` sums."""
        prods = _products(a)
        top = lo + a.shape[1]
        own = hi - lo
        sums.nodes[lo:hi] = prods[0][:own].sum(axis=1)
        sums.cross[lo:top - 1] = prods[1].sum(axis=1)
        d = a[:, 1:] - a[:, :-1]
        sums.rad[lo:top - 1] = np.einsum("cij,cij->i", d, d) / self.h_sq[lo:top - 1]
        hat = np.fft.rfft(a)
        hat *= self.freq
        parts = hat.view(float)  # real and imaginary parts sum in one pass
        scale = 2.0 / self.m
        sums.dphi[lo:hi] = np.einsum("cik,cik->i", parts[:, :own], parts[:, :own]) * scale
        sums.dphi_cross[lo:top - 1] = np.einsum("cik,cik->i", parts[:, :-1], parts[:, 1:]) * scale
        return prods

    def integrate(self, nodes, cross, weight=1.0) -> float:
        """``int w a:b`` from ring sums of node products, ``w`` at the Gauss radii."""
        c = (self.wg * weight) @ self.coef.T
        return float(np.sum(c[:, 0] * nodes[:-1] + c[:, 1] * cross + c[:, 2] * nodes[1:]))

    def integrate_pair(self, pair: np.ndarray) -> float:
        """``int (a:a')(b:b')`` from the :func:`_pair` segment sums."""
        k = np.einsum("ig,ag,bg->abi", self.wg, self.coef, self.coef)
        return float(np.sum(k * pair))

    def dirichlet(self, rad, dphi, dphi_cross, weight=1.0) -> float:
        """``0.5 int w |grad a|^2`` from the radial and Parseval ring sums."""
        radial = float(np.sum((self.wg * weight).sum(axis=1) * rad))
        return 0.5 * (radial + self.integrate(dphi, dphi_cross, weight * self.inv_rg2))

    def energy(self, s: _RingSums, pair: np.ndarray, params: ModelParams, cubic=0.0) -> float:
        """Landau-de Gennes energy from a field's ring sums, its ``_pair`` sums
        with itself and the Gauss sum ``cubic`` of ``tr Q^3`` (read for ``b2 != 0``)."""
        bulk = 0.25 * params.c2 * self.integrate_pair(pair)
        bulk -= 0.5 * params.a2 * self.integrate(s.nodes, s.cross)
        bulk -= (params.b2 / 3.0) * cubic
        return self.dirichlet(s.rad, s.dphi, s.dphi_cross) + bulk / params.L

    def quadratic_form(self, p: _RingSums, pair: np.ndarray, params: ModelParams) -> float:
        """``0.5 int |grad P|^2 + (1/2L) int |P|^2 (-a2 + c2 |Y|^2)`` from the ring
        sums of ``P`` and the ``_pair`` sums of ``P`` with ``Y``."""
        pot = params.c2 * self.integrate_pair(pair) - params.a2 * self.integrate(p.nodes, p.cross)
        return self.dirichlet(p.rad, p.dphi, p.dphi_cross) + pot / (2.0 * params.L)


def _max_abs(a: np.ndarray) -> float:
    """Max-abs of an array without a temporary; NaN propagates."""
    return float(np.maximum(a.max(), -a.min()))


def _require_perturbation(rim: np.ndarray, block_peaks) -> None:
    """``InvalidParams`` unless the perturbation is finite (its max-abs over
    blocks, ``block_peaks``, is) and vanishes on the boundary ring ``rim``."""
    scale = float(np.max(block_peaks))
    if not math.isfinite(scale):
        raise InvalidParams("fields must be finite")
    if _max_abs(rim) > 1e-10 * scale:
        raise InvalidParams("perturbation must vanish on the boundary ring")


def _require_finite(*sums: np.ndarray) -> None:
    """``InvalidParams`` unless every ring sum is finite, as it is for a finite field."""
    if not all(np.isfinite(s).all() for s in sums):
        raise InvalidParams("fields must be finite (their ring sums are not)")


def ldg_energy_spectral(field: Field2D, params: ModelParams) -> float:
    """Landau-de Gennes energy under the consistent spectral/Gauss scheme.

    For lifted ansatz fields this equals ``2 pi`` times the reduced 1D
    energy to round-off by construction (same radial quadrature, exact
    angular differentiation of band-limited data).  A non-finite field
    raises :class:`~qdefect.errors.InvalidParams`.
    """
    if params.L <= 0.0:
        raise InvalidParams("ldg_energy_spectral requires L > 0")
    kern = _GaussRings(field.grid)
    s = _RingSums(kern.n)
    pair = np.empty((3, 3, kern.n - 1))
    cubic = np.zeros((kern.n - 1, GAUSS_XI.size))  # tr Q^3 at the Gauss rings, b2 != 0 only

    def block(lo, hi, top):
        vals = field.values[lo:top]
        t = kern.add(s, lo, hi, _coords(vals))
        pair[:, :, lo:top - 1] = _pair(t, t)
        if params.b2 != 0.0:
            for g, xi in enumerate(GAUSS_XI):
                at_xi = (1 - xi) * vals[:-1] + xi * vals[1:]
                cubic[lo:top - 1, g] = tensor.trace_cubed(at_xi).sum(axis=1)

    kern.stream(block)
    _require_finite(pair, cubic, *s)
    return kern.energy(s, pair, params, float(np.sum(kern.wg * cubic)))


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
        if self.perturbation_norm_sq == 0.0:
            raise InvalidParams("the Rayleigh quotient of a zero perturbation is undefined")
        return self.direct / self.perturbation_norm_sq


def second_variation(
    field_y: Field2D, params: ModelParams, perturbation: Field2D
) -> SecondVariationResult:
    """Second variation of the energy at the two-mode solution ``Y``.

    Requires ``b2 = 0`` (the cubic term would contribute otherwise), finite
    fields and a perturbation vanishing on the boundary ring.  The weighted
    (Hardy) form needs ``v < 0`` strictly; otherwise
    :class:`~qdefect.errors.DecompositionInvalid` is raised.

    Both forms come from node products of ``P`` and ``Y`` (which need not be
    lifted) and from one transform of ``P``, whose Parseval ring sums the
    Hardy form reuses divided by ``v_i v_{i'}``; one streamed pass over ring
    blocks forms them.
    """
    if params.b2 != 0.0:
        raise InvalidParams("second_variation is defined for b2 = 0 only")
    if params.L <= 0.0:
        raise InvalidParams("second_variation requires L > 0")
    if not field_y.same_grid(perturbation):
        raise GridError("solution and perturbation live on different grids")
    pv = perturbation.values
    yv = field_y.values

    v = tensor.frob_dot(yv[:, 0, :], F3_COMPONENTS)
    if not np.all(np.isfinite(v)):
        raise InvalidParams("fields must be finite")
    if np.any(v >= -1e-10):
        raise DecompositionInvalid(
            "profile component v must be <= -1e-10 at every node for P = v U"
        )

    kern = _GaussRings(field_y.grid)
    p = _RingSums(kern.n)
    pair = np.empty((3, 3, kern.n - 1))
    hardy_rad = np.empty(kern.n - 1)
    inv_v = 1.0 / v
    peaks = []

    def block(lo, hi, top):
        peaks.append(_max_abs(pv[lo:top]))
        q = _coords(pv[lo:top])
        pp = kern.add(p, lo, hi, q)
        pair[:, :, lo:top - 1] = _pair(pp, _products(_coords(yv[lo:top])))
        u = q * inv_v[lo:top, None]
        d = u[:, 1:] - u[:, :-1]
        hardy_rad[lo:top - 1] = np.einsum("cij,cij->i", d, d) / kern.h_sq[lo:top - 1]

    kern.stream(block)
    _require_perturbation(pv[-1], peaks)
    _require_finite(pair, hardy_rad, *p)
    hardy = kern.dirichlet(
        hardy_rad,
        p.dphi / (v * v),
        p.dphi_cross / (v[:-1] * v[1:]),
        ((1.0 - GAUSS_XI) * v[:-1, None] + GAUSS_XI * v[1:, None]) ** 2,
    )
    direct = kern.quadratic_form(p, pair, params)
    return SecondVariationResult(direct, hardy, perturbation_norm_sq=kern.integrate(p.nodes, p.cross))


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

    One streamed pass forms ``P`` block by block and the ring sums of ``Y``,
    ``Y + P`` and ``P``; each energy of the direct route comes from its own
    field's sums.  The quartic remainder squares ``s = |P|^2 + 2 tr(Y P)``,
    which is linear in node products, so its Gauss sum is one more set of
    :func:`_pair` sums.
    """
    if params.b2 != 0.0:
        raise InvalidParams("energy_gap is defined for b2 = 0 only")
    if params.L <= 0.0:
        raise InvalidParams("energy_gap requires L > 0")
    if not field_y.same_grid(field_yp):
        raise GridError("fields live on different grids")
    yv = field_y.values
    ypv = field_yp.values

    kern = _GaussRings(field_y.grid)
    n = kern.n
    y, yp, p = _RingSums(n), _RingSums(n), _RingSums(n)
    pair_y, pair_yp, pair_py, pair_s = (np.empty((3, 3, n - 1)) for _ in range(4))
    peaks = []

    def block(lo, hi, top):
        pv = ypv[lo:top] - yv[lo:top]
        peaks.append(_max_abs(pv))
        qp = _coords(pv)
        del pv  # keeps one block's peak of arrays below a field's size
        qy = _coords(yv[lo:top])
        pp, yy = kern.add(p, lo, hi, qp), kern.add(y, lo, hi, qy)
        seg = slice(lo, top - 1)
        pair_y[:, :, seg] = _pair(yy, yy)
        pair_py[:, :, seg] = _pair(pp, yy)
        cross = _products(qy, qp)
        s = (pp[0] + 2.0 * cross[0], pp[1] + 2.0 * cross[1])
        pair_s[:, :, seg] = _pair(s, s)
        ypyp = kern.add(yp, lo, hi, _coords(ypv[lo:top]))
        pair_yp[:, :, seg] = _pair(ypyp, ypyp)

    kern.stream(block)
    with np.errstate(invalid="ignore"):  # inf - inf in the rim shows as NaN
        _require_perturbation(ypv[-1] - yv[-1], peaks)
    _require_finite(pair_y, pair_yp, pair_py, pair_s, *y, *yp, *p)
    direct = kern.energy(yp, pair_yp, params) - kern.energy(y, pair_y, params)
    quad_form = kern.quadratic_form(p, pair_py, params)
    quart = kern.integrate_pair(pair_s) * params.c2 / (4.0 * params.L)
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
    neither.  The result is scaled to the requested L2 norm, which must be
    finite and nonnegative; ``max_freq`` must be nonnegative.
    """
    if concentrate not in (None, "core", "boundary"):
        raise InvalidParams(f"concentrate must be None, 'core' or 'boundary', got {concentrate!r}")
    if not max_freq >= 0:
        raise InvalidParams(f"max_freq must be >= 0, got {max_freq!r}")
    if not (math.isfinite(norm) and norm >= 0.0):
        raise InvalidParams(f"norm must be finite and >= 0, got {norm!r}")
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
