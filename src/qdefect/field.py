"""Q-tensor fields on the disk: lifting, energies, residuals, stability.

Two discretisations coexist deliberately:

* a classic finite-difference scheme (compact/centred stencils in the
  angle, trapezoidal node quadrature in radius) behind
  :func:`fd_energy_terms`, :func:`ldg_energy_2d`, :func:`el_residual_2d`
  and the harmonic-map residual :func:`hm_residual` --
  an independent route used to cross-check the reduced 1D functional;
  for a separable field ``sum_a f_a(r) G_a(phi)``,
  :func:`separable_dirichlet_quadrature` forms the same Dirichlet sum
  from per-ring Gram sums in O(N + M);
* a consistent scheme (Fourier differentiation in the angle, the same
  per-segment Gauss rule in radius as the reduced energy) behind
  :func:`ldg_energy_spectral`, :func:`second_variation` and
  :func:`energy_gap`.  Sharing quadrature points with the 1D solver makes
  lifted minimisers exactly stationary for the discrete 2D functional, so
  the quadratic-form expansion of the energy difference holds to
  round-off instead of to scheme mismatch.

Fields are coordinates first, ``(5, N+1, M)``, so a ring block
``values[:, lo:hi]`` feeds the tensor helpers and the Gauss kernel as it is.
Every 2D pass walks the disk one way: a plain loop over
:func:`_ring_blocks`, each block read with the halo its stencil needs, so
working memory is O(block x M) beside the result.  The energies keep
per-ring sums; the two residuals share one loop, :func:`_residual`, and
differ only in the pointwise term added to the block's Laplacian.

One kernel, :class:`_GaussRings`, evaluates the consistent scheme from
node products and Parseval ring sums; nothing is interpolated to the
Gauss radii except ``tr Q^3``.  A non-finite field shows in those sums and
raises :class:`~qdefect.errors.InvalidParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, InvalidParams, _is_int, _is_real
from .grid import GAUSS_XI, PolarGrid, three_point_derivatives
from .params import ModelParams, check_k
from .reduced import _HAT_PAIRS, Profile, _P1Gauss, _bulk_mask
from . import tensor


@dataclass(frozen=True)
class Field2D:
    """Q-tensor samples on a polar grid: ``(5, N+1, M)``, one coordinate
    (:mod:`qdefect.tensor`) per row; frozen, as :class:`~qdefect.reduced.Profile` is.

    Unlike a profile, a field does not copy a float array it is given: a
    field is megabytes, and :func:`random_perturbation` writes its samples
    once.  Later writes into that array show in the field."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        expected = (5, self.grid.radial.nodes.size, self.grid.m)
        if self.values.shape != expected:
            raise GridError(f"field values {self.values.shape} do not match grid {expected}")

    def same_grid(self, other: "Field2D") -> bool:
        return self.grid.m == other.grid.m and self.grid.radial.same_nodes(
            other.grid.radial
        )


def lift(profile: Profile, k: int, grid: PolarGrid) -> Field2D:
    """Lift radial samples to the disk: ``Y(r, phi) = u F_n(phi) + v F_3``."""
    k = check_k(k)
    if not profile.grid.same_nodes(grid.radial):
        raise GridError("profile radial nodes do not match the polar grid")
    u, v = profile.u[:, None], profile.v[:, None]
    return Field2D(grid, tensor.ansatz_components(u, v, grid.phis, k))


# ---------------------------------------------------------------------------
# classic finite-difference scheme
# ---------------------------------------------------------------------------

# Bytes of one ``(5, rings, M)`` block array, measured on the CLI commands:
# 80 KB blocks pay per-block overhead (2 rings at M = 1024), and blocks of
# 1 MB or more made the M = 256 passes slower again; 320-640 KB were level.
_BLOCK_BYTES = 512 * 1024


def _ring_blocks(m: int, start: int, stop: int):
    """Ranges ``[lo, hi)`` of at most ``_BLOCK_BYTES / (40 m)`` rings covering ``start..stop-1``."""
    step = max(1, _BLOCK_BYTES // (40 * m))
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _fd_dirichlet_sum(grid: PolarGrid, slope_sq: np.ndarray, edge_sq: np.ndarray) -> float:
    """``0.5 int |grad Q|^2`` from the per-segment sums ``slope_sq`` of
    ``|d_r Q|^2`` and the per-ring sums ``edge_sq`` of ``|d_phi Q|^2`` over
    the angles: radial slopes weigh ``int_seg r dr``, angular edges the
    trapezoidal ``int r dr`` over ``r^2``."""
    radial = grid.radial
    r = radial.nodes
    h = radial.h
    dphi = grid.dphi
    seg_w = 0.5 * h * (r[:-1] + r[1:])  # exact int_seg r dr
    rad_part = float(np.sum(seg_w * slope_sq) * dphi)
    wtrap = radial.weights  # zero at the origin node, so no 1/r^2 blow-up
    ang_part = float(np.sum(wtrap[1:] / (r[1:] ** 2) * edge_sq[1:]) * dphi)
    return 0.5 * (rad_part + ang_part)


def separable_dirichlet_quadrature(f: np.ndarray, g: np.ndarray, grid: PolarGrid) -> float:
    """The Dirichlet sum of :func:`fd_energy_terms` for the separable field
    ``Q(r_i, phi_j) = sum_a f[i, a] g[a, j]``, without sampling it.

    ``f`` holds the radial factors ``(N+1, A)``, ``g`` the angular ones
    ``(5, A, M)``.  The finite-difference sums over the angles are
    quadratic forms in the radial factors, so two ``A x A`` Gram matrices
    of ``g`` (its Frobenius products and those of its angular edges) reduce
    each ring to ``O(A^2)`` work: ``O(A^2 (N + M))`` in all, with
    ``O(A (N + M))`` memory.  Package-internal: the limit quadrature of
    :func:`qdefect.harmonic.dirichlet_energy_2d` is its caller.
    """
    dg = (np.roll(g, -1, axis=2) - g) / grid.dphi
    gram = tensor.frob_dot(g[:, :, None], g[:, None]).sum(axis=-1)
    edge_gram = tensor.frob_dot(dg[:, :, None], dg[:, None]).sum(axis=-1)
    slopes = (f[1:] - f[:-1]) / grid.radial.h[:, None]
    slope_sq = np.einsum("ia,ab,ib->i", slopes, gram, slopes)
    edge_sq = np.einsum("ia,ab,ib->i", f, edge_gram, f)
    return _fd_dirichlet_sum(grid, slope_sq, edge_sq)


def fd_energy_terms(field: Field2D, params: ModelParams):
    """``(0.5 int |grad Q|^2, int f(Q))`` from radial slopes, centred
    angular edges and trapezoidal nodes in radius, in one pass over ring
    blocks (each reads one ring past its end for the slopes).

    :func:`ldg_energy_2d` is ``dirichlet + potential / L`` of these.  The
    per-ring sums are the values, in the order, of a full-array pass.
    """
    grid, values = field.grid, field.values
    h = grid.radial.h
    n = grid.radial.nodes.size
    slope_sq = np.empty(n - 1)
    edge_sq = np.empty(n)
    dens = np.empty(n)
    for lo, hi in _ring_blocks(grid.m, 0, n):
        top = min(hi + 1, n)
        vals = values[:, lo:top]
        slopes = (vals[:, 1:] - vals[:, :-1]) / h[lo:top - 1, None]
        slope_sq[lo:top - 1] = np.sum(tensor.frob_sq(slopes), axis=1)
        # angular edges: piecewise-linear in phi on each ring
        own = vals[:, : hi - lo]
        edges = (np.roll(own, -1, axis=2) - own) / grid.dphi
        edge_sq[lo:hi] = np.sum(tensor.frob_sq(edges), axis=1)
        dens[lo:hi] = np.sum(tensor.bulk_density(own, params), axis=1)

    pot = float(np.sum(grid.radial.weights * dens) * grid.dphi)
    return _fd_dirichlet_sum(grid, slope_sq, edge_sq), pot


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
    d1, d2 = three_point_derivatives(values, r, 1)
    vc = values[:, 1:-1]
    ddphi = (np.roll(vc, -1, axis=2) - 2.0 * vc + np.roll(vc, 1, axis=2)) / dphi**2
    ri = r[1:-1][:, None]
    return d2 + d1 / ri + ddphi / ri**2


def _gradient_sq(values: np.ndarray, r: np.ndarray, dphi: float) -> np.ndarray:
    """``|grad Q|^2`` (Frobenius) at the rings ``1..len-2`` of ``values`` (radii ``r``).

    Squared one-sided differences are averaged onto the nodes (the
    consistent partner of the three-point second difference), which
    carries a four-fold smaller angular truncation constant than centred
    first differences.
    """
    h = np.diff(r)
    fsq = tensor.frob_sq((values[:, 1:] - values[:, :-1]) / h[:, None])  # segment midpoints
    hm = h[:-1][:, None]
    hp = h[1:][:, None]
    rad = (hm * fsq[:-1] + hp * fsq[1:]) / (hm + hp)

    vc = values[:, 1:-1]
    esq = tensor.frob_sq((np.roll(vc, -1, axis=2) - vc) / dphi)
    ang = 0.5 * (esq + np.roll(esq, 1, axis=1))
    ri = r[1:-1][:, None]
    return rad + ang / ri**2


@dataclass
class ResidualField:
    """Tensor-valued residual samples on the interior rings, ``(5, N-1, M)``."""

    rings: np.ndarray
    values: np.ndarray

    def scaled_norms(self) -> tuple[np.ndarray, int]:
        """``(nh, e)``: the Frobenius norms are ``nh * 2**e``.

        ``nh`` is formed ring block by ring block from the values divided by
        the power of two ``2**e`` at their largest magnitude, as
        :func:`~qdefect.tensor.ansatz_biaxiality` scales: the division is
        exact, so no square of a large finite residual overflows and
        ``nh * 2**e`` keeps the rounding of the unscaled formula.
        """
        values = self.values
        _, e = math.frexp(max(float(np.max(values)), -float(np.min(values))))
        nh = np.empty(values.shape[1:])
        for lo, hi in _ring_blocks(values.shape[2], 0, values.shape[1]):
            nh[lo:hi] = np.sqrt(tensor.frob_sq(np.ldexp(values[:, lo:hi], -e)))
        return nh, e

    def norms(self) -> np.ndarray:
        return np.ldexp(*self.scaled_norms())

    def max_norm(self, r_min: float = 0.0) -> float:
        """Max Frobenius norm over rings with ``r >= r_min``, the cutoff
        clipped to the last ring (the bulk rule of
        :meth:`~qdefect.reduced.OdeResidual.bulk_peak`).

        Near the origin the angular stencil error scales like
        ``dphi^2 / r``, so quality metrics should pass a bulk cutoff
        (0.05 R is used by the verification suite).
        """
        return float(np.max(self.norms()[_bulk_mask(self.rings, r_min)]))


def _residual(field: Field2D, lap_scale: float, add_terms) -> ResidualField:
    """``lap_scale * lap Q`` plus pointwise terms on the interior rings ``1..N-1``.

    The origin ring is excluded: the stencil is singular there and every
    field of interest is smooth across it.  One pass streams ring blocks,
    each read with the one-ring halo of the five-point stencil;
    ``add_terms(out, block, r)`` adds the terms in place to ``out``, which
    holds the scaled Laplacian at the rings ``1..len-2`` of ``block``
    (radii ``r``).  Working memory is O(block x M) beside the result.  A
    sample past the float range is inf, or NaN where two inf terms cancel.
    """
    r = field.grid.radial.nodes
    values = field.values
    res = np.empty((5, r.size - 2, field.grid.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _ring_blocks(field.grid.m, 1, r.size - 1):
            block, rb = values[:, lo - 1:hi + 1], r[lo - 1:hi + 1]
            out = res[:, lo - 1:hi - 1]
            np.multiply(lap_scale, _laplacian(block, rb, field.grid.dphi), out=out)
            add_terms(out, block, rb)
    return ResidualField(rings=r[1:-1].copy(), values=res)


def el_residual_2d(field: Field2D, params: ModelParams) -> ResidualField:
    """Euler-Lagrange residual ``L lap Q + a2 Q + b2 (Q^2 - |Q|^2 I/3) - c2 |Q|^2 Q``.

    Evaluated with the five-point polar stencil on interior rings; each
    sample stays symmetric traceless by construction of the component
    representation.  The terms are summed in place, in formula order.  The
    ``b2`` term is formed only for ``b2 != 0``: at ``b2 = 0`` adding it
    would add zeros, so the values are the same.
    """
    if params.L <= 0.0:
        raise InvalidParams("el_residual_2d requires L > 0")

    def bulk(out, block, r):
        vc = block[:, 1:-1]
        out += params.a2 * vc
        if params.b2 != 0.0:
            out += params.b2 * tensor.deviatoric_square(vc)
        out -= params.c2 * tensor.frob_sq(vc) * vc

    return _residual(field, params.L, bulk)


def hm_residual(field: Field2D, params: ModelParams) -> ResidualField:
    """Residual ``lap Q + (3/(2 s+^2)) |grad Q|^2 Q`` of the limit problem.

    ``field`` is evaluated on its own polar grid.  It must satisfy the norm
    constraint to 1e-8 relative, else :class:`~qdefect.errors.InvalidParams`
    names the largest relative deviation; a non-finite sample violates it.
    Five-point polar stencil and compact ``|grad Q|^2`` on interior rings,
    streamed over ring blocks (the constraint check too), so working memory
    is O(block x M) beside the result; boundary data mismatches are not this
    function's concern.
    """
    values, grid = field.values, field.grid
    target = params.limit_norm_sq
    peaks = [_max_abs(tensor.frob_sq(values[:, lo:hi]) - target)
             for lo, hi in _ring_blocks(grid.m, 0, values.shape[1])]
    dev = float(np.max(peaks)) / target
    if not dev <= 1e-8:  # a NaN sample violates the constraint too
        raise InvalidParams(
            f"harmonic-map residual needs |Q|^2 = (2/3) s+^2 (max relative deviation {dev:.3e})")
    scale = 1.5 / params.s_plus**2

    def tension(out, block, r):
        out += scale * _gradient_sq(block, r, grid.dphi) * block[:, 1:-1]

    return _residual(field, 1.0, tension)


# ---------------------------------------------------------------------------
# consistent spectral/Gauss scheme
# ---------------------------------------------------------------------------

def _products(a: np.ndarray, b: np.ndarray | None = None):
    """Per-point node products ``a_i:b_i`` and ``(a_i:b_{i+1} + a_{i+1}:b_i) / 2`` of a block."""
    b = a if b is None else b
    cross = np.einsum("cij,cij->ij", a[:, :-1], b[:, 1:])
    if b is not a:
        cross = 0.5 * (cross + np.einsum("cij,cij->ij", a[:, 1:], b[:, :-1]))
    return np.einsum("cij,cij->ij", a, b), cross


def _pair(a, b) -> np.ndarray:
    """Segment sums ``(3, 3, segments)`` of ``(a:a')(b:b')`` terms from per-point node
    products: the rows pair ``a_i``, the cross term and ``a_{i+1}`` with the same of ``b``.

    Each entry is one row dot product over the angles; the node sums
    ``a_i b_i`` serve both the aa and the bb entries."""
    (a_node, a_cross), (b_node, b_cross) = a, b
    rows_a = (a_node[:-1], a_cross, a_node[1:])
    rows_b = (b_node[:-1], b_cross, b_node[1:])
    out = np.empty((3, 3, a_cross.shape[0]))
    nodes = np.einsum("ij,ij->i", a_node, b_node)
    out[0, 0], out[2, 2] = nodes[:-1], nodes[1:]
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)):
        np.einsum("ij,ij->i", rows_a[i], rows_b[j], out=out[i, j])
    return out


class _RingSums:
    """Ring sums of one field ``a``, filled block by block by :meth:`_GaussRings.add`.

    ``nodes``, ``cross``: ``a_i:a_i`` and ``a_i:a_{i+1}``; ``rad``: ``|d_r a|^2``
    per segment, from the slopes themselves; ``dphi``, ``dphi_cross``: the node
    products of ``d_phi a`` by Parseval.  :func:`second_variation` forms the
    Hardy radial sums of ``a / v`` from ``rad``, ``nodes`` and ``cross``.
    """

    def __init__(self, n: int):
        self.nodes, self.dphi = np.empty(n), np.empty(n)
        self.cross, self.dphi_cross, self.rad = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1)

    def __iter__(self):
        return iter((self.nodes, self.cross, self.rad, self.dphi, self.dphi_cross))


class _GaussRings:
    """The spectral/Gauss kernel of one polar grid and ``params``, built per public call.

    At ``xi`` on segment ``i`` a product of two piecewise-linear fields is
    ``(1-xi)^2 a_i:b_i + 2 xi (1-xi) a_i:b_{i+1} + xi^2 a_{i+1}:b_{i+1}``,
    so Gauss sums are weighted sums of node products.  Callers loop over
    :func:`_ring_blocks`; a block owns rings ``lo..hi-1`` and reads
    ``lo..top-1``, ``top = min(hi + 1, n)``, one ring past its end for the
    slopes and the ``i, i+1`` node products, so it holds segments
    ``lo..top-2``.  Each block is reduced to ring sums (:meth:`add`,
    :func:`_pair`), which are weighed by ``wg``: Gauss weights of
    ``int f r dr dphi``; ``inv_rg2``: inverse squared Gauss radii;
    ``coef``: the node weights.  The loops run with non-finite arithmetic
    quiet: it shows in the ring sums, which callers check with
    :func:`_require_finite`.  The radial rule is taken from the reduced
    solver's :class:`~qdefect.reduced._P1Gauss` of the same radial grid and
    ``params``, which :meth:`energy` and :meth:`quadratic_form` read.
    """

    def __init__(self, grid: PolarGrid, params: ModelParams):
        self.m = grid.m
        self.n = grid.radial.nodes.size
        self.params = params
        rule = _P1Gauss(grid.radial, params)
        self.h_sq = rule.h * rule.h
        self.wg = rule.wg * grid.dphi
        self.inv_rg2 = 1.0 / rule.rg2
        self.coef = _HAT_PAIRS.T.copy()  # doubling the cross row is exact
        self.coef[1] *= 2.0
        # Parseval: mode k weighs 2 k^2 / M, the Nyquist mode 0, as in Fourier
        # differentiation
        self.freq = np.arange(self.m // 2 + 1.0)
        self.freq[-1] = 0.0

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

    def energy(self, s: _RingSums, pair: np.ndarray, cubic=0.0) -> float:
        """Landau-de Gennes energy from a field's ring sums, its ``_pair`` sums
        with itself and the Gauss sum ``cubic`` of ``tr Q^3`` (read for ``b2 != 0``)."""
        params = self.params
        bulk = 0.25 * params.c2 * self.integrate_pair(pair)
        bulk -= 0.5 * params.a2 * self.integrate(s.nodes, s.cross)
        bulk -= (params.b2 / 3.0) * cubic
        return self.dirichlet(s.rad, s.dphi, s.dphi_cross) + bulk / params.L

    def quadratic_form(self, p: _RingSums, pair: np.ndarray) -> float:
        """``0.5 int |grad P|^2 + (1/2L) int |P|^2 (-a2 + c2 |Y|^2)`` from the ring
        sums of ``P`` and the ``_pair`` sums of ``P`` with ``Y``."""
        params = self.params
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
    kern = _GaussRings(field.grid, params)
    s = _RingSums(kern.n)
    pair = np.empty((3, 3, kern.n - 1))
    cubic = np.zeros((kern.n - 1, GAUSS_XI.size))  # tr Q^3 at the Gauss rings, b2 != 0 only
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _ring_blocks(kern.m, 0, kern.n):
            top = min(hi + 1, kern.n)
            vals = field.values[:, lo:top]
            t = kern.add(s, lo, hi, vals)
            pair[:, :, lo:top - 1] = _pair(t, t)
            if params.b2 != 0.0:
                for g, xi in enumerate(GAUSS_XI):
                    at_xi = (1 - xi) * vals[:, :-1] + xi * vals[:, 1:]
                    cubic[lo:top - 1, g] = tensor.trace_cubed(at_xi).sum(axis=1)
    _require_finite(pair, cubic, *s)
    return kern.energy(s, pair, float(np.sum(kern.wg * cubic)))


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


def second_variation(
    field_y: Field2D, params: ModelParams, perturbation: Field2D
) -> SecondVariationResult:
    """Second variation of the energy at the two-mode solution ``Y``.

    Requires ``b2 = 0`` (the cubic term would contribute otherwise), finite
    fields and a perturbation vanishing on the boundary ring.  The weighted
    (Hardy) form needs ``v < 0`` strictly; otherwise
    :class:`~qdefect.errors.InvalidParams` is raised.

    Both forms come from node products of ``P`` and ``Y`` (which need not be
    lifted) and from one transform of ``P``, in one streamed pass over ring
    blocks.  The Hardy form reuses ``P``'s Parseval ring sums divided by
    ``v_i v_{i'}``, and its radial sums come from ``P``'s ``rad``, ``nodes`` and
    ``cross``, expanded about the slopes: node products alone cancel for smooth ``P``.
    """
    if params.b2 != 0.0:
        raise InvalidParams("second_variation is defined for b2 = 0 only")
    if params.L <= 0.0:
        raise InvalidParams("second_variation requires L > 0")
    if not field_y.same_grid(perturbation):
        raise GridError("solution and perturbation live on different grids")
    pv = perturbation.values
    yv = field_y.values

    v = yv[0, :, 0]  # the F_3 coordinate on the ray phi = 0
    if not np.all(np.isfinite(v)):
        raise InvalidParams("fields must be finite")
    if np.any(v >= -1e-10):
        raise InvalidParams(
            "profile component v must be <= -1e-10 at every node for P = v U"
        )

    kern = _GaussRings(field_y.grid, params)
    p = _RingSums(kern.n)
    pair = np.empty((3, 3, kern.n - 1))
    peaks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _ring_blocks(kern.m, 0, kern.n):
            top = min(hi + 1, kern.n)
            q = pv[:, lo:top]
            peaks.append(_max_abs(q))
            pp = kern.add(p, lo, hi, q)
            pair[:, :, lo:top - 1] = _pair(pp, _products(yv[:, lo:top]))
        s = 1.0 / v  # each segment sums |s_{i+1} (P_{i+1} - P_i) + ds_i P_i|^2
        s1, ds, nodes = s[1:], np.diff(s), p.nodes[:-1]
        hardy_rad = s1 * s1 * p.rad + ds * (2.0 * s1 * (p.cross - nodes) + ds * nodes) / kern.h_sq
    _require_perturbation(pv[:, -1], peaks)
    _require_finite(pair, hardy_rad, *p)
    hardy = kern.dirichlet(
        hardy_rad,
        p.dphi / (v * v),
        p.dphi_cross / (v[:-1] * v[1:]),
        ((1.0 - GAUSS_XI) * v[:-1, None] + GAUSS_XI * v[1:, None]) ** 2,
    )
    direct = kern.quadratic_form(p, pair)
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

    kern = _GaussRings(field_y.grid, params)
    n = kern.n
    y, yp, p = _RingSums(n), _RingSums(n), _RingSums(n)
    pair_y, pair_yp, pair_py, pair_s = (np.empty((3, 3, n - 1)) for _ in range(4))
    peaks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _ring_blocks(kern.m, 0, n):
            top = min(hi + 1, n)
            qp = ypv[:, lo:top] - yv[:, lo:top]
            peaks.append(_max_abs(qp))
            qy = yv[:, lo:top]
            pp, yy = kern.add(p, lo, hi, qp), kern.add(y, lo, hi, qy)
            seg = slice(lo, top - 1)
            pair_y[:, :, seg] = _pair(yy, yy)
            pair_py[:, :, seg] = _pair(pp, yy)
            cross = _products(qy, qp)
            s = (pp[0] + 2.0 * cross[0], pp[1] + 2.0 * cross[1])
            pair_s[:, :, seg] = _pair(s, s)
            ypyp = kern.add(yp, lo, hi, ypv[:, lo:top])
            pair_yp[:, :, seg] = _pair(ypyp, ypyp)
    with np.errstate(invalid="ignore"):  # inf - inf in the rim shows as NaN
        _require_perturbation(ypv[:, -1] - yv[:, -1], peaks)
    _require_finite(pair_y, pair_yp, pair_py, pair_s, *y, *yp, *p)
    direct = kern.energy(yp, pair_yp) - kern.energy(y, pair_y)
    quad_form = kern.quadratic_form(p, pair_py)
    quart = kern.integrate_pair(pair_s) * params.c2 / (4.0 * params.L)
    return EnergyGapResult(direct, quad_form + quart, quadratic_form=quad_form, quartic_term=quart)


# ---------------------------------------------------------------------------
# perturbation sampling
# ---------------------------------------------------------------------------

# Highest angular mode of a perturbation; every PolarGrid has M >= 64, so no
# mode aliases.
_MAX_FREQ = 6


def random_perturbation(
    grid: PolarGrid,
    seed: int,
    concentrate: str | None = None,
    norm: float = 1.0,
) -> Field2D:
    """Random smooth boundary-vanishing perturbation field.

    Band-limited Fourier modes in the angle ride on smooth radial bumps;
    angular mode ``m`` carries an ``(r/R)^min(m,2)`` factor so the field is
    single-valued at the origin.  ``concentrate`` selects an envelope
    biased toward the core (``"core"``), the rim (``"boundary"``) or
    neither.  The result is scaled to the requested L2 norm, which must be
    finite and nonnegative, and ``seed`` must be a nonnegative integer.
    Angular modes run from 0 to 6 (``_MAX_FREQ``), and each of the five
    orthonormal coordinates is drawn independently, so no direction in the
    tensor space is preferred.

    Each coordinate is ``P_c = sum_m S_cm(r) A_cm(phi)``: the radial
    factors ``S`` (envelope, ``rho^min(m,2)`` and the wiggle; 0 on the rim,
    so the field vanishes there) and the angular factors ``A`` are built
    as whole ``(5, 7, .)`` arrays from the scalar draws.  The norm comes
    from the factors, not the field: ``sum_j P_c(r_i, phi_j)^2 = S_c^T G_c
    S_c`` at ring ``i`` with the Gram sums ``G_c = A_c A_c^T``, and the scale
    is folded into ``S``.  The field is then written once, one ``einsum``
    per coordinate without ``optimize``: in mode order with a separate
    multiply and add, bit for bit one ``+=`` outer product per mode.
    """
    if concentrate not in (None, "core", "boundary"):
        raise InvalidParams(f"concentrate must be None, 'core' or 'boundary', got {concentrate!r}")
    if not (_is_int(seed) and seed >= 0):
        raise InvalidParams(f"seed must be an integer >= 0, got {seed!r}")
    if not (_is_real(norm) and math.isfinite(norm) and norm >= 0.0):
        raise InvalidParams(f"norm must be finite and >= 0, got {norm!r}")
    rng = np.random.default_rng(seed)
    rho = grid.radial.nodes / grid.radial.radius
    if concentrate == "core":
        envelope = (1.0 - rho) * np.exp(-((4.0 * rho) ** 2))
    elif concentrate == "boundary":
        envelope = rho * (1.0 - rho) * np.exp(-((4.0 * (1.0 - rho)) ** 2))
    else:
        envelope = np.sin(np.pi * rho)

    modes = range(_MAX_FREQ + 1)
    # per (coordinate, mode): cos and sin amplitudes, wiggle frequency and phase
    draws = np.empty((5, _MAX_FREQ + 1, 4))
    for c, m in np.ndindex(draws.shape[:2]):
        amp = 1.0 / (1.0 + m * m)
        draws[c, m] = (rng.standard_normal() * amp, rng.standard_normal() * amp if m > 0 else 0.0,
                       (1 + rng.integers(1, 4)) * np.pi, rng.uniform(0, 2 * np.pi))
    ca, sa, freq, phase = (d[..., None] for d in np.moveaxis(draws, -1, 0))
    bases = [envelope * rho ** p for p in range(3)]
    # an extra random smooth radial wiggle keeps samples diverse
    shape = np.array([bases[min(m, 2)] for m in modes]) * (1.0 + 0.3 * np.sin(freq * rho + phase))
    shape[..., -1] = 0.0
    mphi = np.multiply.outer(modes, grid.phis)
    ang = ca * np.cos(mphi) + sa * np.sin(mphi)
    ring_sq = np.sum(shape * (ang @ ang.transpose(0, 2, 1) @ shape), axis=(0, 1))  # S^T G S
    nsq = float(np.sum(grid.radial.weights * ring_sq) * grid.dphi)
    if nsq > 0.0:
        shape *= norm / math.sqrt(nsq)
    comps = np.empty((5, rho.size, grid.m))
    for comp, s, a in zip(comps, shape, ang):
        np.einsum("mi,mj->ij", s, a, out=comp)
    comps[:, 0] = comps[:, 0, :1]  # single-valued at the origin
    return Field2D(grid, comps)
