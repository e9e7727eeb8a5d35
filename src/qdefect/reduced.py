"""Reduced radial energy of the two-mode ansatz and its minimisation.

Substituting ``Y = u(r) F_n(phi) + v(r) F_3`` into the Landau-de Gennes
energy on the disk collapses it (per unit angle) to

    E(u, v) = int_0^R [ (u'^2 + v'^2 + k^2 u^2 / r^2) / 2
                        + f(u, v) / L ] r dr

with ``f`` the bulk potential expressed through ``|Y|^2 = u^2 + v^2`` and
``tr(Y^3) = v (v^2 - 3 u^2) / sqrt(6)``, under the boundary conditions
``u(0) = 0``, ``v'(0) = 0``, ``u(R) = s_plus/sqrt(2)``,
``v(R) = -s_plus/sqrt(6)``.

Discretisation: piecewise-linear profiles with per-segment Gauss-Legendre
quadrature (exact for the quartic potential of interpolated data, and for
the measure ``r dr``) in one kernel, :class:`_P1Gauss`, which evaluates
every term.  The discrete energy is smooth in the node values, so the
stationarity system solved by the damped-Newton minimiser is exactly the
weak form of the Euler-Lagrange ODEs; the strong-form finite-difference
residual is reported separately by :func:`ode_residual`.

Lumping.  On segment ``i`` the consistent quadrature of ``k^2 u^2 / r^2``
couples ``u_i`` and ``u_{i+1}`` by ``M_ab = k^2 int phi_a phi_b / r dr > 0``,
against the stiffness's ``-seg_r / h^2``.  Where ``M_ab`` is the larger, the
operator is no M-matrix, and the discrete ``u`` can turn negative next to
the origin, where the paper's ``b2 = 0`` profile has ``u > 0``.  So segments
``1 .. m``, ``m`` the last segment ``i >= 1`` with ``M_ab > seg_r / h^2``,
take the row sums of their ``2 x 2`` block instead: ``W_a = k^2 int phi_a /
r dr`` on ``u_a``'s diagonal, ``W_b`` on ``u_b``'s, nothing off it.  Segment
0 keeps its block, which couples ``u_1`` only to the pinned ``u_0 = 0``.  No
segment is lumped for ``|k| = 1``.  On the CLI's grids (``n = 16 .. 4096``),
``|k| = 2`` lumps for ``n <= 34``, ``|k| = 3`` for ``n <= 278`` and
``|k| >= 4`` at every ``n``.

A lumped segment adds ``M_ab (u_a - u_b)^2 / 2 >= 0`` to the energy.  As
``u^2 <= phi_a u_a^2 + phi_b u_b^2``, the lumped term bounds the exact
``k^2 int u^2 / r dr`` of the P1 profile from above, so the discrete energy
stays at or above the exact energy of the P1 profile, up to the Gauss
rule's error in that ``1/r`` integrand.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import CsvFormatError, GridError, InvalidParams, NonConvergence, _is_int, _is_real
from .grid import GAUSS_W, GAUSS_XI, RadialGrid, three_point_derivatives
from .params import ModelParams

_SQRT6 = math.sqrt(6.0)
_SQRT23 = math.sqrt(2.0 / 3.0)
_MAX_DAMPING_REJECTS = 32  # failed factorisations in a row before giving up
_SKIP_ORIGIN_NODES = 2  # interior nodes next to the origin left out of max_interior
_BULK_R_MIN = 0.05  # the bulk of the reported residual starts at this fraction of R
# The solver holds the node values as rows (u_i, v_i), i = 0..N.  Flattened,
# [u_0, v_0, u_1, v_1, ..., u_N, v_N], its free degrees of freedom
# [v_0, u_1, v_1, ..., u_{N-1}, v_{N-1}] are this slice: the boundary
# conditions fix u_0, u_N and v_N.
_FREE = slice(1, -2)


# ---------------------------------------------------------------------------
# profile container and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Sampled reduced degrees of freedom ``(u, v)`` on a radial grid; frozen, so ``u``
    and ``v`` meet the grid once, here.  They are the profile's own float copies of the
    caller's arrays, writable in place (:func:`apply_boundary`)."""

    grid: RadialGrid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        u, v, nodes = self.u.shape, self.v.shape, self.grid.nodes.shape
        if not u == v == nodes:
            raise GridError(f"profile arrays {u}/{v} do not match the grid's nodes {nodes}")

    def copy(self) -> "Profile":
        return Profile(self.grid, self.u, self.v)

    def norm_sq_samples(self) -> np.ndarray:
        """Pointwise ``|Y|^2 = u^2 + v^2`` at the nodes."""
        return self.u * self.u + self.v * self.v

    def distance_to(self, other: "Profile") -> float:
        """L2(r dr) distance between two profiles on the same grid."""
        if not self.grid.same_nodes(other.grid):
            raise GridError("profiles live on different grids")
        w = self.grid.weights
        du = self.u - other.u
        dv = self.v - other.v
        return math.sqrt(float(np.sum(w * (du * du + dv * dv))))


def apply_boundary(profile: Profile, params: ModelParams) -> Profile:
    """Overwrite the fixed degrees of freedom with the exact boundary data."""
    profile.u[0] = 0.0
    profile.u[-1] = params.boundary_u
    profile.v[-1] = params.boundary_v
    return profile


def csv_cells(column) -> list[str]:
    """Shortest round-trip decimals of a float column, formatted whole."""
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def csv_text(header: str, columns, cells=()) -> str:
    """CSV text under ``header`` of the formatted ``cells``, then the float ``columns``, zipped."""
    return "\n".join([header, *map(",".join, zip(*cells, *map(csv_cells, columns)))]) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write ASCII ``text`` to ``path`` via a temp file, removed if the write raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_profile_csv(path, profile: Profile, r_cells=None):
    """Write ``r,u,v`` rows with shortest round-trip decimals, atomically; ``r_cells``: ``csv_cells`` of the radii."""
    r = csv_cells(profile.grid.nodes) if r_cells is None else r_cells
    write_text_atomic(path, csv_text("r,u,v", (profile.u, profile.v), [r]))


def read_profile_csv(path) -> Profile:
    """Parse a ``r,u,v`` CSV into a profile (bit-exact for our own output)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"non-ASCII byte {exc.object[exc.start:exc.start + 1]!r}") from None
    # (line number in the file, text) of the non-blank lines
    lines = [(no, ln) for no, ln in enumerate(raw.split("\n"), start=1) if ln.strip() != ""]
    if not lines:
        raise CsvFormatError("empty profile file", line=0)
    header_no, header = lines[0]
    if [c.strip() for c in header.split(",")] != ["r", "u", "v"]:
        raise CsvFormatError(f"expected header 'r,u,v', got {header!r}", line=header_no)
    rows = []
    for ln_no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise CsvFormatError(f"expected 3 columns, got {len(parts)}", line=ln_no)
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=ln_no) from None
        if not all(math.isfinite(x) for x in row):
            raise CsvFormatError(f"non-finite value in {ln.strip()!r}", line=ln_no)
        rows.append(row)
    data = np.array(rows, dtype=float).reshape(-1, 3)  # a header alone gives no rows
    try:
        grid = RadialGrid(data[:, 0])
    except GridError as exc:
        first = lines[1][0] if len(lines) > 1 else 0  # the radius column starts there
        raise CsvFormatError(f"bad radius column: {exc}", line=first) from None
    return Profile(grid, data[:, 1], data[:, 2])


# ---------------------------------------------------------------------------
# the P1/Gauss kernel: energy, gradient, Hessian
# ---------------------------------------------------------------------------

# hat values 1 - xi, xi at the Gauss points (a segment's end nodes a, b) and
# their products (1 - xi)^2, (1 - xi) xi, xi^2 (its node pairs aa, ab, bb)
_HAT_ENDS = np.stack([1.0 - GAUSS_XI, GAUSS_XI], axis=1)
_HAT_PAIRS = np.stack([(1.0 - GAUSS_XI) ** 2, (1.0 - GAUSS_XI) * GAUSS_XI, GAUSS_XI**2], axis=1)


@dataclass
class _Point:
    """One evaluated point of the kernel: the Gauss values ``ug, vg`` of the
    node values and ``t = ug*ug + vg*vg`` (``(N, 5)`` each), the segment
    slopes ``du, dv`` (slice differences divided by ``h`` in place) and the
    node values ``u`` (read on lumped segments only); ``uu = ug*ug`` and
    ``vv = vg*vg`` are formed on read."""

    ug: np.ndarray
    vg: np.ndarray
    t: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    u: np.ndarray
    uu = property(lambda self: self.ug * self.ug)
    vv = property(lambda self: self.vg * self.vg)


class _P1Gauss:
    """The P1/Gauss kernel of one radial grid and ``params``, and the only
    place that forms the radial Gauss rule: Gauss weights ``wg`` of
    ``int f(r) r dr``, interpolation parameters ``t`` and ``s = 1 - t``
    (all ``(N, 5)``).  A plain value, built once per solve level or public
    call, never cached on the grid (that would keep every held grid's arrays
    alive).  :meth:`point` evaluates a point once for its energy, gradient
    and Hessian, whose constants are built once per kernel and serve every
    point: ``seg_r / 2``, ``seg_r / h``, the Hessian's stiffness ``stiff``
    (``seg_r`` the exact per-segment ``int r dr``), ``wk = wg k^2 / r^2``
    and ``wl = wg / L``.  ``wl``, ``stiff`` and the squared Gauss radii
    ``rg2`` (which the solver never reads) are formed on first use: the
    ``L = 0`` kernels of the limit's Dirichlet sums never divide by 0, and
    the 2D layer, which reads no Hessian, never forms ``stiff``.

    ``lumped`` is the slice of u nodes of the lumped segments (see the
    module docstring), None where none is; ``wu`` are their lumped
    ``k^2 u^2 / r^2`` weights, and ``wk`` is 0 on those segments.
    """

    def __init__(self, grid: RadialGrid, params: ModelParams):
        self.grid = grid
        self.params = params
        self.h = grid.h
        rg = grid.nodes[:-1, None] + self.h[:, None] * GAUSS_XI
        self.wg = self.h[:, None] * GAUSS_W * rg
        self.t = (rg - grid.nodes[:-1, None]) / self.h[:, None]
        self.s = 1.0 - self.t
        seg_r = self.h * (rg @ GAUSS_W)  # the sum of wg over each segment
        self.half_seg_r, self.seg_r_h = 0.5 * seg_r, seg_r / self.h
        self.wk = self.wg * (float(params.k * params.k) / (rg * rg))
        # segments i >= 1 whose k^2 coupling of u_i, u_{i+1} outweighs the stiffness's
        couples = np.flatnonzero(self.wk[1:] @ _HAT_PAIRS[:, 1] > self.seg_r_h[1:] / self.h[1:])
        self.lumped = None
        if couples.size:
            m = int(couples[-1]) + 1  # segments 1..m are lumped, on u nodes 1..m+1
            self.lumped = slice(1, m + 2)
            rows = self.wk[1:m + 1] @ _HAT_ENDS  # each block's two row sums
            self.wu = np.zeros(m + 1)
            self.wu[:-1] += rows[:, 0]
            self.wu[1:] += rows[:, 1]
            self.wk[1:m + 1] = 0.0

    @cached_property
    def rg2(self) -> np.ndarray:
        rg = self.grid.nodes[:-1, None] + self.h[:, None] * GAUSS_XI  # as in __init__
        return rg * rg

    @cached_property
    def wl(self) -> np.ndarray:
        return self.wg / self.params.L

    @cached_property
    def stiff(self) -> np.ndarray:
        """The Hessian's stiffness ``seg_r / h^2`` times the aa, ab, bb signs
        (+, -, +) of the hat-slope products, ``(N, 3)``, written by column (an
        outer product would loop 3 entries at a time)."""
        seg_r_h2 = self.seg_r_h / self.h
        stiff = np.empty((seg_r_h2.size, 3))
        stiff[:, 0] = stiff[:, 2] = seg_r_h2
        np.negative(seg_r_h2, out=stiff[:, 1])
        return stiff

    def at_gauss(self, values) -> np.ndarray:
        """Piecewise-linear interpolation of node data to the Gauss radii."""
        g = values[:-1][:, None] * self.s
        g += values[1:][:, None] * self.t
        return g

    def point(self, u, v) -> _Point:
        ug, vg = self.at_gauss(u), self.at_gauss(v)
        t = ug * ug
        t += vg * vg
        du, dv = u[1:] - u[:-1], v[1:] - v[:-1]
        du /= self.h
        dv /= self.h
        return _Point(ug, vg, t, du, dv, u)


def _check_operands(params: ModelParams):
    if params.L <= 0.0:
        raise InvalidParams("the reduced functional requires L > 0")


def _dirichlet(q: _P1Gauss, slope_sq: np.ndarray, uu: np.ndarray, u) -> float:
    """``int (u'^2 + v'^2 + k^2 u^2 / r^2) / 2 r dr`` from the per-segment
    ``slope_sq = u'^2 + v'^2``, ``uu = u^2`` at the Gauss radii and, on the
    lumped segments only, the node values ``u``; summed as Python floats."""
    value = float(q.half_seg_r @ slope_sq) + 0.5 * float(np.vdot(q.wk, uu))
    if q.lumped is not None:
        ul = u[q.lumped]
        value += 0.5 * float(np.vdot(q.wu, ul * ul))
    return value


# The bulk potential along the two-mode frame (|Y|^2 = t, m = c2 t - a2):
#   f   = -a2 t / 2 + c2 t^2 / 4 - b2 vg (vg^2 - 3 ug^2) / (3 sqrt 6)
#   f_u = ug (m + sqrt(2/3) b2 vg),  f_v = vg m - b2 (vg^2 - ug^2) / sqrt 6
#   f_uu = m + sqrt(2/3) b2 vg + 2 c2 ug^2,  f_uv = ug (sqrt(2/3) b2 + 2 c2 vg)
#   f_vv = m - sqrt(2/3) b2 vg + 2 c2 vg^2
# Each kernel adds its b2 terms only for b2 != 0: at b2 = 0 they are zeros,
# and the terms left are the same operations on the same operands, so the
# results keep their bits at every b2.  Each kernel forms its Gauss
# coefficients in place, by the operations above in their order.

def _energy(q: _P1Gauss, pt: _Point) -> float:
    p = q.params
    uu = pt.uu
    dirichlet = _dirichlet(q, pt.du * pt.du + pt.dv * pt.dv, uu, pt.u)
    f = np.multiply(0.25 * p.c2, pt.t)  # the bulk density
    f -= 0.5 * p.a2
    f *= pt.t
    if p.b2 != 0.0:
        cubic = uu  # the Dirichlet part has read it
        cubic *= 3.0
        np.subtract(pt.vv, cubic, out=cubic)
        cubic *= p.b2 / (3.0 * _SQRT6) * pt.vg
        f -= cubic
    # summed as Python floats: an inf Dirichlet part and a -inf bulk part
    # give NaN without a RuntimeWarning, as their BLAS sums overflow without one
    return dirichlet + float(np.vdot(q.wl, f))


def reduced_energy(profile: Profile, params: ModelParams) -> float:
    """Quadrature value of the reduced energy for the given profile.

    The singular ``k^2 u^2 / r^2`` term is integrated at interior Gauss
    radii only, which is finite for admissible data (``u(0) = 0``).
    """
    _check_operands(params)
    q = _P1Gauss(profile.grid, params)
    return _energy(q, q.point(profile.u, profile.v))


def _gradient(q: _P1Gauss, pt: _Point) -> np.ndarray:
    """Partial derivatives of the discrete energy wrt the node values, as
    ``(N+1, 2)`` rows ``(d/du_i, d/dv_i)``; the entries of the fixed DOFs
    ``u_0``, ``u_N``, ``v_N`` (those outside ``_FREE``) are 0."""
    p = q.params
    coef = np.empty((2,) + pt.t.shape)
    cu, cv = coef  # wg (k^2 u / r^2 + f_u / L), wg f_v / L
    m = np.multiply(p.c2, pt.t, out=cu)
    m -= p.a2
    np.multiply(pt.vg, m, out=cv)
    if p.b2 != 0.0:
        m += _SQRT23 * p.b2 * pt.vg  # f_u / ug
        d = pt.vv
        d -= pt.uu
        d *= p.b2 / _SQRT6
        cv -= d
    np.multiply(q.wl, m, out=cu)
    cu += q.wk
    cu *= pt.ug
    cv *= q.wl
    ends = (coef.reshape(-1, 5) @ _HAT_ENDS).reshape(2, -1, 2)
    stiff = np.empty((2, pt.du.size))
    np.multiply(q.seg_r_h, pt.du, out=stiff[0])
    np.multiply(q.seg_r_h, pt.dv, out=stiff[1])
    g = np.empty((2, pt.du.size + 1))  # u and v columns, contiguous for the norm's sums
    np.subtract(ends[:, :, 0], stiff, out=g[:, :-1])
    g[:, 1:-1] += ends[:, :-1, 1] + stiff[:, :-1]
    if q.lumped is not None:
        g[0, q.lumped] += q.wu * pt.u[q.lumped]
    g[0, 0] = g[:, -1] = 0.0
    return g.T


def reduced_gradient(profile: Profile, params: ModelParams):
    """Discrete L2(r dr) gradient with boundary DOFs projected out.

    Returns node-sampled functions ``(du, dv)`` such that the directional
    derivative of :func:`reduced_energy` along ``(qu, qv)`` equals
    ``sum(masses * (du*qu + dv*qv))`` with the grid's lumped node masses.
    Entries at fixed degrees of freedom are zero.
    """
    _check_operands(params)
    q = _P1Gauss(profile.grid, params)
    gu, gv = _gradient(q, q.point(profile.u, profile.v)).T
    m = profile.grid.node_masses
    return gu / m, gv / m


def _hessian_coef(q: _P1Gauss, pt: _Point) -> np.ndarray:
    """``wg (k^2 / r^2 + f_uu / L)``, ``wg f_uv / L``, ``wg f_vv / L`` as one
    ``(3, N, 5)`` array; the ``f_uv`` row is the others' scratch until last."""
    p = q.params
    coef = np.empty((3,) + pt.t.shape)
    cuu, cuv, cvv = coef
    m = np.multiply(p.c2, pt.t, out=cvv)
    m -= p.a2
    np.copyto(cuu, m)
    if p.b2 != 0.0:
        bv = np.multiply(_SQRT23 * p.b2, pt.vg, out=cuv)
        cuu += bv
        m -= bv
    for row, x in ((cuu, pt.ug), (cvv, pt.vg)):  # + 2 c2 ug^2, + 2 c2 vg^2
        sq = np.multiply(x, x, out=cuv)
        sq *= 2.0 * p.c2
        row += sq
        row *= q.wl
    cuu += q.wk
    fuv = np.multiply(2.0 * p.c2, pt.vg, out=cuv)  # f_uv / ug
    if p.b2 != 0.0:
        np.add(_SQRT23 * p.b2, fuv, out=fuv)
    fuv *= pt.ug
    fuv *= q.wl
    return coef


def _assemble_hessian_banded(q: _P1Gauss, pt: _Point):
    """Hessian of the discrete energy over the free DOFs at the evaluated
    point ``pt``, in LAPACK's lower band storage: ``(4, 2N - 1)``, row ``d``
    column ``j`` holding the entry ``(j + d, j)``.

    In the interleaved node vector ``[u_0, v_0, ..., u_N, v_N]`` segment
    ``i`` owns the four values ``2i .. 2i + 3``.  One product of the
    ``(3N, 5)`` Gauss coefficients with the hat pairs gives each segment's
    uu, uv, vv entries of its node pairs aa, ab, bb as length-N vectors;
    each lower-triangle entry of the segments' 4x4 blocks is added into a
    band over all ``2N + 2`` values with one step-2 slice, so a node shared
    by two segments sums their two entries.  The free columns, ``_FREE``,
    are returned, Fortran-contiguous, so each shift's copy for ``dpbsv`` is
    one block copy.  The couplings to ``u_N`` and ``v_N`` land below the
    matrix, where ``dpbsv`` reads nothing.
    """
    n = q.grid.n_segments
    loc = (_hessian_coef(q, pt).reshape(3 * n, 5) @ _HAT_PAIRS).reshape(3, n, 3)
    loc[0::2] += q.stiff
    (uu_aa, uu_ab, uu_bb), (uv_aa, uv_ab, uv_bb), (vv_aa, vv_ab, vv_bb) = loc.transpose(0, 2, 1)
    # the lower triangle of the block over (u_a, v_a, u_b, v_b), by column;
    # u_a v_b and v_a u_b share the weight (1 - xi) xi, so uv_ab serves both
    columns = ((uu_aa, uv_aa, uu_ab, uv_ab), (vv_aa, uv_ab, vv_ab), (uu_bb, uv_bb), (vv_bb,))
    band = np.zeros((4, 2 * n + 2), order="F")
    for c, column in enumerate(columns):
        for d, entry in enumerate(column):
            slots = band[d, c:c + 2 * n:2]
            slots += entry  # in place: no write-back copy of the slice
    if q.lumped is not None:  # on the u_i diagonal
        slots = band[0, 2 * q.lumped.start:2 * q.lumped.stop:2]
        slots += q.wu
    return band[:, _FREE]


_FLAPACK = "scipy.linalg._flapack"  # scipy's compiled LAPACK wrappers


@cache
def _lapack_dpbsv():
    """LAPACK's ``dpbsv`` from scipy's compiled wrappers, resolved once
    per process.

    The wrappers are one extension module, but ``import scipy.linalg``
    runs the whole package (some 300 modules, ~25 MB and ~0.2 s) to reach
    it, and a solve needs nothing else from it.  So, unless some import
    has loaded it already, the extension file is loaded directly, after
    the top-level ``scipy`` package (whose ``__init__`` does any platform
    set-up), and registered under its own name, where a later ``import
    scipy.linalg`` finds and reuses it.  Where no such file exists, or
    loading it raises ImportError, ``scipy.linalg.lapack`` supplies the
    routine.  Either way it is the same compiled routine.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
        from importlib.util import module_from_spec, spec_from_file_location

        stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
        path = next((stem + s for s in EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
        if path is not None:
            loader = ExtensionFileLoader(_FLAPACK, path)
            try:
                module = module_from_spec(spec_from_file_location(_FLAPACK, path, loader=loader))
                loader.exec_module(module)
            except ImportError:
                module = None
            else:
                sys.modules[_FLAPACK] = module
    if module is None:
        from scipy.linalg.lapack import dpbsv
        return dpbsv
    return module.dpbsv


def _newton_step(lower, shift, rhs, band):
    """Solve ``(H + diag(shift)) x = rhs``, ``H`` in LAPACK's lower band
    storage (:func:`_assemble_hessian_banded`); None where the
    factorisation fails (``H + diag(shift)`` not positive definite) or ``x``
    is not finite.

    One ``dpbsv`` call factors and solves in place in ``band``, a
    Fortran-order array of ``lower``'s shape that each shift an iteration
    tries refills; ``lower`` stays for the next shift and the round-off
    floor.  The routine comes from :func:`_lapack_dpbsv`, which loads scipy's LAPACK
    extension without the rest of ``scipy.linalg``, and falls back to
    ``scipy.linalg.lapack`` where the extension file cannot be loaded.
    """
    band[...] = lower
    band[0] += shift
    _, x, info = _lapack_dpbsv()(band, rhs, lower=1, overwrite_ab=1)
    if info != 0 or not np.isfinite(x).all():
        return None
    return x


def _roundoff_floor(lower, x, mass_free) -> float:
    """``eps || |H| |x| ||_M``: the mass-weighted size of the round-off in a
    gradient whose terms are as large as those of ``H x``, ``H`` in lower
    band storage and ``x`` the free DOFs."""
    a = np.abs(lower)
    ax = np.abs(x)
    with np.errstate(over="ignore"):  # an overflow shows as inf, as in the norm
        y = a[0] * ax
        for d in (1, 2, 3):
            y[d:] += a[d, :-d] * ax[:-d]
            y[:-d] += a[d, :-d] * ax[d:]
        return np.finfo(float).eps * math.sqrt(float(np.sum(y * y / mass_free)))


# ---------------------------------------------------------------------------
# strong-form finite-difference residual
# ---------------------------------------------------------------------------

def _bulk_mask(r: np.ndarray, r_min: float) -> np.ndarray:
    """Mask of the bulk of the ascending radii ``r``: ``r >= r_min``, the
    cutoff clipped to the last radius so that the bulk is never empty."""
    return r >= min(r_min, r[-1])


@dataclass
class OdeResidual:
    """Second-order FD residual of the coupled radial ODE system.

    ``r`` holds the interior nodes; ``neumann_defect`` is ``|v'(0)|`` from
    a one-sided second-order stencil.  The first two interior nodes sit
    inside the origin-adjacent region where the polar stencil loses an
    order, so ``max_interior`` skips them.
    """

    r: np.ndarray
    ru: np.ndarray
    rv: np.ndarray
    neumann_defect: float

    def max_interior(self) -> float:
        s = _SKIP_ORIGIN_NODES
        return float(max(np.abs(self.ru[s:]).max(), np.abs(self.rv[s:]).max()))

    def bulk_peak(self, r_min: float) -> tuple[float, float]:
        """``(value, r)``: the largest residual entry over the bulk nodes
        (:func:`_bulk_mask`) and its radius."""
        bulk = _bulk_mask(self.r, r_min)
        size = np.maximum(np.abs(self.ru[bulk]), np.abs(self.rv[bulk]))
        i = int(size.argmax())
        return float(size[i]), float(self.r[bulk][i])


def ode_residual(profile: Profile, params: ModelParams) -> OdeResidual:
    """Evaluate the strong ODE residual on interior nodes.

    ``ru = u'' + u'/r - k^2 u/r^2 - (u/L)[-a2 + sqrt(2/3) b2 v + c2 (u^2+v^2)]``
    ``rv = v'' + v'/r - (v/L)[-a2 - b2 v/sqrt(6) + c2 (u^2+v^2)] - b2 u^2/(sqrt(6) L)``

    Boundary consistency of the input is not checked; plugging arbitrary
    profiles in is allowed (and used for manufactured-solution tests).  A
    residual past the float range is inf, or NaN where two inf terms cancel.
    """
    _check_operands(params)
    with np.errstate(over="ignore", invalid="ignore"):
        r, u, v = profile.grid.nodes, profile.u, profile.v
        # the u and v rows in one pass of each operation: the row axis only
        # broadcasts, so each row keeps the bits of its own computation
        y = np.stack([u, v])
        d1, d2 = three_point_derivatives(y, r, 1)
        ri, (ui, vi) = r[1:-1], y[:, 1:-1]
        lap = d2 + d1 / ri  # u'' + u'/r, v'' + v'/r
        over_l = y[:, 1:-1] / params.L  # u/L, v/L
        c2t = params.c2 * (ui * ui + vi * vi)
        k2 = float(params.k * params.k)
        ru = (
            lap[0] - k2 * ui / (ri * ri)
            - over_l[0] * (-params.a2 + _SQRT23 * params.b2 * vi + c2t)
        )
        rv = (
            lap[1]
            - over_l[1] * (-params.a2 - params.b2 * vi / _SQRT6 + c2t)
            - params.b2 * ui * ui / (_SQRT6 * params.L)
        )
        h0, h1 = r[1] - r[0], r[2] - r[1]
        vp0 = (
            -(2.0 * h0 + h1) / (h0 * (h0 + h1)) * v[0]
            + (h0 + h1) / (h0 * h1) * v[1]
            - h0 / (h1 * (h0 + h1)) * v[2]
        )
        return OdeResidual(r=ri.copy(), ru=ru, rv=rv, neumann_defect=abs(float(vp0)))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    """Outcome summary of a minimisation run.

    ``residual_norm`` is the strong-form FD residual maximum over the bulk,
    the interior nodes with ``r >= 0.05 R``, and ``residual_peak_r`` the
    radius where it is reached; ``residual_core`` is the maximum over every
    interior node but the two origin-adjacent ones, which the core stencil
    dominates.  ``checks`` records the qualitative-structure verdicts (sign
    structure for b2 = 0, norm bound, Neumann defect).  ``stop`` is ``"tol"`` or ``"roundoff_floor"`` (see
    :func:`minimize`), None if the run did not converge.
    ``iterations`` counts the Newton iterations on the solve grid and
    ``coarse_iterations`` those of the nested coarse start (0 where none
    ran); ``factorizations_failed`` counts Newton systems whose
    factorisation failed or whose step was not finite, ``backtracks``
    rejected trial points, both over the two levels.
    """

    energy: float
    grad_norm: float
    residual_norm: float
    iterations: int
    converged: bool
    stop: str | None = None
    factorizations_failed: int = 0
    backtracks: int = 0
    coarse_iterations: int = 0
    residual_peak_r: float = math.nan
    residual_core: float = math.nan
    checks: dict = field(default_factory=dict)


# A preset start on a grid of at least _NESTED_MIN_SEGMENTS segments is the
# minimiser on every _NESTED_STRIDE-th node, interpolated (nested iteration).
# Solve time summed over 16 random (k, L, b2, preset) cases per size, best of
# 3 runs of 3, one BLAS thread on a 2-vCPU x86-64 host, cold -> nested: n = 256
# 28.1 -> 30.3 ms, 512 38.1 -> 36.3, 1024 48.7 -> 42.0, 2048 96.4 -> 58.9,
# 4096 222 -> 118.  Below 1024 the gain is small or a loss, so those stay cold.
_NESTED_MIN_SEGMENTS = 1024
# Over k in {1, -1, 2, -2, 3, 4}, b2 in {0, 0.7, 1.5}, L in {1e-4, ..., 0.1},
# n in {1024, 1030, 2048, 4096} and both presets (576 cases, same host), every
# 8th node leaves each solve at most 3 Newton iterations on its grid; every
# 16th needs 4 in 20 cases (b2 = 1.5, L = 1e-4), every 4th costs more on the
# coarse level.  All 576 nested solves: 2.70 / 2.57 / 2.42 s for every
# 4th / 8th / 16th node, 4.06 s cold.
_NESTED_STRIDE = 8


def _start_rows(params: ModelParams, grid: RadialGrid, init) -> np.ndarray:
    """``init`` (a :class:`Profile` on ``grid`` or a preset) as ``(N+1, 2)``
    rows ``(u_i, v_i)``, reflected into ``u >= 0, v <= 0`` for ``b2 = 0`` and
    with the boundary values set: the only place that builds a start."""
    if isinstance(init, Profile):
        if not grid.same_nodes(init.grid):
            raise GridError("initial profile grid does not match the solve grid")
        y = np.stack([init.u, init.v], axis=1)
    elif init == "explicit":
        from .harmonic import explicit_arrays  # deferred: harmonic imports Profile

        y = np.stack(explicit_arrays("minus", params.k, params.s_plus, grid.nodes), axis=1)
    elif init == "ramp":
        y = np.empty((grid.nodes.size, 2))
        y[:, 0] = params.boundary_u * grid.nodes / grid.radius
        y[:, 1] = params.boundary_v
    else:
        raise InvalidParams(f"unknown init preset {init!r}")
    if params.b2 == 0.0:
        y = np.abs(y) * (1.0, -1.0)
    y[0, 0] = 0.0
    y[-1] = params.boundary_u, params.boundary_v
    if not np.all(np.isfinite(y)):
        raise InvalidParams("initial profile has non-finite values")
    return y


def _check_bulk_scale(params: ModelParams):
    """Reject parameters whose quartic term ``c2 |Y|^4`` overflows at the
    limit norm ``|Y|^2 = (2/3) s_plus^2``, where the energy would be
    ``-inf`` or NaN."""
    nsq = params.limit_norm_sq
    if not math.isfinite(params.c2 * nsq * nsq):
        raise InvalidParams(
            f"a2 = {params.a2}, b2 = {params.b2}, c2 = {params.c2}: c2 |Y|^4 "
            f"overflows at |Y|^2 = (2/3) s_plus^2 = {nsq}"
        )


def _structure_checks(u, v, params: ModelParams, neumann_defect: float) -> dict:
    norm_max = float((u * u + v * v).max())
    bound = params.limit_norm_sq
    checks = {
        "norm_bound_ok": bool(norm_max <= bound + 1e-8),
        "norm_bound_margin": bound - norm_max,
        "neumann_defect": neumann_defect,
    }
    if params.b2 == 0.0:
        checks["u_positive"] = bool((u[1:] > 0.0).all())
        checks["v_negative"] = bool((v < 0.0).all())
        checks["v_nondecreasing"] = bool((v[1:] - v[:-1] >= -1e-10).all())
    return checks


@dataclass
class _NewtonRun:
    """Where :func:`_newton` ended: the last accepted rows ``y``, their
    energy and gradient norm, the stop rule (None if none fired) and the
    counts."""

    y: np.ndarray
    energy: float
    grad_norm: float
    stop: str | None
    iterations: int
    failed: int
    backtracks: int


def _newton(q: _P1Gauss, y, tol, max_iter, on_step, kind) -> _NewtonRun:
    """Damped Newton from the rows ``y`` on the grid of ``q``, as described
    in :func:`minimize`; ``on_step(kind, energy, grad_norm)`` after every
    iteration."""
    masses = q.grid.node_masses
    mass_free = np.repeat(masses, 2)[_FREE]
    mass_max = float(np.maximum.reduce(mass_free))

    def rhs_and_norm(at):
        """The Newton right-hand side, minus the free DOFs' gradient, and the
        gradient's norm; a gradient or norm past the float range is inf (NaN
        where two inf terms cancel), which stops the loop below."""
        with np.errstate(over="ignore", invalid="ignore"):
            g = _gradient(q, at)
            gg = g.T * g.T  # the u and v rows
            gg /= masses
            su, sv = np.add.reduce(gg, axis=1)  # np.sum's pairwise sums, along each row
            return -g.reshape(-1)[_FREE], math.sqrt(float(su + sv))

    pt = q.point(y[:, 0], y[:, 1])
    energy = _energy(q, pt)
    rhs, gn = rhs_and_norm(pt)
    lam = 0.0
    iters = failed = backtracks = 0
    stop = "tol" if gn <= tol else None
    while stop is None and iters < max_iter and math.isfinite(gn):
        lower = _assemble_hessian_banded(q, pt)
        del pt  # the line search needs only the energy, rhs and lower
        band = np.empty(lower.shape, order="F")
        lam_unit = float(np.maximum.reduce(np.abs(lower[0]))) / mass_max
        # Each failed factorisation multiplies lam by 30 from at least 1e-8
        # lam_unit, so finite data passes 1e12 lam_unit within 15 failures;
        # the count bounds the loop where lam_unit is 0 or NaN and the test
        # never fires.
        for _ in range(_MAX_DAMPING_REJECTS):
            x = _newton_step(lower, lam * mass_free, rhs, band)
            if x is not None:
                break
            failed += 1
            lam = max(lam * 30.0, 1e-8 * lam_unit)
            if lam > 1e12 * lam_unit:
                break
        del band
        accepted = stalled = False
        if x is not None:
            slope = -float(rhs @ x)  # directional derivative, < 0
            beta = 1.0
            while beta > 1e-7:
                y2 = y.copy()  # the fixed entries gain nothing: they keep their bits
                free = y2.reshape(-1)[_FREE]
                free += beta * x  # in place: no write-back copy of the slice
                pt = q.point(y2[:, 0], y2[:, 1])
                e2 = _energy(q, pt)
                if abs(e2 - energy) <= 1e-12 * abs(energy):
                    rhs2, gn2 = rhs_and_norm(pt)
                    accepted = gn2 <= (1.0 - 1e-4 * beta) * gn
                    stalled = beta == 1.0 and gn2 > 0.5 * gn and \
                        gn <= _roundoff_floor(lower, y.reshape(-1)[_FREE], mass_free)
                elif e2 <= energy + 1e-4 * beta * slope:
                    rhs2, gn2 = rhs_and_norm(pt)
                    accepted = True
                if accepted or stalled:
                    break
                del pt  # before the next trial point is formed
                beta *= 0.5
                backtracks += 1
        del lower, x  # before the next point's Hessian band is built
        if accepted:
            y, energy, rhs, gn = y2, e2, rhs2, gn2  # pt is the accepted point
            lam *= 0.3
            if lam < 1e-14 * lam_unit:
                lam = 0.0
        iters += 1
        if on_step is not None:
            on_step(kind, energy, gn)
        if gn <= tol:
            stop = "tol"
        elif stalled:
            stop = "roundoff_floor"
        elif not accepted:
            break
    return _NewtonRun(y, energy, gn, stop, iters, failed, backtracks)


def minimize(
    params: ModelParams,
    grid: RadialGrid,
    init="explicit",
    tol: float = 1e-9,
    max_iter: int = 100,
    on_step=None,
):
    """Find the reduced-energy minimiser on the grid.

    Damped Newton on the discrete stationarity system.  The iterate is one
    ``(N+1, 2)`` array of rows ``(u_i, v_i)``; flattened, its free DOFs are
    the slice ``_FREE``, from which the right-hand side, the step, the
    masses and the round-off floor are taken.  Each step factors
    and solves ``H + lam M`` (``M`` the lumped node masses) with one
    ``dpbsv`` call in LAPACK's lower band storage
    (:func:`_assemble_hessian_banded`).  The Levenberg shift ``lam``
    rises (x30) only where the factorisation fails (negative curvature)
    or the step is not finite, and falls (x0.3) after an accepted step.
    One backtracking line search per iteration then accepts a step by an
    Armijo test on the energy, or, when the energy change is below
    round-off (``|dE| <= 1e-12 |E|``), by an Armijo test on the
    projected-gradient norm; a search that accepts no step ends the
    run.  A trial is a copy of the iterate with ``beta x`` added into its
    free slice, so the fixed entries keep their bits.  Each trial point is
    evaluated once (:meth:`_P1Gauss.point`) for its energy and, once
    accepted, its gradient and Hessian; it is dropped once rejected, or once
    its Hessian band is built; an iteration's band and step go before the
    next band is built.  For ``b2 = 0`` the start is reflected into the
    signed class ``u >= 0, v <= 0`` (the energy is invariant under those
    sign flips there).

    A preset start (``"explicit"`` or ``"ramp"``) on a grid of at least
    1024 segments is nested: the same Newton loop first runs from the
    preset on the grid of every 8th node (and the last), and its best
    iterate, interpolated linearly to the grid (exact for P1 profiles on
    nested nodes), is the start, handed to the loop and not held here.
    ``max_iter`` caps each level, and ``on_step("coarse", energy,
    grad_norm)`` is called after every coarse iteration, ``on_step("newton",
    energy, grad_norm)`` after every one on the grid.  A :class:`Profile`
    start is used as given.

    The run stops (``report.stop``) at ``"tol"`` once the gradient norm is
    at most ``tol``, or at ``"roundoff_floor"`` where round-off holds it
    above ``tol``: a full step changes the energy only by round-off and the
    gradient norm by less than half, and that norm is within its floor
    ``eps || |H| |x| ||_M`` (:func:`_roundoff_floor`).

    Returns ``(profile, report)``; raises :class:`NonConvergence` with the
    best iterate attached if ``max_iter`` Newton iterations on the grid do
    not stop the run, no step is accepted, or the gradient norm is not
    finite.  Raises :class:`InvalidParams` where ``c2 |Y|^4`` overflows at
    the limit norm (:func:`_check_bulk_scale`).
    """
    if not (_is_real(tol) and math.isfinite(tol) and tol > 0.0):
        raise InvalidParams("tol must be finite and positive")
    if not (_is_int(max_iter) and max_iter >= 1):
        raise InvalidParams(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if params.L <= 0.0:
        raise InvalidParams("minimize requires L > 0; L = 0 is the limit problem")
    _check_bulk_scale(params)
    n = grid.n_segments
    coarse = None
    if not (isinstance(init, Profile) or n < _NESTED_MIN_SEGMENTS):
        coarse_grid = RadialGrid(grid.nodes[np.r_[0:n:_NESTED_STRIDE, n]])
        coarse = _newton(_P1Gauss(coarse_grid, params), _start_rows(params, coarse_grid, init),
                         tol, max_iter, on_step, "coarse")
    # the start is handed over, not held here, so _newton frees it once a step is accepted
    run = _newton(
        _P1Gauss(grid, params),
        _start_rows(params, grid, init) if coarse is None else
        np.stack([np.interp(grid.nodes, coarse_grid.nodes, c) for c in coarse.y.T], axis=1),
        tol, max_iter, on_step, "newton")

    profile = Profile(grid, *run.y.T)
    res = ode_residual(profile, params)
    residual, peak_r = res.bulk_peak(_BULK_R_MIN * grid.radius)
    checks = _structure_checks(profile.u, profile.v, params, res.neumann_defect)
    report = SolveReport(
        energy=run.energy,
        grad_norm=run.grad_norm,
        residual_norm=residual,
        iterations=run.iterations,
        converged=run.stop is not None,
        checks=checks,
        stop=run.stop,
        factorizations_failed=run.failed + (coarse.failed if coarse else 0),
        backtracks=run.backtracks + (coarse.backtracks if coarse else 0),
        coarse_iterations=coarse.iterations if coarse else 0,
        residual_peak_r=peak_r,
        residual_core=res.max_interior(),
    )
    if run.stop is None:
        raise NonConvergence(
            f"no convergence after {run.iterations} Newton iterations "
            f"(grad_norm {run.grad_norm:.3e} > tol {tol:.1e})",
            profile=profile,
            report=report,
        )
    return profile, report


def _warm_started(steps, grid: RadialGrid, init="explicit", **solve_kw):
    """Solve at each of the parameter sets ``steps``, warm-starting each step.

    The first step starts from ``init``, each later one from the last
    converged profile rescaled to the new ``s_plus``.  Yields ``(params,
    profile, report, error)``; ``error`` is the step's NonConvergence (the
    profile and report are then its best iterate) or None.  Every step's
    bulk scale is checked before the first solve.
    """
    for p_step in steps:
        _check_bulk_scale(p_step)
    last = None  # (params, profile) of the last converged step
    for p_step in steps:
        start = init
        if last is not None:
            prev_params, prev = last
            scale = p_step.s_plus / prev_params.s_plus
            start = Profile(grid, prev.u * scale, prev.v * scale)
        try:
            profile, report = minimize(p_step, grid, init=start, **solve_kw)
        except NonConvergence as exc:
            yield p_step, exc.profile, exc.report, exc
            continue
        yield p_step, profile, report, None
        last = (p_step, profile)


def continuation_in_b2(params: ModelParams, b2_targets, grid: RadialGrid):
    """Solve along an ascending b2 branch, warm-starting each step.

    The first target must be 0; each later solve starts from the previous
    solution rescaled to the new ``s_plus`` boundary amplitude.  Returns a
    list of ``(b2, profile, report)``.  On failure the raised
    :class:`NonConvergence` carries ``failing_b2`` and the partial branch
    in ``branch_so_far``.
    """
    targets = [float(b) for b in b2_targets]
    if not targets:
        raise InvalidParams("b2_targets must be nonempty")
    if targets[0] != 0.0:
        raise InvalidParams("b2 continuation must start at b2 = 0")
    if any(b1 >= b2 for b1, b2 in zip(targets, targets[1:])):
        raise InvalidParams("b2_targets must be strictly ascending")

    steps = [params.with_updates(b2=b2) for b2 in targets]
    branch = []
    for p_b, profile, report, error in _warm_started(steps, grid):
        if error is not None:
            error.failing_b2 = p_b.b2
            error.branch_so_far = branch
            raise error
        branch.append((p_b.b2, profile, report))
    return branch
