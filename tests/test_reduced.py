import math
import os
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError, fields
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdefect import (
    Branch,
    CsvFormatError,
    Field2D,
    GridError,
    InvalidParams,
    ModelParams,
    NonConvergence,
    OdeResidual,
    PolarGrid,
    Profile,
    PsiProfile,
    RadialGrid,
    RenderSpec,
    apply_boundary,
    continuation_in_b2,
    explicit_profile,
    lift,
    minimize,
    ode_residual,
    psi_of_branch,
    read_profile_csv,
    reduced_energy,
    reduced_gradient,
    write_profile_csv,
)
from qdefect.harmonic import explicit_arrays
from qdefect.reduced import _FREE, csv_cells, csv_text

SQRT6 = math.sqrt(6.0)


def params(**kw):
    base = dict(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=1)
    base.update(kw)
    return ModelParams(**base)


def ramp_profile(p, grid):
    u = p.boundary_u * grid.nodes / grid.radius
    v = np.full_like(grid.nodes, p.boundary_v)
    return Profile(grid, u, v)


def preset_profile(p, grid, init):
    """The preset ``init`` as a :class:`Profile`: the same start, which
    ``minimize`` uses as given, without a nested coarse solve."""
    if init == "ramp":
        return ramp_profile(p, grid)
    return Profile(grid, *explicit_arrays("minus", p.k, p.s_plus, grid.nodes))


def bulk_density(u, v, p):
    """``-a2/2 |Y|^2 - b2/3 tr(Y^3) + c2/4 |Y|^4`` along the two-mode frame."""
    t = u * u + v * v
    tr3 = v * (v * v - 3.0 * u * u) / SQRT6
    return -0.5 * p.a2 * t - p.b2 / 3.0 * tr3 + 0.25 * p.c2 * t * t


def oracle_energy(profile, p, refine=10):
    """Richardson-extrapolated trapezoid on per-segment refined grids.

    Integrates the continuum energy of the piecewise-linear interpolant,
    independent of the production quadrature.
    """

    def trapz(m):
        total = 0.0
        r = profile.grid.nodes
        k2 = float(p.k * p.k)
        for i in range(profile.grid.n_segments):
            h = r[i + 1] - r[i]
            rr = np.linspace(r[i], r[i + 1], m + 1)
            t = (rr - r[i]) / h
            uu = profile.u[i] * (1.0 - t) + profile.u[i + 1] * t
            vv = profile.v[i] * (1.0 - t) + profile.v[i + 1] * t
            du = (profile.u[i + 1] - profile.u[i]) / h
            dv = (profile.v[i + 1] - profile.v[i]) / h
            dens = 0.5 * (du * du + dv * dv) * rr + bulk_density(uu, vv, p) / p.L * rr
            sing = np.empty_like(rr)
            pos = rr > 0.0
            sing[pos] = 0.5 * k2 * uu[pos] ** 2 / rr[pos]
            sing[~pos] = 0.0  # u(0) = 0 makes the limit vanish
            dens = dens + sing
            total += float(np.trapezoid(dens, rr))
        return total

    coarse, fine = trapz(refine), trapz(2 * refine)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_matches_oracle_on_ramp():
    p = params(L=0.05)
    grid = RadialGrid.uniform(1.0, 128)
    prof = ramp_profile(p, grid)
    e = reduced_energy(prof, p)
    ref = oracle_energy(prof, p)
    assert abs(e - ref) < 1e-8 * abs(ref)


def test_energy_matches_oracle_on_curved_profile():
    p = params(L=0.2, k=2)
    grid = RadialGrid.graded(1.0, 96)
    prof = explicit_profile(Branch.MINUS, p.with_updates(L=0.0), grid)
    e = reduced_energy(prof, p)
    ref = oracle_energy(prof, p)
    assert abs(e - ref) < 1e-8 * abs(ref)


def test_energy_lower_bound(solve_cache):
    # pointwise minimum of the double-well potential gives
    # E >= -(a^4 / 4 c^2 L) * R^2 / 2 when b2 = 0
    p, prof, rep = solve_cache(L=0.1, n=256)
    bound = -(p.a2**2 / (4.0 * p.c2 * p.L)) * p.R**2 / 2.0
    assert rep.energy >= bound - 1e-12 * abs(bound)


def test_energy_grid_convergence_is_second_order():
    p = params(L=0.5)
    vals = []
    for n in (64, 128, 256, 512):
        grid = RadialGrid.uniform(1.0, n)
        prof = explicit_profile(Branch.MINUS, p.with_updates(L=0.0), grid)
        vals.append(reduced_energy(prof, p))
    d1 = vals[0] - vals[1]
    d2 = vals[1] - vals[2]
    d3 = vals[2] - vals[3]
    assert 3.5 <= d1 / d2 <= 4.5
    assert 3.5 <= d2 / d3 <= 4.5


def test_energy_rejects_mismatched_grid():
    p = params()
    g1 = RadialGrid.uniform(1.0, 64)
    g2 = RadialGrid.uniform(1.0, 65)
    prof = ramp_profile(p, g1)
    with pytest.raises(GridError):
        Profile(g2, prof.u, prof.v)
    with pytest.raises(InvalidParams):
        reduced_energy(prof, p.with_updates(L=0.0))


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_matches_central_differences(rng):
    p = params(L=0.07, b2=0.3, k=2)
    grid = RadialGrid.graded(1.0, 80)
    prof = apply_boundary(
        Profile(
            grid,
            p.boundary_u * (grid.nodes / grid.radius) ** 2,
            p.boundary_v * (0.5 + 0.5 * grid.nodes / grid.radius),
        ),
        p,
    )
    du, dv = reduced_gradient(prof, p)
    assert du[0] == 0.0 and du[-1] == 0.0 and dv[-1] == 0.0
    m = grid.node_masses
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        qu = rng.standard_normal(grid.nodes.size)
        qv = rng.standard_normal(grid.nodes.size)
        qu[0] = qu[-1] = qv[-1] = 0.0
        pair = float(np.sum(m * (du * qu + dv * qv)))
        ep = reduced_energy(Profile(grid, prof.u + eps * qu, prof.v + eps * qv), p)
        em = reduced_energy(Profile(grid, prof.u - eps * qu, prof.v - eps * qv), p)
        fd = (ep - em) / (2.0 * eps)
        worst = max(worst, abs(pair - fd) / max(abs(fd), 1e-12))
    assert worst <= 1e-6


def test_gradient_potential_dominates_at_small_l():
    # split g = g_dir + g_pot / L by evaluating at two L values
    grid = RadialGrid.uniform(1.0, 256)
    p1 = params(L=1.0)
    prof = explicit_profile(Branch.MINUS, p1.with_updates(L=0.0), grid)
    l_small = 1e-8
    g1 = np.concatenate(reduced_gradient(prof, p1))
    g2 = np.concatenate(reduced_gradient(prof, params(L=l_small)))
    g_pot_over_l = (g2 - g1) / (1.0 / l_small - 1.0)
    g_dir = g1 - g_pot_over_l
    m = np.concatenate([grid.node_masses] * 2)
    norm_pot = math.sqrt(float(np.sum(m * (g_pot_over_l / l_small) ** 2)))
    norm_dir = math.sqrt(float(np.sum(m * g_dir**2)))
    assert norm_pot > 10.0 * norm_dir


def test_gradient_zero_perturbation_is_identity():
    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    prof = ramp_profile(p, grid)
    du1, dv1 = reduced_gradient(prof, p)
    du2, dv2 = reduced_gradient(prof.copy(), p)
    assert np.array_equal(du1, du2) and np.array_equal(dv1, dv2)


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def _free(u, v):
    """Node data ``(u, v)`` at the free DOFs ``[v_0, u_1, v_1, ..., v_{N-1}]``."""
    return np.stack([u, v], axis=1).reshape(-1)[_FREE]


def _rows(w):
    """``(N+1, 2)`` node rows of the free DOFs ``w``, 0 at the fixed ones."""
    rows = np.zeros(((w.size + 3) // 2, 2))
    rows.reshape(-1)[_FREE] = w
    return rows


def _dense_from_banded(lower):
    """Dense symmetric matrix of LAPACK lower band storage with 3 subdiagonals
    (entries below the matrix are not read)."""
    nf = lower.shape[1]
    dense = np.zeros((nf, nf))
    for d in range(4):
        j = np.arange(nf - d)
        dense[j + d, j] = dense[j, j + d] = lower[d, j]
    return dense


@pytest.mark.parametrize("k", [1, -2, 3])
@pytest.mark.parametrize("b2", [0.0, 0.7])
def test_hessian_matches_central_differences_of_gradient(k, b2):
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _gradient

    p = params(L=0.05, b2=b2, k=k)
    grid = RadialGrid.for_defect(1.0, 24, k)
    expected = RadialGrid.uniform(1.0, 24) if abs(k) == 1 else RadialGrid.graded(1.0, 24)
    assert np.array_equal(grid.nodes, expected.nodes)
    x = grid.nodes / grid.radius
    prof = apply_boundary(
        Profile(
            grid,
            p.boundary_u * x ** abs(k) * (1.0 + 0.3 * np.sin(3.0 * np.pi * x)),
            p.boundary_v * (0.5 + 0.5 * x) + 0.1 * np.cos(2.0 * np.pi * x),
        ),
        p,
    )
    q = _P1Gauss(grid, p)
    n = grid.n_segments

    def free_grad(u, v):
        return _gradient(q, q.point(u, v)).reshape(-1)[_FREE]

    assert np.max(np.abs(free_grad(prof.u, prof.v))) > 1e-2  # not a critical point
    hess = _dense_from_banded(_assemble_hessian_banded(q, q.point(prof.u, prof.v)))
    fd = np.empty_like(hess)
    eps = 1e-6
    # free DOFs in Hessian order: v_0, u_1, v_1, ..., u_{N-1}, v_{N-1}
    free = [("v", 0)] + [(f, i) for i in range(1, n) for f in ("u", "v")]
    for col, (f, i) in enumerate(free):
        step = np.zeros(n + 1)
        step[i] = eps
        if f == "u":
            plus, minus = free_grad(prof.u + step, prof.v), free_grad(prof.u - step, prof.v)
        else:
            plus, minus = free_grad(prof.u, prof.v + step), free_grad(prof.u, prof.v - step)
        fd[:, col] = (plus - minus) / (2.0 * eps)
    scale = np.sqrt(np.outer(np.abs(np.diag(hess)), np.abs(np.diag(hess))))
    assert np.max(np.abs(hess - fd) / scale) <= 1e-6
    assert np.array_equal(hess, hess.T)


def _banded_matvec(lower, x):
    """``A x`` for symmetric ``A`` in LAPACK lower band storage with 3
    subdiagonals (entries below the matrix are not read)."""
    y = lower[0] * x
    for d in (1, 2, 3):
        y[d:] += lower[d, :-d] * x[:-d]
        y[:-d] += lower[d, :-d] * x[d:]
    return y


@pytest.mark.parametrize("spacing", ["uniform", "graded"])
@pytest.mark.parametrize("k", [1, -2, 3])
@pytest.mark.parametrize("b2", [0.0, 1.0])
def test_hessian_vector_product_at_production_size(spacing, k, b2, rng):
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _gradient

    p = params(L=0.01, b2=b2, k=k)
    grid = getattr(RadialGrid, spacing)(1.0, 2048)
    n = grid.n_segments
    x = grid.nodes
    prof = apply_boundary(
        Profile(
            grid,
            p.boundary_u * x ** abs(k) * (1.0 + 0.3 * np.sin(3.0 * np.pi * x)),
            p.boundary_v * (0.5 + 0.5 * x) + 0.1 * np.cos(2.0 * np.pi * x),
        ),
        p,
    )
    q = _P1Gauss(grid, p)

    def free_grad(u, v):
        return _gradient(q, q.point(u, v)).reshape(-1)[_FREE]

    ab = _assemble_hessian_banded(q, q.point(prof.u, prof.v))
    nf = 2 * n - 1
    assert ab.shape == (4, nf)
    assert not np.any(ab[3, 0::2])  # v_i and u_{i+2} share no segment

    def product_error(w, eps=1e-4):
        wu, wv = _rows(w).T
        assert wu[0] == wu[-1] == wv[-1] == 0.0
        fd = (free_grad(prof.u + eps * wu, prof.v + eps * wv)
              - free_grad(prof.u - eps * wu, prof.v - eps * wv)) / (2.0 * eps)
        return _banded_matvec(ab, w) - fd

    # a random w reaches every band entry; scaled per row by |H| |w|
    w = rng.standard_normal(nf)
    err = product_error(w)
    assert np.max(np.abs(err) / _banded_matvec(np.abs(ab), np.abs(w))) <= 1e-8
    # in a smooth w the stiffness cancels and the potential terms lead H w
    a = rng.standard_normal((2, 4))
    m = np.arange(1, 5)[:, None]
    w = _free(a[0] @ np.sin(m * np.pi * x), a[1] @ np.cos((m - 0.5) * np.pi * x))
    err = product_error(w)
    assert np.max(np.abs(err)) <= 1e-6 * np.max(np.abs(_banded_matvec(ab, w)))


def _newton_case(k, b2, n):
    """``(lower, rhs, mass_free, lam_unit)`` of a first Newton step from a
    perturbed ramp: the band of ``H``, the right-hand side, the free node
    masses and the scale of a shift ``lam``."""
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _gradient

    p = params(L=0.01, b2=b2, k=k)
    grid = RadialGrid.for_defect(1.0, n, k)
    x = grid.nodes / grid.radius
    start = apply_boundary(  # a perturbed ramp: mostly indefinite without a shift
        Profile(
            grid,
            p.boundary_u * x * (1.0 + 0.2 * np.sin(5.0 * np.pi * x)),
            p.boundary_v + 0.1 * np.sin(3.0 * np.pi * x),
        ),
        p,
    )
    q = _P1Gauss(grid, p)
    pt = q.point(start.u, start.v)
    lower = _assemble_hessian_banded(q, pt)
    rhs = -_gradient(q, pt).reshape(-1)[_FREE]
    mass_free = _free(grid.node_masses, grid.node_masses)
    lam_unit = float(np.max(np.abs(lower[0]))) / float(np.max(mass_free))
    return lower, rhs, mass_free, lam_unit


@pytest.mark.parametrize("k", [1, -2, 3])
@pytest.mark.parametrize("b2", [0.0, 0.7])
@pytest.mark.parametrize("n", [64, 2048])
def test_newton_step_matches_scipy_banded_cholesky(k, b2, n):
    from scipy.linalg import cho_solve_banded, cholesky_banded, lapack

    from qdefect.reduced import _newton_step

    lower, rhs, mass_free, lam_unit = _newton_case(k, b2, n)
    work = np.empty(lower.shape, order="F")  # refilled by every shift, as in minimize
    for lam in (0.0, 1e-8 * lam_unit, 1e-4 * lam_unit, 1e-1 * lam_unit):
        step = _newton_step(lower, lam * mass_free, rhs, work)
        # the same bytes as scipy.linalg.lapack's dpbsv, whichever way the
        # solver resolved the routine
        band = lower.copy()
        band[0] += lam * mass_free
        _, x, info = lapack.dpbsv(band, rhs, lower=1)
        if info == 0 and np.all(np.isfinite(x)):
            assert step.tobytes() == x.tobytes()
        else:
            assert step is None
        upper = np.zeros_like(lower)  # the same matrix in upper band storage
        for d in (1, 2, 3):
            upper[3 - d, d:] = lower[d, :-d]
        upper[3] = lower[0] + lam * mass_free
        try:
            ref = cho_solve_banded((cholesky_banded(upper), False), rhs)
        except np.linalg.LinAlgError:
            ref = None
        assert (step is None) == (ref is None)
        if ref is not None:
            # bit-equality depends on the BLAS build, so only closeness is asserted
            assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert step is not None  # the largest shift makes H + lam M definite


_NEWTON_CASES = [(k, b2, n) for k in (1, -2, 3) for b2 in (0.0, 0.7) for n in (64, 2048)]


def _newton_steps():
    """``_newton_step``'s solutions as bytes (None where it fails) on every
    case of :func:`test_newton_step_matches_scipy_banded_cholesky`."""
    from qdefect.reduced import _newton_step

    steps = []
    for k, b2, n in _NEWTON_CASES:
        lower, rhs, mass_free, lam_unit = _newton_case(k, b2, n)
        work = np.empty(lower.shape, order="F")
        for lam in (0.0, 1e-8 * lam_unit, 1e-4 * lam_unit, 1e-1 * lam_unit):
            x = _newton_step(lower, lam * mass_free, rhs, work)
            steps.append(None if x is None else x.tobytes())
    return steps


def test_lapack_resolver_loads_the_extension_or_falls_back(monkeypatch, tmp_path):
    import scipy
    from scipy.linalg import lapack

    import qdefect.reduced as reduced

    resolve = reduced._lapack_dpbsv.__wrapped__  # uncached
    assert resolve() is lapack.dpbsv  # already loaded: the routine scipy.linalg uses
    expected = _newton_steps()

    def steps_with(dpbsv):
        with monkeypatch.context() as m:
            m.setattr(reduced, "_lapack_dpbsv", lambda: dpbsv)
            return _newton_steps()

    monkeypatch.delitem(sys.modules, reduced._FLAPACK)
    loaded = resolve()  # the extension file, loaded directly and registered
    assert sys.modules[reduced._FLAPACK].dpbsv is loaded
    assert steps_with(loaded) == expected
    # no extension file where scipy's path points, then a file that is no
    # extension module: both fall back to scipy.linalg.lapack
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    for bad_file in (False, True):
        if bad_file:
            (tmp_path / "scipy" / "linalg").mkdir(parents=True)
            (tmp_path / "scipy" / "linalg" / ("_flapack" + EXTENSION_SUFFIXES[0])).write_bytes(b"x")
        monkeypatch.delitem(sys.modules, reduced._FLAPACK, raising=False)
        assert resolve() is lapack.dpbsv
        assert reduced._FLAPACK not in sys.modules
        assert steps_with(lapack.dpbsv) == expected


_IMPORT_ORDER_SCRIPT = """
import sys
import numpy as np
{first}
from qdefect import ModelParams, RadialGrid, minimize
p = ModelParams(a2=1.0, b2=0.7, c2=1.0, L=0.01, R=1.0, k=-2)
profile, report = minimize(p, RadialGrid.for_defect(1.0, 256, -2))
assert ("scipy.linalg" in sys.modules) == {linalg_first}
import scipy.linalg
assert scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"]
# scipy.linalg's own use of the extension: the banded Cholesky factor of
# tridiag(-1, 4, -1) in upper storage, against numpy's dense one
band = np.array([[0.0, -1.0, -1.0, -1.0], [4.0, 4.0, 4.0, 4.0]])
dense = np.diag([4.0] * 4) - np.diag([1.0] * 3, 1) - np.diag([1.0] * 3, -1)
chol = scipy.linalg.cholesky_banded(band)
assert np.allclose(chol[1], np.diag(np.linalg.cholesky(dense)), rtol=1e-14, atol=0)
print(profile.u.tobytes().hex(), profile.v.tobytes().hex(), report.energy.hex())
"""


def test_solver_and_scipy_linalg_agree_in_either_import_order():
    # solver first: it loads the LAPACK extension that scipy.linalg then
    # reuses; scipy.linalg first: the solver takes the loaded extension
    import qdefect.reduced as reduced

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(reduced.__file__))}
    outputs = []
    for first, linalg_first in (("", False), ("import scipy.linalg", True)):
        code = _IMPORT_ORDER_SCRIPT.format(first=first, linalg_first=linalg_first)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60.0, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("k", [1, -2, 3])
@pytest.mark.parametrize("n", [64, 2048])
def test_newton_step_reads_no_band_slot_below_the_matrix(k, n):
    # the couplings of v_{N-2}, u_{N-1}, v_{N-1} to the fixed u_N, v_N land in
    # the lower band below the matrix; dpbsv must not read them
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _gradient, _newton_step

    p = params(L=0.01, b2=0.7, k=k)
    grid = RadialGrid.for_defect(1.0, n, k)
    start = ramp_profile(p, grid)
    q = _P1Gauss(grid, p)
    pt = q.point(start.u, start.v)
    lower = _assemble_hessian_banded(q, pt)
    nf = lower.shape[1]
    below = [(d, slice(nf - d, None)) for d in (1, 2, 3)]
    assert sum(np.count_nonzero(lower[d, cols]) for d, cols in below) == 4
    rhs = -_gradient(q, pt).reshape(-1)[_FREE]
    mass_free = _free(grid.node_masses, grid.node_masses)
    shift = 0.1 * float(np.max(np.abs(lower[0]))) / float(np.max(mass_free)) * mass_free
    work = np.empty(lower.shape, order="F")
    ref = _newton_step(lower, shift, rhs, work)
    assert ref is not None
    poisoned = lower.copy()
    for d, cols in below:
        poisoned[d, cols] = np.nan
    step = _newton_step(poisoned, shift, rhs, work)
    assert step is not None and step.tobytes() == ref.tobytes()


# The per-term P1/Gauss kernel that the fused one replaced, kept as the reference:
# the potential and each of its derivatives in a helper of its own, the gradient
# as four hat-weighted sums and the Hessian blocks as a loop over Gauss points.

def _old_fhat(pt, p):
    return -0.5 * p.a2 * pt.t \
        - (p.b2 / (3.0 * SQRT6)) * pt.vg * (pt.vv - 3.0 * pt.ug * pt.ug) \
        + 0.25 * p.c2 * pt.t * pt.t


def _old_fhat_hessian(pt, p):
    s23 = math.sqrt(2.0 / 3.0)
    fuu = -p.a2 + s23 * p.b2 * pt.vg + p.c2 * (pt.t + 2.0 * pt.uu)
    fuv = s23 * p.b2 * pt.ug + 2.0 * p.c2 * pt.ug * pt.vg
    fvv = -p.a2 - s23 * p.b2 * pt.vg + p.c2 * (pt.t + 2.0 * pt.vv)
    return fuu, fuv, fvv


def _dirichlet_density(q, pt, p):
    """``(u'^2 + v'^2 + k^2 u^2 / r^2) / 2`` at the Gauss radii."""
    return 0.5 * (pt.du * pt.du + pt.dv * pt.dv)[:, None] + 0.5 * p.k**2 * pt.ug * pt.ug / q.rg2


def _old_energy(q, pt, p):
    dens = _dirichlet_density(q, pt, p) + _old_fhat(pt, p) / p.L
    return float(np.sum(q.wg * dens))


def _old_gradient(q, pt, p):
    from qdefect.grid import GAUSS_XI

    fu = pt.ug * (-p.a2 + math.sqrt(2.0 / 3.0) * p.b2 * pt.vg + p.c2 * pt.t)
    fv = pt.vg * (-p.a2 + p.c2 * pt.t) - (p.b2 / SQRT6) * (pt.vv - pt.uu)
    seg_r = q.wg.sum(axis=1)
    grads = []
    for slope, wf in ((pt.du, q.wg * (p.k**2 * pt.ug / q.rg2 + fu / p.L)), (pt.dv, q.wg * fv / p.L)):
        g = np.zeros(pt.du.size + 1)
        a = seg_r * slope / q.h
        g[:-1] -= a
        g[1:] += a
        g[:-1] += wf @ (1.0 - GAUSS_XI)
        g[1:] += wf @ GAUSS_XI
        grads.append(g)
    return grads


def _old_hessian(q, pt, p):
    from qdefect.grid import GAUSS_XI

    n = q.grid.n_segments
    fuu, fuv, fvv = _old_fhat_hessian(pt, p)
    coef = np.stack([q.wg * (p.k**2 / q.rg2 + fuu / p.L), q.wg * fuv / p.L,
                     q.wg * fvv / p.L]).transpose(0, 2, 1)  # (uu/uv/vv, 5, N)
    pairs = np.stack([(1.0 - GAUSS_XI) ** 2, (1.0 - GAUSS_XI) * GAUSS_XI, GAUSS_XI**2], axis=1)
    loc = np.zeros((3, 3, n))  # (uu/uv/vv, aa/ab/bb, N)
    loc[0::2] = np.array([[1.0], [-1.0], [1.0]]) * (q.wg.sum(axis=1) / (q.h * q.h))
    for g in range(GAUSS_XI.size):
        loc += coef[:, g, None, :] * pairs[g, :, None]
    (uu_aa, uu_ab, uu_bb), (uv_aa, uv_ab, uv_bb), (vv_aa, vv_ab, vv_bb) = loc
    ab = np.zeros((7, 2 * n - 1))
    ab[3, 0::2] = vv_aa
    ab[3, 2::2] += vv_bb[:-1]
    ab[3, 1::2] = uu_bb[:-1] + uu_aa[1:]
    ab[2, 2::2] = uv_bb[:-1] + uv_aa[1:]
    ab[2, 1::2] = uv_ab[:-1]
    ab[1, 2::2] = vv_ab[:-1]
    ab[1, 3::2] = uu_ab[1:-1]
    ab[0, 4::2] = uv_ab[1:-1]
    for d in (1, 2, 3):
        ab[3 + d, :-d] = ab[3 - d, d:]
    return ab


@pytest.mark.parametrize("spacing", ["uniform", "graded"])
@pytest.mark.parametrize("k", [1, -1, 2, 3, -4])
@pytest.mark.parametrize("b2", [0.0, 0.7, 1.5])
@pytest.mark.parametrize("n", [64, 2048])
def test_fused_kernel_matches_the_per_term_kernel(spacing, k, b2, n):
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _energy, _gradient

    p = params(L=0.01, b2=b2, k=k)
    grid = getattr(RadialGrid, spacing)(1.0, n)
    x = grid.nodes
    prof = apply_boundary(
        Profile(
            grid,
            p.boundary_u * x ** abs(k) * (1.0 + 0.3 * np.sin(3.0 * np.pi * x)),
            p.boundary_v * (0.5 + 0.5 * x) + 0.1 * np.cos(2.0 * np.pi * x),
        ),
        p,
    )
    q = _P1Gauss(grid, p)
    pt = q.point(prof.u, prof.v)
    # the energy relative to the size of the terms it sums, which cancel to
    # 0.19 at k = -4, b2 = 1.5
    terms = np.sum(q.wg * (_dirichlet_density(q, pt, p) + np.abs(_old_fhat(pt, p)) / p.L))
    assert abs(_energy(q, pt) - _old_energy(q, pt, p)) <= 1e-14 * terms

    # the reference's rows 3-6 are its lower band storage
    ab, ref = _assemble_hessian_banded(q, pt), _old_hessian(q, pt, p)[3:]
    # every entry and every gradient component, scaled per row by the size
    # |H| |x| of the terms that the row sums
    ax = np.abs(_free(prof.u, prof.v))
    scale = _banded_matvec(np.abs(ref), ax)
    assert np.max(_banded_matvec(np.abs(ab - ref), ax) / scale) <= 1e-14
    grad = _gradient(q, pt).reshape(-1)[_FREE]
    assert np.max(np.abs(grad - _free(*_old_gradient(q, pt, p))) / scale) <= 1e-14


# The fused kernel with its b2 terms always evaluated, as it was before they
# were skipped at b2 = 0: the same operations on the same operands otherwise,
# so the kernel must match it bit for bit at every b2.

def _full_energy(q, pt, p):
    f = pt.t * (0.25 * p.c2 * pt.t - 0.5 * p.a2) \
        - (p.b2 / (3.0 * SQRT6)) * pt.vg * (pt.vv - 3.0 * pt.uu)
    dirichlet = q.half_seg_r @ (pt.du * pt.du + pt.dv * pt.dv) + 0.5 * np.vdot(q.wk, pt.uu)
    return float(dirichlet + np.vdot(q.wg / p.L, f))


def _full_gradient(q, pt, p):
    from qdefect.reduced import _HAT_ENDS

    s23 = math.sqrt(2.0 / 3.0)
    wl = q.wg / p.L
    m = p.c2 * pt.t - p.a2
    cu = (wl * (m + s23 * p.b2 * pt.vg) + q.wk) * pt.ug
    cv = wl * (pt.vg * m - (p.b2 / SQRT6) * (pt.vv - pt.uu))
    ends = (np.stack([cu, cv]).reshape(-1, 5) @ _HAT_ENDS).reshape(2, -1, 2)
    stiff = q.seg_r_h * np.stack([pt.du, pt.dv])
    g = np.empty((2, pt.du.size + 1))
    g[:, :-1] = ends[:, :, 0] - stiff
    g[:, -1] = 0.0
    g[:, 1:] += ends[:, :, 1] + stiff
    return g.T


def _full_hessian(q, pt, p):
    from qdefect.reduced import _HAT_PAIRS

    s23 = math.sqrt(2.0 / 3.0)
    n = q.grid.n_segments
    wl = q.wg / p.L
    m = p.c2 * pt.t - p.a2
    bv = s23 * p.b2 * pt.vg
    coef = np.stack([
        wl * (m + bv + 2.0 * p.c2 * pt.uu) + q.wk,
        wl * (pt.ug * (s23 * p.b2 + 2.0 * p.c2 * pt.vg)),
        wl * (m - bv + 2.0 * p.c2 * pt.vv),
    ])
    loc = (coef.reshape(3 * n, 5) @ _HAT_PAIRS).reshape(3, n, 3)
    loc[0::2] += np.multiply.outer(q.seg_r_h / q.h, [1.0, -1.0, 1.0])
    (uu_aa, uu_ab, uu_bb), (uv_aa, uv_ab, uv_bb), (vv_aa, vv_ab, vv_bb) = loc.transpose(0, 2, 1)
    columns = ((uu_aa, uv_aa, uu_ab, uv_ab), (vv_aa, uv_ab, vv_ab), (uu_bb, uv_bb), (vv_bb,))
    band = np.zeros((4, 2 * n + 2))
    for c, column in enumerate(columns):
        for d, entry in enumerate(column):
            band[d, c:c + 2 * n:2] += entry
    return band[:, _FREE]


@pytest.mark.parametrize("spacing", ["uniform", "graded"])
@pytest.mark.parametrize("k", [1, -1, 2, 3])
@pytest.mark.parametrize("b2", [0.0, 0.7])
def test_kernels_skip_the_b2_terms_bit_for_bit(spacing, k, b2, rng):
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _energy, _gradient

    p = params(L=0.01, b2=b2, k=k)
    # on a few segments the energy sums few terms, so a changed bit in one
    # of them shows in the sum
    for n in (16, 300):
        grid = getattr(RadialGrid, spacing)(1.0, n)
        q = _P1Gauss(grid, p)
        start = preset_profile(p, grid, "explicit")
        points = [(rng.standard_normal(n + 1), rng.standard_normal(n + 1)) for _ in range(4)]
        for u, v in points + [(start.u, start.v)]:
            pt = q.point(u, v)
            assert _energy(q, pt) == _full_energy(q, pt, p)
            # the reference forms every entry; the kernel only the free ones
            g, ref = _gradient(q, pt).reshape(-1), _full_gradient(q, pt, p).reshape(-1)
            assert np.array_equal(g[_FREE], ref[_FREE])
            assert g[0] == g[-2] == g[-1] == 0.0  # u_0, u_N, v_N
            assert np.array_equal(_assemble_hessian_banded(q, pt), _full_hessian(q, pt, p))


# The kernels as they were before they formed their coefficients in place: a
# point stored uu and vv beside t, and each kernel stacked fresh products.  The
# in-place kernels do the same operations in the same order, so they must
# match this copy bit for bit.

def _stored_point(q, u, v):
    ug = u[:-1][:, None] * q.s + u[1:][:, None] * q.t
    vg = v[:-1][:, None] * q.s + v[1:][:, None] * q.t
    uu, vv = ug * ug, vg * vg
    return dict(ug=ug, vg=vg, uu=uu, vv=vv, t=uu + vv, du=np.diff(u) / q.h, dv=np.diff(v) / q.h)


def _stacked_energy(q, pt):
    p = q.params
    f = pt["t"] * (0.25 * p.c2 * pt["t"] - 0.5 * p.a2)
    if p.b2 != 0.0:
        f -= (p.b2 / (3.0 * SQRT6)) * pt["vg"] * (pt["vv"] - 3.0 * pt["uu"])
    slope_sq = pt["du"] * pt["du"] + pt["dv"] * pt["dv"]
    dirichlet = q.half_seg_r @ slope_sq + 0.5 * np.vdot(q.wk, pt["uu"])
    return float(dirichlet) + float(np.vdot(q.wl, f))


def _stacked_gradient(q, pt):
    from qdefect.reduced import _HAT_ENDS

    p = q.params
    m = p.c2 * pt["t"] - p.a2
    mu, fv = m, pt["vg"] * m
    if p.b2 != 0.0:
        mu = m + math.sqrt(2.0 / 3.0) * p.b2 * pt["vg"]
        fv -= (p.b2 / SQRT6) * (pt["vv"] - pt["uu"])
    coef = np.stack([(q.wl * mu + q.wk) * pt["ug"], q.wl * fv])
    ends = (coef.reshape(-1, 5) @ _HAT_ENDS).reshape(2, -1, 2)
    stiff = q.seg_r_h * np.stack([pt["du"], pt["dv"]])
    g = np.empty((2, pt["du"].size + 1))
    g[:, :-1] = ends[:, :, 0] - stiff
    g[:, 1:-1] += ends[:, :-1, 1] + stiff[:, :-1]
    g[0, 0] = g[:, -1] = 0.0
    return g.T


def _stacked_hessian(q, pt):
    from qdefect.reduced import _HAT_PAIRS

    n = q.grid.n_segments
    p = q.params
    m = p.c2 * pt["t"] - p.a2
    muu = mvv = m
    fuv = 2.0 * p.c2 * pt["vg"]
    if p.b2 != 0.0:
        s23 = math.sqrt(2.0 / 3.0)
        bv = s23 * p.b2 * pt["vg"]
        muu, mvv, fuv = m + bv, m - bv, s23 * p.b2 + fuv
    coef = np.stack([q.wl * (muu + 2.0 * p.c2 * pt["uu"]) + q.wk, q.wl * (pt["ug"] * fuv),
                     q.wl * (mvv + 2.0 * p.c2 * pt["vv"])])
    loc = (coef.reshape(3 * n, 5) @ _HAT_PAIRS).reshape(3, n, 3)
    loc[0::2] += np.multiply.outer(q.seg_r_h / q.h, (1.0, -1.0, 1.0))
    (uu_aa, uu_ab, uu_bb), (uv_aa, uv_ab, uv_bb), (vv_aa, vv_ab, vv_bb) = loc.transpose(0, 2, 1)
    columns = ((uu_aa, uv_aa, uu_ab, uv_ab), (vv_aa, uv_ab, vv_ab), (uu_bb, uv_bb), (vv_bb,))
    band = np.zeros((4, 2 * n + 2))
    for c, column in enumerate(columns):
        for d, entry in enumerate(column):
            band[d, c:c + 2 * n:2] += entry
    return band[:, _FREE]


@pytest.mark.parametrize("spacing", ["uniform", "graded"])
@pytest.mark.parametrize("n", [64, 1030, 2048])
@pytest.mark.parametrize("b2", [0.0, 0.7, 1.5])
def test_in_place_kernels_keep_the_stacked_kernels_bits(spacing, n, b2, rng):
    from qdefect.grid import GAUSS_XI
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _energy, _gradient

    grid = getattr(RadialGrid, spacing)(1.0, n)
    rg = grid.nodes[:-1, None] + grid.h[:, None] * GAUSS_XI
    for k in (1, -1, 2, -2, 3, 4):
        p = params(L=0.01, b2=b2, k=k)
        q = _P1Gauss(grid, p)
        assert np.array_equal(q.rg2, rg * rg)
        assert np.array_equal(q.wk, q.wg * (float(k * k) / (rg * rg)))
        try:
            solved = minimize(p, grid)[0]
        except NonConvergence as exc:
            solved = exc.profile
        noise = 1e-3 * rng.standard_normal((2, n + 1))
        for u, v in ((solved.u, solved.v), (solved.u + noise[0], solved.v + noise[1])):
            pt, ref = q.point(u, v), _stored_point(q, u, v)
            for name, value in ref.items():
                assert np.array_equal(getattr(pt, name), value), (k, name)
            assert _energy(q, pt) == _stacked_energy(q, ref), k
            assert np.array_equal(_gradient(q, pt), _stacked_gradient(q, ref)), k
            assert np.array_equal(_assemble_hessian_banded(q, pt), _stacked_hessian(q, ref)), k


@pytest.mark.parametrize("n", [2048, 4096])
def test_newton_working_set_stays_below_900_bytes_per_segment(n):
    # a Newton point holds ug, vg and t and is dropped once its Hessian band
    # is built, and the kernels form their coefficients in place: a warm
    # solve's peak stays below 900 bytes per segment (it was 1,128-1,184)
    import tracemalloc

    for k, b2 in ((1, 0.0), (-2, 0.0), (1, 1.0), (3, 1.0)):
        p = params(L=1e-3, b2=b2, k=k)
        grid = RadialGrid.for_defect(1.0, n, k)
        for init in ("explicit", "ramp"):
            minimize(p, grid, init=init)  # warm: the LAPACK routine is resolved
            tracemalloc.start()
            try:
                minimize(p, grid, init=init)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 900 * n, (k, b2, init, peak / n)


# (k, b2, init, iterations, energy) of minimize at L = 0.01, n = 256: a kernel
# change that bends the Newton path changes a count or moves an energy
_NEWTON_PATH = [
    (1, 0.0, "explicit", 3, -12.004697397886112),
    (1, 0.0, "ramp", 10, -12.004697397886112),
    (1, 1.0, "explicit", 6, -20.34596807934757),
    (1, 1.0, "ramp", 9, -20.34596807934757),
    (-2, 0.0, "explicit", 3, -11.518110786620518),
    (-2, 0.0, "ramp", 10, -11.518110786620518),
    (-2, 1.0, "explicit", 6, -17.869355229428116),
    (-2, 1.0, "ramp", 6, -17.869355229428116),
    (3, 0.0, "explicit", 4, -11.044121629269632),
    (3, 0.0, "ramp", 9, -11.044121629269632),
    (3, 1.0, "explicit", 6, -15.176803641600454),
    (3, 1.0, "ramp", 5, -15.176803641600454),
]


@pytest.mark.parametrize("k,b2,init,iterations,energy", _NEWTON_PATH)
def test_newton_path_is_pinned(k, b2, init, iterations, energy):
    p = params(L=0.01, b2=b2, k=k)
    _, rep = minimize(p, RadialGrid.for_defect(1.0, 256, k), init=init)
    assert rep.iterations == iterations
    assert rep.energy == pytest.approx(energy, rel=1e-12, abs=0.0)


# (k, b2, init, iterations, energy) of minimize at L = 1e-3, n = 2048 from the
# preset passed as a Profile (a cold start): paths that are damped, each
# through 4 rejected Levenberg shifts (failed factorisations)
_DAMPED_NEWTON_PATH = [
    (1, 0.0, "ramp", 11, -124.50050081455416),
    (3, 1.0, "explicit", 9, -206.33784777198468),
    (-2, 0.5, "ramp", 8, -159.86010581073782),
]


@pytest.mark.parametrize("k,b2,init,iterations,energy", _DAMPED_NEWTON_PATH)
def test_damped_newton_path_is_pinned(k, b2, init, iterations, energy, monkeypatch):
    import qdefect.reduced as reduced

    newton_step = reduced._newton_step
    steps = []

    def counted_step(*args):
        steps.append(newton_step(*args))
        return steps[-1]

    monkeypatch.setattr(reduced, "_newton_step", counted_step)
    p = params(L=1e-3, b2=b2, k=k)
    grid = RadialGrid.for_defect(1.0, 2048, k)
    _, rep = minimize(p, grid, init=preset_profile(p, grid, init))
    assert rep.iterations == iterations and rep.coarse_iterations == 0
    assert rep.energy == pytest.approx(energy, rel=1e-12, abs=0.0)
    assert sum(step is None for step in steps) == 4
    assert rep.factorizations_failed == 4


@pytest.mark.parametrize("k,b2,init,iterations,energy", _DAMPED_NEWTON_PATH)
def test_nested_start_path_is_pinned(k, b2, init, iterations, energy):
    # the preset itself starts on every 8th node; the grid's own Newton
    # iterations then only polish the interpolated coarse minimiser
    p = params(L=1e-3, b2=b2, k=k)
    events = []
    _, rep = minimize(p, RadialGrid.for_defect(1.0, 2048, k), init=init,
                      on_step=lambda kind, e, gn: events.append(kind))
    assert rep.iterations <= 3 < iterations
    assert rep.coarse_iterations >= 1
    assert events == ["coarse"] * rep.coarse_iterations + ["newton"] * rep.iterations
    assert rep.energy == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_grids_below_1024_segments_start_cold():
    p = params(L=1e-3, b2=0.5, k=-2)
    grid = RadialGrid.for_defect(1.0, 1023, -2)
    prof, rep = minimize(p, grid, init="ramp")
    cold, cold_rep = minimize(p, grid, init=ramp_profile(p, grid))
    assert rep.coarse_iterations == 0
    assert np.array_equal(prof.u, cold.u) and np.array_equal(prof.v, cold.v)
    assert rep == cold_rep


@pytest.mark.parametrize("init", ["explicit", "ramp"])
@pytest.mark.parametrize("n", [1024, 1030, 2048, 4096])
@pytest.mark.parametrize("L", [1e-4, 1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("b2", [0.0, 0.7, 1.5])
@pytest.mark.parametrize("k", [1, -1, 2, -2, 3, 4])
def test_nested_start_reaches_the_cold_minimiser(k, b2, L, n, init):
    # n = 1030 is no multiple of 8: its coarse grid ends in a short segment
    p = params(k=k, b2=b2, L=L)
    grid = RadialGrid.for_defect(1.0, n, k)
    cold, cold_rep = minimize(p, grid, init=preset_profile(p, grid, init))
    nested, rep = minimize(p, grid, init=init)
    assert cold_rep.converged and rep.converged
    assert cold_rep.coarse_iterations == 0 < rep.coarse_iterations
    assert rep.energy == pytest.approx(cold_rep.energy, rel=1e-11, abs=0.0)
    assert nested.distance_to(cold) < 1e-8
    # the verdicts are equal; the values (a norm margin, a one-sided slope at
    # the origin) are those of two profiles that agree only to about tol
    assert rep.checks.keys() == cold_rep.checks.keys()
    for key, value in cold_rep.checks.items():
        if isinstance(value, bool):
            assert rep.checks[key] is value
        else:
            assert rep.checks[key] == pytest.approx(value, rel=0.0, abs=1e-10)


def test_fine_grid_solve_stops_at_its_roundoff_floor_at_second_order():
    # at n = 4096 round-off holds the gradient norm near 1.3e-9, above tol but
    # inside its floor estimate (~1.05e-8): from its nested coarse start the
    # solve stops there after 2 iterations (4 from a cold start), where a
    # cold start once ran 15 and raised NonConvergence
    p = params(L=1e-3)
    reports = [minimize(p, RadialGrid.for_defect(1.0, n, 1))[1] for n in (1024, 2048, 4096)]
    assert [rep.stop for rep in reports[:2]] == ["tol", "tol"]
    assert reports[2].stop in ("tol", "roundoff_floor") and reports[2].iterations <= 5
    e = [rep.energy for rep in reports]
    assert (e[0] - e[1]) / (e[1] - e[2]) == pytest.approx(4.0, rel=0.01)


@pytest.mark.parametrize("k,b2", [(1, 0.0), (-2, 1.0), (3, 0.5)])
def test_a_tol_below_the_roundoff_floor_stops_at_the_floor(k, b2):
    from qdefect.reduced import _P1Gauss, _assemble_hessian_banded, _roundoff_floor

    p = params(L=0.01, b2=b2, k=k)
    grid = RadialGrid.for_defect(1.0, 256, k)
    _, at_tol = minimize(p, grid)
    prof, rep = minimize(p, grid, tol=1e-15)
    assert rep.converged and rep.stop == "roundoff_floor"
    assert at_tol.iterations < rep.iterations <= at_tol.iterations + 2
    assert rep.energy == pytest.approx(at_tol.energy, rel=1e-13, abs=0.0)
    q = _P1Gauss(grid, p)
    lower = _assemble_hessian_banded(q, q.point(prof.u, prof.v))
    mass_free = _free(grid.node_masses, grid.node_masses)
    assert rep.grad_norm <= _roundoff_floor(lower, _free(prof.u, prof.v), mass_free)


# ---------------------------------------------------------------------------
# strong-form residual
# ---------------------------------------------------------------------------

def test_ode_residual_constant_v_plugin():
    p = params(L=0.3)
    grid = RadialGrid.uniform(1.0, 64)
    for c0 in (0.4, -1.0, math.sqrt(p.a2 / p.c2)):
        prof = Profile(grid, np.zeros(65), np.full(65, c0))
        res = ode_residual(prof, p)
        assert np.max(np.abs(res.ru)) == 0.0
        expected = -(c0 / p.L) * (-p.a2 + p.c2 * c0 * c0)
        assert np.max(np.abs(res.rv - expected)) < 1e-12 * max(1.0, abs(expected))
    # zero residual exactly at the well radius
    prof = Profile(grid, np.zeros(65), np.full(65, math.sqrt(p.a2 / p.c2)))
    assert np.max(np.abs(ode_residual(prof, p).rv)) < 1e-14


def test_ode_residual_of_minimizer_small(solve_cache):
    p, prof, rep = solve_cache(L=0.1, n=512)
    res = ode_residual(prof, p)
    assert res.max_interior() <= 1e-3
    assert res.max_interior() == rep.residual_core
    # the reported residual is the bulk maximum over r >= 0.05 R
    bulk = res.r >= 0.05 * p.R
    assert rep.residual_norm == max(np.max(np.abs(res.ru[bulk])), np.max(np.abs(res.rv[bulk])))
    assert rep.residual_norm <= rep.residual_core
    assert res.neumann_defect < 5e-3


def test_bulk_peak_keeps_the_last_node_when_every_node_is_in_the_core():
    res = OdeResidual(
        r=np.array([0.01, 0.02, 0.03]), ru=np.array([5.0, -1.0, 0.5]),
        rv=np.array([0.0, 2.0, -0.75]), neumann_defect=0.0,
    )
    assert res.bulk_peak(0.02) == (2.0, 0.02)
    assert res.bulk_peak(0.05) == (0.75, 0.03)


def test_report_separates_the_bulk_residual_from_the_core(solve_cache):
    # on the graded k = 2 grid the core stencil dominates the interior maximum
    p, prof, rep = solve_cache(L=0.01, k=2, n=2048)
    assert rep.residual_norm < 1e-3
    assert rep.residual_core > 10.0 * rep.residual_norm
    assert rep.residual_peak_r >= 0.05 * p.R
    res = ode_residual(prof, p)
    at = np.flatnonzero(res.r == rep.residual_peak_r)
    assert at.size == 1
    assert max(abs(res.ru[at[0]]), abs(res.rv[at[0]])) == rep.residual_norm


def test_ode_residual_second_order(solve_cache):
    # the sup over the whole interior is first-order at the origin-adjacent
    # nodes (1/r amplification); away from the core the decay is h^2
    bulk = []
    for n in (256, 512, 1024):
        p, prof, rep = solve_cache(L=0.1, n=n)
        res = ode_residual(prof, p)
        mask = res.r >= 0.05
        bulk.append(max(np.max(np.abs(res.ru[mask])), np.max(np.abs(res.rv[mask]))))
    assert bulk[0] / bulk[1] > 3.0
    assert bulk[1] / bulk[2] > 3.0
    # stationarity equivalence: bulk residual <= C h^2 with a stable constant
    consts = [v * n * n for v, n in zip(bulk, (256, 512, 1024))]
    assert max(consts) / min(consts) < 2.0
    assert max(consts) < 60.0


# ---------------------------------------------------------------------------
# minimisation
# ---------------------------------------------------------------------------

def test_minimize_sign_structure_and_norm_bound(solve_cache):
    p, prof, rep = solve_cache(L=0.01, n=512)
    assert rep.converged and rep.grad_norm <= 1e-9
    assert np.all(prof.u[1:] > 0.0)
    assert np.all(prof.v < 0.0)
    assert np.all(np.diff(prof.v) >= -1e-10)
    assert np.max(prof.norm_sq_samples()) <= 2.0 / 3.0 * p.s_plus**2 + 1e-8
    assert rep.checks["u_positive"] and rep.checks["v_negative"]
    assert rep.checks["v_nondecreasing"] and rep.checks["norm_bound_ok"]


def test_minimize_energy_descends_monotonically():
    # at b2 = 1, L = 1e-3 full Newton steps from the ramp raise the energy,
    # so only the line search keeps the descent
    for p in (params(L=0.05), params(L=1e-3, b2=1.0)):
        grid = RadialGrid.uniform(1.0, 128)
        energies = [reduced_energy(ramp_profile(p, grid), p)]

        def watch(phase, energy, gn):
            assert phase == "newton"
            energies.append(energy)

        minimize(p, grid, init="ramp", on_step=watch)
        assert len(energies) >= 3
        # steps inside the round-off band (|dE| <= 1e-12 |E|) may not lower E
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(energies, energies[1:]))
        assert energies[-1] < energies[0]


def test_minimize_init_presets_agree():
    p = params(L=0.05)
    grid = RadialGrid.uniform(1.0, 128)
    prof_a, _ = minimize(p, grid, init="explicit")
    prof_b, _ = minimize(p, grid, init="ramp")
    assert prof_a.distance_to(prof_b) < 1e-8


def test_minimize_rejects_bad_inputs():
    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    with pytest.raises(InvalidParams):
        minimize(p.with_updates(L=0.0), grid)
    for tol in (-1.0, 0.0, math.nan, math.inf, "1e-9", True, 10**400):
        with pytest.raises(InvalidParams):
            minimize(p, grid, tol=tol)
    for max_iter in (0, -5):
        with pytest.raises(InvalidParams):
            minimize(p, grid, max_iter=max_iter)
    with pytest.raises(InvalidParams):
        minimize(p, grid, init="nonsense")
    with pytest.raises(InvalidParams):
        minimize(p, RadialGrid.uniform(1.0, 1024), init="nonsense")
    # s_plus^2 is finite, c2 |Y|^4 is not
    with pytest.raises(InvalidParams, match="overflows"):
        minimize(p.with_updates(a2=1e300), grid)


def test_minimize_rejects_non_finite_init():
    p = params(L=0.01)
    grid = RadialGrid.uniform(1.0, 64)
    for bad in (math.nan, math.inf):
        init = explicit_profile(Branch.MINUS, p.with_updates(L=0.0), grid)
        init.u[20] = bad
        t0 = time.perf_counter()
        with pytest.raises(InvalidParams):
            minimize(p, grid, init=init)
        assert time.perf_counter() - t0 < 1.0


def test_newton_damping_is_bounded_when_the_hessian_is_nan(monkeypatch):
    # a NaN Hessian makes the damping scale NaN, so only the rejection
    # count can end the damping loop
    import qdefect.reduced as reduced

    def nan_hessian(q, pt):
        return np.full((4, 2 * q.grid.n_segments - 1), np.nan)

    monkeypatch.setattr(reduced, "_assemble_hessian_banded", nan_hessian)
    p = params(L=0.05)
    grid = RadialGrid.uniform(1.0, 64)
    with pytest.raises(NonConvergence) as info:
        minimize(p, grid, init="ramp")
    assert info.value.report.iterations == 1


@pytest.mark.parametrize("init, failed", [("explicit", 0), ("ramp", 4)])
def test_newton_line_search_that_accepts_nothing_ends_the_run(monkeypatch, init, failed):
    # Every trial energy exceeds the start, so the one line search of the
    # first iteration halves beta from 1 to 2^-23 (24 backtracks) and
    # accepts nothing, which ends the run; the shift rose only for the
    # factorisations that failed before it.
    import qdefect.reduced as reduced

    real = reduced._energy
    start = []

    def worse(q, pt):
        start.append(real(q, pt))
        return start[0] if len(start) == 1 else start[0] + 1.0

    monkeypatch.setattr(reduced, "_energy", worse)
    with pytest.raises(NonConvergence) as info:
        minimize(params(L=0.05), RadialGrid.uniform(1.0, 64), init=init)
    rep = info.value.report
    assert rep.iterations == 1 and rep.stop is None
    assert rep.factorizations_failed == failed
    assert rep.backtracks == 24
    assert rep.energy == start[0]


def test_newton_shift_ends_after_15_failed_factorisations_on_finite_data(monkeypatch):
    # Each failed factorisation multiplies lam by 30 from 1e-8 lam_unit, so
    # lam passes 1e12 lam_unit after 15 failures (30^14 > 1e20), well
    # before the count of _MAX_DAMPING_REJECTS ends the shift search.
    import qdefect.reduced as reduced

    monkeypatch.setattr(reduced, "_newton_step", lambda lower, shift, rhs, band: None)
    with pytest.raises(NonConvergence) as info:
        minimize(params(L=0.05), RadialGrid.uniform(1.0, 64), init="ramp")
    rep = info.value.report
    assert rep.iterations == 1 and rep.stop is None
    assert rep.factorizations_failed == 15
    assert rep.backtracks == 0


@pytest.mark.parametrize("b2", [0.0, 0.7])
def test_profile_start_rim_values_are_set_by_the_solver(b2):
    # a start with wrong u(0), u(R) and v(R) solves exactly as the same
    # start with the boundary data applied; at b2 = 0 it is also reflected
    p = params(L=0.01, b2=b2)
    grid = RadialGrid.uniform(1.0, 128)
    wrong = preset_profile(p, grid, "explicit")
    wrong.u[0], wrong.u[-1], wrong.v[-1] = 0.3, -0.2, 0.5
    fixed = apply_boundary(wrong.copy(), p)
    prof_w, rep_w = minimize(p, grid, init=wrong)
    prof_f, rep_f = minimize(p, grid, init=fixed)
    assert prof_w.u.tobytes() == prof_f.u.tobytes()
    assert prof_w.v.tobytes() == prof_f.v.tobytes()
    assert repr(rep_w) == repr(rep_f)


def test_read_profile_csv_rejects_non_finite(tmp_path):
    for bad in ("nan", "inf", "-inf", "NaN"):
        path = tmp_path / "p.csv"
        path.write_text(f"r,u,v\n0.0,0.0,-0.4\n0.5,{bad},-0.4\n1.0,0.7,-0.4\n")
        with pytest.raises(CsvFormatError) as info:
            read_profile_csv(path)
        assert info.value.line == 3


@pytest.mark.parametrize(
    "text, line",
    [
        # blank lines 2 and 4, a bad cell on line 5
        ("r,u,v\n\n0.0,0.0,-0.4\n\n0.5,x,-0.4\n", 5),
        # blank lines before the header count too
        ("\n\nr,u,v\n0.0,0.0,-0.4\n0.5,nan,-0.4\n", 5),
        ("\n \nr,u,w\n0.0,0.0,-0.4\n", 3),
        ("\t\nr,u,v\n0.0,0.0\n\n0.5,x,-0.4\n", 3),  # the first failing line wins
        ("r,u,v\n\n\n0.5,0.1,-0.4\n0.0,0.0,-0.4\n", 4),  # the radius column starts on 4
        ("r,u,v\n\n", 0),  # a header alone has no radius column
    ],
    ids=["blank-2-4", "blank-before-header", "bad-header", "first-wins", "bad-radius", "no-rows"],
)
def test_read_profile_csv_numbers_the_files_own_lines(tmp_path, text, line):
    with pytest.raises(CsvFormatError) as info:
        read_profile_csv(_write_csv(tmp_path, text))
    assert info.value.line == line


def _per_row_csv_text(header, columns):
    """``csv_text`` as it was: each row joined through a generator."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e-300]),
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    n_cols=st.integers(1, 4),
    n_rows=st.integers(0, 40),
    data=st.data(),
)
def test_csv_text_is_byte_identical_to_per_row_formatting(n_cols, n_rows, data):
    columns = [
        data.draw(st.lists(_CSV_FLOATS, min_size=n_rows, max_size=n_rows), label=f"col{j}")
        for j in range(n_cols)
    ]
    header = ",".join(f"c{j}" for j in range(n_cols))
    assert csv_text(header, columns) == _per_row_csv_text(header, columns)
    assert csv_text(header, [np.array(c) for c in columns]) == _per_row_csv_text(header, columns)


def test_minimize_nonconvergence_reports_best_iterate():
    p = params(L=0.01)
    grid = RadialGrid.uniform(1.0, 128)
    with pytest.raises(NonConvergence) as info:
        minimize(p, grid, init="ramp", max_iter=1)
    assert info.value.report.iterations == 1
    assert info.value.profile is not None
    assert info.value.report is not None
    assert not info.value.report.converged


@settings(max_examples=60, deadline=2000, database=None)
@given(
    k=st.integers(-6, 6).filter(lambda k: k != 0),
    b2=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    log_l=st.floats(-4.0, 1.0),
    init=st.sampled_from(("explicit", "ramp")),
    n=st.integers(16, 256),
)
def test_minimize_property_over_the_cli_parameter_space(k, b2, log_l, init, n):
    p = params(k=k, b2=b2, L=10.0**log_l)
    grid = RadialGrid.for_defect(1.0, n, k)
    guess = reduced_energy(apply_boundary(preset_profile(p, grid, init), p), p)
    max_iter = 100
    try:
        prof, rep = minimize(p, grid, init=init, max_iter=max_iter)
        assert rep.converged and rep.grad_norm <= 1e-9
    except NonConvergence as exc:
        prof, rep = exc.profile, exc.report
        assert not rep.converged
    assert rep.iterations <= max_iter
    assert prof.u[0] == 0.0
    assert prof.u[-1] == p.boundary_u and prof.v[-1] == p.boundary_v
    assert rep.energy == reduced_energy(prof, p)
    assert rep.energy <= guess + 1e-12 * abs(guess)
    # every check, recomputed from the returned u and v
    norm_max = float(np.max(prof.u * prof.u + prof.v * prof.v))
    expected = {
        "norm_bound_ok": norm_max <= p.limit_norm_sq + 1e-8,
        "norm_bound_margin": p.limit_norm_sq - norm_max,
        "neumann_defect": ode_residual(prof, p).neumann_defect,
    }
    if b2 == 0.0:
        expected["u_positive"] = bool(np.all(prof.u[1:] > 0.0))
        expected["v_negative"] = bool(np.all(prof.v < 0.0))
        expected["v_nondecreasing"] = bool(np.all(np.diff(prof.v) >= -1e-10))
    assert rep.checks == expected


def test_gamma_limit_distance_shrinks(solve_cache):
    grid = RadialGrid.uniform(1.0, 512)
    p0 = params(L=0.1)
    ref = explicit_profile(Branch.MINUS, p0.with_updates(L=0.0), grid)
    dists = []
    for L in (0.1, 0.03, 0.01):
        _, prof, _ = solve_cache(L=L, n=512)
        dists.append(prof.distance_to(ref))
    assert dists[0] > dists[1] > dists[2]


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continuation_branch_continuity():
    p = params(L=0.1)
    grid = RadialGrid.uniform(1.0, 128)
    branch = continuation_in_b2(p, [0.0, 0.1, 0.2], grid)
    energies = [rep.energy for _, _, rep in branch]
    gaps = [abs(b - a) for a, b in zip(energies, energies[1:])]
    assert max(gaps) <= 0.5
    for b2, prof, rep in branch:
        pb = p.with_updates(b2=b2)
        assert rep.converged
        assert prof.u[-1] == pytest.approx(pb.boundary_u, rel=1e-15)
        assert prof.v[-1] == pytest.approx(pb.boundary_v, rel=1e-15)


def test_continuation_start_matches_direct_solve():
    p = params(L=0.1)
    grid = RadialGrid.uniform(1.0, 128)
    branch = continuation_in_b2(p, [0.0, 0.05], grid)
    direct, _ = minimize(p.with_updates(b2=0.0), grid)
    assert np.array_equal(branch[0][1].u, direct.u)
    assert np.array_equal(branch[0][1].v, direct.v)


def test_continuation_failure_carries_the_branch_so_far(monkeypatch):
    import qdefect.reduced as reduced

    real = reduced.minimize
    raised = []

    def spy(p_step, grid, init="explicit", **kw):
        profile, report = real(p_step, grid, init=init, **kw)
        if p_step.b2 == 0.05:
            report.converged = False
            raised.append((profile, report))
            raise NonConvergence("injected failure", profile=profile, report=report)
        return profile, report

    monkeypatch.setattr(reduced, "minimize", spy)
    p = params(L=0.1)
    grid = RadialGrid.uniform(1.0, 64)
    with pytest.raises(NonConvergence) as info:
        continuation_in_b2(p, [0.0, 0.05, 0.1], grid)
    err = info.value
    assert err.failing_b2 == 0.05
    # the converged prefix: the b2 = 0 step, as a direct solve gives it
    direct, _ = real(p, grid)
    assert [b2 for b2, _, _ in err.branch_so_far] == [0.0]
    (_, prof0, rep0), = err.branch_so_far
    assert rep0.converged and np.array_equal(prof0.u, direct.u)
    # the failing step's best iterate, and no later step was tried
    assert len(raised) == 1
    assert err.profile is raised[0][0] and err.report is raised[0][1]


def test_continuation_validates_targets(monkeypatch):
    import qdefect.reduced as reduced

    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    with pytest.raises(InvalidParams):
        continuation_in_b2(p, [], grid)
    with pytest.raises(InvalidParams):
        continuation_in_b2(p, [0.1, 0.2], grid)
    with pytest.raises(InvalidParams):
        continuation_in_b2(p, [0.0, 0.2, 0.1], grid)
    # c2 |Y|^4 overflows at b2 = 1e150, and no step is solved before that is seen
    monkeypatch.setattr(reduced, "_newton", None)
    with pytest.raises(InvalidParams, match="overflows"):
        continuation_in_b2(p, [0.0, 1e150], grid)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_profile_csv_roundtrip(tmp_path, solve_cache):
    _, prof, _ = solve_cache(L=0.1, n=256)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    back = read_profile_csv(path)
    assert np.array_equal(back.grid.nodes, prof.grid.nodes)
    assert np.array_equal(back.u, prof.u)
    assert np.array_equal(back.v, prof.v)
    # emit(parse(emit(x))) is byte-identical
    path2 = tmp_path / "profile2.csv"
    write_profile_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()
    # the radii formatted beforehand give the same bytes
    path3 = tmp_path / "profile3.csv"
    write_profile_csv(path3, prof, csv_cells(prof.grid.nodes))
    assert path3.read_bytes() == path.read_bytes()
    # written through a temp file that the rename leaves no trace of
    names = ["profile.csv", "profile2.csv", "profile3.csv"]
    assert sorted(f.name for f in tmp_path.iterdir()) == names


def test_profile_csv_write_is_atomic(tmp_path, monkeypatch, solve_cache):
    # a write that fails before its rename leaves the previous file whole
    _, prof, _ = solve_cache(L=0.1, n=256)
    path = tmp_path / "profile.csv"
    path.write_text("r,u,v\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_profile_csv(path, prof)
    assert path.read_text() == "r,u,v\n"


def _write_csv(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text)
    return path


def _short_u():
    """Rebind a profile's ``u`` to one node fewer than its grid: a profile is
    frozen, so this raises ``FrozenInstanceError`` and no entry point ever
    sees a profile that does not match its grid."""
    prof = ramp_profile(params(), RadialGrid.uniform(1.0, 32))
    prof.u = prof.u[:-1]
    return prof


def _short_v():
    """Rebind a profile's ``v`` to 5 entries, as :func:`_short_u` does ``u``."""
    prof = ramp_profile(params(), RadialGrid.uniform(1.0, 32))
    prof.v = prof.v[:5]
    return prof


@pytest.mark.parametrize("short", [_short_u, _short_v], ids=["u-reassigned", "v-reassigned"])
def test_write_profile_csv_rejects_a_profile_that_does_not_match_its_grid(tmp_path, short):
    # zipped columns would write a truncated file; the rebinding raises before any write
    with pytest.raises(FrozenInstanceError):
        write_profile_csv(tmp_path / "p.csv", short())
    assert list(tmp_path.iterdir()) == []  # no file and no .tmp


def test_profiles_own_their_samples():
    p = params()
    grid = RadialGrid.uniform(1.0, 32)
    v = np.full(33, -0.3)
    # the read-only grid nodes make a profile that still takes its boundary data
    prof = apply_boundary(Profile(grid, grid.nodes, v), p)
    assert (prof.u[0], prof.u[-1], prof.v[-1]) == (0.0, p.boundary_u, p.boundary_v)
    assert np.array_equal(prof.u[1:-1], grid.nodes[1:-1]) and grid.nodes[0] == 0.0
    # a later write into the caller's arrays leaves the profile as it was built
    u = np.ones(33)
    prof = Profile(grid, u, v)
    u[5] = v[5] = 7.0
    assert prof.u[5] == 1.0 and prof.v[5] == -0.3
    psi = np.ones(33)
    angle = PsiProfile(grid, psi)
    psi[5] = 7.0
    assert angle.psi[5] == 1.0
    angle.psi[5] = 2.0  # and stays writable in place
    assert angle.psi[5] == 2.0


_FROZEN_FIELDS = [(cls, f.name) for cls in (Profile, PsiProfile, Field2D, RenderSpec)
                  for f in fields(cls)]


@pytest.mark.parametrize(
    "cls, name", _FROZEN_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in _FROZEN_FIELDS])
def test_rebinding_a_field_raises_and_arrays_stay_writable_in_place(cls, name):
    p = params()
    grid = RadialGrid.uniform(1.0, 32)
    prof = Profile(grid, np.ones(33), np.zeros(33))
    value = {
        Profile: prof,
        PsiProfile: psi_of_branch(Branch.MINUS, p, grid),
        Field2D: lift(prof, p.k, PolarGrid(grid, 64)),
        RenderSpec: RenderSpec(),
    }[cls]
    held = getattr(value, name)
    with pytest.raises(FrozenInstanceError):
        setattr(value, name, held)
    if cls is Profile and name != "grid":  # the fixed nodes are written in place
        assert apply_boundary(prof, p) is prof
        assert (prof.u[0], prof.u[-1], prof.v[-1]) == (0.0, p.boundary_u, p.boundary_v)
    elif isinstance(held, np.ndarray):
        held[...] = 0.5  # as field.values[...] = x
        assert np.all(getattr(value, name) == 0.5)


_REDUCED_ARGUMENT_CHECKS = {
    "distance_to-grid-mismatch": (
        GridError,
        lambda tmp: ramp_profile(params(), RadialGrid.uniform(1.0, 32)).distance_to(
            ramp_profile(params(), RadialGrid.uniform(1.0, 64))),
    ),
    "csv-non-numeric-cell": (
        CsvFormatError,
        lambda tmp: read_profile_csv(_write_csv(tmp, "r,u,v\n0.0,0.0,-0.4\n0.5,abc,-0.4\n")),
    ),
    # a profile is frozen: each rebinding raises before its entry point runs
    "reduced_energy-u-reassigned": (
        FrozenInstanceError, lambda tmp: reduced_energy(_short_u(), params())),
    "reduced_gradient-u-reassigned": (
        FrozenInstanceError, lambda tmp: reduced_gradient(_short_u(), params())),
    "ode_residual-u-reassigned": (
        FrozenInstanceError, lambda tmp: ode_residual(_short_u(), params())),
    "reduced_energy-v-reassigned": (
        FrozenInstanceError, lambda tmp: reduced_energy(_short_v(), params())),
    "reduced_gradient-v-reassigned": (
        FrozenInstanceError, lambda tmp: reduced_gradient(_short_v(), params())),
    "ode_residual-v-reassigned": (
        FrozenInstanceError, lambda tmp: ode_residual(_short_v(), params())),
    "distance_to-self-v-reassigned": (
        FrozenInstanceError,
        lambda tmp: _short_v().distance_to(ramp_profile(params(), RadialGrid.uniform(1.0, 32))),
    ),
    "distance_to-other-v-reassigned": (
        FrozenInstanceError,
        lambda tmp: ramp_profile(params(), RadialGrid.uniform(1.0, 32)).distance_to(_short_v()),
    ),
    "minimize-init-v-reassigned": (
        FrozenInstanceError,
        lambda tmp: minimize(params(), RadialGrid.uniform(1.0, 32), init=_short_v()),
    ),
    "apply_boundary-v-reassigned": (
        FrozenInstanceError, lambda tmp: apply_boundary(_short_v(), params())),
    # the one place a profile's arrays meet its grid
    "Profile-v-shape": (
        GridError, lambda tmp: Profile(RadialGrid.uniform(1.0, 32), np.zeros(33), np.zeros(5))),
}


@pytest.mark.parametrize("case", sorted(_REDUCED_ARGUMENT_CHECKS))
def test_reduced_argument_checks(tmp_path, case):
    exc, call = _REDUCED_ARGUMENT_CHECKS[case]
    with pytest.raises(exc):
        call(tmp_path)
