import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qdefect import (
    DecompositionInvalid,
    Field2D,
    GridError,
    InvalidParams,
    ModelParams,
    PolarGrid,
    Profile,
    RadialGrid,
    dirichlet_quadrature,
    el_residual_2d,
    energy_gap,
    ldg_energy_2d,
    ldg_energy_spectral,
    lift,
    ode_residual,
    random_perturbation,
    reduced_energy,
    second_variation,
)
from qdefect.field import _ring_blocks, fd_energy_terms
from qdefect.harmonic import (
    Branch,
    dirichlet_energy_2d,
    explicit_profile,
    uniaxial_escape_components,
)
from qdefect.grid import GAUSS_W, GAUSS_XI
from qdefect.tensor import (
    F3_COMPONENTS,
    boundary_tensor_components,
    bulk_density,
    deviatoric_square,
    frame_fn_components,
    frob_dot,
    frob_sq,
)


def params(**kw):
    base = dict(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=1)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_boundary_ring_matches_boundary_tensor(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    pg = PolarGrid(prof.grid, 64)
    field = lift(prof, p.k, pg)
    ring = boundary_tensor_components(pg.phis, p)
    assert np.max(np.abs(field.values[-1] - ring)) < 1e-13


def test_lift_norm_identity(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    pg = PolarGrid(prof.grid, 64)
    field = lift(prof, p.k, pg)
    t = prof.norm_sq_samples()
    assert np.max(np.abs(frob_sq(field.values) - t[:, None])) < 1e-14


def test_lift_u_zero_gives_angle_independent_field():
    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    prof = Profile(grid, np.zeros(65), np.linspace(-1.0, -0.4, 65))
    pg = PolarGrid(grid, 64)
    field = lift(prof, p.k, pg)
    assert np.max(np.abs(field.values - field.values[:, :1, :])) == 0.0


def test_lift_rotation_periodicity():
    # lifted fields repeat under phi -> phi + 2 pi / |k| (tensor periodicity)
    grid = RadialGrid.uniform(1.0, 64)
    u = np.linspace(0.0, 0.8, 65)
    v = np.linspace(-1.0, -0.5, 65)
    prof = Profile(grid, u, v)
    for k in (-4, -3, -2, -1, 1, 2, 3, 4):
        m = 64 * abs(k)  # the grid resolves one tensor period per 64 steps
        pg = PolarGrid(grid, m)
        field = lift(prof, k, pg)
        shift = m // abs(k)
        rolled = np.roll(field.values, -shift, axis=1)
        assert np.max(np.abs(field.values - rolled)) < 1e-12


def test_lift_grid_mismatch():
    p = params()
    prof = Profile(RadialGrid.uniform(1.0, 64), np.zeros(65), np.zeros(65))
    pg = PolarGrid(RadialGrid.uniform(1.0, 65), 64)
    with pytest.raises(GridError):
        lift(prof, p.k, pg)


# ---------------------------------------------------------------------------
# Landau-de Gennes energy
# ---------------------------------------------------------------------------

def test_ldg_energy_matches_reduced_energy(solve_cache):
    rels = []
    for n, m in ((128, 64), (256, 128), (512, 256)):
        p, prof, _ = solve_cache(L=0.1, n=n)
        field = lift(prof, p.k, PolarGrid(prof.grid, m))
        e2d = ldg_energy_2d(field, p)
        rels.append(abs(e2d - 2.0 * math.pi * reduced_energy(prof, p)) / abs(e2d))
    assert rels[-1] < 1e-3
    assert rels[0] / rels[1] > 3.0
    assert rels[1] / rels[2] > 3.0


def test_ldg_energy_constant_field():
    # spatially constant field: zero Dirichlet part, energy = pi R^2 f(Q)/L
    p = params(R=1.3)
    grid = RadialGrid.uniform(p.R, 64)
    pg = PolarGrid(grid, 64)
    c = np.array([0.3, -0.1, 0.2, 0.1, 0.05])
    vals = np.broadcast_to(c, (65, 64, 5)).copy()
    field = Field2D(pg, vals)
    f_val = float(bulk_density(c, p))
    expected = math.pi * p.R**2 * f_val / p.L
    assert ldg_energy_2d(field, p) == pytest.approx(expected, rel=1e-13)
    assert ldg_energy_spectral(field, p) == pytest.approx(expected, rel=1e-13)


def test_ldg_energy_zero_field():
    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    pg = PolarGrid(grid, 64)
    field = Field2D(pg, np.zeros((65, 64, 5)))
    assert ldg_energy_2d(field, p) == 0.0
    assert ldg_energy_spectral(field, p) == 0.0


def test_spectral_energy_equals_reduced_for_lifted(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    field = lift(prof, p.k, PolarGrid(prof.grid, 128))
    es = ldg_energy_spectral(field, p)
    assert es == pytest.approx(2.0 * math.pi * reduced_energy(prof, p), rel=1e-13)


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------

def test_el_residual_small_for_minimizer(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=512)
    field = lift(prof, p.k, PolarGrid(prof.grid, 256))
    res = el_residual_2d(field, p)
    scale = float(np.max(np.sqrt(frob_sq(field.values))))
    assert res.max_norm(r_min=0.05) <= 1e-2 * scale / p.R**2


def test_el_residual_values_stay_traceless(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    field = lift(prof, p.k, PolarGrid(prof.grid, 64))
    res = el_residual_2d(field, p)
    from qdefect.tensor import components_to_matrix

    mats = components_to_matrix(res.values)
    traces = np.abs(mats[..., 0, 0] + mats[..., 1, 1] + mats[..., 2, 2])
    assert np.max(traces) <= 1e-13


def test_el_residual_projects_to_ode_residual(solve_cache):
    mism = []
    for n, m in ((256, 128), (512, 256)):
        p, prof, _ = solve_cache(L=0.1, n=n)
        field = lift(prof, p.k, PolarGrid(prof.grid, m))
        el = el_residual_2d(field, p)
        ode = ode_residual(prof, p)
        fn = frame_fn_components(PolarGrid(prof.grid, m).phis, p.k)
        cu = frob_dot(el.values, fn[None, :, :])
        cv = frob_dot(el.values, F3_COMPONENTS[None, None, :])
        mask = el.rings >= 0.1
        du = np.max(np.abs(cu[mask] - p.L * ode.ru[mask][:, None]))
        dv = np.max(np.abs(cv[mask] - p.L * ode.rv[mask][:, None]))
        mism.append(max(du, dv))
    assert mism[1] < 5e-4
    assert mism[0] / mism[1] > 2.5


def test_el_residual_second_order(solve_cache):
    vals = []
    for n, m in ((128, 64), (256, 128), (512, 256)):
        p, prof, _ = solve_cache(L=0.1, n=n)
        field = lift(prof, p.k, PolarGrid(prof.grid, m))
        vals.append(el_residual_2d(field, p).max_norm(r_min=0.1))
    assert vals[0] / vals[1] > 3.0
    assert vals[1] / vals[2] > 3.0


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stability_setup(solve_cache):
    p, prof, _ = solve_cache(L=0.01, n=256)
    pg = PolarGrid(prof.grid, 128)
    return p, lift(prof, p.k, pg), pg


def test_second_variation_zero_perturbation(stability_setup):
    p, field, pg = stability_setup
    zero = Field2D(pg, np.zeros_like(field.values))
    sv = second_variation(field, p, zero)
    assert sv.direct == 0.0 and sv.hardy == 0.0
    with pytest.raises(InvalidParams, match="zero perturbation"):
        sv.rayleigh


def test_second_variation_positive_and_forms_agree(stability_setup):
    p, field, pg = stability_setup
    rayleighs = []
    for seed in range(25):
        kind = (None, "core", "boundary")[seed % 3]
        pert = random_perturbation(pg, seed=seed, concentrate=kind)
        sv = second_variation(field, p, pert)
        assert sv.direct >= 0.0
        assert abs(sv.direct - sv.hardy) <= 1e-2 * abs(sv.direct)
        rayleighs.append(sv.rayleigh)
    # sample coercivity constant is strictly positive
    assert min(rayleighs) > 0.0


def test_second_variation_requires_b2_zero(stability_setup):
    _, field, pg = stability_setup
    pert = random_perturbation(pg, seed=0)
    with pytest.raises(InvalidParams):
        second_variation(field, params(b2=0.5, L=0.01), pert)


def test_second_variation_rejects_boundary_violation(stability_setup):
    p, field, pg = stability_setup
    pert = random_perturbation(pg, seed=0)
    bad = pert.copy()
    bad.values[-1, :, 0] = 0.1
    with pytest.raises(InvalidParams):
        second_variation(field, p, bad)


def test_second_variation_decomposition_needs_negative_v(stability_setup):
    p, field, pg = stability_setup
    pert = random_perturbation(pg, seed=1)
    flipped = Field2D(pg, -field.values)  # v > 0 everywhere
    with pytest.raises(DecompositionInvalid):
        second_variation(flipped, p, pert)


# ---------------------------------------------------------------------------
# energy gap identity
# ---------------------------------------------------------------------------

def test_energy_gap_zero_perturbation(stability_setup):
    p, field, _ = stability_setup
    gap = energy_gap(field, field, p)
    assert gap.direct == 0.0
    assert gap.decomposition == 0.0


def test_energy_gap_two_routes_agree(stability_setup):
    p, field, pg = stability_setup
    for seed in range(8):
        pert = random_perturbation(pg, seed=100 + seed, norm=0.7)
        shifted = Field2D(pg, field.values + pert.values)
        gap = energy_gap(field, shifted, p)
        assert gap.direct > 0.0
        assert abs(gap.direct - gap.decomposition) <= 1e-6 * abs(gap.direct)
        assert gap.quadratic_form >= 0.0
        assert gap.quartic_term >= 0.0


def test_energy_gap_grid_mismatch(stability_setup):
    p, field, pg = stability_setup
    other = PolarGrid(pg.radial, 64)
    zero = Field2D(other, np.zeros((pg.radial.nodes.size, 64, 5)))
    with pytest.raises(GridError):
        energy_gap(field, zero, p)


# ---------------------------------------------------------------------------
# perturbation sampler and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [{"norm": math.nan}, {"norm": math.inf}, {"norm": -1.0}, {"concentrate": "rim"}, {"max_freq": -1}],
    ids=["norm-nan", "norm-inf", "norm-negative", "concentrate-unknown", "max-freq-negative"],
)
def test_random_perturbation_rejects_bad_arguments(kw):
    pg = PolarGrid(RadialGrid.uniform(1.0, 64), 64)
    with pytest.raises(InvalidParams):
        random_perturbation(pg, seed=0, **kw)


def test_random_perturbation_structure():
    pg = PolarGrid(RadialGrid.uniform(1.0, 64), 64)
    pert = random_perturbation(pg, seed=5, norm=2.0)
    assert np.max(np.abs(pert.values[-1])) == 0.0  # vanishes on the rim
    assert np.max(np.abs(pert.values[0] - pert.values[0, :1])) == 0.0  # single-valued
    w = pg.radial.weights
    nsq = float(np.sum(w * np.sum(frob_sq(pert.values), axis=1)) * pg.dphi)
    assert math.sqrt(nsq) == pytest.approx(2.0, rel=1e-12)
    # determinism
    again = random_perturbation(pg, seed=5, norm=2.0)
    assert np.array_equal(pert.values, again.values)


def _old_random_perturbation(grid, seed, max_freq=6, concentrate=None, norm=1.0):
    """The sampler as one full-field accumulation per (component, mode)."""
    rng = np.random.default_rng(seed)
    rho = grid.radial.nodes / grid.radial.radius
    phis = grid.phis
    if concentrate == "core":
        envelope = (1.0 - rho) * np.exp(-((4.0 * rho) ** 2))
    elif concentrate == "boundary":
        envelope = rho * (1.0 - rho) * np.exp(-((4.0 * (1.0 - rho)) ** 2))
    else:
        envelope = np.sin(np.pi * rho)
    basis = np.eye(5)
    vals = np.zeros((rho.size, grid.m, 5))
    for b in range(5):
        for m in range(max_freq + 1):
            amp = 1.0 / (1.0 + m * m)
            ca = rng.standard_normal() * amp
            sa = rng.standard_normal() * amp if m > 0 else 0.0
            radial_shape = envelope * rho ** min(m, 2)
            wig = 1.0 + 0.3 * np.sin((1 + rng.integers(1, 4)) * np.pi * rho + rng.uniform(0, 2 * np.pi))
            shape = radial_shape * wig
            ang = ca * np.cos(m * phis) + sa * np.sin(m * phis)
            vals += shape[:, None, None] * ang[None, :, None] * basis[b][None, None, :]
    vals[-1] = 0.0
    vals[0] = vals[0, 0][None, :]
    w = grid.radial.weights
    nsq = float(np.sum(w * np.sum(frob_sq(vals), axis=1)) * grid.dphi)
    if nsq > 0.0:
        vals *= norm / math.sqrt(nsq)
    return vals


@pytest.mark.parametrize(
    "grid",
    [PolarGrid(RadialGrid.uniform(1.0, 64), 64), PolarGrid(RadialGrid.for_defect(1.0, 128, 2), 128)],
    ids=["uniform64", "graded128"],
)
def test_random_perturbation_is_bit_identical_to_accumulation_oracle(grid):
    for kind in (None, "core", "boundary"):
        for max_freq in (0, 1, 6):
            seed = 11 * max_freq + 3
            pert = random_perturbation(grid, seed=seed, max_freq=max_freq, concentrate=kind, norm=1.7)
            ref = _old_random_perturbation(grid, seed, max_freq, kind, 1.7)
            assert np.array_equal(pert.values, ref)


# ---------------------------------------------------------------------------
# spectral/Gauss scheme against a Gauss-point-by-Gauss-point reference
# ---------------------------------------------------------------------------

def _ref_gauss_sum(grid, dens):
    """``sum_g sum_seg w_g r_g h dphi sum_j dens(at, r_g)``; ``at`` interpolates
    node data to the current Gauss ring."""
    h = grid.radial.h
    total = 0.0
    for xi, w in zip(GAUSS_XI, GAUSS_W):
        rg = grid.radial.nodes[:-1] + h * xi

        def at(a, xi=xi):
            return (1.0 - xi) * a[:-1] + xi * a[1:]

        total += float(np.sum((h * w * rg * grid.dphi)[:, None] * dens(at, rg)))
    return total


def _ref_phi_derivative(values):
    hat = np.fft.rfft(values, axis=1)
    mult = 1j * np.arange(hat.shape[1])
    mult[-1] = 0.0  # M is even: drop the Nyquist mode
    return np.fft.irfft(hat * mult[None, :, None], n=values.shape[1], axis=1)


def _ref_dirichlet(grid, values, weight=lambda at: 1.0):
    dr_sq = frob_sq(np.diff(values, axis=0) / grid.radial.h[:, None, None])
    dphi = _ref_phi_derivative(values)
    return _ref_gauss_sum(
        grid,
        lambda at, rg: weight(at) * 0.5 * (dr_sq + frob_sq(at(dphi)) / (rg**2)[:, None]),
    )


def _ref_ldg_energy(grid, q, p):
    return _ref_dirichlet(grid, q) + _ref_gauss_sum(grid, lambda at, rg: bulk_density(at(q), p)) / p.L


def _ref_quadratic_form(grid, y, pv, p):
    pot = _ref_gauss_sum(grid, lambda at, rg: frob_sq(at(pv)) * (-p.a2 + p.c2 * frob_sq(at(y))))
    return _ref_dirichlet(grid, pv) + pot / (2.0 * p.L)


def _rough_perturbation(pg, seed):
    """White noise vanishing on the rim: every angular mode, Nyquist included."""
    vals = 0.01 * np.random.default_rng(seed).standard_normal((pg.radial.nodes.size, pg.m, 5))
    vals[-1] = 0.0
    return vals


def _with_bumped(p, field, pg):
    """A lifted ``Y`` and a non-lifted one whose ``|Y|^2`` depends on the angle."""
    bumped = field.values + 0.05 * random_perturbation(pg, seed=41).values
    assert np.ptp(frob_sq(bumped), axis=1).max() > 1e-3
    assert np.all(frob_dot(bumped[:, 0, :], F3_COMPONENTS) < -1e-3)
    return p, pg, (field, Field2D(pg, bumped))


@pytest.fixture(scope="module")
def oracle_fields(stability_setup):
    return _with_bumped(*stability_setup)


@pytest.fixture(scope="module")
def graded_oracle_fields(solve_cache):
    """A graded grid whose 257 rings stream as three ring blocks at M = 128,
    the last one partial."""
    p, prof, _ = solve_cache(L=0.01, n=256, k=2)
    assert not np.allclose(prof.grid.h, prof.grid.h[0])
    pg = PolarGrid(prof.grid, 128)
    assert [hi - lo for lo, hi in _ring_blocks(pg.m, 0, pg.radial.nodes.size)] == [102, 102, 53]
    return _with_bumped(p, lift(prof, p.k, pg), pg)


def _check_second_variation_oracle(p, pg, fields):
    for y in fields:
        yv = y.values
        v = frob_dot(yv[:, 0, :], F3_COMPONENTS)
        perts = [random_perturbation(pg, seed=s, concentrate=kind).values
                 for s, kind in ((0, None), (1, "core"), (2, "boundary"))]
        for pv in perts + [_rough_perturbation(pg, 3)]:
            sv = second_variation(y, p, Field2D(pg, pv))
            u = pv / v[:, None, None]
            hardy = _ref_dirichlet(pg, u, weight=lambda at: (at(v) ** 2)[:, None])
            norm = _ref_gauss_sum(pg, lambda at, rg: frob_sq(at(pv)))
            assert sv.direct == pytest.approx(_ref_quadratic_form(pg, yv, pv, p), rel=1e-12)
            assert sv.hardy == pytest.approx(hardy, rel=1e-12)
            assert sv.perturbation_norm_sq == pytest.approx(norm, rel=1e-12)


def test_second_variation_matches_gauss_point_reference(oracle_fields):
    _check_second_variation_oracle(*oracle_fields)


def test_second_variation_matches_gauss_point_reference_on_graded_blocks(graded_oracle_fields):
    _check_second_variation_oracle(*graded_oracle_fields)


def _check_energy_gap_oracle(p, pg, fields):
    for y in fields:
        yv = y.values
        for pv in (random_perturbation(pg, seed=5, norm=0.6).values, _rough_perturbation(pg, 6)):
            shifted = Field2D(pg, yv + pv)
            gap = energy_gap(y, shifted, p)
            quad = _ref_quadratic_form(pg, yv, pv, p)
            quart = _ref_gauss_sum(
                pg, lambda at, rg: (frob_sq(at(pv)) + 2.0 * frob_dot(at(yv), at(pv))) ** 2
            ) * p.c2 / (4.0 * p.L)
            direct = _ref_ldg_energy(pg, shifted.values, p) - _ref_ldg_energy(pg, yv, p)
            assert gap.direct == pytest.approx(direct, rel=1e-12)
            assert gap.quadratic_form == pytest.approx(quad, rel=1e-12)
            assert gap.quartic_term == pytest.approx(quart, rel=1e-12)
            assert gap.decomposition == pytest.approx(quad + quart, rel=1e-12)
            for b2 in (0.0, 0.7):
                pb = p.with_updates(b2=b2)
                ref = _ref_ldg_energy(pg, shifted.values, pb)
                assert ldg_energy_spectral(shifted, pb) == pytest.approx(ref, rel=1e-12)


def test_energy_gap_and_spectral_energy_match_gauss_point_reference(oracle_fields):
    _check_energy_gap_oracle(*oracle_fields)


def test_energy_gap_and_spectral_energy_match_gauss_point_reference_on_graded_blocks(
    graded_oracle_fields,
):
    _check_energy_gap_oracle(*graded_oracle_fields)


# ---------------------------------------------------------------------------
# the streamed spectral/Gauss scheme: input checks and working memory
# ---------------------------------------------------------------------------

def _spectral_calls(p, field, pert):
    """Each field argument of the spectral entry points, as a call that passes
    it through ``bad``."""
    shifted = Field2D(field.grid, field.values + pert.values)
    return {
        "second_variation.Y": lambda bad: second_variation(bad(field), p, pert),
        "second_variation.P": lambda bad: second_variation(field, p, bad(pert)),
        "energy_gap.Y": lambda bad: energy_gap(bad(field), shifted, p),
        "energy_gap.YP": lambda bad: energy_gap(field, bad(shifted), p),
        "ldg_energy_spectral": lambda bad: ldg_energy_spectral(bad(field), p),
        "ldg_energy_spectral.b2": lambda bad: ldg_energy_spectral(bad(field), p.with_updates(b2=0.7)),
    }


@pytest.mark.parametrize("ring", [40, 230], ids=["first-block", "last-block"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_spectral_scheme_rejects_non_finite_fields(stability_setup, value, ring):
    p, field, pg = stability_setup
    pert = random_perturbation(pg, seed=7)

    def bad(f):
        vals = f.values.copy()
        vals[ring, 7, 2] = value
        return Field2D(pg, vals)

    for name, call in _spectral_calls(p, field, pert).items():  # name shows in a failure
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(InvalidParams, match="finite"):
                call(bad)


def test_spectral_scheme_working_memory_stays_below_one_field(solve_cache):
    p, prof, _ = solve_cache(L=0.01, n=512)
    pg = PolarGrid(prof.grid, 256)
    field = lift(prof, p.k, pg)
    pert = random_perturbation(pg, seed=3)
    shifted = Field2D(pg, field.values + pert.values)
    for call in (lambda: second_variation(field, p, pert), lambda: energy_gap(field, shifted, p)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field.values.nbytes


def test_dirichlet_quadrature_positive(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    field = lift(prof, p.k, PolarGrid(prof.grid, 64))
    assert dirichlet_quadrature(field) > 0.0


# ---------------------------------------------------------------------------
# the streamed finite-difference scheme against unblocked references
# ---------------------------------------------------------------------------

def _ref_fd_dirichlet(values, grid):
    """The finite-difference Dirichlet sum as one full-array pass."""
    r = grid.radial.nodes
    h = grid.radial.h
    dphi = grid.dphi
    slopes = (values[1:] - values[:-1]) / h[:, None, None]
    seg_w = 0.5 * h * (r[:-1] + r[1:])
    rad_part = float(np.sum(seg_w * np.sum(frob_sq(slopes), axis=1)) * dphi)
    edges = (np.roll(values, -1, axis=1) - values) / dphi
    wtrap = grid.radial.weights
    ang = frob_sq(edges[1:])
    ang_part = float(np.sum(wtrap[1:] / (r[1:] ** 2) * np.sum(ang, axis=1)) * dphi)
    return 0.5 * (rad_part + ang_part)


def _ref_potential(values, grid, p):
    dens = bulk_density(values, p)
    return float(np.sum(grid.radial.weights * np.sum(dens, axis=1)) * grid.dphi)


def _ref_el_residual(values, grid, p):
    """Five-point polar stencil and the bulk terms on all interior rings at once."""
    r = grid.radial.nodes
    hm = (r[1:-1] - r[:-2])[:, None, None]
    hp = (r[2:] - r[1:-1])[:, None, None]
    denom = hm * hp * (hm + hp)
    vm, vc, vp = values[:-2], values[1:-1], values[2:]
    d1 = (hm * hm * vp - hp * hp * vm + (hp * hp - hm * hm) * vc) / denom
    d2 = 2.0 * (hm * vp + hp * vm - (hm + hp) * vc) / denom
    ddphi = (np.roll(vc, -1, axis=1) - 2.0 * vc + np.roll(vc, 1, axis=1)) / grid.dphi**2
    ri = r[1:-1][:, None, None]
    lap = d2 + d1 / ri + ddphi / ri**2
    nsq = frob_sq(vc)[..., None]
    return p.L * lap + p.a2 * vc + p.b2 * deviatoric_square(vc) - p.c2 * nsq * vc


def _block_cases():
    """(m, rings) with ring counts below one block, at k blocks and just past them."""
    cases = []
    for m in (64, 256, 1024):
        lo, hi = next(_ring_blocks(m, 0, 1 << 20))
        step = hi - lo
        k = max(2, -(-17 // step))
        for rings in (step - 1, k * step, k * step + 1, k * step + 2):
            if rings >= 17:
                cases.append((m, rings))
    return cases


@pytest.mark.parametrize("spacing", ["uniform", "graded"])
@pytest.mark.parametrize("m,rings", _block_cases())
def test_streamed_fd_scheme_matches_full_array_reference(spacing, m, rings):
    radial = getattr(RadialGrid, spacing)(1.0, rings - 1)
    pg = PolarGrid(radial, m)
    rng = np.random.default_rng(rings * m)
    prof = Profile(radial, rng.standard_normal(rings), rng.standard_normal(rings))
    k = int(rng.integers(-3, 4)) or 1
    field = lift(prof, k, pg)
    fn = frame_fn_components(pg.phis, k)
    expected_lift = (
        prof.u[:, None, None] * fn[None, :, :]
        + prof.v[:, None, None] * F3_COMPONENTS[None, None, :]
    )
    assert np.array_equal(field.values, expected_lift)

    rough = Field2D(pg, field.values + 0.1 * rng.standard_normal(field.values.shape))
    for f in (field, rough):
        ref = _ref_fd_dirichlet(f.values, pg)
        assert dirichlet_quadrature(f) == pytest.approx(ref, rel=1e-14, abs=0.0)
        for b2 in (0.0, 0.7):
            p = params(b2=b2, k=k)
            dirichlet, pot = fd_energy_terms(f, p)
            ref_pot = _ref_potential(f.values, pg, p)
            assert dirichlet == pytest.approx(ref, rel=1e-14, abs=0.0)
            assert pot == pytest.approx(ref_pot, rel=1e-14, abs=0.0)
            assert ldg_energy_2d(f, p) == pytest.approx(ref + ref_pot / p.L, rel=1e-14, abs=0.0)
            res = el_residual_2d(f, p)
            assert np.array_equal(res.values, _ref_el_residual(f.values, pg, p))
            assert np.array_equal(res.rings, radial.nodes[1:-1])


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("k,n_r,m_phi", [(2, 100, 256), (-2, 70, 1024), (4, 16, 64)])
def test_dirichlet_energy_2d_matches_materialised_field(branch, k, n_r, m_phi):
    p = params(k=k, L=0.0)
    pg = PolarGrid(RadialGrid.uniform(p.R, n_r), m_phi)
    if branch is Branch.UNIAXIAL_ESCAPE:
        values = uniaxial_escape_components(pg.radial.nodes[:, None], pg.phis[None, :], p)
    else:
        values = lift(explicit_profile(branch, p, pg.radial), k, pg).values
    quad = dirichlet_energy_2d(branch, p, n_r=n_r, m_phi=m_phi).quadrature
    assert quad == pytest.approx(_ref_fd_dirichlet(values, pg), rel=1e-14, abs=0.0)


def test_dirichlet_energy_2d_never_builds_the_full_field():
    n_r, m_phi = 1024, 512
    full_field_bytes = (n_r + 1) * m_phi * 5 * 8
    tracemalloc.start()
    try:
        dirichlet_energy_2d(Branch.MINUS, params(k=2, L=0.0), n_r=n_r, m_phi=m_phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_field_bytes / 4
