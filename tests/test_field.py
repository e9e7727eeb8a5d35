import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdefect import (
    DecompositionInvalid,
    Field2D,
    GridError,
    InvalidParams,
    ModelParams,
    PolarGrid,
    Profile,
    RadialGrid,
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
from qdefect.field import (
    ResidualField, _ring_blocks, fd_energy_terms, separable_dirichlet_quadrature,
)
from qdefect.harmonic import (
    Branch,
    dirichlet_energy_2d,
    explicit_profile,
    hm_residual,
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
    trace_cubed,
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
    assert np.max(np.abs(field.values[:, -1] - ring)) < 1e-13


def test_lift_norm_identity(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    pg = PolarGrid(prof.grid, 64)
    field = lift(prof, p.k, pg)
    t = prof.norm_sq_samples()
    assert np.max(np.abs(frob_sq(field.values) - t[:, None])) < 1e-14


def test_lift_is_the_two_mode_formula_bit_for_bit(rng):
    grid = RadialGrid.graded(1.0, 32)
    prof = Profile(grid, rng.uniform(0.0, 1.0, 33), rng.uniform(-1.0, 0.0, 33))
    pg = PolarGrid(grid, 64)
    for k in (-3, 1, 2):
        fn = frame_fn_components(pg.phis, k)
        ref = prof.u[:, None] * fn[:, None, :] + prof.v[:, None] * F3_COMPONENTS[:, None, None]
        assert np.array_equal(lift(prof, k, pg).values, ref)


def test_lift_u_zero_gives_angle_independent_field():
    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    prof = Profile(grid, np.zeros(65), np.linspace(-1.0, -0.4, 65))
    pg = PolarGrid(grid, 64)
    field = lift(prof, p.k, pg)
    assert np.max(np.abs(field.values - field.values[:, :, :1])) == 0.0


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
        rolled = np.roll(field.values, -shift, axis=2)
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
    vals = np.broadcast_to(c[:, None, None], (5, 65, 64)).copy()
    field = Field2D(pg, vals)
    f_val = float(bulk_density(c, p))
    expected = math.pi * p.R**2 * f_val / p.L
    assert ldg_energy_2d(field, p) == pytest.approx(expected, rel=1e-13)
    assert ldg_energy_spectral(field, p) == pytest.approx(expected, rel=1e-13)


def test_ldg_energy_zero_field():
    p = params()
    grid = RadialGrid.uniform(1.0, 64)
    pg = PolarGrid(grid, 64)
    field = Field2D(pg, np.zeros((5, 65, 64)))
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


def test_el_residual_bulk_cutoff_past_the_last_ring_keeps_the_last_ring(solve_cache):
    # the bulk rule of OdeResidual.bulk_peak: the cutoff is clipped to the last ring
    p, prof, _ = solve_cache(L=0.1, n=256)
    res = el_residual_2d(lift(prof, p.k, PolarGrid(prof.grid, 64)), p)
    last = float(np.max(res.norms()[-1]))
    assert res.max_norm(r_min=2.0 * p.R) == last
    assert res.max_norm(r_min=res.rings[-1]) == last
    assert res.max_norm() == float(np.max(res.norms()))


def test_residual_norms_scale_exactly_with_the_values():
    # the norms come from values divided by a power of two: the unscaled
    # formula's bits where its squares are finite, and finite norms where
    # they overflow (2^600) or underflow (2^-600)
    values = np.random.default_rng(5).standard_normal((5, 7, 64))
    rings = np.linspace(0.1, 0.9, 7)
    base = ResidualField(rings, values).norms()
    assert np.array_equal(base, np.sqrt(frob_sq(values)))
    for power in (-600, 600, 1000):
        nh, e = ResidualField(rings, np.ldexp(values, power)).scaled_norms()
        assert np.array_equal(np.ldexp(nh, e - power), base), power
    assert ResidualField(rings, np.zeros_like(values)).scaled_norms()[1] == 0


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
        cu = frob_dot(el.values, fn[:, None, :])
        cv = frob_dot(el.values, F3_COMPONENTS[:, None, None])
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
    bad.values[0, -1, :] = 0.1
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
    zero = Field2D(other, np.zeros((5, pg.radial.nodes.size, 64)))
    with pytest.raises(GridError):
        energy_gap(field, zero, p)


# ---------------------------------------------------------------------------
# perturbation sampler and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        {"norm": math.nan},
        {"norm": math.inf},
        {"norm": -1.0},
        {"concentrate": "rim"},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
    ],
    ids=[
        "norm-nan",
        "norm-inf",
        "norm-negative",
        "concentrate-unknown",
        "seed-negative",
        "seed-float",
        "seed-bool",
    ],
)
def test_random_perturbation_rejects_bad_arguments(kw):
    pg = PolarGrid(RadialGrid.uniform(1.0, 64), 64)
    with pytest.raises(InvalidParams):
        random_perturbation(pg, **{"seed": 0, **kw})


def test_random_perturbation_accepts_numpy_integers():
    pg = PolarGrid(RadialGrid.uniform(1.0, 16), 64)
    a = random_perturbation(pg, seed=np.int64(3))
    b = random_perturbation(pg, seed=3)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("norm", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("kind", [None, "core", "boundary"], ids=["plain", "core", "boundary"])
@pytest.mark.parametrize(
    "grid",
    [
        PolarGrid(RadialGrid.uniform(1.0, 64), 64),
        PolarGrid(RadialGrid.for_defect(1.0, 128, 2), 128),
        PolarGrid(RadialGrid.uniform(1.0, 512), 256),
    ],
    ids=["uniform64", "graded128", "uniform512x256"],
)
def test_random_perturbation_structure(grid, kind, norm):
    pert = random_perturbation(grid, seed=5, concentrate=kind, norm=norm)
    assert np.max(np.abs(pert.values[:, -1])) == 0.0  # vanishes on the rim
    assert np.max(np.abs(pert.values[:, 0] - pert.values[:, 0, :1])) == 0.0  # single-valued
    w = grid.radial.weights
    nsq = float(np.sum(w * np.sum(frob_sq(pert.values), axis=1)) * grid.dphi)
    assert math.sqrt(nsq) == pytest.approx(norm, rel=1e-12)
    if norm == 0.0:
        assert not np.any(pert.values)
    # determinism
    again = random_perturbation(grid, seed=5, concentrate=kind, norm=norm)
    assert pert.values.tobytes() == again.values.tobytes()


def _old_random_perturbation(grid, seed, concentrate=None, norm=1.0):
    """The earlier sampler: one full-field accumulation per (coordinate, mode),
    then the norm summed over the field and the field scaled to it."""
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
    vals = np.zeros((5, rho.size, grid.m))
    for b in range(5):
        for m in range(7):  # angular modes 0..6
            amp = 1.0 / (1.0 + m * m)
            ca = rng.standard_normal() * amp
            sa = rng.standard_normal() * amp if m > 0 else 0.0
            radial_shape = envelope * rho ** min(m, 2)
            wig = 1.0 + 0.3 * np.sin((1 + rng.integers(1, 4)) * np.pi * rho + rng.uniform(0, 2 * np.pi))
            shape = radial_shape * wig
            ang = ca * np.cos(m * phis) + sa * np.sin(m * phis)
            vals += shape[None, :, None] * ang[None, None, :] * basis[b][:, None, None]
    vals[:, -1] = 0.0
    vals[:, 0] = vals[:, 0, :1]
    w = grid.radial.weights
    nsq = float(np.sum(w * np.sum(frob_sq(vals), axis=1)) * grid.dphi)
    if nsq > 0.0:
        vals *= norm / math.sqrt(nsq)
    return vals


def _ref_random_perturbation(grid, seed, concentrate=None, norm=1.0):
    """The sampler's definition: the draws and per-mode factors of
    :func:`_old_random_perturbation`, each radial factor 0 on the rim, the
    scale from the factors' Gram sums, and one ``+=`` outer product of the
    scaled radial factor and the angular factor per (coordinate, mode)."""
    rng = np.random.default_rng(seed)
    rho = grid.radial.nodes / grid.radial.radius
    phis = grid.phis
    if concentrate == "core":
        envelope = (1.0 - rho) * np.exp(-((4.0 * rho) ** 2))
    elif concentrate == "boundary":
        envelope = rho * (1.0 - rho) * np.exp(-((4.0 * (1.0 - rho)) ** 2))
    else:
        envelope = np.sin(np.pi * rho)
    shapes = np.empty((5, 7, rho.size))
    angs = np.empty((5, 7, grid.m))
    for b in range(5):
        for m in range(7):  # angular modes 0..6
            amp = 1.0 / (1.0 + m * m)
            ca = rng.standard_normal() * amp
            sa = rng.standard_normal() * amp if m > 0 else 0.0
            radial_shape = envelope * rho ** min(m, 2)
            wig = 1.0 + 0.3 * np.sin((1 + rng.integers(1, 4)) * np.pi * rho + rng.uniform(0, 2 * np.pi))
            shapes[b, m] = radial_shape * wig
            angs[b, m] = ca * np.cos(m * phis) + sa * np.sin(m * phis)
    shapes[:, :, -1] = 0.0
    # sum_j P_b(r_i, phi_j)^2 = S_b[:, i]^T (A_b A_b^T) S_b[:, i]
    gram = angs @ angs.transpose(0, 2, 1)
    ring_sq = np.sum(shapes * (gram @ shapes), axis=(0, 1))
    nsq = float(np.sum(grid.radial.weights * ring_sq) * grid.dphi)
    sigma = norm / math.sqrt(nsq) if nsq > 0.0 else 1.0
    vals = np.zeros((5, rho.size, grid.m))
    for b in range(5):
        for m in range(7):
            vals[b] += np.multiply.outer(sigma * shapes[b, m], angs[b, m])
    vals[:, 0] = vals[:, 0, :1]
    return vals


_ORACLE_GRIDS = pytest.mark.parametrize(
    "grid, seeds",
    [
        (PolarGrid(RadialGrid.uniform(1.0, 64), 64), (3, 14, 69, 355)),
        (PolarGrid(RadialGrid.for_defect(1.0, 128, 2), 128), (3, 14, 69)),
        # the grids of criteria 06 and 07 and of the stability benchmark
        (PolarGrid(RadialGrid.uniform(1.0, 512), 256), (69,)),
        (PolarGrid(RadialGrid.uniform(1.0, 256), 128), (69,)),
    ],
    ids=["uniform64", "graded128", "uniform512x256", "uniform256x128"],
)


@_ORACLE_GRIDS
def test_random_perturbation_is_bit_identical_to_accumulation_oracle(grid, seeds):
    for kind in (None, "core", "boundary"):
        for seed in seeds:
            pert = random_perturbation(grid, seed=seed, concentrate=kind, norm=1.7)
            ref = _ref_random_perturbation(grid, seed, kind, 1.7)
            assert np.array_equal(pert.values, ref)


@_ORACLE_GRIDS
def test_random_perturbation_stays_within_round_off_of_the_field_norm_oracle(grid, seeds):
    # the field-summed norm and the scaling after the contraction move the
    # samples by a few ulps of their peak, never more
    for kind in (None, "core", "boundary"):
        for seed in seeds:
            pert = random_perturbation(grid, seed=seed, concentrate=kind, norm=1.7)
            old = _old_random_perturbation(grid, seed, kind, 1.7)
            assert np.max(np.abs(pert.values - old)) <= 1e-14 * np.max(np.abs(old))


@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.integers(16, 48),  # RadialGrid needs N >= 16
    half_m=st.integers(32, 48),  # PolarGrid needs an even M >= 64
    kind=st.sampled_from([None, "core", "boundary"]),
    seed=st.integers(0, 2**32),
)
def test_random_perturbation_matches_oracle_on_any_grid(n, half_m, kind, seed):
    grid = PolarGrid(RadialGrid.uniform(1.0, n), 2 * half_m)
    pert = random_perturbation(grid, seed=seed, concentrate=kind, norm=0.9)
    assert pert.values.tobytes() == _ref_random_perturbation(grid, seed, kind, 0.9).tobytes()
    old = _old_random_perturbation(grid, seed, kind, 0.9)
    assert np.max(np.abs(pert.values - old)) <= 1e-14 * np.max(np.abs(old))


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
            return (1.0 - xi) * a[..., :-1, :] + xi * a[..., 1:, :]

        total += float(np.sum((h * w * rg * grid.dphi)[:, None] * dens(at, rg)))
    return total


def _ref_phi_derivative(values):
    hat = np.fft.rfft(values, axis=-1)
    mult = 1j * np.arange(hat.shape[-1])
    mult[-1] = 0.0  # M is even: drop the Nyquist mode
    return np.fft.irfft(hat * mult, n=values.shape[-1], axis=-1)


def _ref_dirichlet(grid, values, weight=lambda at: 1.0):
    dr_sq = frob_sq(np.diff(values, axis=1) / grid.radial.h[:, None])
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
    vals = 0.01 * np.random.default_rng(seed).standard_normal((5, pg.radial.nodes.size, pg.m))
    vals[:, -1] = 0.0
    return vals


def _with_bumped(p, field, pg):
    """A lifted ``Y`` and a non-lifted one whose ``|Y|^2`` depends on the angle."""
    bumped = field.values + 0.05 * random_perturbation(pg, seed=41).values
    assert np.ptp(frob_sq(bumped), axis=1).max() > 1e-3
    assert np.all(frob_dot(bumped[:, :, 0], F3_COMPONENTS) < -1e-3)
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
        v = frob_dot(yv[:, :, 0], F3_COMPONENTS)
        perts = [random_perturbation(pg, seed=s, concentrate=kind).values
                 for s, kind in ((0, None), (1, "core"), (2, "boundary"))]
        for pv in perts + [_rough_perturbation(pg, 3)]:
            sv = second_variation(y, p, Field2D(pg, pv))
            u = pv / v[:, None]
            hardy = _ref_dirichlet(pg, u, weight=lambda at: at(v[:, None]) ** 2)
            norm = _ref_gauss_sum(pg, lambda at, rg: frob_sq(at(pv)))
            assert sv.direct == pytest.approx(_ref_quadratic_form(pg, yv, pv, p), rel=1e-12)
            assert sv.hardy == pytest.approx(hardy, rel=1e-12)
            assert sv.perturbation_norm_sq == pytest.approx(norm, rel=1e-12)


def test_second_variation_matches_gauss_point_reference(oracle_fields):
    _check_second_variation_oracle(*oracle_fields)


def test_second_variation_matches_gauss_point_reference_on_graded_blocks(graded_oracle_fields):
    _check_second_variation_oracle(*graded_oracle_fields)


def test_second_variation_hardy_form_is_well_conditioned_for_smooth_perturbations():
    # P = (1 - r^2) v U(phi): P/v is smooth, so P_i:P_i, P_i:P_{i+1} and
    # P_{i+1}:P_{i+1} nearly cancel in |d_r(P/v)|^2 on 4096 segments
    field = _small_field(n=4096, m=64)
    pg = field.grid
    r = pg.radial.nodes
    v = field.values[0, :, 0]
    # a fixed U(phi): F_3 plus weak angular modes, so the radial sums dominate
    ang = np.stack([np.ones(pg.m)] + [0.03 * np.cos(c * pg.phis + c) for c in range(1, 5)])
    pv = ((1.0 - r * r) * v)[:, None] * ang[:, None, :]
    sv = second_variation(field, params(), Field2D(pg, pv))
    hardy = _ref_dirichlet(pg, pv / v[:, None], weight=lambda at: at(v[:, None]) ** 2)
    assert sv.hardy == pytest.approx(hardy, rel=1e-12)


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
        vals[2, ring, 7] = value
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


def test_second_variation_working_memory_stays_below_half_a_field(solve_cache):
    # the Hardy radial sums come from the kernel's ring sums, with no block of P / v
    p, prof, _ = solve_cache(L=0.01, n=512)
    pg = PolarGrid(prof.grid, 256)
    field = lift(prof, p.k, pg)
    pert = random_perturbation(pg, seed=3)
    tracemalloc.start()
    try:
        second_variation(field, p, pert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * field.values.nbytes


def test_dirichlet_quadrature_positive(solve_cache):
    p, prof, _ = solve_cache(L=0.1, n=256)
    field = lift(prof, p.k, PolarGrid(prof.grid, 64))
    assert fd_energy_terms(field, p)[0] > 0.0


# ---------------------------------------------------------------------------
# the streamed finite-difference scheme against unblocked references
# ---------------------------------------------------------------------------

def _ref_fd_dirichlet(values, grid):
    """The finite-difference Dirichlet sum as one full-array pass."""
    r = grid.radial.nodes
    h = grid.radial.h
    dphi = grid.dphi
    slopes = (values[:, 1:] - values[:, :-1]) / h[:, None]
    seg_w = 0.5 * h * (r[:-1] + r[1:])
    rad_part = float(np.sum(seg_w * np.sum(frob_sq(slopes), axis=1)) * dphi)
    edges = (np.roll(values, -1, axis=2) - values) / dphi
    wtrap = grid.radial.weights
    ang = frob_sq(edges[:, 1:])
    ang_part = float(np.sum(wtrap[1:] / (r[1:] ** 2) * np.sum(ang, axis=1)) * dphi)
    return 0.5 * (rad_part + ang_part)


def _ref_potential(values, grid, p):
    """``int f(Q)`` by trapezoidal nodes, the cubic term evaluated at every ``b2``."""
    t = frob_sq(values)
    dens = -0.5 * p.a2 * t - (p.b2 / 3.0) * trace_cubed(values) + 0.25 * p.c2 * t * t
    return float(np.sum(grid.radial.weights * np.sum(dens, axis=1)) * grid.dphi)


def _ref_laplacian(values, grid):
    """Five-point polar stencil on all interior rings at once."""
    r = grid.radial.nodes
    hm = (r[1:-1] - r[:-2])[:, None]
    hp = (r[2:] - r[1:-1])[:, None]
    denom = hm * hp * (hm + hp)
    vm, vc, vp = values[:, :-2], values[:, 1:-1], values[:, 2:]
    d1 = (hm * hm * vp - hp * hp * vm + (hp * hp - hm * hm) * vc) / denom
    d2 = 2.0 * (hm * vp + hp * vm - (hm + hp) * vc) / denom
    ddphi = (np.roll(vc, -1, axis=2) - 2.0 * vc + np.roll(vc, 1, axis=2)) / grid.dphi**2
    ri = r[1:-1][:, None]
    return d2 + d1 / ri + ddphi / ri**2


def _ref_el_residual(values, grid, p):
    """The Euler-Lagrange residual's stencil and bulk terms on all interior rings at once."""
    vc = values[:, 1:-1]
    nsq = frob_sq(vc)
    lap = _ref_laplacian(values, grid)
    return p.L * lap + p.a2 * vc + p.b2 * deviatoric_square(vc) - p.c2 * nsq * vc


def _ref_hm_residual(values, grid, p):
    """The harmonic-map residual on all interior rings at once: the Laplacian
    plus the compact ``|grad Q|^2`` of averaged one-sided squared differences."""
    r = grid.radial.nodes
    h = grid.radial.h
    fsq = frob_sq((values[:, 1:] - values[:, :-1]) / h[:, None])
    hm = h[:-1][:, None]
    hp = h[1:][:, None]
    rad = (hm * fsq[:-1] + hp * fsq[1:]) / (hm + hp)
    vc = values[:, 1:-1]
    esq = frob_sq((np.roll(vc, -1, axis=2) - vc) / grid.dphi)
    ang = 0.5 * (esq + np.roll(esq, 1, axis=1))
    gsq = rad + ang / r[1:-1][:, None] ** 2
    return _ref_laplacian(values, grid) + (1.5 / p.s_plus**2) * gsq * vc


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
        prof.u[:, None] * fn[:, None, :]
        + prof.v[:, None] * F3_COMPONENTS[:, None, None]
    )
    assert np.array_equal(field.values, expected_lift)

    rough = Field2D(pg, field.values + 0.1 * rng.standard_normal(field.values.shape))
    for f in (field, rough):
        ref = _ref_fd_dirichlet(f.values, pg)
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
            # the harmonic-map residual, on the field scaled to |Q|^2 = (2/3) s+^2
            on_sphere = f.values * np.sqrt(p.limit_norm_sq / frob_sq(f.values))
            hm = hm_residual(Field2D(pg, on_sphere), p)
            assert np.array_equal(hm.values, _ref_hm_residual(on_sphere, pg, p))
            assert np.array_equal(hm.rings, radial.nodes[1:-1])


def _materialised_cases():
    """(branch, k, n_r, m_phi, R): even k on every branch, odd k on the
    biaxial ones, a radius other than 1 and an angular count not a power of 2."""
    cases = [
        (branch, k, n_r, m_phi, 1.0)
        for k, n_r, m_phi in [(2, 100, 256), (-2, 70, 1024), (4, 16, 64)]
        for branch in Branch
    ]
    cases += [
        (branch, k, n_r, m_phi, radius)
        for k, n_r, m_phi, radius in [(1, 64, 128, 1.0), (-1, 33, 96, 1.0), (3, 80, 256, 2.5)]
        for branch in (Branch.MINUS, Branch.PLUS)
    ]
    cases += [(branch, k, 50, 96, 2.5) for k in (2, -4) for branch in Branch]
    return [
        pytest.param(*c, id=f"{c[1]}-{c[2]}-{c[3]}-{c[0]}" + ("" if c[4] == 1.0 else f"-R{c[4]}"))
        for c in cases
    ]


@pytest.mark.parametrize("branch,k,n_r,m_phi,radius", _materialised_cases())
def test_dirichlet_energy_2d_matches_materialised_field(branch, k, n_r, m_phi, radius):
    p = params(k=k, L=0.0, R=radius)
    pg = PolarGrid(RadialGrid.uniform(p.R, n_r), m_phi)
    if branch is Branch.UNIAXIAL_ESCAPE:
        values = uniaxial_escape_components(pg.radial.nodes[:, None], pg.phis[None, :], p)
    else:
        values = lift(explicit_profile(branch, p, pg.radial), k, pg).values
    quad = dirichlet_energy_2d(branch, p, n_r=n_r, m_phi=m_phi).quadrature
    assert quad == pytest.approx(_ref_fd_dirichlet(values, pg), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spacing", ["uniform", "graded"])
def test_separable_dirichlet_quadrature_matches_full_field(spacing):
    rng = np.random.default_rng(11)
    pg = PolarGrid(getattr(RadialGrid, spacing)(1.7, 40), 96)
    f = rng.standard_normal((pg.radial.nodes.size, 3))
    g = rng.standard_normal((5, 3, pg.m))
    values = np.einsum("ia,caj->cij", f, g)
    quad = separable_dirichlet_quadrature(f, g, pg)
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
    assert peak < full_field_bytes / 32


def _small_profile(n=32):
    return explicit_profile(Branch.MINUS, params(L=0.0), RadialGrid.uniform(1.0, n))


def _small_field(n=32, m=64):
    prof = _small_profile(n)
    return lift(prof, 1, PolarGrid(prof.grid, m))


def _short_v_profile():
    """Rebind the ``v`` of an explicit profile on 33 nodes to 5 entries: a
    profile is frozen, so this raises ``FrozenInstanceError``."""
    prof = _small_profile()
    prof.v = prof.v[:5]
    return prof


def _nan_v_field():
    field = _small_field()
    field.values[:, 3, 0] = np.nan  # v = Y:F3 on the first angle
    return field


_FIELD_ARGUMENT_CHECKS = {
    "ldg_energy_2d-L0": (InvalidParams, lambda: ldg_energy_2d(_small_field(), params(L=0.0))),
    "el_residual_2d-L0": (InvalidParams, lambda: el_residual_2d(_small_field(), params(L=0.0))),
    "ldg_energy_spectral-L0": (
        InvalidParams, lambda: ldg_energy_spectral(_small_field(), params(L=0.0))),
    "second_variation-L0": (
        InvalidParams, lambda: second_variation(_small_field(), params(L=0.0), _small_field())),
    "second_variation-grid-mismatch": (
        GridError, lambda: second_variation(_small_field(), params(), _small_field(n=64))),
    "second_variation-non-finite-v": (
        InvalidParams, lambda: second_variation(_nan_v_field(), params(), _small_field())),
    "energy_gap-b2": (
        InvalidParams, lambda: energy_gap(_small_field(), _small_field(), params(b2=0.5))),
    "energy_gap-L0": (
        InvalidParams, lambda: energy_gap(_small_field(), _small_field(), params(L=0.0))),
    "lift-v-reassigned": (
        FrozenInstanceError, lambda: lift(_short_v_profile(), 1, _small_field().grid)),
    # k as ModelParams checks it
    "lift-k-0": (InvalidParams, lambda: lift(_small_profile(), 0, _small_field().grid)),
    "lift-k-half": (InvalidParams, lambda: lift(_small_profile(), 1.5, _small_field().grid)),
    "lift-k-bool": (InvalidParams, lambda: lift(_small_profile(), True, _small_field().grid)),
    "Field2D-values-shape": (
        GridError, lambda: Field2D(_small_field().grid, np.zeros((33, 64, 3)))),
    # the (N+1, M, 5) layout that came before coordinates first
    "Field2D-values-old-layout": (
        GridError, lambda: Field2D(_small_field().grid, np.zeros((33, 64, 5)))),
}


@pytest.mark.parametrize("case", sorted(_FIELD_ARGUMENT_CHECKS))
def test_field_argument_checks(case):
    exc, call = _FIELD_ARGUMENT_CHECKS[case]
    with pytest.raises(exc) as info:
        call()
    if case.startswith("Field2D-values"):
        assert "(5, 33, 64)" in str(info.value)  # the expected shape is named
