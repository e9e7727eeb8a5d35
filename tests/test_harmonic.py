import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.integrate import quad

from qdefect import (
    Branch,
    ConstraintViolated,
    Field2D,
    GridError,
    InvalidBranch,
    InvalidParams,
    ModelParams,
    OddKForUniaxial,
    PolarGrid,
    Profile,
    PsiProfile,
    RadialGrid,
    closed_form_dirichlet,
    dirichlet_energy_2d,
    e0_energy,
    explicit_profile,
    first_integral_defect,
    hm_residual,
    lift,
    psi_of_branch,
    uniaxial_escape_components,
)
from qdefect.harmonic import explicit_arrays
from qdefect.field import random_perturbation, _GaussRings, _RingSums, _ring_blocks
from qdefect.grid import GAUSS_XI
from qdefect.tensor import (
    biaxiality,
    boundary_tensor_components,
    components_to_matrix,
    frob_sq,
    trace_cubed,
)

SQ2 = math.sqrt(2.0)
SQ23 = math.sqrt(2.0 / 3.0)


def limit_params(k=1, **kw):
    base = dict(a2=1.0, b2=0.0, c2=1.0, L=0.0, R=1.0, k=k)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# explicit branches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, -2])
def test_explicit_minus_boundary_and_core_values(k):
    p = limit_params(k=k)
    grid = RadialGrid.uniform(p.R, 128)
    prof = explicit_profile(Branch.MINUS, p, grid)
    assert abs(prof.u[-1] - p.s_plus / SQ2) <= 1e-13 * p.s_plus
    assert abs(prof.v[-1] + p.s_plus / math.sqrt(6.0)) <= 1e-13 * p.s_plus
    assert prof.u[0] == 0.0
    assert abs(prof.v[0] + SQ23 * p.s_plus) <= 1e-13 * p.s_plus


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
def test_explicit_norm_constraint(k, branch):
    p = limit_params(k=k)
    grid = RadialGrid.graded(p.R, 200)
    prof = explicit_profile(branch, p, grid)
    target = p.limit_norm_sq
    assert np.max(np.abs(prof.norm_sq_samples() - target)) <= 1e-12 * target


def test_explicit_plus_core_value():
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 64)
    prof = explicit_profile(Branch.PLUS, p, grid)
    assert prof.u[0] == 0.0
    assert prof.v[0] == pytest.approx(SQ23 * p.s_plus, rel=1e-14)


def test_explicit_profile_preconditions():
    grid = RadialGrid.uniform(1.0, 64)
    with pytest.raises(InvalidParams):
        explicit_profile(Branch.MINUS, limit_params(b2=0.5), grid)
    with pytest.raises(InvalidBranch):
        explicit_profile(Branch.UNIAXIAL_ESCAPE, limit_params(k=2), grid)


# ---------------------------------------------------------------------------
# angle parametrisation and the first integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
def test_psi_boundary_exact(branch):
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 128)
    psi = psi_of_branch(branch, p, grid)
    assert psi.psi[-1] == math.pi / 3.0
    assert psi.psi[0] == (0.0 if branch is Branch.MINUS else math.pi)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
def test_psi_roundtrip_matches_explicit(k, branch):
    p = limit_params(k=k)
    grid = RadialGrid.uniform(p.R, 256)
    psi = psi_of_branch(branch, p, grid).psi
    amp = SQ23 * p.s_plus  # u = amp sin(psi), v = -amp cos(psi)
    direct = explicit_profile(branch, p, grid)
    assert np.max(np.abs(amp * np.sin(psi) - direct.u)) < 1e-13
    assert np.max(np.abs(-amp * np.cos(psi) - direct.v)) < 1e-13


def test_first_integral_vanishes_for_exact_branches():
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 512)
    for branch in (Branch.MINUS, Branch.PLUS):
        alpha = first_integral_defect(psi_of_branch(branch, p, grid), p.k)
        assert np.max(np.abs(alpha)) <= 1e-6


def test_first_integral_constants():
    grid = RadialGrid.uniform(1.0, 64)
    ones = first_integral_defect(PsiProfile(grid, np.full(65, math.pi / 2.0)), 1)
    assert np.max(np.abs(ones - 1.0)) < 1e-12
    zeros = first_integral_defect(PsiProfile(grid, np.zeros(65)), 1)
    assert np.max(np.abs(zeros)) < 1e-12


def test_first_integral_decays_under_refinement():
    p = limit_params()
    vals = []
    for n in (128, 256, 512):
        grid = RadialGrid.uniform(p.R, n)
        alpha = first_integral_defect(psi_of_branch(Branch.PLUS, p, grid), p.k)
        vals.append(np.max(np.abs(alpha)))
    # at least second order (the high-order stencil actually gives quartic)
    assert vals[0] / vals[1] >= 3.5
    assert vals[1] / vals[2] >= 3.5


def test_branch_selects_unique_first_order_equation():
    # r psi' = -+ |k| sin(psi): each branch satisfies exactly one sign
    p = limit_params(k=2)
    grid = RadialGrid.uniform(p.R, 512)
    r = grid.nodes[1:-1]
    for branch, sign in ((Branch.MINUS, 1.0), (Branch.PLUS, -1.0)):
        psi = psi_of_branch(branch, p, grid).psi
        dpsi = (psi[2:] - psi[:-2]) / (grid.nodes[2:] - grid.nodes[:-2])
        match = r * dpsi - sign * abs(p.k) * np.sin(psi[1:-1])
        other = r * dpsi + sign * abs(p.k) * np.sin(psi[1:-1])
        assert np.max(np.abs(match)) < 1e-3
        assert np.max(np.abs(other)) > 0.5


# ---------------------------------------------------------------------------
# constrained limit energy
# ---------------------------------------------------------------------------

def test_e0_energy_analytic_value_both_forms():
    # analytic: E0(Y-) = |k| s+^2 / 3 per unit angle
    p = limit_params()
    assert p.L == 0.0  # the kernel's wg / L stays unformed for both forms
    exact = p.s_plus**2 / 3.0
    for n in (512, 1024):
        grid = RadialGrid.uniform(p.R, n)
        prof_val = e0_energy(explicit_profile(Branch.MINUS, p, grid), p).value
        psi_val = e0_energy(psi_of_branch(Branch.MINUS, p, grid), p).value
        assert prof_val == pytest.approx(exact, rel=2e-6)
        assert psi_val == pytest.approx(exact, rel=2e-6)


def test_e0_forms_agree_after_extrapolation():
    # both quadratures are second order; Richardson removes the h^2 term,
    # after which the (u,v)-form and the psi-form agree to 1e-10
    p = limit_params()
    vals = {}
    for form in ("uv", "psi"):
        coarse_fine = []
        for n in (1024, 2048):
            grid = RadialGrid.uniform(p.R, n)
            if form == "uv":
                res = e0_energy(explicit_profile(Branch.MINUS, p, grid), p)
            else:
                res = e0_energy(psi_of_branch(Branch.MINUS, p, grid), p)
            coarse_fine.append(res.value)
        vals[form] = (4.0 * coarse_fine[1] - coarse_fine[0]) / 3.0
    assert abs(vals["uv"] - vals["psi"]) < 1e-10
    # cross-check against adaptive quadrature of the closed form
    ref, _ = quad(
        lambda r: p.k**2 * 12.0 * r ** (2 * abs(p.k) - 1)
        / (3.0 + r ** (2 * abs(p.k))) ** 2,
        0.0,
        1.0,
    )
    # with r psi' = |k| sin(psi), the two Dirichlet terms are equal, so
    # E0 = (2/3) s+^2 int k^2 sin^2(psi)/r dr
    ref *= p.limit_norm_sq
    assert vals["uv"] == pytest.approx(ref, abs=1e-10)


def test_e0_infinite_sentinel_and_strict_error():
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 64)
    prof = explicit_profile(Branch.MINUS, p, grid)
    bad = Profile(grid, prof.u * 1.01, prof.v)
    res = e0_energy(bad, p)
    assert not res.finite and res.value is None and res.max_deviation > 1e-8
    good = e0_energy(prof, p)
    assert good.finite and good.value > 0.0


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("component", ["u", "v"])
def test_e0_non_finite_sample_is_infinite(entry, component):
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 64)
    prof = explicit_profile(Branch.MINUS, p, grid)
    getattr(prof, component)[17] = entry
    res = e0_energy(prof, p)
    assert not res.finite and res.value is None
    assert not res.max_deviation <= 1e-8


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node", [0, 17, 64])
def test_e0_non_finite_angle_is_infinite(entry, node):
    p = limit_params()
    psi = psi_of_branch(Branch.MINUS, p, RadialGrid.uniform(p.R, 64))
    psi.psi[node] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        res = e0_energy(psi, p)
    assert not res.finite and res.value is None
    assert math.isnan(res.max_deviation)


# ---------------------------------------------------------------------------
# Dirichlet energies of the explicit solutions
# ---------------------------------------------------------------------------

def test_closed_form_energy_table_k1():
    p = limit_params(k=1)
    assert closed_form_dirichlet(Branch.MINUS, p) == pytest.approx(math.pi, rel=1e-14)
    assert closed_form_dirichlet(Branch.PLUS, p) == pytest.approx(3.0 * math.pi, rel=1e-14)


def test_closed_form_energy_table_k2_with_escape():
    p = limit_params(k=2)
    assert closed_form_dirichlet(Branch.MINUS, p) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert closed_form_dirichlet(Branch.PLUS, p) == pytest.approx(6.0 * math.pi, rel=1e-14)
    assert closed_form_dirichlet(Branch.UNIAXIAL_ESCAPE, p) == pytest.approx(
        6.0 * math.pi, rel=1e-14
    )
    with pytest.raises(OddKForUniaxial):
        closed_form_dirichlet(Branch.UNIAXIAL_ESCAPE, limit_params(k=3))


def test_energy_ordering_and_ratio():
    for k in (2, 4):
        p = limit_params(k=k)
        e_minus = closed_form_dirichlet(Branch.MINUS, p)
        e_plus = closed_form_dirichlet(Branch.PLUS, p)
        e_escape = closed_form_dirichlet(Branch.UNIAXIAL_ESCAPE, p)
        assert e_minus < e_plus
        assert e_plus == e_escape
        assert e_minus / e_plus == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
def test_dirichlet_quadrature_matches_closed_form(branch):
    p = limit_params(k=2)
    de = dirichlet_energy_2d(branch, p, n_r=256, m_phi=256)
    assert de.relative_error < 5e-3


def test_dirichlet_energy_2d_requires_b2_zero():
    with pytest.raises(InvalidParams):
        dirichlet_energy_2d(Branch.MINUS, limit_params(b2=0.1))


# ---------------------------------------------------------------------------
# uniaxial escape solution
# ---------------------------------------------------------------------------

def test_uniaxial_boundary_and_core():
    p = limit_params(k=2)
    for phi in np.linspace(0.0, 2.0 * math.pi, 7):
        at_rim = uniaxial_escape_components(p.R, phi, p)
        assert np.max(np.abs(at_rim - boundary_tensor_components(phi, p))) < 1e-14
    at_core = uniaxial_escape_components(0.0, 1.3, p)
    lam, vecs = np.linalg.eigh(components_to_matrix(at_core))
    # m = e3: leading eigenvector along the axis, doubly degenerate planar pair
    assert np.allclose(np.abs(vecs[:, 2]), [0.0, 0.0, 1.0], atol=1e-12)
    assert lam[2] == pytest.approx(2.0 / 3.0 * p.s_plus, rel=1e-12)


def test_uniaxial_unit_director_and_norm(rng):
    p = limit_params(k=4)
    r = rng.uniform(0.0, p.R, 64)
    phi = rng.uniform(0.0, 2.0 * math.pi, 64)
    comps = uniaxial_escape_components(r, phi, p)
    assert np.max(np.abs(frob_sq(comps) - p.limit_norm_sq)) < 1e-12
    # uniaxiality: the invariant-based measure vanishes and the two lower
    # eigenvalues agree
    assert np.max(biaxiality(frob_sq(comps), trace_cubed(comps))) < 1e-12
    lam = np.linalg.eigvalsh(components_to_matrix(comps))
    assert np.max(np.abs(lam[:, 0] - lam[:, 1])) < 1e-7
    # the matrix definition s+ (m m - I/3), m = (planar n(phi), m3), rho^k = (r/R)^4
    rho_k = (r / p.R) ** 4
    planar, m3 = 2.0 * (r / p.R) ** 2 / (1.0 + rho_k), (1.0 - rho_k) / (1.0 + rho_k)
    m = np.stack([planar * np.cos(2.0 * phi), planar * np.sin(2.0 * phi), m3], axis=-1)
    mm = p.s_plus * (m[:, :, None] * m[:, None, :] - np.eye(3) / 3.0)
    assert np.max(np.abs(components_to_matrix(comps) - mm)) < 1e-13


def test_uniaxial_rejects_odd_k():
    with pytest.raises(OddKForUniaxial):
        uniaxial_escape_components(0.5, 0.0, limit_params(k=1))


def test_meromorphic_reproduces_escape_director(rng):
    # the k = 2 escape director is the inverse stereographic image of the
    # meromorphic map w = z / R
    p = limit_params(k=2)
    r = rng.uniform(0.01, 1.0, 32)
    phi = rng.uniform(0.0, 2.0 * math.pi, 32)
    w = r * np.exp(1j * phi) / p.R
    m = np.stack([2.0 * w.real, 2.0 * w.imag, 1.0 - np.abs(w) ** 2], axis=-1)
    m /= (1.0 + np.abs(w) ** 2)[:, None]
    mm = p.s_plus * (m[:, :, None] * m[:, None, :] - np.eye(3) / 3.0)
    ref = uniaxial_escape_components(r, phi, p)
    assert np.max(np.abs(components_to_matrix(ref) - mm)) < 1e-13
    assert np.max(np.abs(np.sum(m * m, axis=-1) - 1.0)) < 1e-13
    assert np.max(np.abs(frob_sq(ref) - p.limit_norm_sq)) < 1e-13


# ---------------------------------------------------------------------------
# harmonic-map residual on the disk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
def test_hm_residual_second_order(k, branch):
    p = limit_params(k=k)
    vals = []
    for n in (128, 256):
        grid = RadialGrid.uniform(p.R, n)
        pg = PolarGrid(grid, n)
        field = lift(explicit_profile(branch, p, grid), p.k, pg)
        vals.append(hm_residual(field, p).max_norm(r_min=0.1))
    assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.3)


def test_hm_residual_constant_field_is_zero():
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 64)
    pg = PolarGrid(grid, 64)
    const = np.zeros((5, 65, 64))
    t = p.s_plus / math.sqrt(3.0)  # diag(t, -t, 0) = sqrt(2) t E1: |Q|^2 = 2 t^2
    const[1] = math.sqrt(2.0) * t
    assert abs(float(frob_sq(const[:, 0, 0])) - p.limit_norm_sq) < 1e-12
    res = hm_residual(Field2D(pg, const), p)
    assert res.max_norm() == 0.0


def test_hm_residual_constraint_enforced():
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 64)
    pg = PolarGrid(grid, 64)
    field = lift(explicit_profile(Branch.MINUS, p, grid), p.k, pg)
    bad = Field2D(pg, field.values * 1.001)
    with pytest.raises(ConstraintViolated):
        hm_residual(bad, p)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("ring", [0, 1, 40, 64])
def test_hm_residual_non_finite_sample_violates_constraint(entry, ring):
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 64)
    pg = PolarGrid(grid, 64)
    field = lift(explicit_profile(Branch.MINUS, p, grid), p.k, pg)
    field.values[2, ring, 5] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any stencil sees the sample
        with pytest.raises(ConstraintViolated) as info:
            hm_residual(field, p)
    assert not info.value.max_deviation <= 1e-8


def test_hm_residual_working_memory_stays_below_one_and_a_half_fields():
    p = limit_params(k=2)
    grid = RadialGrid.uniform(p.R, 512)
    field = lift(explicit_profile(Branch.MINUS, p, grid), p.k, PolarGrid(grid, 512))
    tracemalloc.start()
    try:
        hm_residual(field, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * field.values.nbytes


def test_hm_residual_from_sampler_matches_field():
    p = limit_params(k=2)
    grid = RadialGrid.uniform(p.R, 64)
    pg = PolarGrid(grid, 64)
    # the escape solution sampled on the grid is a harmonic map up to truncation
    sampled = uniaxial_escape_components(grid.nodes[:, None], pg.phis[None, :], p)
    res = hm_residual(Field2D(pg, sampled), p)
    assert res.max_norm(r_min=0.1) < 5e-2


def test_minus_branch_minimality_surrogate(rng):
    # quadratic form 0.5 int |grad P|^2 + (lap v / v) |P|^2 with the
    # analytic weight lap(v-)/v- = -2 k^2 sin^2(psi-)/r^2 is nonnegative
    # for boundary-vanishing perturbations of the minimising branch
    p = limit_params()
    grid = RadialGrid.uniform(p.R, 256)
    pg = PolarGrid(grid, 128)
    psi = psi_of_branch(Branch.MINUS, p, grid).psi
    kk = float(p.k * p.k)
    kern = _GaussRings(pg, p)
    psi_g = (1.0 - GAUSS_XI) * psi[:-1, None] + GAUSS_XI * psi[1:, None]
    weight = -2.0 * kk * np.sin(psi_g) ** 2 * kern.inv_rg2

    for seed in range(20):
        pert = random_perturbation(pg, seed=seed, norm=1.0).values
        sums = _RingSums(kern.n)
        for lo, hi in _ring_blocks(pg.m, 0, kern.n):
            kern.add(sums, lo, hi, pert[:, lo:min(hi + 1, kern.n)])
        dir_term = kern.dirichlet(sums.rad, sums.dphi, sums.dphi_cross)
        total = dir_term + kern.integrate(sums.nodes, sums.cross, weight)
        assert total >= -1e-10


_GRID64 = RadialGrid.uniform(1.0, 64)


def _short_v_profile():
    """Rebind the ``v`` of an explicit profile on 65 nodes to 5 entries: a
    profile is frozen, so this raises ``FrozenInstanceError``."""
    prof = explicit_profile(Branch.MINUS, limit_params(), _GRID64)
    prof.v = prof.v[:5]
    return prof


_HARMONIC_ARGUMENT_CHECKS = {
    "explicit-arrays-uniaxial": (
        InvalidBranch, lambda: explicit_arrays("uniaxial", 2, 1.0, _GRID64.nodes)),
    "psi-grid-mismatch": (GridError, lambda: PsiProfile(_GRID64, np.zeros(10))),
    "psi-b2-nonzero": (
        InvalidParams, lambda: psi_of_branch(Branch.MINUS, limit_params(b2=0.3), _GRID64)),
    "psi-uniaxial": (
        InvalidBranch, lambda: psi_of_branch(Branch.UNIAXIAL_ESCAPE, limit_params(k=2), _GRID64)),
    "e0-wrong-type": (InvalidParams, lambda: e0_energy(np.zeros(65), limit_params())),
    "e0-v-reassigned": (
        FrozenInstanceError, lambda: e0_energy(_short_v_profile(), limit_params())),
    "first-integral-k-0": (
        InvalidParams,
        lambda: first_integral_defect(psi_of_branch(Branch.MINUS, limit_params(), _GRID64), 0)),
    "first-integral-k-float": (
        InvalidParams,
        lambda: first_integral_defect(psi_of_branch(Branch.MINUS, limit_params(), _GRID64), 1.0)),
}


@pytest.mark.parametrize("case", sorted(_HARMONIC_ARGUMENT_CHECKS))
def test_harmonic_argument_checks(case):
    exc, call = _HARMONIC_ARGUMENT_CHECKS[case]
    with pytest.raises(exc):
        call()
