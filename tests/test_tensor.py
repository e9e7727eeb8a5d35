import math

import numpy as np
import pytest

from qdefect import InvalidParams, ModelParams
from qdefect.tensor import (
    ansatz_biaxiality,
    ansatz_components,
    ansatz_eigenvalues,
    biaxiality,
    bulk_density,
    components_to_matrix,
    deviatoric_square,
    eigen3,
    frame_escape_components,
    frame_fn_components,
    frob_dot,
    frob_sq,
    trace_cubed,
    F3_COMPONENTS,
)

SQ2 = math.sqrt(2.0)
SQ6 = math.sqrt(6.0)


def boundary_tensor(phi, p):
    """The boundary data ``s_plus (n x n - I/3)``: the ansatz at the rim amplitudes."""
    return ansatz_components(p.boundary_u, p.boundary_v, phi, p.k)


def jacobi_eigenvalues(a, sweeps=30):
    """Independent oracle: classical Jacobi rotations for symmetric 3x3."""
    a = np.array(a, dtype=float)
    for _ in range(sweeps):
        off = abs(a[0, 1]) + abs(a[0, 2]) + abs(a[1, 2])
        if off < 1e-15 * (1.0 + np.max(np.abs(np.diag(a)))):
            break
        for p in range(2):
            for q in range(p + 1, 3):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(3)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def random_components(rng, scale=1.0):
    return rng.standard_normal(5) * scale


def _sym(a, b):
    """``(a b + b a) / sqrt(2)`` of two unit vectors."""
    return (np.outer(a, b) + np.outer(b, a)) / SQ2


_E = np.eye(3)
# the coordinate basis, the one place the tests write it as matrices:
# F_3 = sqrt(3/2) (e3 e3 - I/3), E1 = (e1 e1 - e2 e2)/sqrt 2, E2..E4 = sym(ei, ej)
BASIS = np.array([
    math.sqrt(1.5) * (np.outer(_E[2], _E[2]) - _E / 3.0),
    (np.outer(_E[0], _E[0]) - np.outer(_E[1], _E[1])) / SQ2,
    _sym(_E[0], _E[1]),
    _sym(_E[0], _E[2]),
    _sym(_E[1], _E[2]),
])


def components(m):
    """The coordinates ``(5, ...)``, ``tr(m B)``, of symmetric traceless matrices ``(..., 3, 3)``."""
    return np.einsum("...ij,bji->b...", np.asarray(m, dtype=float), BASIS)


def ansatz_samples(rng, count, k=None):
    """``count`` draws of ``(u, v, phi, k)`` for single tensors, then one of
    ``(6, 7)`` arrays for a ``(5, 6, 7)`` field; ``k`` is drawn per tensor
    unless given."""
    for _ in range(count):
        u, v = rng.standard_normal(2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        yield u, v, phi, int(rng.integers(1, 5)) if k is None else k
    u, v = rng.standard_normal((2, 6, 7))
    yield u, v, rng.uniform(0.0, 2.0 * math.pi, (6, 7)), 3 if k is None else k


def as_matrix_scale(x):
    """A scalar or an array of per-tensor scalars, broadcast against ``(..., 3, 3)``."""
    return np.asarray(x)[..., None, None]


def norm(c):
    return math.sqrt(float(frob_sq(c)))


def beta(q):
    """Biaxiality of one tensor's components, from its invariants."""
    return float(biaxiality(frob_sq(q), trace_cubed(q)))


# ---------------------------------------------------------------------------
# frames and boundary data
# ---------------------------------------------------------------------------

def test_frame_fn_axis_aligned():
    q = components_to_matrix(frame_fn_components(0.0, 2))
    assert np.allclose(q, SQ2 * np.diag([0.5, -0.5, 0.0]), atol=1e-15)
    q = components_to_matrix(frame_fn_components(math.pi, 2))  # k/2 * phi = pi, so n = (-1, 0, 0)
    assert np.allclose(q, SQ2 * np.diag([0.5, -0.5, 0.0]), atol=1e-14)


def test_frame_fn_half_angle():
    # k=2, phi=pi/2 -> n = (0, 1, 0)
    q = components_to_matrix(frame_fn_components(math.pi / 2.0, 2))
    assert np.allclose(q, SQ2 * np.diag([-0.5, 0.5, 0.0]), atol=1e-15)


def test_frame_orthonormality_everywhere():
    # the coordinate basis is the matrices of BASIS, orthonormal under tr(AB)
    mats = components_to_matrix(np.eye(5))
    assert np.allclose(mats, BASIS, atol=1e-15)
    assert np.allclose(np.einsum("aij,bji->ab", mats, mats), np.eye(5), atol=1e-15)
    assert np.allclose(components(BASIS), np.eye(5), atol=1e-15)
    f3 = F3_COMPONENTS
    for k in (-4, -3, -2, -1, 1, 2, 3, 4):
        for phi in np.linspace(0.0, 2.0 * math.pi, 17):
            fn = frame_fn_components(phi, k)
            esc = frame_escape_components(phi, k)
            assert float(frob_sq(fn)) == pytest.approx(1.0, abs=1e-14)
            assert float(frob_dot(fn, f3)) == pytest.approx(0.0, abs=1e-14)
            assert float(frob_sq(esc)) == pytest.approx(1.0, abs=1e-14)
            assert abs(float(frob_dot(esc, fn))) + abs(float(frob_dot(esc, f3))) < 1e-14
            # matrix definitions: F_n = sqrt(2) (n n - I2/2), escape mode sym(n, e3)
            n = np.array([math.cos(0.5 * k * phi), math.sin(0.5 * k * phi), 0.0])
            fn_m = SQ2 * (np.outer(n, n) - np.diag([0.5, 0.5, 0.0]))
            assert np.allclose(components_to_matrix(fn), fn_m, atol=1e-15)
            assert np.allclose(components_to_matrix(esc), _sym(n, _E[2]), atol=1e-15)
    assert float(frob_sq(f3)) == pytest.approx(1.0, abs=1e-14)
    f3m = components_to_matrix(f3)
    assert np.allclose(f3m, np.diag([-1.0, -1.0, 2.0]) / SQ6, atol=1e-15)
    assert abs(np.trace(f3m)) < 1e-15


def test_frame_tensor_periodicity():
    # n x n flips sign of n after phi -> phi + 2pi/|k|, so the tensor repeats
    rng = np.random.default_rng(7)
    for k in (-4, -3, -2, -1, 1, 2, 3, 4):
        for phi in rng.uniform(0.0, 2.0 * math.pi, 5):
            period = 2.0 * math.pi / abs(k)
            a = frame_fn_components(phi, k)
            b = frame_fn_components(phi + period, k)
            c = frame_fn_components(phi + 2.0 * period, k)
            assert np.allclose(a, b, atol=1e-12)
            assert np.allclose(a, c, atol=1e-12)


def test_boundary_tensor_value_and_decomposition():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=2)
    q = boundary_tensor(0.0, p)
    expected = (SQ6 / 2.0) * np.diag([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
    assert np.allclose(components_to_matrix(q), expected, atol=1e-15)
    # decomposition route s+ (F_n/sqrt(2) - F_3/sqrt(6))
    for phi in np.linspace(0.0, 2 * math.pi, 9):
        direct = boundary_tensor(phi, p)
        frames = p.s_plus * (
            (1.0 / SQ2) * frame_fn_components(phi, p.k) - (1.0 / SQ6) * F3_COMPONENTS
        )
        assert np.max(np.abs(direct - frames)) < 1e-14
        # the matrix definition s+ (n n - I/3)
        n = np.array([math.cos(0.5 * p.k * phi), math.sin(0.5 * p.k * phi), 0.0])
        mat = p.s_plus * (np.outer(n, n) - np.eye(3) / 3.0)
        assert np.allclose(components_to_matrix(direct), mat, atol=1e-15)
        assert float(frob_sq(direct)) == pytest.approx(2.0 / 3.0 * p.s_plus**2, rel=1e-14)


# ---------------------------------------------------------------------------
# bulk potential
# ---------------------------------------------------------------------------

def test_bulk_energy_zero():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=1)
    assert float(bulk_density(np.zeros(5), p)) == 0.0


def test_bulk_energy_at_boundary_tensor():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=2)
    q = boundary_tensor(1.2, p)
    assert float(bulk_density(q, p)) == pytest.approx(-0.25, rel=1e-14)
    # direct matrix oracle
    m = components_to_matrix(q)
    f = -0.5 * np.trace(m @ m) + 0.25 * np.trace(m @ m) ** 2
    assert float(bulk_density(q, p)) == pytest.approx(float(f), rel=1e-13)


def _full_bulk_density(c, p):
    """``f(Q)`` with its cubic term always evaluated, ``b2 = 0`` included."""
    t = frob_sq(c)
    return -0.5 * p.a2 * t - (p.b2 / 3.0) * trace_cubed(c) + 0.25 * p.c2 * t * t


@pytest.mark.parametrize("b2", [0.0, 0.7])
def test_bulk_density_skips_the_cubic_term_bit_for_bit(b2):
    p = ModelParams(a2=1.3, b2=b2, c2=0.8, L=0.1, R=1.0, k=1)
    rng = np.random.default_rng(5)
    cases = [np.zeros((5, 3)), rng.standard_normal((5, 50, 7))]
    cases += [s * rng.standard_normal((5, 40)) for s in (1e-150, 1e76, 1e100, 1e150)]
    for c in cases:
        with np.errstate(over="ignore", invalid="ignore"):  # |Q|^4 overflows from |Q| ~ 1e77
            f, full = bulk_density(c, p), _full_bulk_density(c, p)
        if b2 == 0.0 and np.max(np.abs(c)) > 1e120:
            # tr(Q^3) overflows too: 0 * inf makes the full formula NaN, where
            # the skip keeps the quartic's +inf
            assert np.all(np.isnan(full)) and np.all(np.isposinf(f))
        else:
            assert np.array_equal(f, full, equal_nan=True)


def test_s_plus_minimizes_uniaxial_bulk():
    p = ModelParams(a2=1.0, b2=1.0, c2=1.0, L=0.1, R=1.0, k=1)
    n = np.array([1.0, 0.0, 0.0])
    uni = np.outer(n, n) - np.eye(3) / 3.0
    svals = np.linspace(0.1, 3.0, 581)
    fvals = [float(bulk_density(components(s * uni), p)) for s in svals]
    s_best = svals[int(np.argmin(fvals))]
    assert s_best == pytest.approx(1.5, abs=svals[1] - svals[0])
    f_at_splus = float(bulk_density(components(p.s_plus * uni), p))
    assert f_at_splus <= min(fvals) + 1e-12


# ---------------------------------------------------------------------------
# eigen-analysis
# ---------------------------------------------------------------------------

def test_eigen3_diagonal():
    lam, vecs = eigen3(components(np.diag([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])))
    assert np.allclose(lam, [-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)


def test_eigen3_zero():
    lam, vecs = eigen3(np.zeros(5))
    assert np.all(lam == 0.0)
    assert np.allclose(vecs, np.eye(3))


def test_ansatz_components_broadcasts_every_argument():
    # v alone carries the leading axis: the result takes the full broadcast shape
    v = np.linspace(-1.0, 0.0, 7)[:, None]
    phi = np.linspace(0.0, 6.0, 5)
    got = ansatz_components(0.4, v, phi, 3)
    assert got.shape == (5, 7, 5)
    ref = 0.4 * frame_fn_components(phi, 3)[:, None, :] + v * F3_COMPONENTS[:, None, None]
    assert np.array_equal(got, ref)


def test_eigen3_ansatz_formula():
    rng = np.random.default_rng(3)
    for _ in range(200):
        u, v = rng.standard_normal(2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        q = ansatz_components(u, v, phi, 3)
        lam, _ = eigen3(q)
        expected = np.sort(ansatz_eigenvalues(u, v))
        assert np.max(np.abs(lam - expected)) < 1e-12 * max(1.0, norm(q))


def test_eigen3_against_jacobi_oracle(rng):
    for _ in range(1000):
        q = random_components(rng, scale=rng.uniform(0.1, 3.0))
        lam, vecs = eigen3(q)
        a = components_to_matrix(q)
        ref = jacobi_eigenvalues(a)
        scale = max(1.0, norm(q))
        assert np.max(np.abs(lam - ref)) < 1e-10 * scale
        # eigen-residual and orthonormality
        for i in range(3):
            res = a @ vecs[:, i] - lam[i] * vecs[:, i]
            assert np.linalg.norm(res) < 1e-12 * max(norm(q), 1e-30)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
        assert abs(lam.sum()) < 1e-12 * scale


def test_eigen3_near_degenerate_residual(rng):
    for _ in range(200):
        s = rng.uniform(0.5, 2.0)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        base = s * (np.outer(n, n) - np.eye(3) / 3.0)
        pert = rng.standard_normal((3, 3)) * 1e-9
        pert = 0.5 * (pert + pert.T)
        pert -= np.trace(pert) / 3.0 * np.eye(3)
        q = components(base + pert)
        lam, vecs = eigen3(q)
        a = components_to_matrix(q)
        for i in range(3):
            res = a @ vecs[:, i] - lam[i] * vecs[:, i]
            assert np.linalg.norm(res) < 1e-8 * norm(q)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_eigen3_deterministic_on_degenerate():
    q = components(np.diag([1.0, 1.0, -2.0]) / 3.0)
    lam1, v1 = eigen3(q)
    lam2, v2 = eigen3(q)
    assert np.array_equal(lam1, lam2)
    assert np.array_equal(v1, v2)


# ---------------------------------------------------------------------------
# biaxiality
# ---------------------------------------------------------------------------

def test_biaxiality_uniaxial_is_zero():
    n = np.array([0.6, 0.8, 0.0])
    q = components(np.outer(n, n) - np.eye(3) / 3.0)
    assert beta(q) == pytest.approx(0.0, abs=1e-12)


def test_biaxiality_maximal():
    q = components(np.diag([0.7, -0.7, 0.0]))  # eigenvalues (t, -t, 0)
    assert beta(q) == pytest.approx(1.0, abs=1e-13)


def test_biaxiality_zero_convention():
    assert beta(np.zeros(5)) == 0.0
    assert beta(np.full(5, 1e-16)) == 0.0


def test_ansatz_biaxiality_matches_the_component_invariants():
    # the closed-form invariants of u F_n + v F_3 against frob_sq/trace_cubed
    # of its components, on the core (u = 0), at the origin and on both
    # sides of the |Q|^2 <= 1e-28 guard (both routes give exactly 0 below it)
    rng = np.random.default_rng(14)
    n = 1200
    u, v = rng.standard_normal((2, n)) * rng.uniform(0.05, 3.0, n)
    u[:100] = 0.0
    u[100] = v[100] = 0.0
    angle = rng.uniform(0.0, 2.0 * math.pi, 300)
    nsq = 1e-28 * np.repeat([0.25, 0.5, 0.99, 1.01, 2.0, 4.0], 50)
    u[200:500] = np.sqrt(nsq) * np.cos(angle)
    v[200:500] = np.sqrt(nsq) * np.sin(angle)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    k = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], n)
    c = ansatz_components(u, v, phi, k)
    closed = ansatz_biaxiality(u, v)
    reference = biaxiality(frob_sq(c), trace_cubed(c))
    assert np.max(np.abs(closed - reference)) < 1e-12
    below = nsq < 1e-28
    assert np.all(closed[200:500][below] == 0.0) and np.all(reference[200:500][below] == 0.0)
    assert np.all(closed[200:500][~below] > 0.0)
    assert np.all(closed[:101] < 1e-12)  # the core tensor v F_3 is uniaxial


def test_ansatz_biaxiality_is_scale_free_without_overflow():
    # beta is homogeneous of degree 0 in (u, v): a power-of-two scale gives
    # the same bits, a decimal one moves only the rounding of s u and s v,
    # and |Y| ~ 1e300 overflows nowhere (tr Y^3 ~ 1e900 is not a float)
    rng = np.random.default_rng(18)
    u, v = rng.standard_normal((2, 400))
    u[:20] = 0.0
    beta = ansatz_biaxiality(u, v)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for e in (-40, 1, 500, 996):
            assert np.array_equal(ansatz_biaxiality(2.0**e * u, 2.0**e * v), beta)
        for s in (1e-10, 3.0, 1e10, 1e100, 1e150, 1e300 / 8.0):
            assert np.max(np.abs(ansatz_biaxiality(s * u, s * v) - beta)) <= 16 * np.finfo(float).eps


def test_biaxiality_of_raw_invariants_is_scale_free_without_overflow():
    # beta(c^2 nsq, c^3 t3) = beta(nsq, t3) for |Q| = c from 1e-10 to 1e150;
    # tr(Q^3) of a unit traceless tensor lies in [-1/sqrt 6, 1/sqrt 6], and
    # c^3 t3 is a float only while it stays below ~1e308, so large c keep the
    # strongly biaxial (small t3) cases only
    t3 = np.concatenate([np.linspace(-1.0, 1.0, 201), 10.0 ** -np.arange(1.0, 160.0)]) / SQ6
    beta = biaxiality(np.ones_like(t3), t3)
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        for e in range(-10, 151, 5):
            c = 10.0**e
            keep = np.abs(t3) <= 1e300 / c / c / c
            scaled = biaxiality(np.full(int(keep.sum()), c * c), t3[keep] * c * c * c)
            assert np.max(np.abs(scaled - beta[keep])) <= 1e-12
    assert biaxiality(1e110, 1e160) == pytest.approx(1.0 - 6.0 * (1e160 / 1e165) ** 2, abs=1e-15)


# ---------------------------------------------------------------------------
# structural invariants on random tensors
# ---------------------------------------------------------------------------

def test_reconstruction_symmetric_traceless_norm(rng):
    for _ in range(500):
        q = random_components(rng)
        m = components_to_matrix(q)
        assert np.array_equal(m, m.T)
        assert abs(np.trace(m)) <= 4.0 * np.spacing(np.max(np.abs(m)))
        lam, _ = eigen3(q)
        assert float(frob_sq(q)) == pytest.approx(float(np.sum(lam**2)), rel=1e-12)


def _trace(m):
    """Traces of matrices ``(..., 3, 3)``."""
    return np.trace(m, axis1=-2, axis2=-1)


# each identity below holds on single tensors and on one (5, N, M) field

def test_cubic_trace_identity(rng):
    # tr(Y^3) = v (v^2 - 3 u^2) / sqrt(6) for the two-mode field
    for u, v, phi, k in ansatz_samples(rng, 300):
        m = components_to_matrix(ansatz_components(u, v, phi, k))
        direct = _trace(m @ m @ m)
        assert direct == pytest.approx(v * (v * v - 3.0 * u * u) / SQ6, abs=1e-12)


def test_square_identity(rng):
    # Y^2 = -sqrt(2/3) u v F_n + (v^2 - u^2)/sqrt(6) F_3 + |Y|^2 I / 3
    for u, v, phi, k in ansatz_samples(rng, 300):
        fn = frame_fn_components(phi, k)
        y = components_to_matrix(ansatz_components(u, v, phi, k))
        fn_m = components_to_matrix(fn)
        f3_m = components_to_matrix(F3_COMPONENTS)
        rhs = (
            -math.sqrt(2.0 / 3.0) * as_matrix_scale(u * v) * fn_m
            + as_matrix_scale((v * v - u * u) / SQ6) * f3_m
            + as_matrix_scale((u * u + v * v) / 3.0) * np.eye(3)
        )
        assert np.max(np.abs(y @ y - rhs)) < 1e-12


def test_ansatz_norm_identity(rng):
    for u, v, phi, k in ansatz_samples(rng, 100, k=2):
        c = ansatz_components(u, v, phi, k)
        assert frob_sq(c) == pytest.approx(u * u + v * v, rel=1e-13)


def test_deviatoric_square_matches_matrix_route(rng):
    # numpy matrix algebra on random tensors: the traceless part of Q^2 and tr(Q^3)
    for q in [random_components(rng) for _ in range(200)] + [rng.standard_normal((5, 6, 7))]:
        m = components_to_matrix(q)
        ref = m @ m - as_matrix_scale(_trace(m @ m) / 3.0) * np.eye(3)
        got = components_to_matrix(deviatoric_square(q))
        assert np.max(np.abs(got - ref)) < 1e-13
        assert np.max(np.abs(deviatoric_square(q) - components(ref))) < 1e-13
        assert trace_cubed(q) == pytest.approx(_trace(m @ m @ m), abs=1e-13)


def test_frob_dot_matches_trace(rng):
    pairs = [(random_components(rng), random_components(rng)) for _ in range(100)]
    for a, b in pairs + [tuple(rng.standard_normal((2, 5, 6, 7)))]:
        ref = _trace(components_to_matrix(a) @ components_to_matrix(b))
        assert frob_dot(a, b) == pytest.approx(ref, rel=1e-13)


def test_frame_coeffs_roundtrip(rng):
    # (u, v) -> u F_n + v F_3 -> projections onto the frame give (u, v) back
    for u, v, phi, k in ansatz_samples(rng, 100):
        q = ansatz_components(u, v, phi, k)
        assert frob_sq(q) == pytest.approx(u * u + v * v, rel=1e-13)
        assert frob_dot(q, frame_fn_components(phi, k)) == pytest.approx(u, abs=1e-13)
        assert frob_dot(q, F3_COMPONENTS) == pytest.approx(v, abs=1e-13)


@pytest.mark.parametrize(
    "bad",
    [
        # the inputs of the eigen3 tests above, in a shape or with a value
        # that is not one tensor's five finite components
        np.diag([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]),
        np.zeros((1, 5)),
        np.zeros(4),
        np.zeros(6),
        np.array(0.0),
        np.array([0.7, 0.0, 0.0, -0.7, np.nan]),
        np.array([0.7, np.inf, 0.0, -0.7, 0.0]),
        ["q11", "q12", "q13", "q22", "q23"],
        None,
    ],
    ids=["matrix", "batched", "short", "long", "scalar", "nan", "inf", "strings", "none"],
)
def test_eigen3_rejects_anything_but_finite_five_components(bad):
    with pytest.raises(InvalidParams):
        eigen3(bad)
