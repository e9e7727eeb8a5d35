import numpy as np
import pytest

from qdefect import GridError, ModelParams, PolarGrid, RadialGrid
from qdefect.grid import three_point_derivatives
from qdefect.reduced import _P1Gauss, _dirichlet

# the limit problem's parameters: L = 0, so a kernel must never form wg / L
LIMIT = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.0, R=1.0, k=1)


@pytest.mark.parametrize("ctor", [RadialGrid.uniform, RadialGrid.graded])
@pytest.mark.parametrize("n", [16, 100, 513])
def test_weights_integrate_r_exactly(ctor, n):
    g = ctor(2.5, n)
    target = 2.5**2 / 2.0
    assert abs(np.sum(g.weights) - target) < 1e-14 * target
    assert abs(np.sum(g.node_masses) - target) < 1e-14 * target


def test_weights_integrate_r_cubed_second_order():
    errs = []
    for n in (64, 128, 256):
        g = RadialGrid.uniform(1.0, n)
        errs.append(abs(np.sum(g.weights * g.nodes**2) - 0.25))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_minimum_resolution_enforced():
    RadialGrid.uniform(1.0, 16)
    with pytest.raises(GridError):
        RadialGrid.uniform(1.0, 15)
    with pytest.raises(GridError):
        RadialGrid(np.linspace(0.1, 1.0, 65))  # must start at 0
    with pytest.raises(GridError):
        RadialGrid(np.zeros(65))


def test_graded_first_node_and_smoothness():
    g = RadialGrid.graded(2.0, 256)
    assert g.nodes[0] == 0.0
    assert g.nodes[1] == pytest.approx(2.0e-3, rel=1e-12)
    assert g.nodes[-1] == 2.0
    ratios = g.h[1:] / g.h[:-1]
    assert np.all(ratios > 0.9) and np.all(ratios < 1.6)


def test_for_defect_selects_grading():
    uniform = RadialGrid.uniform(1.0, 256)
    graded = RadialGrid.graded(1.0, 256)
    assert not uniform.same_nodes(graded)
    for k, expected in ((1, uniform), (-1, uniform), (2, graded), (-3, graded)):
        assert np.array_equal(RadialGrid.for_defect(1.0, 256, k).nodes, expected.nodes)


@pytest.mark.parametrize("k", [2, -3])
def test_for_defect_grading_ends_at_n_1000(k):
    # the power law puts the first node at 1e-3 R below n = 1000 and is
    # the uniform grid from there on
    for n in (16, 100, 256, 999):
        assert RadialGrid.for_defect(2.0, n, k).nodes[1] == pytest.approx(2.0e-3, rel=1e-12)
    for n in (1024, 2048, 4096):
        assert np.array_equal(RadialGrid.for_defect(1.0, n, k).nodes,
                              RadialGrid.uniform(1.0, n).nodes)


def test_gauss_points_integrate_r():
    g = RadialGrid.graded(1.0, 64)
    wg = _P1Gauss(g, LIMIT).wg
    assert np.sum(wg) == pytest.approx(0.5, rel=1e-14)
    # per-segment sums reproduce the exact segment integral of r dr
    seg = 0.5 * (g.nodes[1:] ** 2 - g.nodes[:-1] ** 2)
    assert np.max(np.abs(wg.sum(axis=1) - seg)) < 1e-16 + 1e-14 * np.max(seg)


def test_interpolation_is_linear():
    g = RadialGrid.uniform(1.0, 32)
    q = _P1Gauss(g, LIMIT)
    rg = np.sqrt(q.rg2)
    vals = 3.0 * g.nodes + 1.0
    interp = q.at_gauss(vals)
    assert np.max(np.abs(interp - (3.0 * rg + 1.0))) < 1e-14
    # at L = 0 a point and its Dirichlet sum leave wg / L unformed: the
    # division would raise the suite's RuntimeWarning as an error
    pt = q.point(vals, -vals)
    assert np.array_equal(pt.ug, interp) and np.array_equal(pt.vg, -interp)
    assert np.all(pt.du == 3.0) and np.all(pt.dv == -3.0)
    assert np.isfinite(_dirichlet(q, pt.du * pt.du + pt.dv * pt.dv, pt.uu))
    assert "wl" not in q.__dict__


def test_polar_grid_validation():
    g = RadialGrid.uniform(1.0, 32)
    pg = PolarGrid(g, 64)
    assert pg.dphi == pytest.approx(2.0 * np.pi / 64.0, rel=1e-16)
    assert pg.phis.size == 64 and pg.phis[0] == 0.0
    with pytest.raises(GridError):
        PolarGrid(g, 63)
    with pytest.raises(GridError):
        PolarGrid(g, 62)  # even but below the floor
    # one integer rule: NumPy integers pass; floats and bools do not
    PolarGrid(g, np.int64(64))
    for bad in (64.0, True):
        with pytest.raises(GridError):
            PolarGrid(g, bad)


def test_radial_grid_owns_read_only_nodes():
    a = np.linspace(0.0, 1.0, 33)
    g = RadialGrid(a)
    a[5] = 2.0  # the caller's array is not the grid's
    assert np.array_equal(g.nodes, np.linspace(0.0, 1.0, 33))
    with pytest.raises(ValueError):
        g.nodes[5] = 0.0


def test_three_point_derivatives_exact_on_quadratics_and_columnwise():
    r = RadialGrid.graded(1.0, 40).nodes
    # radius on axis 1, as in a (5, rings, M) field block
    y = np.stack([3.0 - 2.0 * r + 0.5 * r**2, r**2])[:, :, None]  # (2, N+1, 1)
    d1, d2 = three_point_derivatives(y, r, 1)
    ri = r[1:-1]
    assert np.allclose(d1[:, :, 0], np.stack([-2.0 + ri, 2.0 * ri]), rtol=0, atol=1e-9)
    assert np.allclose(d2[:, :, 0], [[1.0], [2.0]], rtol=0, atol=1e-6)
    # the other axes only broadcast: each column equals its own 1D call bit for bit
    for j in range(2):
        c1, c2 = three_point_derivatives(y[j, :, 0], r, 0)
        assert np.array_equal(d1[j, :, 0], c1) and np.array_equal(d2[j, :, 0], c2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RadialGrid(np.append(np.linspace(0.0, 1.0, 17), np.inf)),
        lambda: RadialGrid.uniform(0.0, 32),
        lambda: RadialGrid.graded(-1.0, 32),
        lambda: RadialGrid(np.where(np.arange(33) == 5, np.nan, np.linspace(0.0, 1.0, 33))),
        lambda: RadialGrid.uniform(1, 64.0),
        lambda: RadialGrid.graded(1.0, 64.0),
        lambda: RadialGrid.graded(1.0, 1),  # gamma = ln 1000 / ln n would divide by 0
    ],
    ids=["infinite-radius", "uniform-radius-0", "graded-radius-negative", "nan-node",
         "uniform-n-float", "graded-n-float", "graded-n-1"],
)
def test_grid_argument_checks(make):
    with pytest.raises(GridError):
        make()
