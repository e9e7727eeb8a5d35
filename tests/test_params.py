import math
import types

import numpy as np
import pytest

import qdefect
from qdefect import InvalidParams, ModelParams
from qdefect.params import check_k, equilibrium_order_parameter


def test_s_plus_b2_zero():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=1)
    assert p.s_plus == pytest.approx(math.sqrt(6.0) / 2.0, rel=1e-15)
    assert p.s_plus**2 == pytest.approx(1.5, rel=1e-15)


def test_s_plus_b2_one():
    # b^4 + 24 a^2 c^2 = 25, so s_plus = (1 + 5) / 4
    assert equilibrium_order_parameter(1.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"a2": 0.0},
        {"a2": -1.0},
        {"c2": 0.0},
        {"b2": -0.5},
        {"R": 0.0},
        {"R": math.inf},
        {"L": -0.1},
        {"k": 0},
        {"a2": 1e300, "c2": 1e-300},  # s_plus^2 overflows
        {"L": 5e-324},  # 1/L overflows
        {"L": 3e-309},
        {"k": True},  # a bool is not an integer here
        {"k": 1.0},
        {"k": np.float64(2.0)},
        {"k": "2"},
        {"k": 2**62 + 1},
        {"a2": "1"},  # one real-number rule: strings and bools are not numbers here
        {"a2": True},
        {"b2": False},
        {"L": "0.1"},
        {"R": True},
        {"c2": 10**400},  # past the float range
    ],
)
def test_invalid_parameters_rejected(kwargs):
    base = dict(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=1)
    base.update(kwargs)
    with pytest.raises(InvalidParams):
        ModelParams(**base)


def test_numpy_integer_k_is_stored_as_int():
    for k in (np.int64(2), np.int32(-3)):
        p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=k)
        assert type(p.k) is int and p.k == k
    assert check_k(np.int64(-2**62)) == -2**62


def test_real_parameters_are_stored_as_float():
    p = ModelParams(a2=np.float64(2.0), b2=np.float32(0.5), c2=1, L=np.float64(0.1), R=2, k=1)
    for name in ("a2", "b2", "c2", "L", "R"):
        assert type(getattr(p, name)) is float
    assert (p.a2, p.b2, p.c2, p.L, p.R) == (2.0, 0.5, 1.0, 0.1, 2.0)


def test_public_names_are_pinned():
    # a new export has to be added here on purpose
    names = sorted(n for n, v in vars(qdefect).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == [
        "Branch", "CsvFormatError", "DirichletEnergy", "E0Result", "EnergyGapResult",
        "Field2D", "GridError", "InvalidParams", "ModelParams", "NonConvergence",
        "OdeResidual", "PolarGrid", "Profile", "PsiProfile", "QDefectError", "RadialGrid",
        "RenderSpec", "SecondVariationResult", "SolveReport", "ansatz_components",
        "ansatz_eigenvalues", "apply_boundary", "closed_form_dirichlet", "continuation_in_b2",
        "dirichlet_energy_2d", "e0_energy", "eigenvalue_chart_svg", "el_residual_2d",
        "energy_gap", "equilibrium_order_parameter", "explicit_profile",
        "first_integral_defect", "glyph_svg", "hm_residual", "ldg_energy_2d",
        "ldg_energy_spectral", "lift", "minimize", "ode_residual", "psi_of_branch",
        "random_perturbation", "read_profile_csv", "reduced_energy", "reduced_gradient",
        "second_variation", "uniaxial_escape_components", "write_profile_csv",
    ]


def test_boundary_values_and_updates():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=2)
    assert p.boundary_u == pytest.approx(p.s_plus / math.sqrt(2.0))
    assert p.boundary_v == pytest.approx(-p.s_plus / math.sqrt(6.0))
    assert p.limit_norm_sq == pytest.approx(2.0 / 3.0 * p.s_plus**2)
    q = p.with_updates(b2=1.0)
    assert q.s_plus == pytest.approx(1.5)
    assert q.k == 2 and q.L == p.L


def test_zero_l_is_symbolic_limit():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.0, R=1.0, k=1)
    assert p.L == 0.0


def test_smallest_l_has_a_finite_inverse():
    p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=1e-308, R=1.0, k=1)
    assert math.isfinite(1.0 / p.L)
