import math

import pytest

from qdefect import InvalidParams, ModelParams
from qdefect.params import equilibrium_order_parameter


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
    ],
)
def test_invalid_parameters_rejected(kwargs):
    base = dict(a2=1.0, b2=0.0, c2=1.0, L=0.1, R=1.0, k=1)
    base.update(kwargs)
    with pytest.raises(InvalidParams):
        ModelParams(**base)


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
