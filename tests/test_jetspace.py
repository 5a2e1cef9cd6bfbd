import math

import numpy as np
import pytest

from hopmp.dynamics import ChainBlock, NormalFormDynamics
from hopmp.errors import InsufficientJetOrder
from hopmp.jetspace import (
    AnalyticCurve,
    DerivedField,
    JetField,
    JetPoint,
    ScalarJetField,
    audit_actual_order,
    coordinate_field,
    finite_diff_partial,
    iterated_total_derivative,
    total_derivative,
)
from hopmp.problem import _PartialField
from hopmp.problems import _LeibnizAdjointTop


def make_point(t=0.5, blocks=None, dim=2, order=4):
    if blocks is None:
        rng = np.random.default_rng(7)
        blocks = rng.normal(size=(order + 1, dim))
    return JetPoint(t, blocks)


def test_jetpoint_immutable():
    p = make_point()
    with pytest.raises(AttributeError):
        p.t = 1.0
    with pytest.raises(ValueError):
        p.blocks[0, 0] = 3.0


def test_total_derivative_of_coordinate_function():
    # d/dt of q^i_(beta) is q^i_(beta+1), exactly
    p = make_point(order=5)
    for i in range(p.dim):
        for beta in range(4):
            f = coordinate_field(i, beta)
            assert total_derivative(f, p, [0.0]) == p.coord(i, beta + 1)


def test_total_derivative_of_time_coordinate():
    f = ScalarJetField(lambda p, u: p.t, actual_order=0,
                       partials={"t": lambda p, u: 1.0}, name="t")
    assert total_derivative(f, make_point(), [0.0]) == pytest.approx(1.0)


def test_total_derivative_chain_rule_square():
    # f = (q^0_(0))^2 at q=3, qdot=2 gives 12
    blocks = np.zeros((3, 1))
    blocks[0, 0] = 3.0
    blocks[1, 0] = 2.0
    p = JetPoint(0.0, blocks)
    f = ScalarJetField(lambda pt, u: pt.coord(0, 0) ** 2, actual_order=0)
    assert total_derivative(f, p, [0.0]) == pytest.approx(12.0, abs=1e-9)


def test_total_derivative_linearity():
    rng = np.random.default_rng(3)
    p = make_point(order=4)
    f = ScalarJetField(lambda pt, u: math.sin(pt.coord(0, 1)) * pt.coord(1, 0),
                       actual_order=1)
    g = ScalarJetField(lambda pt, u: pt.coord(0, 2) ** 2 + pt.t, actual_order=2)
    a, b = 1.7, -0.4

    def combo(pt, u):
        return a * f.evaluator(pt, u) + b * g.evaluator(pt, u)

    h = ScalarJetField(combo, actual_order=2)
    lhs = total_derivative(h, p, [0.0])
    rhs = a * total_derivative(f, p, [0.0]) + b * total_derivative(g, p, [0.0])
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_insufficient_jet_order_raises():
    p = make_point(order=2)
    f = ScalarJetField(lambda pt, u: pt.coord(0, 2), actual_order=2)
    with pytest.raises(InsufficientJetOrder):
        total_derivative(f, p, [0.0])


def test_finite_diff_partial_linear_exact():
    p = make_point()
    f = coordinate_field(0, 0)
    for step in (1e-3, 1e-5, 1e-7):
        assert finite_diff_partial(f, p, [0.0], ("q", 0, 0), step) == pytest.approx(1.0)


def test_finite_diff_partial_quadratic():
    blocks = np.zeros((2, 1))
    blocks[0, 0] = 1.0
    p = JetPoint(0.0, blocks)
    f = ScalarJetField(lambda pt, u: pt.coord(0, 0) ** 2, actual_order=0)
    val = finite_diff_partial(f, p, [0.0], ("q", 0, 0), 1e-5)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_finite_diff_partial_sine_against_cosine():
    # oracle: d sin(x)/dx = cos(x); at x=0 the answer is 1
    blocks = np.zeros((1, 1))
    p = JetPoint(0.0, blocks)
    f = ScalarJetField(lambda pt, u: math.sin(pt.coord(0, 0)), actual_order=0)
    val = finite_diff_partial(f, p, [0.0], ("q", 0, 0), 1e-5)
    assert val == pytest.approx(math.cos(0.0), abs=1e-10)


def test_control_partial_direction():
    f = ScalarJetField(lambda pt, u: 3.0 * u[0] ** 2, actual_order=0)
    p = make_point()
    val = finite_diff_partial(f, p, [2.0], ("u", 0), 1e-6)
    assert val == pytest.approx(12.0, abs=1e-6)


def test_iterated_total_derivative_with_control_chain():
    # f = u * q_(0); along a curve, d/dt f = udot q_(0) + u q_(1)
    f = ScalarJetField(
        lambda pt, u: u[0] * pt.coord(0, 0),
        actual_order=0,
        partials={("q", 0, 0): lambda pt, u: u[0], ("u", 0): lambda pt, u: pt.coord(0, 0)},
    )
    df = iterated_total_derivative(f, 1)
    blocks = np.array([[2.0], [5.0], [0.0]])
    p = JetPoint(0.0, blocks)
    ujet = np.array([[3.0], [7.0]])  # u=3, udot=7
    assert df.value_uj(p, ujet) == pytest.approx(7.0 * 2.0 + 3.0 * 5.0, rel=1e-9)


def test_second_total_derivative_of_linear_field_exact():
    f = coordinate_field(0, 0)
    d2 = iterated_total_derivative(f, 2)
    blocks = np.array([[1.0], [2.0], [3.0], [4.0]])
    p = JetPoint(0.0, blocks)
    ujet = np.zeros((3, 1))
    assert d2.value_uj(p, ujet) == pytest.approx(3.0, abs=1e-8)


def test_audit_actual_order_detects_deep_reads():
    rng = np.random.default_rng(11)
    p = make_point(order=5)
    honest = ScalarJetField(lambda pt, u: pt.coord(0, 1) ** 2, actual_order=1)
    liar = ScalarJetField(lambda pt, u: pt.coord(0, 3), actual_order=1)
    assert audit_actual_order(honest, p, [0.0], rng)
    assert not audit_actual_order(liar, p, [0.0], rng)


def test_analytic_curve_jets():
    curve = AnalyticCurve([[math.sin, math.cos, lambda t: -math.sin(t)]])
    j = curve.jet(math.pi / 2, 2)
    assert j.coord(0, 0) == pytest.approx(1.0)
    assert j.coord(0, 1) == pytest.approx(0.0, abs=1e-15)
    assert j.coord(0, 2) == pytest.approx(-1.0)


class _ScaledSquare(JetField):
    """u * (q^0)^2, written against the bare field protocol."""

    actual_order = 0
    reads = {0: 0}

    def value_uj(self, pt, ujet):
        return ujet[0, 0] * pt.coord(0, 0) ** 2


def test_bare_jet_field_drives_jets_and_total_derivative():
    # x'' = u x^2: x''' = 2 u x x' + u' x^2 along the flow
    top = _ScaledSquare()
    dyn = NormalFormDynamics([ChainBlock("x", 2, top)])
    x, xd, u, ud = 0.7, -1.3, 0.4, 2.5
    jet = dyn.jets_at(0.2, np.array([x, xd]), np.array([[u], [ud]]), 3)
    expected = [x, xd, u * x ** 2, 2 * u * x * xd + ud * x ** 2]
    assert jet.blocks[:, 0] == pytest.approx(expected, rel=1e-8)

    p = JetPoint(0.2, [[x], [xd]])
    assert top.value(p, [u]) == u * x ** 2
    assert top.partial(p, [u], ("q", 0, 0)) == pytest.approx(2 * u * x, rel=1e-8)
    assert total_derivative(top, p, [u]) == pytest.approx(2 * u * x * xd, rel=1e-8)

    # the derived and partial fields inherit the protocol instead of copying it
    for cls in (DerivedField, _PartialField, _LeibnizAdjointTop):
        assert not {"value", "partial", "partial_uj"} & set(vars(cls)), cls
    # their read depths are fixed at construction, in ``reads``
    for cls in (DerivedField, _PartialField):
        assert "read_depth" not in vars(cls), cls
