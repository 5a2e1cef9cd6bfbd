import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import Polynomial

from hopmp.dynamics import ChainBlock, NormalFormDynamics
from hopmp.errors import InsufficientJetOrder, OrderUnavailable
from hopmp.jetspace import (
    DerivedField,
    JetField,
    JetPoint,
    ScalarJetField,
    TaylorSeries,
    audit_actual_order,
    finite_diff_partial,
    total_derivative,
)
from hopmp.problem import _PartialField
from hopmp.problems import _LeibnizAdjointTop
from tests_support import AnalyticCurve, coordinate_field


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
    # the constructor copies what it is given; the points the evaluation
    # plan makes on its own arrays are read-only too
    source = np.ones((3, 2))
    q = JetPoint(0.5, source)
    source[0, 0] = 7.0
    assert q.blocks[0, 0] == 1.0 and not np.shares_memory(q.blocks, source)
    batched = JetPoint(np.array([0.1, 0.2]), np.ones((3, 2, 2)))
    for view in (batched.node(1), JetPoint._wrap(0.3, np.ones((3, 2)))):
        with pytest.raises(ValueError):
            view.blocks[0, 0] = 3.0
    assert np.shares_memory(batched.node(1).blocks, batched.blocks)


def test_total_derivative_of_coordinate_function():
    # d/dt of q^i_(beta) is q^i_(beta+1), exactly
    p = make_point(order=5)
    for i in range(p.dim):
        for beta in range(4):
            f = coordinate_field(i, beta)
            assert total_derivative(f, p, [0.0]) == p.coord(i, beta + 1)


def test_total_derivative_of_time_coordinate():
    f = ScalarJetField(lambda p, u: p.t, actual_order=0, name="t")
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
    f = ScalarJetField(lambda pt, u: np.sin(pt.coord(0, 1)) * pt.coord(1, 0),
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


def test_default_partials_are_exact():
    # no analytic partials: one evaluation on a dual number gives each one
    p = make_point(order=2)
    f = ScalarJetField(
        lambda pt, u: np.sin(pt.coord(0, 1)) * pt.coord(1, 0) * u[0] ** 2
        + pt.t * pt.coord(0, 0), actual_order=1)
    x0, x1, y0, u = p.coord(0, 0), p.coord(0, 1), p.coord(1, 0), 0.7
    assert f.partial(p, [u], ("q", 0, 1)) == pytest.approx(np.cos(x1) * y0 * u ** 2, rel=1e-15)
    assert f.partial(p, [u], ("q", 1, 0)) == pytest.approx(np.sin(x1) * u ** 2, rel=1e-15)
    assert f.partial(p, [u], ("q", 0, 0)) == p.t
    assert f.partial(p, [u], "t") == x0
    assert f.partial(p, [u], ("u", 0)) == pytest.approx(2 * u * np.sin(x1) * y0, rel=1e-15)
    assert f.partial(p, [u], ("q", 1, 2)) == 0.0   # beyond the read depth


def test_default_partials_on_series_points_are_exact():
    # inside a derived field the partial is taken on the series view of the
    # jet, and the dual number nests inside its series
    c = ScalarJetField(lambda pt, u: np.sin(pt.coord(0, 1)) * pt.t, actual_order=1,
                       reads={0: 1})
    # d/dx' of dc/dt = cos(x') x'' t + sin(x')
    g = ScalarJetField(lambda pt, u: np.cos(pt.coord(0, 1))
                       - np.sin(pt.coord(0, 1)) * pt.coord(0, 2) * pt.t,
                       actual_order=2, reads={0: 2})
    p = make_point(order=5, dim=1)
    for k in range(3):
        dual = DerivedField(_PartialField(DerivedField(c, 1), ("q", 0, 1)), k)
        assert dual.value(p, [0.0]) == pytest.approx(DerivedField(g, k).value(p, [0.0]),
                                                     rel=1e-13), k


def test_field_refusing_dual_numbers_is_refused():
    # math.sin takes no dual number and no series, so the partial along x
    # and the total derivative raise OrderUnavailable naming the field: at
    # one node, and on a 9-node grid after its node-by-node pass.  The
    # field's values still evaluate, and along u the dual number never meets
    # math.sin, so that partial stays exact.
    calls = []

    def evaluator(pt, u):
        calls.append(type(pt.coord(0, 0)))
        return math.sin(pt.coord(0, 0)) * u[0]

    f = ScalarJetField(evaluator, actual_order=0, name="math-sine")
    p = make_point(order=1, dim=1)
    x = p.coord(0, 0)
    xs = x + np.linspace(-1.0, 1.0, 9)
    grid = JetPoint(0.5, np.stack([np.full((1, 9), xs), np.ones((1, 9))]))
    with pytest.raises(OrderUnavailable, match=r"math-sine: .*\('q', 0, 0\)"):
        f.partial(p, [0.5], ("q", 0, 0))
    calls.clear()
    with pytest.raises(OrderUnavailable, match=r"math-sine: .*\('q', 0, 0\)"):
        f.partial(grid, np.full((1, 9), 0.5), ("q", 0, 0))
    assert calls == [TaylorSeries, TaylorSeries]   # the grid's dual number, then node 0's
    with pytest.raises(OrderUnavailable, match=r"D\^1\(math-sine\)"):
        DerivedField(f, 1).value(make_point(order=2, dim=1), [[0.5], [1.0]])
    assert f.value(p, [0.5]) == 0.5 * math.sin(x)
    np.testing.assert_array_equal(f.value(grid, np.full((1, 9), 0.5)),
                                  [0.5 * math.sin(v) for v in xs])
    assert f.partial(p, [0.5], ("u", 0)) == math.sin(x)


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
    f = ScalarJetField(lambda pt, u: u[0] * pt.coord(0, 0), actual_order=0)
    df = DerivedField(f, 1)
    blocks = np.array([[2.0], [5.0], [0.0]])
    p = JetPoint(0.0, blocks)
    ujet = np.array([[3.0], [7.0]])  # u=3, udot=7
    assert df.value_uj(p, ujet) == pytest.approx(7.0 * 2.0 + 3.0 * 5.0, rel=1e-9)


def test_second_total_derivative_of_linear_field_exact():
    f = coordinate_field(0, 0)
    d2 = DerivedField(f, 2)
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


# -- the series path against the chain-rule reference -------------------------

_COORDS = [("q", 0, 0), ("q", 0, 1), ("q", 1, 0), ("q", 1, 1), ("q", 1, 2)]
_LEAVES = (st.sampled_from([("t",), ("u", 0)] + _COORDS)
           | st.floats(-2.0, 2.0).map(lambda c: ("c", c)))


def _positive(e):
    """2 + e^2: a denominator, logarithm or negative-power argument >= 2."""
    return ("+", ("c", 2.0), ("*", e, e))


_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: (st.tuples(st.sampled_from(["+", "-", "*"]), inner, inner)
                   | st.tuples(st.just("**"), inner, st.integers(0, 3))
                   | st.tuples(st.just("/"), inner, inner.map(_positive))
                   | st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner)
                   | st.tuples(st.sampled_from(["log", "sqrt", "**-1", "**-2"]),
                               inner.map(_positive))),
    max_leaves=8,
)
# on a series numpy calls the series' methods of these names
_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
          "**-1": lambda x: x ** -1, "**-2": lambda x: x ** -2}
_EXPONENTS = {"sqrt": 0.5, "**-1": -1, "**-2": -2}
_MAX_K = 4   # the highest series degree a test reads
# below the smallest normal float rounding is absolute, not relative
_TINY = np.finfo(float).tiny


def _unary_derivative(name, x, m, magnitude=False):
    """The m-th derivative of a unary operation at x.  With ``magnitude`` it
    bounds that derivative's size at every argument of size <= x; the
    arguments of log and of the powers are >= 2."""
    if name in ("sin", "cos"):
        phase = (m + (name == "cos")) * math.pi / 2
        return 1.0 if magnitude else np.sin(x + phase)
    if name == "exp":
        return np.exp(x)
    if name == "log":
        if m == 0:
            return np.log(x)
        size = math.factorial(m - 1) / (2.0 if magnitude else x) ** m
        return size if magnitude else (-1) ** (m + 1) * size
    r = _EXPONENTS[name]
    falling = math.prod(r - i for i in range(m))
    if magnitude:
        return abs(falling) * (x ** (r - m) if r >= m else 2.0 ** (r - m))
    return falling * x ** (r - m)


def _apply(name, a, magnitude):
    if isinstance(a, Polynomial):
        # f(a0 + e) = sum_m f^(m)(a0) e^m / m!; e has no constant term, so
        # degrees past _MAX_K are dropped
        out, power = Polynomial([0.0]), Polynomial([1.0])
        for m in range(_MAX_K + 1):
            out = out + _unary_derivative(name, a.coef[0], m, magnitude) / math.factorial(m) * power
            power = (power * (a - a.coef[0])).cutdeg(_MAX_K)
        return out
    return _unary_derivative(name, a, 0, True) if magnitude else _UNARY[name](a)


def _leaf_reader(p, u, magnitude=False):
    def leaf(e):
        x = {"t": lambda: p.t, "u": lambda: u[e[1]],
             "q": lambda: p.coord(e[1], e[2]), "c": lambda: e[1]}[e[0]]()
        return abs(x) if magnitude else x
    return leaf


def _value(e, leaf, magnitude=False):
    op = e[0]
    if op in ("+", "-"):
        a, b = _value(e[1], leaf, magnitude), _value(e[2], leaf, magnitude)
        return a + b if op == "+" or magnitude else a - b
    if op == "*":
        return _value(e[1], leaf, magnitude) * _value(e[2], leaf, magnitude)
    if op == "**":
        return _value(e[1], leaf, magnitude) ** e[2]
    if op == "/":
        a, b = _value(e[1], leaf, magnitude), _value(e[2], leaf, magnitude)
        if magnitude or isinstance(b, Polynomial):
            return a * _apply("**-1", b, magnitude)
        return a / b
    if op in _UNARY:
        return _apply(op, _value(e[1], leaf, magnitude), magnitude)
    return leaf(e)


def _partial(e, leaf, var, magnitude=False):
    # the symbolic partial along ``var``; ``magnitude`` bounds its size
    op = e[0]
    if op in ("+", "-"):
        a = _partial(e[1], leaf, var, magnitude)
        b = _partial(e[2], leaf, var, magnitude)
        return a + b if op == "+" or magnitude else a - b
    if op == "*":
        return (_partial(e[1], leaf, var, magnitude) * _value(e[2], leaf, magnitude)
                + _value(e[1], leaf, magnitude) * _partial(e[2], leaf, var, magnitude))
    if op == "**":
        n = e[2]
        return (n * _value(e[1], leaf, magnitude) ** (n - 1)
                * _partial(e[1], leaf, var, magnitude)) if n else 0.0
    if op == "/":
        a, b = _value(e[1], leaf, magnitude), _value(e[2], leaf, magnitude)
        da, db = _partial(e[1], leaf, var, magnitude), _partial(e[2], leaf, var, magnitude)
        return da / 2 + a * db / 4 if magnitude else (da * b - a * db) / b ** 2
    if op in _UNARY:
        return (_unary_derivative(op, _value(e[1], leaf, magnitude), 1, magnitude)
                * _partial(e[1], leaf, var, magnitude))
    return float(e == var)


class _ExpressionField(JetField):
    """An expression tree as a field whose partials are the tree's symbolic
    ones, so that a reference built on them owes nothing to dual numbers."""

    actual_order = 2
    reads = {0: 1, 1: 2}

    def __init__(self, e) -> None:
        self.e = e

    def value_uj(self, p, ujet):
        return _value(self.e, _leaf_reader(p, ujet[0]))

    def partial_uj(self, p, ujet, direction):
        var = {"t": ("t",), ("u", 0, 0): ("u", 0)}.get(direction, direction)
        return _partial(self.e, _leaf_reader(p, ujet[0]), var)


def _series_derivative(e, k, p, ujet):
    return DerivedField(_ExpressionField(e), k).value(p, ujet)


_JET_ENTRIES = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8)


@settings(max_examples=150, deadline=None)
@given(e=_EXPRESSIONS, t=st.floats(-2.0, 2.0), entries=_JET_ENTRIES,
       u=st.floats(-2.0, 2.0))
def test_series_total_derivative_matches_chain_rule(e, t, entries, u):
    # with the control's time derivative zero, the one-pass series derivative
    # is the frozen-control chain rule of total_derivative
    p = JetPoint(t, np.reshape(entries, (4, 2)))
    # size of the chain rule's terms, which bounds its rounding
    leaf = _leaf_reader(p, [u], magnitude=True)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _partial(e, leaf, ("t",), magnitude=True) + sum(
            _partial(e, leaf, c, magnitude=True) * abs(p.coord(c[1], c[2] + 1))
            for c in _COORDS)
    assume(scale < 1e100)
    series = _series_derivative(e, 1, p, [[u], [0.0]])
    chain = total_derivative(_ExpressionField(e), p, [u])
    assert isinstance(series, float)
    assert series == pytest.approx(chain, rel=1e-12, abs=1e-12 * scale + _TINY)


@settings(max_examples=100, deadline=None)
@given(i=st.integers(0, 1), beta=st.integers(0, 3), k=st.integers(0, 4),
       t=st.floats(-2.0, 2.0), entries=st.lists(st.floats(-1e3, 1e3), min_size=16,
                                                max_size=16))
def test_derived_coordinate_is_exact(i, beta, k, t, entries):
    p = JetPoint(t, np.reshape(entries, (8, 2)))
    f = coordinate_field(i, beta)
    d = DerivedField(f, k)
    # one derived field, however the derivative was composed
    assert type(d) is DerivedField and d.base is f and d.count == k
    nested = DerivedField(DerivedField(f, 1), k)
    assert nested.base is f and nested.count == k + 1
    assert d.value(p, [0.0]) == p.coord(i, beta + k)


@settings(max_examples=100, deadline=None)
@given(e=_EXPRESSIONS, k=st.integers(2, _MAX_K), t=st.floats(-2.0, 2.0),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16),
       controls=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
def test_series_derivatives_match_polynomial_composition(e, k, t, entries, controls):
    # truncated at degree k, the jet and the control stack are polynomials
    # in h along the curve at t + h; numpy's Polynomial composes f with them
    # independently of the series arithmetic, products included, and the
    # unary operations enter through their Taylor expansions
    blocks = np.reshape(entries, (8, 2))
    ujet = np.reshape(controls, (5, 1))
    weights = np.array([1.0 / math.factorial(j) for j in range(k + 1)])

    def expansion(magnitude):
        def taylor(derivatives):
            coeffs = derivatives[:k + 1] * weights
            return Polynomial(np.abs(coeffs) if magnitude else coeffs)

        def leaf(x):
            if x[0] == "c":
                return abs(x[1]) if magnitude else x[1]
            return {"t": lambda: Polynomial([abs(t) if magnitude else t, 1.0]),
                    "u": lambda: taylor(ujet[:, x[1]]),
                    "q": lambda: taylor(blocks[x[2]:, x[1]])}[x[0]]()

        g = _value(e, leaf, magnitude)
        coeffs = g.coef if isinstance(g, Polynomial) else [g]
        return (coeffs[k] if len(coeffs) > k else 0.0) * math.factorial(k)

    with np.errstate(over="ignore", invalid="ignore"):
        bound = expansion(True)
    assume(bound < 1e100)
    series = _series_derivative(e, k, JetPoint(t, blocks), ujet)
    assert series == pytest.approx(expansion(False), rel=1e-12, abs=1e-12 * bound + _TINY)


def test_batched_series_take_one_float_per_node():
    # a (B,) float array meets a batched series as one scalar per node
    c, w = np.arange(1.0, 7.0).reshape(3, 2), np.array([2.0, -0.5])
    s = TaylorSeries(c)
    assert np.array_equal((s * w).c, c * w) and np.array_equal((s / w).c, c / w)
    assert np.array_equal((s - w).c, np.vstack([c[0] - w, c[1:]]))


@settings(max_examples=100, deadline=None)
@given(e=_EXPRESSIONS, k=st.integers(0, _MAX_K), nodes=st.integers(2, 4), data=st.data())
def test_batched_points_evaluate_each_node(e, k, nodes, data):
    # a grid of jet points carries a trailing batch axis through the float and
    # the series arithmetic (products, quotients, powers and numpy's unary
    # functions): one evaluation of the k-th derivative on the batch, without
    # the node-by-node fallback, gives every node's value
    def draw(*shape):
        size = math.prod(shape)
        return np.reshape(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=size,
                                             max_size=size)), shape)

    p, ujet = JetPoint(draw(nodes), draw(8, 2, nodes)), draw(5, 1, nodes)
    d = DerivedField(_ExpressionField(e), k)
    with np.errstate(all="ignore"):
        each = np.array([d.value_uj(p.node(b), ujet[..., b]) for b in range(nodes)])
        assume(np.all(np.abs(each) < 1e100))
        batched = np.broadcast_to(d.value_uj(p, ujet), (nodes,))
    np.testing.assert_allclose(batched, each, rtol=1e-12, atol=1e-12 * np.max(np.abs(each)))


@pytest.mark.parametrize("direction", ["t", ("q", 0, 1), ("u", 0)])
def test_batched_partials_take_one_dual_number(direction):
    # the dual number carries the grid's batch axis: a partial on a grid costs
    # the same few evaluations at 8 nodes as at 64, and equals the partial
    # taken at each node on its own
    def partial_with_calls(nodes):
        calls = []

        def evaluator(pt, u):
            calls.append(pt.t)
            return (np.sin(pt.coord(0, 1)) * pt.coord(1, 0) * u[0] ** 2
                    + pt.t * np.exp(pt.coord(0, 0)))

        rng = np.random.default_rng(nodes)
        p = JetPoint(rng.uniform(0.0, 1.0, nodes), rng.normal(size=(3, 2, nodes)))
        u = rng.normal(size=(1, nodes))
        got = ScalarJetField(evaluator, actual_order=1).partial(p, u, direction)
        count = len(calls)
        each = [ScalarJetField(evaluator, actual_order=1).partial(p.node(b), u[:, b], direction)
                for b in range(nodes)]
        np.testing.assert_allclose(got, each, rtol=1e-15, atol=0)
        return count

    assert partial_with_calls(64) == partial_with_calls(8) <= 2


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("direction", ["t", ("q", 0, 0), ("q", 1, 2), ("u", 0)])
def test_batched_partials_inside_series_take_one_dual_number(direction, k):
    # the k-th total derivative of a partial on a grid: the dual number nests
    # inside the grid's series, where it meets series of the other coordinates
    # in sums, products, quotients and numpy's functions, and still takes one
    # batched evaluation, equal to the one at each node
    def derivative_with_calls(nodes):
        calls = []

        def evaluator(pt, u):
            calls.append(pt.t)
            return (np.sin(pt.coord(0, 1)) * pt.coord(1, 0) * u[0] ** 2
                    + pt.t * np.exp(pt.coord(0, 0)) + pt.coord(1, 2) / (2.0 + pt.coord(0, 1) ** 2))

        f = ScalarJetField(evaluator, actual_order=2, reads={0: 1, 1: 2})
        d = DerivedField(_PartialField(f, direction), k)
        rng = np.random.default_rng(nodes)
        p = JetPoint(rng.uniform(0.0, 1.0, nodes), rng.normal(size=(k + 3, 2, nodes)))
        ujet = rng.normal(size=(k + 1, 1, nodes))
        got = d.value(p, ujet)
        count = len(calls)
        each = np.array([d.value(p.node(b), ujet[..., b]) for b in range(nodes)])
        np.testing.assert_allclose(got, each, rtol=1e-12, atol=1e-12 * np.max(np.abs(each)))
        return count

    assert derivative_with_calls(64) == derivative_with_calls(8) <= 2
