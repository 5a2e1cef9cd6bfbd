"""Builders for the worked control problems, in every formulation they admit.

The linearized controlled pendulum ``xdd = -x + u`` comes three ways: as a
classical first-order system with two auxiliary adjoint variables, as a
second-order problem with a single auxiliary variable (Lagrangian
``p (xdd + x - u)``), and directly through its own second-order Lagrangian
with no auxiliary variable at all.  Constant-coefficient problems of order m
and third-order problems ``x''' = f`` follow the same pattern with one
auxiliary variable.  All formulations of one physical problem share their
x-trajectories, which the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .controls import ConstantControl
from .dynamics import ChainBlock, NormalFormDynamics, integrate_backward
from .errors import BadParams, NoClosedForm
from .jetspace import DerivedField, JetField, ScalarJetField
from .problem import (
    ControlSet,
    ControlledLagrangian,
    CostFunction,
    DefiningTriple,
    FreeParam,
    InitialData,
)


def _chain_builtin(name: str, T: float, lagrangian: ScalarJetField,
                   blocks: Sequence[ChainBlock], initial_data: InitialData,
                   adjoint_vars: tuple[int, ...]) -> DefiningTriple:
    """A builtin on the chains ``blocks``, whose variable 0 is the state x:
    controls in K = [-1, 1], the cost -(t/T) x, and jets of order 2r + 1
    for the Lagrangian's order r."""
    if T <= 0:
        raise BadParams("horizon must be positive")
    return DefiningTriple(
        controls=ControlSet([-1.0], [1.0]),
        lagrangian=ControlledLagrangian(lagrangian),
        cost=_gated_cost(T),
        dynamics=NormalFormDynamics(blocks),
        initial_data=initial_data,
        horizon=T,
        name=name,
        state_vars=(0,),
        adjoint_vars=adjoint_vars,
    )


def _gated_cost(T: float) -> CostFunction:
    """Extended cost -(t/T) x with x = q^0_(0): the terminal cost -x(T) at
    t = T, zero on every jet at t = 0."""

    def ev(p, u):
        return -(p.t / T) * p.coord(0, 0)

    return CostFunction(ScalarJetField(evaluator=ev, actual_order=0, name="cost", reads={0: 0}))


def _pendulum_top_x() -> ScalarJetField:
    """The pendulum's top equation xdd = u - x, shared by the second-order
    formulations."""
    return ScalarJetField(lambda p, u: u[0] - p.coord(0, 0), actual_order=0,
                          name="f_x", reads={0: 0})


def _pendulum_data(base: dict, v_max: float, var: str = "x", index: int = 1) -> InitialData:
    """The pendulum's initial data: x(0) = 0, with the initial velocity
    ``base[var][index]`` free in [-v_max, v_max]."""
    if v_max < 0:
        raise BadParams(f"v_max = {v_max} is negative; the velocity box needs v_max >= 0")
    return InitialData(base=base, free=[FreeParam("v", var, index, -v_max, v_max)],
                       predicate=lambda y: abs(y[0]) < 1e-12)


# -- pendulum, second-order formulation (one auxiliary variable) -------------


def pendulum_r2(T: float = math.pi / 2, v_max: float = 1.0) -> DefiningTriple:
    """q = (x, p), L = p (xdd + x - u), K = [-1, 1], cost -x(T).

    Initial data: x(0) = 0 fixed, xdot(0) free in [-v_max, v_max]; the
    auxiliary variable starts at the terminal-enforcing values, so the
    reference curves already satisfy p(t) = sin(T - t).
    """
    X, P = 0, 1
    L = ScalarJetField(
        evaluator=lambda p, u: p.coord(P, 0) * (p.coord(X, 2) + p.coord(X, 0) - u[0]),
        actual_order=2,
        name="L",
        reads={X: 2, P: 0},
    )
    top_p = ScalarJetField(lambda p, u: -p.coord(P, 0), actual_order=0,
                           name="f_p", reads={P: 0})
    init = _pendulum_data({"x": [0.0, 0.0], "p": [math.sin(T), -math.cos(T)]}, v_max)
    return _chain_builtin("pendulum-r2", T, L,
                          [ChainBlock("x", 2, _pendulum_top_x()), ChainBlock("p", 2, top_p)],
                          init, adjoint_vars=(P,))


# -- pendulum, direct second-order Lagrangian (no auxiliary variable) --------


def pendulum_direct(T: float = math.pi / 2, v_max: float = 1.0) -> DefiningTriple:
    """q = (x), L = xd^2/2 - x^2/2 + u x; the constraint is its own
    Euler-Lagrange equation xdd = -x + u."""
    if abs(math.sin(T)) < 1e-9:
        raise BadParams("degenerate horizon: T must avoid multiples of pi")
    X = 0
    L = ScalarJetField(
        evaluator=lambda p, u: 0.5 * p.coord(X, 1) ** 2 - 0.5 * p.coord(X, 0) ** 2
        + u[0] * p.coord(X, 0),
        actual_order=1,
        name="L",
        reads={X: 1},
    )
    return _chain_builtin("pendulum-direct", T, L, [ChainBlock("x", 2, _pendulum_top_x())],
                          _pendulum_data({"x": [0.0, 0.0]}, v_max), adjoint_vars=())


# -- pendulum, classical first-order embedding --------------------------------


def pendulum_classical(T: float = math.pi / 2, v_max: float = 1.0) -> DefiningTriple:
    """Four-variable first-order embedding with Pontryagin auxiliary pair."""
    from .classical import ClassicalProblem, embed_classical

    if T <= 0:
        raise BadParams("horizon must be positive")

    cp = ClassicalProblem(
        f=lambda t, x, u: [x[1], -x[0] + u[0]],
        dfdx=lambda t, x, u: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        cost=lambda x: -x[0],
        x0=np.array([0.0, 0.0]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=T,
    )
    triple = embed_classical(cp)
    triple.name = "pendulum-classical"
    # x(0) = 0 with a free initial velocity; adjoint initial data put the
    # pair on the terminal-enforcing branch p(t) = (cos(T-t), sin(T-t)).
    triple.initial_data = _pendulum_data(
        {"x1": [0.0], "x2": [0.0], "p1": [math.cos(T)], "p2": [math.sin(T)]},
        v_max, var="x2", index=0)
    return triple


# -- constant-coefficient problem of order m ----------------------------------


# the coefficients of xdd + x = u, mth_order's default
_PENDULUM_A = (1.0, 0.0, 1.0)


def mth_order(a: Sequence[float] = _PENDULUM_A, T: float = 1.0) -> DefiningTriple:
    """sum_l a_l d^l x/dt^l = u with zero initial x-data and cost -x(T).

    q = (x, p) with L = p (sum_l a_l x_(l) - u) of actual order m.
    """
    a = np.asarray(a, dtype=float)
    m = a.size - 1
    if m < 1:
        raise BadParams("need order m >= 1")
    if a[m] == 0.0:
        raise BadParams("leading coefficient must be nonzero")
    X, P = 0, 1

    def L_ev(p, u):
        s = sum(a[l] * p.coord(X, l) for l in range(m + 1))
        return p.coord(P, 0) * (s - u[0])

    L = ScalarJetField(L_ev, actual_order=m, name="L", reads={X: m, P: 0})

    def fx(p, u):
        return (u[0] - sum(a[l] * p.coord(X, l) for l in range(m))) / a[m]

    top_x = ScalarJetField(fx, actual_order=max(0, m - 1), name="f_x",
                           reads={X: m - 1} if m > 1 else {X: 0})

    sgn = (-1.0) ** m

    def fp(p, u):
        s = sum(((-1.0) ** b) * a[b] * p.coord(P, b) for b in range(m))
        return -s / (sgn * a[m])

    top_p = ScalarJetField(fp, actual_order=max(0, m - 1), name="f_p",
                           reads={P: m - 1} if m > 1 else {P: 0})

    init = InitialData(base={"x": np.zeros(m)},
                       predicate=lambda y: bool(np.max(np.abs(y[:m])) < 1e-10))
    triple = _chain_builtin(f"mth-order(m={m})", T, L,
                            [ChainBlock("x", m, top_x), ChainBlock("p", m, top_p)],
                            init, adjoint_vars=(P,))
    init.base["p"] = _adjoint_terminal_chain(triple.dynamics, a, T)
    return triple


def _adjoint_terminal_chain(dyn: NormalFormDynamics, a: np.ndarray, T: float) -> np.ndarray:
    """Initial values (at t = 0) of the adjoint chain that meets the
    annihilating terminal conditions p^(k)(T) = 0 (k < m-1),
    p^(m-1)(T) = (-1)^(m-1)/a_m: the triple's own dynamics run back from
    x = 0 under a zero control (the p-chain reads neither)."""
    m = a.size - 1
    y_T = np.zeros(2 * m)
    y_T[2 * m - 1] = (-1.0) ** (m - 1) / a[m]
    return integrate_backward(dyn, ConstantControl([0.0], T), y_T, T, tol=(1e-12, 1e-14))[m:]


# -- third-order problem x''' = f ---------------------------------------------


def third_order(T: float = 1.0,
                f: Optional[ScalarJetField] = None) -> DefiningTriple:
    """x''' = f(t, x, xd, xdd, u) with one auxiliary variable and cost -x(T).

    The default instance is f = u.  Write a general ``f`` with numpy
    (elementwise arithmetic, ``np.sin`` and the like): its jets are then
    exact, and so are its partials, taken on dual numbers, from which the
    auxiliary equation is assembled.  An ``f`` that cannot take series (a
    ``math`` function) is refused: the adjoint's top reads its partials,
    so the dynamics raise OrderUnavailable.
    """
    X, P = 0, 1

    if f is None:
        f = ScalarJetField(lambda p, u: u[0], actual_order=0, name="f", reads={})

    def L_ev(p, u):
        return p.coord(P, 0) * (p.coord(X, 3) - f.evaluator(p, u))

    L = ScalarJetField(L_ev, actual_order=3, name="L", reads={X: 3, P: 0})

    # a copy of f itself, so that an override of its partials serves the x-chain
    top_x = replace(f, actual_order=min(f.actual_order, 2), name="f_x",
                    reads=f.reads if f.reads is not None else {X: 2})

    reads_x = f.read_depth(X) if f.reads is not None else 2
    if reads_x < 0:
        # f independent of the x-jets: the auxiliary equation is p''' = 0
        top_p = ScalarJetField(lambda p, u: 0.0, actual_order=0, name="f_p", reads={})
        sigma_p = np.array([T ** 2 / 2.0, -T, 1.0])
    else:
        top_p = _LeibnizAdjointTop(f, X, P)
        sigma_p = np.zeros(3)

    return _chain_builtin("third-order", T, L,
                          [ChainBlock("x", 3, top_x), ChainBlock("p", 3, top_p)],
                          InitialData(base={"x": np.zeros(3), "p": sigma_p}), adjoint_vars=(P,))


class _LeibnizAdjointTop(JetField):
    """The auxiliary equation for x''' = f,

        p''' = - sum_b (-1)^b (d/dt)^b (p df/dx_(b)),

    with each (d/dt)^b one derived field of the product p df/dx_(b).
    """

    name = "f_p"

    def __init__(self, f: ScalarJetField, X: int, P: int) -> None:
        reads_x = max(f.read_depth(X), 0)
        self._terms = []   # (-(-1)^b, (d/dt)^b (p df/dx_(b)))
        for b in range(3):
            product = ScalarJetField(
                lambda p, u, _b=b: p.coord(P, 0) * f.partial(p, u, ("q", X, _b)),
                actual_order=max(f.actual_order, 0),
                reads={X: reads_x, P: 0},
                u_depth=f.u_depth,
                name=f"p df/dx{b}",
            )
            self._terms.append((-((-1.0) ** b), DerivedField(product, b)))
        self.actual_order = max(f.actual_order, 0) + 2
        self.u_depth = f.u_depth + 2
        self.reads = {X: reads_x + 2, P: 2}

    def value_uj(self, p, ujet):
        return sum(sign * fld.value_uj(p, ujet) for sign, fld in self._terms)


# -- dispatch and references ---------------------------------------------------


BUILTINS = {"pendulum-classical": pendulum_classical, "pendulum-r2": pendulum_r2,
            "pendulum-direct": pendulum_direct, "mth-order": mth_order,
            "third-order": third_order}
BUILTIN_IDS = tuple(BUILTINS)


def build(problem_id: str, **params) -> DefiningTriple:
    """Build a named problem.  Raises BadParams for unknown ids or bad values."""
    if problem_id not in BUILTINS:
        raise BadParams(f"unknown problem id {problem_id!r}")
    return BUILTINS[problem_id](**params)


def optimal_reference(problem_id: str, **params):
    """Closed-form optimal control, initial data and cost, where available.

    Returns ``(u_opt, sigma_opt, cost_opt)``.  Raises NoClosedForm outside
    the solvable families.
    """
    if problem_id in ("pendulum-r2", "pendulum-direct", "pendulum-classical"):
        T = float(params.get("T", math.pi / 2))
        v_max = float(params.get("v_max", 1.0))
        if not 0 < T < math.pi:
            raise NoClosedForm("pendulum reference implemented for 0 < T < pi")
        u_opt = ConstantControl([1.0], T)
        cost = -(v_max * math.sin(T) + 1.0 - math.cos(T))
        triple = build(problem_id, T=T, v_max=v_max)
        sigma = triple.initial_data.make(v=v_max)
        return u_opt, sigma, cost
    if problem_id == "mth-order":
        a = np.asarray(params.get("a", _PENDULUM_A), dtype=float)
        T = float(params.get("T", 1.0))
        if a.size == 2 and a[0] == 0.0 and a[1] > 0:
            u_opt = ConstantControl([1.0], T)
            triple = mth_order(a, T)
            return u_opt, triple.initial_data.make(), -T / a[1]
        if a.size == 3 and np.allclose(a, _PENDULUM_A) and 0 < T < math.pi:
            u_opt = ConstantControl([1.0], T)
            triple = mth_order(a, T)
            return u_opt, triple.initial_data.make(), -(1.0 - math.cos(T))
        raise NoClosedForm("no closed-form reference for these coefficients")
    if problem_id == "third-order":
        T = float(params.get("T", 1.0))
        if params.get("f") is not None:
            raise NoClosedForm("no closed-form reference for general f")
        u_opt = ConstantControl([1.0], T)
        triple = third_order(T)
        return u_opt, triple.initial_data.make(), -T ** 3 / 6.0
    raise BadParams(f"unknown problem id {problem_id!r}")
