"""Shared helpers for the test suite: hand-built classical problems, the
chain-reduction oracle's argmax gap, a sine force field, coordinate fields
and analytic curves."""

import numpy as np

from hopmp.classical import ClassicalProblem, chain_reduction_problem, hamiltonian_table
from hopmp.jetspace import JetPoint, ScalarJetField
from hopmp.needle import oracle_argmax_gap
from hopmp.problem import ControlSet


def coordinate_field(i: int, beta: int) -> ScalarJetField:
    """The coordinate function q^i_(beta) as a scalar jet field."""
    return ScalarJetField(lambda p, u: p.coord(i, beta), actual_order=beta, name=f"q{i}_({beta})")


class AnalyticCurve:
    """A jet-providing curve built from per-variable derivative callables,
    for operations that accept any curve, not only an integrated trajectory.

    ``layers[i][k]`` evaluates d^k q^i/dt^k; missing layers are zero.
    """

    def __init__(self, layers) -> None:
        self._layers = [list(v) for v in layers]

    @property
    def dim(self) -> int:
        return len(self._layers)

    def jet(self, t: float, order: int) -> JetPoint:
        blocks = np.zeros((order + 1, self.dim))
        for i, funs in enumerate(self._layers):
            for k in range(min(order + 1, len(funs))):
                blocks[k, i] = funs[k](t)
        return JetPoint(t, blocks)


def sine_force(lib) -> ScalarJetField:
    """f = -sin x + u for ``third_order``, with sin from ``lib``: numpy's
    takes dual numbers and series, math's takes neither."""
    return ScalarJetField(lambda p, u: -lib.sin(p.coord(0, 0)) + u[0], actual_order=0,
                          name="f", reads={0: 0})


def pendulum_classical_cp(T, v=0.0):
    return ClassicalProblem(
        f=lambda t, x, u: np.array([x[1], -x[0] + u[0]]),
        dfdx=lambda t, x, u: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        cost=lambda x: -x[0],
        x0=np.array([0.0, v]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=T,
    )


def third_order_chain_cp(T):
    return ClassicalProblem(
        f=lambda t, x, u: np.array([x[1], x[2], u[0]]),
        dfdx=lambda t, x, u: np.array([[0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0],
                                       [0.0, 0.0, 0.0]]),
        cost=lambda x: -x[0],
        x0=np.zeros(3),
        controls=ControlSet([-1.0], [1.0]),
        horizon=T,
    )


def oracle_gap(triple, conds, gamma0):
    """The argmax gap of the synthesized adjoint branch against the chain
    reduction's Hamiltonian table at five probe times in [0.1 T, 0.9 T], on
    five controls across the (scalar) box."""
    taus = np.linspace(0.1, 0.9, 5) * triple.horizon
    omegas = np.linspace(triple.controls.lower[0], triple.controls.upper[0], 5).reshape(-1, 1)
    table, _ = hamiltonian_table(chain_reduction_problem(triple, gamma0), gamma0.control,
                                 taus, omegas)
    return oracle_argmax_gap(triple, conds, gamma0, taus, omegas, table)
