"""Shared helpers for the test suite: hand-built classical problems and a
force field written with ``math``."""

import math

import numpy as np

from hopmp.classical import ClassicalProblem
from hopmp.jetspace import ScalarJetField
from hopmp.problem import ControlSet


class MathSineForce(ScalarJetField):
    """f = -sin x + u for ``third_order``, written with math.sin, which takes
    no series, and with its exact partials."""

    def partial_uj(self, p, ujet, direction):
        if direction == ("q", 0, 0):
            return -math.cos(p.coord(0, 0))
        return 1.0 if direction in (("u", 0), ("u", 0, 0)) else 0.0


def sine_force(lib) -> ScalarJetField:
    """f = -sin x + u with sin from ``lib``: math's with exact partials,
    numpy's taking them on dual numbers."""
    kind = MathSineForce if lib is math else ScalarJetField
    return kind(lambda p, u: -lib.sin(p.coord(0, 0)) + u[0], actual_order=0, name="f",
                reads={0: 0})


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
