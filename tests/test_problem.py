import math

import numpy as np
import pytest

from hopmp.controls import ConstantControl, NeedleOverlayControl
from hopmp.dynamics import control_measure_diff
from hopmp.errors import ConstraintViolation
from hopmp.jetspace import JetPoint, ScalarJetField
from hopmp.problem import (
    ControlSet,
    ControlledLagrangian,
    el_residual,
    momentum_sums,
    pontryagin_p,
    validate_triple,
)
from hopmp.problems import build, pendulum_direct, pendulum_r2
from tests_support import AnalyticCurve

PI = math.pi


def test_control_set_box():
    with pytest.raises(ValueError):
        ControlSet([1.0], [-1.0])


def test_validate_pendulum_r2_passes():
    checks = validate_triple(pendulum_r2(T=PI / 2, v_max=1.0))
    assert all(c.ok for c in checks), "\n".join(c.line() for c in checks)


def test_validate_order_inequality_failure():
    triple = pendulum_r2(T=PI / 2)
    triple.jet_order = 2   # 2r+1 = 5 > 2
    failed = [c.label for c in validate_triple(triple) if not c.ok]
    assert "order inequality 2r+1 <= n" in failed


def test_validate_cost_vanishing_failure():
    # an ungated terminal cost does not vanish on jets at t=0
    from hopmp.problem import CostFunction

    triple = pendulum_r2(T=PI / 2)
    bad = ScalarJetField(lambda p, u: p.coord(0, 0), actual_order=0,
                         reads={0: 0})
    triple.cost = CostFunction(field=bad, actual_order=0)
    failed = [c.label for c in validate_triple(triple) if not c.ok]
    assert "cost vanishes on jets at t=0" in failed


def harmonic_direct_triple():
    # L = qd^2/2 - q^2/2, as the direct pendulum with u weight removed
    return pendulum_direct(T=PI / 2, v_max=1.0)


def test_el_residual_harmonic_identity():
    # q(t) = sin t solves -q - qdd = 0 for L = qd^2/2 - q^2/2 (u = 0)
    triple = harmonic_direct_triple()
    curve = AnalyticCurve([[math.sin, math.cos,
                            lambda t: -math.sin(t), lambda t: -math.cos(t),
                            math.sin]])
    u = ConstantControl([0.0], triple.horizon)
    for t in (0.2, 0.9, 1.4):
        res = el_residual(triple, curve, u, t)
        assert np.max(np.abs(res)) < 1e-8


def test_el_residual_linear_curve_by_hand():
    # q(t) = t: E(L) = -q - qdd + u = -t with u = 0
    triple = harmonic_direct_triple()
    curve = AnalyticCurve([[lambda t: t, lambda t: 1.0, lambda t: 0.0,
                            lambda t: 0.0, lambda t: 0.0]])
    u = ConstantControl([0.0], triple.horizon)
    for t in (0.3, 0.8):
        res = el_residual(triple, curve, u, t)
        assert res[0] == pytest.approx(-t, abs=1e-8)


def test_el_residual_along_integrated_pendulum_r2():
    triple = pendulum_r2(T=PI / 2, v_max=1.0)
    u = ConstantControl([1.0], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=1.0),
                                   tol=(1e-10, 1e-12))
    for t in np.linspace(0.1, 1.4, 6):
        res = el_residual(triple, traj, u, t)
        assert np.max(np.abs(res)) < 1e-8


def test_el_residual_linearity_in_lagrangian():
    rng = np.random.default_rng(5)
    triple = harmonic_direct_triple()
    L1 = triple.lagrangian
    f2 = ScalarJetField(lambda p, u: p.coord(0, 0) * p.coord(0, 1),
                        actual_order=1, reads={0: 1})
    L2 = ControlledLagrangian(field=f2, actual_order=1, state_dim=1)
    a, b = 2.0, -0.7

    def combo_ev(p, u):
        return a * L1.field.evaluator(p, u) + b * f2.evaluator(p, u)

    combo = ControlledLagrangian(
        field=ScalarJetField(combo_ev, actual_order=1, reads={0: 1}),
        actual_order=1, state_dim=1)

    curve = AnalyticCurve([[math.cos, lambda t: -math.sin(t),
                            lambda t: -math.cos(t), math.sin, math.cos]])
    u = ConstantControl([0.3], triple.horizon)
    t = 0.7

    import dataclasses

    t_combo = dataclasses.replace(triple, lagrangian=combo)
    t1 = dataclasses.replace(triple, lagrangian=L1)
    t2 = dataclasses.replace(triple, lagrangian=L2)
    lhs = el_residual(t_combo, curve, u, t)[0]
    rhs = a * el_residual(t1, curve, u, t)[0] + b * el_residual(t2, curve, u, t)[0]
    assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-7)


def test_pontryagin_negates_lagrangian_everywhere():
    rng = np.random.default_rng(2)
    triple = pendulum_r2(T=PI / 2)
    for _ in range(20):
        jet = JetPoint(rng.uniform(0, 1.5), rng.normal(size=(6, 2)))
        u = rng.uniform(-1, 1, size=1)
        P = pontryagin_p(triple, jet)
        assert P(u) == pytest.approx(-triple.lagrangian.value(jet, u), rel=1e-12)


def test_pontryagin_pendulum_closed_form():
    # with p = sin(T-t) the gap P(w) - P(u) is sin(T-t) (w - u)
    T = PI / 2
    triple = pendulum_r2(T=T)
    u0 = ConstantControl([1.0], T)
    traj = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                   tol=(1e-10, 1e-12))
    tau = 0.6
    jet = traj.jet(tau, 2)
    P = pontryagin_p(triple, jet)
    for w in (-1.0, -0.3, 0.5):
        gap = P([w]) - P([1.0])
        assert gap == pytest.approx(math.sin(T - tau) * (w - 1.0), abs=1e-9)


def test_control_distance_cases():
    T = PI / 2
    u1 = ConstantControl([1.0], T)
    assert control_measure_diff(u1, u1) == 0.0
    u2 = NeedleOverlayControl(u1, tau=0.5, omega=[-1.0], eps=0.1)
    assert control_measure_diff(u1, u2) == pytest.approx(0.1, abs=2 * T / 4000)
    u3 = ConstantControl([0.0], T)
    assert control_measure_diff(u1, u3) == pytest.approx(T)


def test_initial_data_constraint():
    triple = pendulum_r2(T=PI / 2, v_max=1.0)
    with pytest.raises(ConstraintViolation):
        triple.initial_data.make(v=2.0)
    sigma = triple.initial_data.make(v=0.25)
    assert sigma["x"][1] == 0.25


def test_build_dispatch():
    for pid in ("pendulum-r2", "pendulum-direct", "pendulum-classical"):
        triple = build(pid, T=PI / 2, v_max=1.0)
        assert triple.horizon == pytest.approx(PI / 2)
    from hopmp.errors import BadParams

    with pytest.raises(BadParams):
        build("unknown-problem")


@pytest.mark.parametrize("problem_id", ["third-order", "pendulum-r2"])
def test_cost_momentum_at_horizon_is_exact(problem_id):
    # full_momenta adds the momenta of dC/dt for the cost C = -(t/T) x(t):
    # d/dx'(dC/dt) = -t/T, exactly -1 at T when taken on a dual number
    triple = build(problem_id)
    T = triple.horizon
    u = ConstantControl([1.0], T)
    traj = triple.controlled_curve(u, tol=(1e-12, 1e-14))
    r = triple.lagrangian.actual_order
    cost_part = momentum_sums(triple.cost.rate_field(), traj.jet(T, 2 * r), u.jet(T, r + 1),
                              triple.lagrangian.state_dim, r)
    assert cost_part[0, 0] == -1.0
    assert np.all(cost_part[:, 1:] == 0.0)
