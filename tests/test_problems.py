import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopmp.classical import ClassicalProblem, embed_classical
from hopmp.controls import ConstantControl
from hopmp.dynamics import NormalFormDynamics
from hopmp.errors import BadParams, NoClosedForm
from hopmp.jetspace import ScalarJetField
from hopmp.problem import ControlSet, el_residual, validate_triple
from hopmp.problems import (
    build,
    mth_order,
    optimal_reference,
    optimize_free_param,
    pendulum_classical,
    pendulum_direct,
    pendulum_r2,
    third_order,
)

PI = math.pi


@pytest.mark.parametrize("pid,kwargs", [
    ("pendulum-r2", dict(T=PI / 2, v_max=1.0)),
    ("pendulum-direct", dict(T=PI / 2, v_max=1.0)),
    ("pendulum-classical", dict(T=PI / 2, v_max=1.0)),
    ("mth-order", dict(a=[1.0, 0.0, 1.0], T=PI / 2)),
    ("third-order", dict(T=1.0)),
])
def test_builtins_validate(pid, kwargs):
    rep = validate_triple(build(pid, **kwargs))
    assert rep.ok, f"{pid}: " + "; ".join(rep.lines())


def test_pendulum_direct_el_reproduces_constraint():
    triple = pendulum_direct(T=PI / 2)
    u = ConstantControl([0.4], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.3),
                                   tol=(1e-10, 1e-12))
    for t in (0.3, 1.0):
        res = el_residual(triple, traj, u, t)
        assert abs(res[0]) < 1e-9


def test_cross_formulation_trajectory_agreement():
    # same physical control and initial x-data in all three forms
    T, v, uval = PI / 2, 0.37, 0.55
    u = ConstantControl([uval], T)
    tol = (1e-11, 1e-13)

    t_r2 = pendulum_r2(T=T)
    x_r2 = t_r2.controlled_curve(u, t_r2.initial_data.make(v=v), tol=tol)

    t_dir = pendulum_direct(T=T)
    x_dir = t_dir.controlled_curve(u, t_dir.initial_data.make(v=v), tol=tol)

    t_cl = pendulum_classical(T=T)
    x_cl = t_cl.controlled_curve(u, t_cl.initial_data.make(v=v), tol=tol)

    for t in np.linspace(0.0, T, 13):
        a = x_r2.state(t)[0]
        b = x_dir.state(t)[0]
        c = x_cl.state(t)[0]
        assert a == pytest.approx(b, abs=1e-8)
        assert a == pytest.approx(c, abs=1e-8)


def test_cross_formulation_cost_agreement():
    T, v, uval = PI / 2, -0.6, 0.9
    u = ConstantControl([uval], T)
    tol = (1e-11, 1e-13)
    costs = []
    for builder in (pendulum_r2, pendulum_direct, pendulum_classical):
        triple = builder(T=T)
        traj = triple.controlled_curve(u, triple.initial_data.make(v=v), tol=tol)
        costs.append(triple.terminal_cost(traj))
    assert costs[0] == pytest.approx(costs[1], abs=1e-8)
    assert costs[0] == pytest.approx(costs[2], abs=1e-8)


def test_mth_order_matches_pendulum_r2():
    T, uval = PI / 2, 0.8
    u = ConstantControl([uval], T)
    tol = (1e-11, 1e-13)
    t_m = mth_order([1.0, 0.0, 1.0], T)
    x_m = t_m.controlled_curve(u, tol=tol)      # zero initial x-data
    t_r2 = pendulum_r2(T=T)
    x_r2 = t_r2.controlled_curve(u, t_r2.initial_data.make(v=0.0), tol=tol)
    for t in np.linspace(0, T, 9):
        assert x_m.state(t)[0] == pytest.approx(x_r2.state(t)[0], abs=1e-8)


def test_mth_order_adjoint_initialization():
    # the builder's adjoint branch meets p(T) = 0, pdot(T) = -1
    T = PI / 2
    triple = mth_order([1.0, 0.0, 1.0], T)
    u = ConstantControl([0.0], T)
    traj = triple.controlled_curve(u, tol=(1e-11, 1e-13))
    jet = traj.jet(T, 1)
    assert jet.coord(1, 0) == pytest.approx(0.0, abs=1e-9)
    assert jet.coord(1, 1) == pytest.approx(-1.0, abs=1e-9)


def test_third_order_default_instance():
    triple = third_order(T=1.0)
    u = ConstantControl([1.0], 1.0)
    traj = triple.controlled_curve(u, tol=(1e-11, 1e-13))
    assert traj.state(1.0)[0] == pytest.approx(1.0 / 6.0, abs=1e-9)
    # adjoint branch is (T-t)^2/2
    for t in (0.0, 0.5, 1.0):
        assert traj.jet(t, 0).coord(1, 0) == pytest.approx((1.0 - t) ** 2 / 2,
                                                           abs=1e-9)


def test_third_order_general_f_dynamics():
    # x''' = -x + u exercises the assembled auxiliary equation
    from hopmp.jetspace import ScalarJetField

    f = ScalarJetField(
        lambda p, u: u[0] - p.coord(0, 0), actual_order=0,
        partials={("q", 0, 0): lambda p, u: -1.0, ("u", 0): lambda p, u: 1.0},
        reads={0: 0},
    )
    triple = third_order(T=1.0, f=f)
    u = ConstantControl([0.5], 1.0)
    sigma = {"x": [0.2, 0.0, 0.0], "p": [0.1, 0.0, 0.3]}
    traj = triple.controlled_curve(u, sigma, tol=(1e-9, 1e-11))
    # both Euler-Lagrange equations hold along the integrated curve
    for t in (0.25, 0.75):
        res = el_residual(triple, traj, u, t)
        assert np.max(np.abs(res)) < 1e-6


def test_optimal_reference_pendulum():
    for pid in ("pendulum-r2", "pendulum-direct", "pendulum-classical"):
        u_opt, sigma, cost = optimal_reference(pid, T=PI / 2, v_max=1.0)
        assert u_opt.value(0.3)[0] == 1.0
        assert cost == pytest.approx(-2.0, abs=1e-12)
    _, _, c0 = optimal_reference("pendulum-r2", T=PI / 2, v_max=0.0)
    assert c0 == pytest.approx(-1.0, abs=1e-12)


def test_optimal_reference_cost_matches_integration():
    u_opt, sigma, cost = optimal_reference("pendulum-r2", T=PI / 2, v_max=1.0)
    triple = pendulum_r2(T=PI / 2, v_max=1.0)
    traj = triple.controlled_curve(u_opt, sigma, tol=(1e-11, 1e-13))
    assert triple.terminal_cost(traj) == pytest.approx(cost, abs=1e-8)


def test_optimal_reference_first_and_third_order():
    u1, _, c1 = optimal_reference("mth-order", a=[0.0, 1.0], T=2.0)
    assert c1 == pytest.approx(-2.0)
    u3, _, c3 = optimal_reference("third-order", T=1.0)
    assert c3 == pytest.approx(-1.0 / 6.0)
    with pytest.raises(NoClosedForm):
        optimal_reference("mth-order", a=[0.3, 0.2, 0.1], T=1.0)


def test_bad_params():
    with pytest.raises(BadParams):
        pendulum_r2(T=-1.0)
    with pytest.raises(BadParams):
        mth_order([1.0, 0.0, 0.0], 1.0)   # vanishing leading coefficient
    with pytest.raises(BadParams):
        pendulum_direct(T=2 * PI)


def test_optimize_free_param_recovers_vmax():
    triple = pendulum_r2(T=PI / 2, v_max=1.0)
    u = ConstantControl([1.0], triple.horizon)
    v_best, cost_best = optimize_free_param(triple, u, "v")
    assert v_best == pytest.approx(1.0, abs=1e-8)
    assert cost_best == pytest.approx(-2.0, abs=1e-8)


def _swinging_pendulum(lib=math) -> ClassicalProblem:
    """A nonlinear classical problem: x1' = x2, x2' = -sin x1 + u, with sin
    and cos taken from ``lib``."""
    return ClassicalProblem(
        f=lambda t, x, u: np.array([x[1], -lib.sin(x[0]) + u[0]]),
        dfdx=lambda t, x, u: np.array([[0.0, 1.0], [-lib.cos(x[0]), 0.0]]),
        cost=lambda x: -x[0],
        cost_grad=lambda x: np.array([-1.0, 0.0]),
        x0=np.array([0.0, 0.0]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=PI / 2,
    )


def _sine_force(lib) -> ScalarJetField:
    """f = -sin x + u for ``third_order``, with sin and cos from ``lib``."""
    return ScalarJetField(lambda p, u: -lib.sin(p.coord(0, 0)) + u[0], actual_order=0,
                          partials={("q", 0, 0): lambda p, u: -lib.cos(p.coord(0, 0)),
                                    ("u", 0): lambda p, u: 1.0},
                          name="f", reads={0: 0})


@pytest.mark.parametrize("lib", [math, np], ids=["math", "numpy"])
def test_elementary_function_fields_give_jets(lib):
    # numpy's sin and cos run on the Taylor-series path, exact up to rounding;
    # math's cannot take a series, so their fields are differentiated, with a
    # warning, by the chain rule with difference-quotient partials
    u, tol = 0.5, (1e-12 if lib is np else 1e-6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        swinging = embed_classical(_swinging_pendulum(lib))
        traj = swinging.controlled_curve(ConstantControl([u], swinging.horizon))
        for t in (0.3, 1.2):
            (x1, x2), jet = traj.state(t)[:2], traj.jet(t, 2).blocks
            force = -math.sin(x1) + u
            np.testing.assert_allclose(jet[1, :2], [x2, force], rtol=0, atol=tol)
            np.testing.assert_allclose(jet[2, :2], [force, -math.cos(x1) * x2],
                                       rtol=0, atol=tol)

        third = third_order(f=_sine_force(lib))
        traj = third.controlled_curve(ConstantControl([u], third.horizon))
        for t in (0.3, 0.8):
            jet = traj.jet(t, 4).blocks[:, 0]
            assert jet[3] == pytest.approx(-math.sin(jet[0]) + u, abs=tol)
            assert jet[4] == pytest.approx(-math.cos(jet[0]) * jet[1], abs=tol)

        for triple in (swinging, third):
            rep = validate_triple(triple)
            assert rep.ok, "; ".join(rep.lines())
    fell_back = any("difference quotients" in str(w.message) for w in caught)
    assert fell_back == (lib is math)


OVERRIDDEN_DYNAMICS = {
    "pendulum_r2": lambda: pendulum_r2().dynamics,
    "pendulum_direct": lambda: pendulum_direct().dynamics,
    "embed_classical(pendulum)": lambda: pendulum_classical().dynamics,
    "embed_classical(swinging)": lambda: embed_classical(_swinging_pendulum()).dynamics,
    "ClassicalProblem.state_dynamics": lambda: _swinging_pendulum().state_dynamics(),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(OVERRIDDEN_DYNAMICS)),
       t=st.floats(0.0, PI / 2),
       y=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       u=st.floats(-1.0, 1.0))
def test_rhs_override_matches_chain_fields(name, t, y, u):
    # the hand-written right-hand side and the one assembled from the chain
    # blocks' top fields are two definitions of the same dynamics
    dyn = OVERRIDDEN_DYNAMICS[name]()
    generic = NormalFormDynamics(dyn.blocks)
    state = np.array(y[:dyn.state_dim])
    fast = dyn.rhs(t, state, [u])
    slow = generic.rhs(t, state, [u])
    assert np.max(np.abs(fast - slow)) <= 1e-14 * max(1.0, np.max(np.abs(fast))), name
