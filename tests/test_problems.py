import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hopmp.classical import ClassicalProblem, embed_classical
from hopmp.controls import ConstantControl
from hopmp.dynamics import NormalFormDynamics
from hopmp.errors import BadParams, NoClosedForm, OrderUnavailable
from hopmp.jetspace import ScalarJetField
from hopmp.problem import ControlSet, el_residual, validate_triple
from hopmp.problems import (
    build,
    mth_order,
    optimal_reference,
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
    checks = validate_triple(build(pid, **kwargs))
    assert all(c.ok for c in checks), f"{pid}: " + "; ".join(c.line() for c in checks)


def test_pendulum_direct_el_reproduces_constraint():
    triple = pendulum_direct(T=PI / 2)
    u = ConstantControl([0.4], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.3),
                                   tol=(1e-10, 1e-12))
    for t in (0.3, 1.0):
        res = el_residual(triple, traj, u, t)
        assert abs(res[0]) < 1e-9


@settings(deadline=None, max_examples=20)
@example(T=PI / 2, v=0.37, uval=0.55)
@given(T=st.floats(0.3, 3.0), v=st.floats(-1.0, 1.0), uval=st.floats(-1.0, 1.0))
def test_cross_formulation_trajectory_agreement(T, v, uval):
    # same physical control and initial x-data in all three forms
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


@pytest.mark.parametrize("T", [0.5, 1.0, PI / 2, 2.5])
def test_mth_order_pendulum_adjoint_at_zero(T):
    # p'' = -p back from p(T) = 0, p'(T) = -1 gives p(t) = sin(T - t)
    p = mth_order([1.0, 0.0, 1.0], T).initial_data.make()["p"]
    assert np.max(np.abs(p - [math.sin(T), -math.cos(T)])) <= 5e-13


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), T=st.floats(0.2, 2.0))
def test_mth_order_p_chain_ends_on_the_synthesized_terminal_jet(data, m, T):
    # one p-chain serves the construction and the synthesis: the builder's
    # p(0), run forward, ends on transversality_synthesize's terminal jet
    from hopmp.needle import transversality_synthesize

    a = [data.draw(st.floats(-2.0, 2.0)) for _ in range(m)]
    a.append(data.draw(st.floats(0.5, 2.0)) * data.draw(st.sampled_from([-1.0, 1.0])))
    triple = mth_order(a, T)
    traj = triple.controlled_curve(ConstantControl([0.0], T), tol=(1e-11, 1e-13))
    p = traj.states[:, m:]
    want = transversality_synthesize(triple).terminal_values["p"]
    assert np.max(np.abs(p[-1] - want)) <= 1e-8 * (1.0 + np.max(np.abs(p)))


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
    f = ScalarJetField(lambda p, u: u[0] - p.coord(0, 0), actual_order=0, reads={0: 0})
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


def _swinging_pendulum(lib=math) -> ClassicalProblem:
    """A nonlinear classical problem: x1' = x2, x2' = -sin x1 + u, with sin
    and cos taken from ``lib``."""
    return ClassicalProblem(
        f=lambda t, x, u: np.array([x[1], -lib.sin(x[0]) + u[0]]),
        dfdx=lambda t, x, u: np.array([[0.0, 1.0], [-lib.cos(x[0]), 0.0]]),
        cost=lambda x: -x[0],
        x0=np.array([0.0, 0.0]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=PI / 2,
    )


@pytest.mark.parametrize("lib", [math, np], ids=["math", "numpy"])
def test_elementary_function_fields_give_jets(lib):
    # numpy's sin and cos run on the Taylor-series path, exact up to rounding.
    # math's take neither series nor dual numbers: the jets read the state
    # and the fields' values, the derivatives above them are refused, and
    # validate_triple names the refusal in its Euler-Lagrange check
    from tests_support import sine_force

    u, tol = 0.5, 1e-12
    swinging = embed_classical(_swinging_pendulum(lib))
    traj = swinging.controlled_curve(ConstantControl([u], swinging.horizon))
    for t in (0.3, 1.2):
        (x1, x2), jet = traj.state(t)[:2], traj.jet(t, 1).blocks
        force = -math.sin(x1) + u
        np.testing.assert_allclose(jet[1, :2], [x2, force], rtol=0, atol=tol)
        if lib is math:
            with pytest.raises(OrderUnavailable):
                traj.jet(t, 2)
        else:
            np.testing.assert_allclose(traj.jet(t, 2).blocks[2, :2],
                                       [force, -math.cos(x1) * x2], rtol=0, atol=tol)

    third = third_order(f=sine_force(lib))
    if lib is math:
        # x''' = f reads f's value, but the adjoint's p''' reads its partials
        with pytest.raises(OrderUnavailable, match="^f: "):
            third.controlled_curve(ConstantControl([u], third.horizon))
    else:
        traj = third.controlled_curve(ConstantControl([u], third.horizon))
        for t in (0.3, 0.8):
            jet = traj.jet(t, 4).blocks[:, 0]
            assert jet[3] == pytest.approx(-math.sin(jet[0]) + u, abs=tol)
            assert jet[4] == pytest.approx(-math.cos(jet[0]) * jet[1], abs=tol)

    refused = [] if lib is np else ["dynamics realizes the Euler-Lagrange constraints "
                                    "(OrderUnavailable)"]
    for triple in (swinging, third):
        checks = validate_triple(triple)
        assert [c.label for c in checks if not c.ok] == refused, \
            "; ".join(c.line() for c in checks)


def _embedded_rhs(cp: ClassicalProblem):
    """The first-order embedding's dynamics in closed form: x' = f, p' = -p df/dx."""
    def rhs(t, y, u):
        x, p = y[:cp.dim], y[cp.dim:]
        return np.concatenate([np.asarray(cp.f(t, x, u), dtype=float),
                               -p @ np.atleast_2d(cp.dfdx(t, x, u))])

    return rhs


# name -> (dynamics built from chain blocks, the same dynamics in closed form)
CLOSED_FORM_DYNAMICS = {
    "pendulum_r2": (lambda: pendulum_r2().dynamics,
                    lambda t, y, u: np.array([y[1], u[0] - y[0], y[3], -y[2]])),
    "pendulum_direct": (lambda: pendulum_direct().dynamics,
                        lambda t, y, u: np.array([y[1], u[0] - y[0]])),
    "embed_classical(pendulum)": (lambda: pendulum_classical().dynamics,
                                  lambda t, y, u: np.array([y[1], u[0] - y[0], y[3], -y[2]])),
    "embed_classical(swinging)": (lambda: embed_classical(_swinging_pendulum()).dynamics,
                                  _embedded_rhs(_swinging_pendulum())),
    "ClassicalProblem.state_dynamics": (
        lambda: _swinging_pendulum().state_dynamics(),
        lambda t, y, u: np.asarray(_swinging_pendulum().f(t, y, u), dtype=float)),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORM_DYNAMICS)),
       t=st.floats(0.0, PI / 2),
       y=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       u=st.floats(-1.0, 1.0))
def test_rhs_override_matches_chain_fields(name, t, y, u):
    # the right-hand side assembled from the chain blocks' top fields and the
    # problem's closed form are two definitions of the same dynamics
    make, closed_form = CLOSED_FORM_DYNAMICS[name]
    dyn = make()
    state = np.array(y[:dyn.state_dim])
    ref = closed_form(t, state, [u])
    got = dyn.rhs(t, state, [u])
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), name


BATCHED_DYNAMICS = {
    **{name: make for name, (make, _) in CLOSED_FORM_DYNAMICS.items()},
    "mth_order": lambda: mth_order(a=[1.0, 0.0, 1.0]).dynamics,
    "third_order": lambda: third_order().dynamics,
}


@pytest.mark.parametrize("batch", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(BATCHED_DYNAMICS))
@settings(max_examples=8, deadline=None)
@given(t=st.floats(0.0, PI / 2), data=st.data())
def test_batched_rhs_equals_stacked_member_rhs(name, batch, t, data):
    # B states side by side take one pass of the evaluation plan, with one
    # float time or one time per member; each column is that member's own
    # plan right-hand side, and its batch-free right-hand side within
    # rounding (B = 2 is the state dimension of the classical pendulums, where
    # a matrix product over the batch axis still has the right shape)
    dyn = BATCHED_DYNAMICS[name]()
    generic = NormalFormDynamics(dyn.blocks)
    floats = lambda lo, hi, n: np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n,
                                                            max_size=n)))
    y = floats(-3.0, 3.0, dyn.state_dim * batch).reshape(dyn.state_dim, batch)
    uj = floats(-1.0, 1.0, batch).reshape(1, 1, batch)
    for ts in (t, floats(0.0, PI / 2, batch)):
        tk = np.broadcast_to(ts, (batch,))
        got = dyn.rhs(ts, y, uj)
        members = np.stack([generic.rhs(float(tk[k]), y[:, k], uj[..., k])
                            for k in range(batch)], axis=-1)
        assert got.shape == (dyn.state_dim, batch)
        assert np.array_equal(got, members), name
        for k in range(batch):
            own = dyn.rhs(float(tk[k]), y[:, k], uj[0, :, k])
            assert np.max(np.abs(own - got[:, k])) <= 1e-14 * max(1.0, np.max(np.abs(own))), name
