import math

import numpy as np
import pytest

from hopmp.classical import (
    ClassicalProblem,
    adjoint_integrate,
    chain_reduction_problem,
    classical_pmp_check,
    embed_classical,
    hamiltonian,
    hamiltonian_table,
    mth_order_bang_bang,
    phi_surjectivity_probe,
)
from hopmp.controls import ConstantControl
from hopmp.dynamics import integrate
from hopmp.errors import DegenerateHorizon
from hopmp.problem import ControlSet, pontryagin_p, validate_triple
from hopmp.problems import pendulum_classical, pendulum_direct, third_order
from tests_support import oracle_gap

PI = math.pi


def pendulum_cp(T=PI / 2, v=0.0):
    return ClassicalProblem(
        f=lambda t, x, u: np.array([x[1], -x[0] + u[0]]),
        dfdx=lambda t, x, u: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        cost=lambda x: -x[0],
        x0=np.array([0.0, v]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=T,
    )


def x_trajectory(cp, u, tol=(1e-10, 1e-12)):
    dyn = cp.state_dynamics()
    x0 = {f"x{i+1}": [float(cp.x0[i])] for i in range(cp.dim)}
    return integrate(dyn, u, dyn.pack_state(x0), cp.horizon, tol=tol)


def test_adjoint_closed_form_pendulum():
    T = PI / 2
    cp = pendulum_cp(T)
    u = ConstantControl([1.0], T)
    adj = adjoint_integrate(cp, u, [1.0, 0.0])
    ts = np.linspace(0, T, 101)
    err1 = max(abs(adj.state(t)[2] - math.cos(T - t)) for t in ts)
    err2 = max(abs(adj.state(t)[3] - math.sin(T - t)) for t in ts)
    assert err1 <= 1e-8 and err2 <= 1e-8


def test_adjoint_constant_when_jacobian_vanishes():
    cp = ClassicalProblem(
        f=lambda t, x, u: np.array([u[0]]),
        dfdx=lambda t, x, u: np.array([[0.0]]),
        cost=lambda x: -x[0],
        x0=np.array([0.0]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=1.0,
    )
    u = ConstantControl([0.5], 1.0)
    adj = adjoint_integrate(cp, u, [2.5])
    for t in (0.0, 0.4, 1.0):
        assert adj.state(t)[1] == pytest.approx(2.5, abs=1e-10)


def test_adjoint_third_order_chain_closed_form():
    # x''' = u: adjoints from (1, 0, 0) give p3(t) = (T - t)^2 / 2
    T = 1.0
    cp = ClassicalProblem(
        f=lambda t, x, u: np.array([x[1], x[2], u[0]]),
        dfdx=lambda t, x, u: np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]]),
        cost=lambda x: -x[0],
        x0=np.zeros(3),
        controls=ControlSet([-1.0], [1.0]),
        horizon=T,
    )
    u = ConstantControl([1.0], T)
    adj = adjoint_integrate(cp, u, [1.0, 0.0, 0.0])
    for t in (0.0, 0.3, 0.8):
        assert adj.state(t)[5] == pytest.approx((T - t) ** 2 / 2, abs=1e-9)


def test_default_terminal_adjoint_is_minus_the_cost_gradient():
    # p(T) = -grad C(x(T)) from the embedding cost's dual-number partials;
    # a difference-quotient fallback would warn, which fails the run
    T = PI / 2
    cp = pendulum_cp(T, v=0.4)
    cp.cost = lambda x: -x[0] + 0.5 * x[1] ** 2
    adj = adjoint_integrate(cp, ConstantControl([0.3], T), tol=(1e-12, 1e-14))
    y = adj.state(T)
    assert np.max(np.abs(y[2:] - np.array([1.0, -y[1]]))) <= 1e-12


def test_chain_reduction_terminal_adjoint_matches_the_triple_cost():
    # the chain reduction's cost takes the dual number through its jet blocks
    T = 1.0
    triple = third_order(T=T)
    g0 = triple.controlled_curve(ConstantControl([1.0], T), tol=(1e-11, 1e-13))
    cp = chain_reduction_problem(triple, g0)
    adj = adjoint_integrate(cp, g0.control, tol=(1e-12, 1e-14))
    want = [-triple.cost.partial(g0.terminal_jet(2), ("q", 0, l)) for l in range(3)]
    assert np.max(np.abs(adj.state(T)[3:] - want)) <= 1e-12


def test_embed_classical_lagrangian_vanishes_along_solutions():
    triple = pendulum_classical(T=PI / 2)
    u = ConstantControl([0.7], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.4),
                                   tol=(1e-10, 1e-12))
    for t in np.linspace(0.05, 1.5, 7):
        jet = traj.jet(t, 1)
        val = triple.lagrangian.value(jet, u.value(t))
        assert abs(val) < 1e-9


def test_embed_classical_validates():
    checks = validate_triple(pendulum_classical(T=PI / 2))
    assert all(c.ok for c in checks), "\n".join(c.line() for c in checks)


def test_embed_constant_when_f_zero():
    cp = ClassicalProblem(
        f=lambda t, x, u: np.zeros(1),
        dfdx=lambda t, x, u: np.zeros((1, 1)),
        cost=lambda x: -x[0],
        x0=np.array([0.3]),
        controls=ControlSet([-1.0], [1.0]),
        horizon=1.0,
    )
    triple = embed_classical(cp)
    sigma = {"x1": [0.3], "p1": [0.9]}
    traj = triple.controlled_curve(ConstantControl([0.2], 1.0), sigma)
    assert traj.state(1.0)[0] == pytest.approx(0.3, abs=1e-12)
    assert traj.state(1.0)[1] == pytest.approx(0.9, abs=1e-12)


def test_hamiltonian_values():
    cp = pendulum_cp(PI / 2)
    H = hamiltonian(cp, 0.3, [0.1, 0.4], [0.8, 0.5])
    # p1 x2 + p2 (-x1 + u)
    assert H([0.6]) == pytest.approx(0.8 * 0.4 + 0.5 * (-0.1 + 0.6), rel=1e-12)
    H0 = hamiltonian(cp, 0.3, [0.1, 0.4], [0.0, 0.0])
    assert H0([0.6]) == 0.0
    Hu = hamiltonian(cp, 0.0, [0.0, 0.0], [0.0, 1.0])
    assert Hu([0.35]) == pytest.approx(0.35)


def test_pontryagin_and_hamiltonian_differ_by_u_independent_term():
    triple = pendulum_classical(T=PI / 2)
    cp = pendulum_cp(PI / 2)
    u = ConstantControl([0.3], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.5),
                                   tol=(1e-10, 1e-12))
    for tau in (0.2, 0.9, 1.4):
        jet = traj.jet(tau, 1)
        x = jet.blocks[0, :2]
        p = jet.blocks[0, 2:]
        P = pontryagin_p(triple, jet)
        H = hamiltonian(cp, tau, x, p)
        diffs = [P([w]) - H([w]) for w in np.linspace(-1, 1, 9)]
        assert np.max(np.abs(np.diff(diffs))) < 1e-10
        # same maximizer on a grid
        grid = np.linspace(-1, 1, 9).reshape(-1, 1)
        w_p, _ = P.argmax_on_grid(grid)
        w_h = grid[int(np.argmax([H(w) for w in grid]))]
        assert np.allclose(w_p, w_h)


def test_classical_pmp_check_optimal_empty():
    cp = pendulum_cp(PI / 2, v=1.0)
    u = ConstantControl([1.0], PI / 2)
    taus, omegas = np.linspace(0.1, 1.4, 8), np.linspace(-1, 1, 9)
    assert not classical_pmp_check(taus, omegas, *hamiltonian_table(cp, u, taus, omegas))


def test_classical_pmp_check_detects_bad_control():
    T = PI / 2
    cp = pendulum_cp(T, v=1.0)
    u = ConstantControl([-1.0], T)
    taus = np.linspace(0.1, 1.4, 8)
    omegas = np.linspace(-1, 1, 9)
    violations = classical_pmp_check(taus, omegas, *hamiltonian_table(cp, u, taus, omegas))
    bad = {v.tau for v in violations}
    assert bad == {float(t) for t in taus}   # sin(T - t) > 0 throughout
    for v in violations:
        if v.omega[0] == 1.0:
            assert v.margin == pytest.approx(2 * math.sin(T - v.tau), abs=1e-8)


def test_classical_pmp_check_omega_at_control_empty():
    cp = pendulum_cp(PI / 2, v=1.0)
    u = ConstantControl([1.0], PI / 2)
    taus = np.linspace(0.1, 1.4, 5)
    assert not classical_pmp_check(taus, [[1.0]], *hamiltonian_table(cp, u, taus, [[1.0]]))


def test_mth_order_bang_bang_pendulum_no_switch():
    u_opt, adj = mth_order_bang_bang([1.0, 0.0, 1.0], PI / 2)
    assert len(u_opt.breakpoints) == 0
    assert u_opt.value(0.7)[0] == 1.0
    # adjoint reproduces sin(T - t)
    for t in (0.2, 1.0):
        assert adj.state(t)[2] == pytest.approx(math.sin(PI / 2 - t), abs=1e-9)


def test_mth_order_bang_bang_switch_detection():
    T = 3 * PI / 2
    u_opt, adj = mth_order_bang_bang([1.0, 0.0, 1.0], T)
    assert len(u_opt.breakpoints) == 1
    assert u_opt.breakpoints[0] == pytest.approx(T - PI, abs=1e-9)
    assert u_opt.value(0.1)[0] == -1.0
    assert u_opt.value(T - PI + 0.1)[0] == 1.0


def test_mth_order_bang_bang_first_order():
    u_opt, adj = mth_order_bang_bang([0.0, 1.0], 1.0)
    assert len(u_opt.breakpoints) == 0
    assert u_opt.value(0.5)[0] == 1.0
    assert adj.state(0.2)[1] == pytest.approx(1.0, abs=1e-10)


def test_chain_reduction_oracle_third_order():
    triple = third_order(T=1.0)
    u = ConstantControl([1.0], 1.0)
    g0 = triple.controlled_curve(u, tol=(1e-11, 1e-13))
    cp = chain_reduction_problem(triple, g0)
    xt = x_trajectory(cp, u, tol=(1e-11, 1e-13))
    assert xt.state(1.0)[0] == pytest.approx(1.0 / 6.0, abs=1e-9)
    taus = np.linspace(0.1, 0.9, 5)
    table, _ = hamiltonian_table(cp, u, taus, np.array([[-1.0], [1.0]]))
    assert np.all(np.argmax(table, axis=1) == 1)   # the maximizer is +1


def test_phi_surjectivity_probe_slope():
    triple = pendulum_direct(T=PI / 2)
    report = phi_surjectivity_probe(triple, np.linspace(-1, 1, 9))
    assert report.slope == pytest.approx(1.0, abs=1e-9)       # sin(pi/2)
    assert report.residual <= 1e-9
    assert report.intercept == pytest.approx(0.0, abs=1e-9)   # u = 0


def test_phi_surjectivity_probe_forced_intercept():
    triple = pendulum_direct(T=PI / 2)
    u = ConstantControl([1.0], PI / 2)
    report = phi_surjectivity_probe(triple, np.linspace(-1, 1, 7), u=u)
    assert report.slope == pytest.approx(1.0, abs=1e-9)
    assert report.intercept == pytest.approx(1.0 - math.cos(PI / 2), abs=1e-9)


def test_phi_surjectivity_probe_degenerate_horizon():
    triple = pendulum_direct(T=PI - 1e-8)   # passes the builder's gate
    with pytest.raises(DegenerateHorizon):
        phi_surjectivity_probe(triple, np.linspace(-1, 1, 5))
    from hopmp.errors import BadParams

    with pytest.raises(BadParams):
        pendulum_direct(T=PI)


def test_mth_order_bang_bang_odd_order_with_velocity_coupling():
    # x''' + xd = u with cost -x(T): the adjoint solves p''' = -pd backward
    # from the annihilating data (0, 0, +1), giving p(t) = 1 - cos(T - t);
    # the printed convention would flip the top sign (odd order), which the
    # synthesis flags while the oracle confirms the maximizer
    from hopmp.needle import transversality_synthesize
    from hopmp.problems import mth_order

    a = [0.0, 1.0, 0.0, 1.0]
    T = 1.0
    triple = mth_order(a, T)
    u = ConstantControl([1.0], T)
    g0 = triple.controlled_curve(u, tol=(1e-11, 1e-13))
    conds = transversality_synthesize(triple, jet_T=g0.jet(T, 5))
    assert np.allclose(conds.terminal_values["p"], [0.0, 0.0, 1.0], atol=1e-10)
    assert conds.paper_sign_note is not None
    assert oracle_gap(triple, conds, g0) <= 1e-9

    u_opt, adj = mth_order_bang_bang(a, T)
    assert len(u_opt.breakpoints) == 0
    assert u_opt.value(0.5)[0] == 1.0
    for t in (0.0, 0.4, 0.9):
        assert adj.state(t)[3] == pytest.approx(1 - math.cos(T - t), abs=1e-10)
