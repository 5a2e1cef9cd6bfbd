import math

import numpy as np
import pytest

from hopmp.controls import (
    ConstantControl,
    HarmonicControl,
    NeedleOverlayControl,
    PiecewiseConstantControl,
)
from hopmp.dynamics import (
    control_measure_diff,
    integrate,
    lipschitz_probe,
    reduce_to_first_order,
)
from hopmp.errors import TimeOutOfRange
from hopmp.problems import pendulum_r2

PI = math.pi


def chain_2nd_order():
    # xdd = -x + u as a generic chain reduction
    def f(p, u):
        return np.array([u[0] - p.coord(0, 0)])

    return reduce_to_first_order(
        f, order=2, state_dim=1,
        partials={("q", 0, 0): lambda p, u: np.array([-1.0]),
                  ("u", 0): lambda p, u: np.array([1.0])},
        names=["x"],
    )


def test_integrate_pendulum_free_oscillation():
    dyn = chain_2nd_order()
    u = ConstantControl([0.0], PI / 2)
    traj = integrate(dyn, u, np.array([0.0, 1.0]), PI / 2, tol=(1e-10, 1e-12))
    # x(t) = sin t
    assert traj.state(PI / 2)[0] == pytest.approx(1.0, abs=1e-8)
    j = traj.jet(PI / 2, 2)
    assert j.coord(0, 0) == pytest.approx(1.0, abs=1e-8)
    assert j.coord(0, 1) == pytest.approx(0.0, abs=1e-8)
    assert j.coord(0, 2) == pytest.approx(-1.0, abs=1e-8)


def test_integrate_pendulum_forced():
    dyn = chain_2nd_order()
    u = ConstantControl([1.0], PI)
    traj = integrate(dyn, u, np.array([0.0, 0.0]), PI, tol=(1e-10, 1e-12))
    # x(t) = 1 - cos t
    assert traj.state(PI / 2)[0] == pytest.approx(1.0, abs=1e-8)
    j = traj.jet(PI, 1)
    assert j.coord(0, 0) == pytest.approx(2.0, abs=1e-8)
    assert j.coord(0, 1) == pytest.approx(0.0, abs=1e-8)


def test_zero_rhs_zero_trajectory():
    def f(p, u):
        return np.array([0.0])

    dyn = reduce_to_first_order(f, order=1, state_dim=1, names=["x"])
    traj = integrate(dyn, ConstantControl([0.0], 1.0), np.array([0.0]), 1.0)
    for t in np.linspace(0, 1, 7):
        assert traj.state(t)[0] == 0.0


def test_identity_reduction_m1():
    # dx/dt = u
    def f(p, u):
        return np.array([u[0]])

    dyn = reduce_to_first_order(f, order=1, state_dim=1, names=["x"])
    assert dyn.state_dim == 1
    traj = integrate(dyn, ConstantControl([1.0], 2.0), np.array([0.0]), 2.0)
    assert traj.state(2.0)[0] == pytest.approx(2.0, abs=1e-9)


def test_third_order_chain_shape():
    def f(p, u):
        return np.array([u[0]])

    dyn = reduce_to_first_order(f, order=3, state_dim=1, names=["x"])
    assert dyn.state_dim == 3
    traj = integrate(dyn, ConstantControl([1.0], 1.0), np.zeros(3), 1.0,
                     tol=(1e-11, 1e-13))
    assert traj.state(1.0)[0] == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_jet_reconstruction_beyond_state_uses_dynamics():
    dyn = chain_2nd_order()
    u = ConstantControl([1.0], 1.0)
    traj = integrate(dyn, u, np.array([0.3, -0.2]), 1.0, tol=(1e-10, 1e-12))
    j = traj.jet(0.5, 4)
    x, xd = j.coord(0, 0), j.coord(0, 1)
    assert j.coord(0, 2) == pytest.approx(1.0 - x)        # u - x
    assert j.coord(0, 3) == pytest.approx(-xd)            # d/dt (u - x)
    assert j.coord(0, 4) == pytest.approx(-(1.0 - x))     # second derivative


def test_time_out_of_range():
    dyn = chain_2nd_order()
    traj = integrate(dyn, ConstantControl([0.0], 1.0), np.array([0.0, 1.0]), 1.0)
    with pytest.raises(TimeOutOfRange):
        traj.state(1.5)


def test_breakpoints_in_mesh_and_composition():
    dyn = chain_2nd_order()
    u = PiecewiseConstantControl([0.4], [[1.0], [-1.0]], 1.0)
    traj = integrate(dyn, u, np.array([0.0, 0.0]), 1.0, tol=(1e-10, 1e-12))
    assert any(abs(t - 0.4) < 1e-14 for t in traj.mesh)

    # composing piecewise integrations reproduces the single run to roundoff
    t1 = integrate(dyn, ConstantControl([1.0], 0.4), np.array([0.0, 0.0]), 0.4,
                   tol=(1e-10, 1e-12))
    y_mid = t1.state(0.4)
    dyn2 = chain_2nd_order()
    t2 = integrate(dyn2, ConstantControl([-1.0], 0.6), y_mid, 0.6,
                   tol=(1e-10, 1e-12))
    assert np.allclose(traj.state(1.0), t2.state(0.6), atol=1e-9)


def test_integration_order_under_tolerance_refinement():
    dyn = chain_2nd_order()
    u = ConstantControl([0.0], PI / 2)
    errs = []
    for rtol in (1e-6, 1e-8, 1e-10):
        traj = integrate(dyn, u, np.array([0.0, 1.0]), PI / 2, tol=(rtol, rtol * 1e-2))
        errs.append(abs(traj.state(PI / 2)[0] - 1.0))
    assert errs[0] >= errs[1] >= errs[2] or errs[2] < 1e-11


def test_control_measure_diff_needle():
    T = 1.0
    u1 = ConstantControl([1.0], T)
    u2 = NeedleOverlayControl(u1, tau=0.5, omega=[-1.0], eps=0.1)
    d = control_measure_diff(u1, u2)
    assert d == pytest.approx(0.1, abs=2 * T / 4000)
    assert control_measure_diff(u1, u1) == 0.0
    u3 = ConstantControl([0.0], T)
    assert control_measure_diff(u1, u3) == pytest.approx(T)
    with pytest.raises(ValueError):
        control_measure_diff(ConstantControl([1.0], 1.0), ConstantControl([1.0], 2.0))


def test_right_continuity_of_needle_overlay():
    u1 = ConstantControl([1.0], 1.0)
    u2 = NeedleOverlayControl(u1, tau=0.5, omega=[-1.0], eps=0.1)
    assert u2.value(0.4)[0] == -1.0
    assert u2.value(0.5)[0] == 1.0
    assert u2.value(0.39999)[0] == 1.0


def test_lipschitz_probe_linear_system_bound():
    # dx/dt = u: |x - x'|(t) <= 2 eps when controls differ on measure eps
    def f(p, u):
        return np.array([u[0]])

    dyn = reduce_to_first_order(f, order=1, state_dim=1, names=["x"])
    u1 = ConstantControl([1.0], 1.0)
    u2 = NeedleOverlayControl(u1, tau=0.5, omega=[-1.0], eps=0.2)
    t1 = integrate(dyn, u1, np.array([0.0]), 1.0, tol=(1e-11, 1e-13))
    t2 = integrate(dyn, u2, np.array([0.0]), 1.0, tol=(1e-11, 1e-13))
    sup = max(abs(t1.state(t)[0] - t2.state(t)[0]) for t in np.linspace(0, 1, 201))
    assert sup <= 2 * 0.2 + 1e-9
    assert sup == pytest.approx(0.4, abs=1e-8)


def test_lipschitz_probe_report_deterministic():
    triple = pendulum_r2(T=PI / 2, v_max=1.0)
    r1 = lipschitz_probe(triple, n_pairs=5, seed=42, grid=41)
    r2 = lipschitz_probe(triple, n_pairs=5, seed=42, grid=41)
    assert np.array_equal(r1.ratios, r2.ratios)
    assert np.isfinite(r1.max_ratio)
    assert r1.max_ratio > 0


def test_jet_of_trajectory_zero_case():
    def f(p, u):
        return np.array([0.0])

    dyn = reduce_to_first_order(f, order=2, state_dim=1, names=["x"])
    traj = integrate(dyn, ConstantControl([0.0], 1.0), np.zeros(2), 1.0)
    for t in (0.0, 0.5, 1.0):
        j = traj.jet(t, 3)
        assert np.all(j.blocks == 0.0)


def test_interpolated_samples_control():
    from hopmp.controls import InterpolatedSamplesControl

    ts = np.linspace(0.0, 1.0, 21)
    us = np.sin(2 * ts).reshape(-1, 1)
    u = InterpolatedSamplesControl(ts, us, 1.0)
    assert u.value(0.37)[0] == pytest.approx(math.sin(0.74), abs=1e-4)
    j = u.jet(0.5, 1)
    assert j[1, 0] == pytest.approx(2 * math.cos(1.0), abs=1e-3)


def _one_minus_cos(t, k):
    # d^k/dt^k (1 - cos t)
    return float(k == 0) - math.cos(t + k * PI / 2)


def _pendulum_x(t, k):
    # d^k/dt^k (1 - cos t + sin t)
    return _one_minus_cos(t, k) + math.sin(t + k * PI / 2)


def _cubic_x(t, k):
    # d^k/dt^k (t^3 / 6)
    return t ** (3 - k) / math.factorial(3 - k) if k <= 3 else 0.0


@pytest.mark.parametrize("problem_id, params, sigma, closed_form", [
    # u = 1 from x(0) = 0, x'(0) = 1
    ("pendulum-r2", {}, {"v": 1.0}, _pendulum_x),
    ("pendulum-direct", {}, {"v": 1.0}, _pendulum_x),
    ("pendulum-classical", {}, {"v": 1.0}, _pendulum_x),
    # x'' + x = 1 from rest
    ("mth-order", {"a": [1.0, 0.0, 1.0], "T": PI / 2}, {}, _one_minus_cos),
    # x^(3) = 1 from rest
    ("third-order", {}, {}, _cubic_x),
])
def test_deep_jets_match_closed_form(problem_id, params, sigma, closed_form):
    # every x-jet block up to 2r + 2 comes from the dynamics, so its error is
    # the integrator's, not that of a finite-difference cascade
    from hopmp.problems import build

    triple = build(problem_id, **params)
    u = ConstantControl([1.0], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(**sigma),
                                   tol=(1e-12, 1e-14))
    order = 2 * triple.order + 2
    for t in (0.3 * triple.horizon, 0.8 * triple.horizon):
        jet = traj.jet(t, order)
        for k in range(order + 1):
            assert jet.coord(0, k) == pytest.approx(closed_form(t, k), abs=1e-10), \
                (problem_id, t, k)


def test_pendulum_jets_beyond_former_cap_match_closed_form():
    # order 13 extends the chain x'' = u - x by 11 blocks; every one of them
    # is exact along the flow, so no cap on the extension is needed
    triple = pendulum_r2()
    u = ConstantControl([1.0], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=1.0),
                                   tol=(1e-12, 1e-14))
    for t in (0.3 * triple.horizon, 0.8 * triple.horizon):
        jet = traj.jet(t, 13)
        for k in range(14):
            assert jet.coord(0, k) == pytest.approx(_pendulum_x(t, k), abs=1e-10), (t, k)


def _third_order_reading_xdd():
    # x''' = u - x''^2 / 2: the adjoint's top reads x'''' = Df, hence u'
    from hopmp.jetspace import ScalarJetField
    from hopmp.problems import third_order

    f = ScalarJetField(lambda p, u: u[0] - p.coord(0, 2) ** 2 / 2, actual_order=2,
                       reads={0: 2}, name="f")
    return third_order(f=f)


def test_trajectory_jet_reads_the_control_rows_its_plan_needs():
    triple = _third_order_reading_xdd()
    dyn = triple.dynamics
    u = HarmonicControl(np.array([0.1]), np.array([0.6]), 1.7, 0.3, triple.horizon)
    traj = triple.controlled_curve(u, {"x": np.zeros(3), "p": np.array([0.5, -1.0, 1.0])})
    t = 0.4
    for n in (3, 6):
        deep = dyn.jets_at(t, traj.state(t), u.jet(t, 12), n)
        assert np.array_equal(traj.jet(t, n).blocks, deep.blocks), n
        assert dyn.plan(n).u_depth > n - min(dyn.orders)
    # the integrated adjoint sees the control's derivatives too
    assert dyn.plan().u_depth == 2
    y = traj.state(t)
    assert np.array_equal(dyn.rhs(t, y, u.jet(t, 2)),
                          [y[1], y[2], deep.coord(0, 3), y[4], y[5], deep.coord(1, 3)])


def test_shallow_control_stack_refused():
    from hopmp.errors import InsufficientJetOrder

    dyn = _third_order_reading_xdd().dynamics
    y = np.linspace(0.1, 0.6, dyn.state_dim)
    with pytest.raises(InsufficientJetOrder):
        dyn.jets_at(0.4, y, np.ones((2, 1)), 3)
    with pytest.raises(InsufficientJetOrder):
        dyn.rhs(0.4, y, [0.5])
