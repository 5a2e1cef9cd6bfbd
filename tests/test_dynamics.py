import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hopmp.controls import (
    ConstantControl,
    HarmonicControl,
    NeedleOverlayControl,
    PiecewiseConstantControl,
)
from hopmp.dynamics import (
    ChainBlock,
    NormalFormDynamics,
    _NEEDLE_WIDTHS,
    _PROBE_CHUNK,
    _random_smooth_control,
    control_measure_diff,
    integrate,
    integrate_family,
    lipschitz_probe,
)
from hopmp.errors import TimeOutOfRange
from hopmp.jetspace import ScalarJetField
from hopmp.problems import pendulum_r2

PI = math.pi


def chain(top, order):
    """x^(order) = top(p, u): one chain block, as the problem builders write it."""
    return NormalFormDynamics([ChainBlock("x", order, ScalarJetField(top, actual_order=order - 1,
                                                                     name="f"))])


def chain_2nd_order():
    # xdd = -x + u
    return chain(lambda p, u: u[0] - p.coord(0, 0), 2)


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
    dyn = chain(lambda p, u: 0.0, 1)
    traj = integrate(dyn, ConstantControl([0.0], 1.0), np.array([0.0]), 1.0)
    for t in np.linspace(0, 1, 7):
        assert traj.state(t)[0] == 0.0


def test_identity_reduction_m1():
    # dx/dt = u
    dyn = chain(lambda p, u: u[0], 1)
    assert dyn.state_dim == 1
    traj = integrate(dyn, ConstantControl([1.0], 2.0), np.array([0.0]), 2.0)
    assert traj.state(2.0)[0] == pytest.approx(2.0, abs=1e-9)


def test_third_order_chain_shape():
    dyn = chain(lambda p, u: u[0], 3)
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
    dyn = chain(lambda p, u: u[0], 1)
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
    dyn = chain(lambda p, u: 0.0, 2)
    traj = integrate(dyn, ConstantControl([0.0], 1.0), np.zeros(2), 1.0)
    for t in (0.0, 0.5, 1.0):
        j = traj.jet(t, 3)
        assert np.all(j.blocks == 0.0)


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
    order = 2 * triple.lagrangian.actual_order + 2
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


# -- jets on time grids --------------------------------------------------------

BUILTIN_PARAMS = {"pendulum-classical": {}, "pendulum-r2": {}, "pendulum-direct": {},
                  "mth-order": {"a": [1.0, 0.0, 1.0], "T": PI / 2}, "third-order": {}}


def _pair_by_pair_probe(triple, n_pairs, seed, grid):
    """The Lipschitz probe's ratios and skip count from the same draws, each
    curve integrated alone by ``integrate`` and read by its own ``jets``."""
    rng = np.random.default_rng(seed)
    dyn, T = triple.dynamics, triple.horizon
    depth = 2 * triple.lagrangian.actual_order - 1
    ts = np.linspace(0.0, T, grid)
    lo, hi = triple.controls.lower, triple.controls.upper
    ratios, skipped = [], 0
    for _ in range(n_pairs):
        u = _random_smooth_control(rng, lo, hi, T)
        tau = rng.uniform(0.25 * T, 0.85 * T)
        eps = rng.uniform(*_NEEDLE_WIDTHS)
        u2 = NeedleOverlayControl(u, tau, rng.uniform(lo, hi), eps)
        y1 = dyn.pack_state(triple.initial_data.sample(rng))
        y2 = dyn.pack_state(triple.initial_data.sample(rng))
        t1, t2 = integrate(dyn, u, y1, T), integrate(dyn, u2, y2, T)
        diff = float(np.max(np.abs(t1.jets(ts, depth).blocks - t2.jets(ts, depth).blocks)))
        den = control_measure_diff(u, u2) + float(np.linalg.norm(y1 - y2))
        if den < 1e-14:
            skipped += 1
            continue
        ratios.append(diff / den)
    return np.array(ratios), skipped


@pytest.mark.parametrize("problem_id, n_pairs", [("pendulum-r2", 27)] + [
    (pid, 4) for pid in sorted(BUILTIN_PARAMS) if pid != "pendulum-r2"])
def test_lipschitz_probe_matches_pair_by_pair_integration(problem_id, n_pairs):
    # the probe integrates its pairs as chunked families, 27 pairs crossing a
    # chunk boundary; each member meets its own tolerance, so the ratios
    # agree with lone integrations within the integrator's resolution
    from hopmp.problems import build

    assert _PROBE_CHUNK < 27
    triple = build(problem_id, **BUILTIN_PARAMS[problem_id])
    report = lipschitz_probe(triple, n_pairs=n_pairs, seed=11, grid=41)
    ratios, skipped = _pair_by_pair_probe(triple, n_pairs, seed=11, grid=41)
    assert report.n_skipped == skipped
    assert report.ratios.shape == ratios.shape
    np.testing.assert_allclose(report.ratios, ratios, rtol=1e-6, atol=0)


@functools.lru_cache(maxsize=None)
def _reference_curve(problem_id):
    from hopmp.problems import build, optimal_reference

    triple = build(problem_id, **BUILTIN_PARAMS[problem_id])
    u0, sigma0, _ = optimal_reference(problem_id, **BUILTIN_PARAMS[problem_id])
    return triple, sigma0, triple.controlled_curve(u0, sigma0)


def _stacked_jets(traj, ts, order):
    return np.stack([traj.jet(float(t), order).blocks for t in ts], axis=-1)


def _needle_slice(problem_id, data):
    """(triple, gamma0, spliced, ts): a needle slice spliced onto gamma0 (a
    smoothed needle blended with gamma0's control, as in a needle surface)
    and a grid holding every control breakpoint and T."""
    from hopmp.controls import BlendControl, SmoothedNeedleControl

    triple, sigma0, gamma0 = _reference_curve(problem_id)
    T = triple.horizon
    tau = T * data.draw(st.floats(0.3, 0.9))
    eps = data.draw(st.floats(0.01, 0.2))
    needle = SmoothedNeedleControl(gamma0.control, tau, [-1.0], eps, 0.05)
    slice_u = BlendControl(gamma0.control, needle, data.draw(st.floats(0.1, 1.0)))
    spliced = triple.controlled_curve(slice_u, sigma0, start=(gamma0, needle.t_on))
    assert spliced.splice is not None
    extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    ts = np.array(sorted({0.0, T, *slice_u.breakpoints, *(T * x for x in extra)}))
    return triple, gamma0, spliced, ts


@settings(max_examples=30, deadline=None)
@given(problem_id=st.sampled_from(sorted(BUILTIN_PARAMS)), data=st.data())
def test_jets_equal_stacked_jets(problem_id, data):
    # one pass of the plan per grid gives the jets of one pass per node, up
    # to the dense output's vectorised rounding
    triple, gamma0, spliced, ts = _needle_slice(problem_id, data)
    order = data.draw(st.integers(0, 2 * triple.lagrangian.actual_order))
    for traj in (gamma0, spliced):
        batched = traj.jets(ts, order)
        assert batched.blocks.shape == (order + 1, triple.dynamics.dim, ts.size)
        np.testing.assert_allclose(batched.blocks, _stacked_jets(traj, ts, order),
                                   rtol=1e-13, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(problem_id=st.sampled_from(sorted(BUILTIN_PARAMS)), data=st.data())
def test_lagrangians_on_grids_equal_stacked_one_node_values(problem_id, data):
    # L and Ltilde of an extended curve on a grid, from one batched jet pass,
    # equal their values at each node as a one-node grid; at T they read the
    # control's last piece (clamp), also where the control jumps at T itself
    from hopmp.auxiliary import ExtendedCurve

    triple, gamma0, spliced, ts = _needle_slice(problem_id, data)
    T, r = triple.horizon, triple.lagrangian.actual_order
    prefix = ExtendedCurve(gamma0, triple)
    jump_at_T = PiecewiseConstantControl([T], [[1.0], [-1.0]], T)
    for ext in (prefix, ExtendedCurve(spliced, triple, prefix),
                ExtendedCurve(triple.controlled_curve(jump_at_T, gamma0.initial_state), triple)):
        u = ext.base.control
        assert ext.lagrangian(T) == triple.lagrangian.value(ext.base.jet(T, r),
                                                            u.value(u.clamp(T)))
        for fn in (ext.lagrangian, ext.ltilde):
            got = fn(ts)
            assert got.shape == ts.shape
            np.testing.assert_allclose(got, [fn(float(t)) for t in ts], rtol=1e-13, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(problem_id=st.sampled_from(sorted(BUILTIN_PARAMS)), data=st.data())
def test_momenta_on_grids_equal_stacked_node_momenta(problem_id, data):
    # the boundary pairing takes every slice's momenta from one batched point:
    # the dual numbers of the partials carry the batch axis, and each node's
    # sums equal those of its own jet exactly
    from hopmp.problem import full_momenta, lagrangian_momenta

    triple, gamma0, spliced, ts = _needle_slice(problem_id, data)
    r, u = triple.lagrangian.actual_order, spliced.control
    jets = spliced.jets(ts, 2 * r)
    ujets = np.stack([u.jet(u.clamp(t), r + 1) for t in ts], axis=-1)
    for momenta in (lagrangian_momenta, full_momenta):
        got = momenta(triple, jets, ujets)
        assert got.shape == (triple.lagrangian.state_dim, r, ts.size)
        assert np.array_equal(got, np.stack([momenta(triple, jets.node(b), ujets[..., b])
                                              for b in range(ts.size)], axis=-1))


def _node_by_node(traj, ts, order):
    """The jets at each node from the grid's own states, one node at a time."""
    ys, depth = traj.state(ts), traj.dynamics.plan(order).u_depth
    return np.stack([traj.dynamics.jets_at(float(t), ys[:, j],
                                           traj.control.jet(traj.control.clamp(t), depth),
                                           order).blocks
                     for j, t in enumerate(ts)], axis=-1)


@pytest.mark.parametrize("lib", [math, np], ids=["math", "numpy"])
def test_jets_of_fields_that_cannot_batch_add_no_warning(lib):
    # with math.sin the top field takes no array and runs node by node, its
    # derived blocks taking the chain rule on its exact partials as at one
    # node; with np.sin the adjoint's blocks take dual numbers inside series,
    # batched like the series, without marking any field as unable to take
    # series
    from hopmp.problems import third_order
    from tests_support import sine_force

    triple = third_order(f=sine_force(lib))
    traj = triple.controlled_curve(HarmonicControl([0.2], [0.5], 2.0, 0.1, triple.horizon))
    ts = np.linspace(0.0, triple.horizon, 9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = _node_by_node(traj, ts, 5)
    assert any("difference quotient" in str(w.message) for w in caught) == (lib is math)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = traj.jets(ts, 5).blocks
    if lib is math:
        assert np.array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("force", [
    # a comparison: the batched call raises ValueError on an array's truth value
    lambda p, u: u[0] - p.coord(0, 0) if p.coord(0, 0) > 0.0 else u[0],
    # a reduction over the batch axis: right shape, wrong values, caught by
    # the batch audit
    lambda p, u: u[0] - np.sum([p.coord(0, 0), 0.5 * p.coord(0, 1)]),
], ids=["comparison", "reduction"])
def test_jets_of_non_elementwise_fields_run_node_by_node(force):
    dyn = chain(force, 2)
    traj = integrate(dyn, HarmonicControl([0.0], [0.8], 3.0, 0.0, 2.0), np.array([-0.3, 1.0]), 2.0)
    ts = np.linspace(0.0, 2.0, 11)
    assert np.array_equal(traj.jets(ts, 2).blocks, _node_by_node(traj, ts, 2))


def test_jets_of_a_field_that_contracts_the_batch_axis_run_node_by_node():
    # np.dot over the coordinate vector (x, y) also contracts a batch of two
    # nodes, and is right at the first node only; the batch audit's call on
    # 5 nodes raises
    def f(p, u):
        xy = np.array([p.coord(0, 0), p.coord(1, 0)])
        return np.dot(xy, [1.0, 0.0])

    dyn = NormalFormDynamics([
        ChainBlock("x", 1, ScalarJetField(f, actual_order=0, name="f[x]")),
        ChainBlock("y", 1, ScalarJetField(lambda p, u: u[0] - p.coord(0, 0), actual_order=0,
                                          name="f[y]"))])
    traj = integrate(dyn, HarmonicControl([0.0], [0.8], 3.0, 0.0, 1.0), np.array([0.3, -0.2]), 1.0)
    ts = np.array([0.2, 0.9])
    assert np.array_equal(traj.jets(ts, 2).blocks, _node_by_node(traj, ts, 2))


def test_jets_of_a_field_wrong_only_at_interior_nodes_run_node_by_node():
    # an evaluator that reverses a batch's interior columns is right at its
    # first and last node and wrong in between: the batch audit finds it and
    # marks the field, whose grid reads then run node by node
    def f(p, u):
        x = p.coord(0, 0)
        if np.ndim(x):
            x = np.concatenate([x[:1], x[-2:0:-1], x[-1:]])
        return u[0] - x

    dyn = chain(f, 2)
    traj = integrate(dyn, HarmonicControl([0.0], [0.8], 3.0, 0.0, 2.0), np.array([-0.3, 1.0]), 2.0)
    ts = np.linspace(0.0, 2.0, 11)
    assert np.array_equal(traj.jets(ts, 2).blocks, _node_by_node(traj, ts, 2))
    assert dyn.blocks[0].top.batch_safe is False


def test_family_integration_evaluates_no_node_on_its_own():
    # the field's batch audit evaluates batches only, once; every right-hand
    # side of the family after it is one evaluation of the whole batch
    alone = []

    def f(p, u):
        alone.append(np.ndim(p.coord(0, 0)) == 0)
        return u[0] - np.sin(p.coord(0, 0))

    dyn = chain(f, 2)
    controls = [HarmonicControl([0.0], [a], 3.0, 0.0, 2.0) for a in (0.2, 0.5, 0.8)]
    integrate_family(dyn, controls, [np.array([-0.3, 1.0])] * 3, 2.0)
    assert len(alone) > 10 and not any(alone)
    assert dyn.blocks[0].top.batch_safe is True


def test_jets_refuse_nodes_outside_the_horizon():
    traj = integrate(chain_2nd_order(), ConstantControl([0.0], 1.0), np.array([0.0, 1.0]), 1.0)
    for ts in ([0.0, 0.5, 1.5], [-0.1, 0.5]):
        with pytest.raises(TimeOutOfRange):
            traj.jets(np.array(ts), 2)


# -- needle families as one integration ------------------------------------------


def _widths(data):
    """A strictly decreasing list of 1-3 needle widths in [0.01, 0.1]."""
    return sorted(data.draw(st.lists(st.floats(0.01, 0.1), min_size=1, max_size=3,
                                     unique=True), label="widths"), reverse=True)


class _RecordedDraws:
    """Stands in for ``st.data()`` in an explicit example: each ``draw``
    returns the next recorded value, whatever the strategy, and the draw of
    the widths, a run's first, starts the record over."""

    def __init__(self, *values):
        self.recorded = values

    def draw(self, strategy, label=None):
        if label == "widths":
            self.values = iter(self.recorded)
        return next(self.values)


def _moving_family(triple, sigma0, target):
    """Initial data whose first free coordinate moves linearly in s from
    sigma0's value to ``target``."""
    p = triple.initial_data.free[0]
    start = float(sigma0[p.var][p.index])

    def family(eps, s):
        sigma = {k: np.array(v, dtype=float) for k, v in sigma0.items()}
        sigma[p.var][p.index] = start + s * (target - start)
        return sigma

    return family


@pytest.mark.parametrize("problem_id", sorted(BUILTIN_PARAMS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
# two widths whose family, integrated at tol rather than tol / W, left
# pendulum-r2's x(T) at 2.1 times the bound: the wider needle's down-ramp,
# split by the narrower one's breakpoints, no longer cancels its up-ramp's error
@example(data=_RecordedDraws(
    [0.020038300706344173, 0.012747924227213303], 0.15202761050390476,
    [-0.0837771739241151, 0.3884494101185987, -0.9113220836824463], 2, True,
    -0.9629084028154888))
def test_needle_family_members_meet_their_own_tolerance(problem_id, data):
    # every omega's slices at one tau and every width integrate as one
    # family: each member's end state lies within its own tolerance of a
    # tight solve, a family that shares gamma0's initial data continues
    # gamma0 from the node before the widest needle as a single slice does,
    # one that moves sigma starts cold, and a family of one is integrate
    # itself
    from hopmp.auxiliary import ExtendedCurve
    from hopmp.homotopy import SurfaceSlice
    from hopmp.needle import NeedleSpec, needle_variations

    triple, sigma0, gamma0 = _reference_curve(problem_id)
    T, (rtol, atol) = triple.horizon, (1e-8, 1e-10)
    widths = _widths(data)
    eps = widths[0]
    tau = data.draw(st.floats(eps + 0.01, T - 0.01))
    lo, hi = triple.controls.lower[0], triple.controls.upper[0]
    omegas = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=5))
    s_intervals = data.draw(st.sampled_from([2, 4]))
    free = triple.initial_data.free
    target = (data.draw(st.floats(free[0].lower, free[0].upper))
              if free and data.draw(st.booleans()) else None)
    family = None if target is None else _moving_family(triple, sigma0, target)
    # a family whose target is the start value moves nothing and is spliced
    moving = family is not None and target != sigma0[free[0].var][free[0].index]
    specs = [NeedleSpec(tau, [w], eps, sigma_family=family) for w in omegas]
    base = SurfaceSlice(0.0, gamma0, ExtendedCurve(gamma0, triple))
    surfaces = needle_variations(triple, gamma0, specs, widths, s_intervals, base=base)

    t_on = tau - eps - specs[0].k * eps ** 2
    n = int(np.searchsorted(gamma0.mesh, t_on, side="right"))
    mesh = surfaces[0].slices[1].traj.mesh
    assert len(surfaces) == len(widths) * len(specs)
    for (width, spec), surface in zip(itertools.product(widths, specs), surfaces):
        assert surface.slices[0] is base and len(surface.slices) == s_intervals + 1
        for sl in surface.slices[1:]:
            traj, sigma = sl.traj, spec.sigma(width, sl.s, sigma0)
            assert traj.mesh is mesh or np.array_equal(traj.mesh, mesh)
            tight = triple.controlled_curve(traj.control, sigma, tol=(1e-11, 1e-13)).state(T)
            bound = 10.0 * (rtol * np.abs(tight) + atol)
            assert np.all(np.abs(traj.state(T) - tight) <= bound), (sl.s, spec.omega)
            assert set(traj.control.breakpoints) <= set(traj.mesh)
            if moving or n < 2:
                assert traj.splice is None and sl.ext.prefix is None
                continue
            assert traj.splice == (gamma0, gamma0.mesh[n - 1])
            assert traj.mesh[:n].tobytes() == gamma0.mesh[:n].tobytes()
            assert traj.states[:n].tobytes() == gamma0.states[:n].tobytes()
            assert traj.mesh[n] > gamma0.mesh[n - 1]
            assert sl.ext.prefix is base.ext

    u = surfaces[-1].slices[-1].traj.control
    y0 = triple.dynamics.pack_state(sigma0)
    (one,) = integrate_family(triple.dynamics, [u], [y0], T, start=(gamma0, t_on))
    solo = integrate(triple.dynamics, u, y0, T, start=(gamma0, t_on))
    ts = np.linspace(0.0, T, 41)
    assert one.mesh.tobytes() == solo.mesh.tobytes()
    assert one.states.tobytes() == solo.states.tobytes()
    assert one.state(ts).tobytes() == solo.state(ts).tobytes()
    assert one.splice == solo.splice


def _reference_gap(triple, surface):
    """mu'(T,1) - mu'(T,0) of one surface read slice by slice: each slice's
    own jets at T and 0 and its momenta there, and the end slices'
    Lagrangian tables from fresh extended curves (gamma0's too)."""
    from scipy.integrate import simpson

    from hopmp.auxiliary import ExtendedCurve
    from hopmp.jetspace import JetPoint
    from hopmp.problem import lagrangian_momenta

    r, T = triple.lagrangian.actual_order, triple.horizon
    depth = max(2 * r - 1, r)

    def pairing(t):
        q = np.stack([sl.traj.jet(t, depth).blocks for sl in surface.slices])
        Y = surface.s_derivative(q)
        if not Y[:, :r].any():
            return 0.0
        vals = []
        for k, sl in enumerate(surface.slices):
            u = sl.traj.control
            m = lagrangian_momenta(triple, JetPoint(t, q[k]), u.jet(u.clamp(t), r + 1))
            vals.append(np.sum(m * Y[k, :r].T))
        return float(simpson(vals, x=surface.s_nodes))

    def integral(traj):
        prefix = ExtendedCurve(traj.splice[0], triple) if traj.splice else None
        return ExtendedCurve(traj, triple, prefix).lagrangian_integral()

    order = max(1, triple.cost.actual_order)
    top, bottom = surface.slices[-1].traj, surface.slices[0].traj
    lhs = triple.cost.value(top.jet(T, order)) - triple.cost.value(bottom.jet(T, order))
    return lhs - integral(top) + integral(bottom) + pairing(T) - pairing(0.0)


@pytest.mark.parametrize("problem_id", sorted(BUILTIN_PARAMS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_batched_needle_gaps_equal_slice_by_slice_gaps(problem_id, data):
    # a family's gaps over several widths, read in batched passes over all
    # its surfaces, equal each surface's gap read slice by slice, bit for
    # bit; the grouped jet reads equal each member's own, and each member
    # reads its own column
    from hopmp.auxiliary import ExtendedCurve
    from hopmp.dynamics import jets_of, states_of
    from hopmp.homotopy import SurfaceSlice
    from hopmp.needle import (NeedleSpec, mu_prime_gap_closed, mu_prime_gaps_closed,
                              needle_variations)

    triple, sigma0, gamma0 = _reference_curve(problem_id)
    T = triple.horizon
    widths = _widths(data)
    eps = widths[0]
    tau = data.draw(st.floats(eps + 0.01, T - 0.01))
    lo, hi = triple.controls.lower[0], triple.controls.upper[0]
    omegas = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4))
    s_intervals = data.draw(st.sampled_from([2, 4]))
    free = triple.initial_data.free
    family = None
    if free and data.draw(st.booleans()):
        family = _moving_family(triple, sigma0, data.draw(st.floats(free[0].lower, free[0].upper)))
    specs = [NeedleSpec(tau, [w], eps, sigma_family=family) for w in omegas]
    base = SurfaceSlice(0.0, gamma0, ExtendedCurve(gamma0, triple))
    surfaces = needle_variations(triple, gamma0, specs, widths, s_intervals, base=base)

    gaps = mu_prime_gaps_closed(triple, surfaces)
    assert [mu_prime_gap_closed(triple, s) for s in surfaces] == list(gaps)   # kept reads
    assert list(gaps) == [_reference_gap(triple, s) for s in surfaces]

    members = [sl.traj for s in surfaces for sl in s.slices[1:]]
    trajs = [gamma0] + members
    order = data.draw(st.integers(0, 2 * triple.lagrangian.actual_order))
    grid = np.array(sorted({0.0, T, tau, *(T * x for x in data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))}))
    for ts in (T, 0.0, tau, grid):
        grouped = jets_of(trajs, ts, order).blocks
        nodes = np.size(ts)
        for b, traj in enumerate(trajs):
            own = traj.jets(ts, order).blocks
            own = own.reshape(grouped.shape[:2] + (nodes,))
            assert np.array_equal(grouped[..., b * nodes:(b + 1) * nodes], own)
    states = states_of(members, members[0].mesh)   # the ends of the shared steps
    for b, traj in enumerate(members):
        np.testing.assert_allclose(states[:, b], traj.states.T, rtol=0, atol=1e-13)
