"""Error-path coverage: circular jet dependencies, integrator blow-up, and
the boundary-matrix conditioning guard."""

import math

import numpy as np
import pytest

from hopmp.auxiliary import solve_h
from hopmp.controls import ConstantControl
from hopmp.dynamics import integrate
from hopmp.errors import OrderUnavailable, SingularBoundaryMatrix, StepSizeUnderflow
from hopmp.problems import pendulum_direct, pendulum_r2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_blowup_raises_step_size_underflow(direction):
    # y' = y^2 blows up at t = 1 from y(0) = 1 forward and from y(2) = -1 backward
    from hopmp.dynamics import ChainBlock, NormalFormDynamics, integrate_backward
    from hopmp.jetspace import ScalarJetField

    top = ScalarJetField(lambda p, u: p.coord(0, 0) ** 2, actual_order=0,
                         reads={0: 0})
    dyn = NormalFormDynamics([ChainBlock("x", 1, top)])
    run = integrate if direction == "forward" else integrate_backward
    y = np.array([1.0 if direction == "forward" else -1.0])
    with np.errstate(over="ignore"), pytest.raises(StepSizeUnderflow):
        run(dyn, ConstantControl([0.0], 2.0), y, 2.0)


def test_singular_boundary_matrix_guard():
    # the conditioning of the 4x4 system grows like T^2; a huge horizon
    # trips the guard before an inaccurate solve is attempted
    triple = pendulum_direct(T=1.0 + 1e7)
    u = ConstantControl([0.0], triple.horizon)
    from conftest import CurveWithControl
    from tests_support import AnalyticCurve

    curve = CurveWithControl(AnalyticCurve([[lambda t: 1.0] * 5]), u,
                             horizon=triple.horizon)
    with pytest.raises(SingularBoundaryMatrix):
        solve_h(curve, triple)


def test_dense_output_reproduces_mesh_states():
    triple = pendulum_r2(T=math.pi / 2)
    u = ConstantControl([0.4], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.2))
    for t, y in zip(traj.mesh, traj.states):
        assert np.allclose(traj.state(float(t)), y, rtol=0, atol=1e-12)


def test_initial_jet_matches_sigma():
    triple = pendulum_r2(T=math.pi / 2)
    sigma = triple.initial_data.make(v=0.3)
    u = ConstantControl([0.9], triple.horizon)
    traj = triple.controlled_curve(u, sigma)
    j0 = traj.jet(0.0, 1)
    assert j0.coord(0, 0) == sigma["x"][0]
    assert j0.coord(0, 1) == sigma["x"][1]
    assert j0.coord(1, 0) == sigma["p"][0]
    assert j0.coord(1, 1) == sigma["p"][1]


def test_surface_slices_satisfy_dynamics():
    from hopmp.homotopy import ControlHomotopy, build_surface, uniform_s_grid
    from hopmp.problem import el_residual

    triple = pendulum_r2(T=math.pi / 2)
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=0.0),
        s_grid=uniform_s_grid(4),
        du_ds=lambda t, s: np.ones(1),
    )
    surface = build_surface(triple, hom)
    for sl in surface.slices:
        res = el_residual(triple, sl.traj, sl.traj.control, 0.8)
        assert np.max(np.abs(res)) < 1e-8


def test_circular_jet_dependency_detected():
    from hopmp.dynamics import ChainBlock, NormalFormDynamics
    from hopmp.jetspace import ScalarJetField

    # each top reads the other variable one block beyond its chain
    top_a = ScalarJetField(lambda p, u: p.coord(1, 1), actual_order=1,
                           reads={1: 1}, name="fa")
    top_b = ScalarJetField(lambda p, u: p.coord(0, 1), actual_order=1,
                           reads={0: 1}, name="fb")
    dyn = NormalFormDynamics([ChainBlock("a", 1, top_a),
                              ChainBlock("b", 1, top_b)])
    with pytest.raises(OrderUnavailable):
        dyn.jets_at(0.0, np.array([1.0, 2.0]), np.zeros((1, 1)), 1)


def test_nonuniform_s_grid_rejected():
    from hopmp.homotopy import ControlHomotopy

    with pytest.raises(ValueError):
        ControlHomotopy(
            slice_curve=lambda s: ConstantControl([s], 1.0),
            sigma_path=lambda s: {"x": [0.0, 0.0]},
            s_grid=np.array([0.0, 0.1, 0.5, 1.0]),
            du_ds=lambda t, s: np.ones(1),
        )


def test_two_dimensional_control_machinery():
    from hopmp.controls import BlendControl, NeedleOverlayControl
    from hopmp.jetspace import ScalarJetField, total_derivative, JetPoint
    from hopmp.dynamics import control_measure_diff

    u1 = ConstantControl([0.5, -0.5], 1.0)
    u2 = NeedleOverlayControl(u1, tau=0.5, omega=[1.0, 0.0], eps=0.1)
    blend = BlendControl(u1, u2, 0.5)
    assert np.allclose(blend.value(0.45), [0.75, -0.25])
    assert control_measure_diff(u1, u2) == pytest.approx(0.1, abs=1e-3)

    f = ScalarJetField(
        lambda p, u: u[0] * p.coord(0, 0) + u[1] ** 2, actual_order=0)
    pt = JetPoint(0.0, np.array([[2.0], [3.0]]))
    assert total_derivative(f, pt, [0.5, -0.5]) == pytest.approx(1.5)
