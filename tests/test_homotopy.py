import math

import numpy as np
import pytest

from hopmp.auxiliary import ExtendedCurve
from hopmp.controls import ConstantControl
from hopmp.homotopy import (
    ControlHomotopy,
    build_surface,
    conservation_residual,
    homotopy_lhs,
    homotopy_rhs,
    infinitesimal_conditions,
    jacobi_tangent,
    minimal_labour_W,
    mu_prime,
    select_beta_range,
    uniform_s_grid,
    vertical_pairing,
)
from hopmp.problems import pendulum_r2

PI = math.pi


def hom_constant(triple, value=0.7, v=0.2, intervals=8):
    sigma = triple.initial_data.make(v=v)
    return ControlHomotopy(
        slice_curve=lambda s: ConstantControl([value], triple.horizon),
        sigma_path=lambda s: sigma,
        s_grid=uniform_s_grid(intervals),
        du_ds=lambda t, s: np.zeros(1),
    )


def hom_control_ramp(triple, intervals=16):
    """u(t, s) = s with fixed initial data (x = 0, v = 0)."""
    sigma = triple.initial_data.make(v=0.0)
    return ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s], triple.horizon),
        sigma_path=lambda s: sigma,
        s_grid=uniform_s_grid(intervals),
        du_ds=lambda t, s: np.ones(1),
    )


def hom_sigma_ramp(triple, v_top=1.0, intervals=16):
    """u = 0 with initial velocity s * v_top."""
    return ControlHomotopy(
        slice_curve=lambda s: ConstantControl([0.0], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=s * v_top),
        s_grid=uniform_s_grid(intervals),
        du_ds=lambda t, s: np.zeros(1),
    )


@pytest.fixture(scope="module")
def triple():
    return pendulum_r2(T=PI / 2, v_max=1.0)


@pytest.fixture(scope="module")
def ramp_surface(triple):
    return build_surface(triple, hom_control_ramp(triple))


def test_constant_homotopy_all_zero(triple):
    surface = build_surface(triple, hom_constant(triple))
    ts = np.linspace(0, triple.horizon, 9)
    Y = surface.jacobi_q(ts, 2)
    assert np.max(np.abs(Y)) < 1e-9
    assert homotopy_lhs(surface) == pytest.approx(0.0, abs=1e-12)
    assert abs(homotopy_rhs(surface, t_nodes=100)) < 1e-9
    a, b = infinitesimal_conditions(surface, t_nodes=100)
    assert abs(a) < 1e-9 and abs(b) < 1e-9


def test_control_ramp_slices_match_analytic(triple, ramp_surface):
    # linearity in u: slice s has x(t) = s (1 - cos t)
    for k in (0, 8, 16):
        s = ramp_surface.s_nodes[k]
        traj = ramp_surface.slices[k].traj
        for t in (0.4, 1.1, PI / 2):
            assert traj.state(t)[0] == pytest.approx(s * (1 - math.cos(t)),
                                                     abs=1e-8)


def test_homotopy_lhs_control_ramp(triple, ramp_surface):
    assert homotopy_lhs(ramp_surface) == pytest.approx(-1.0, abs=1e-8)


def test_homotopy_identity_control_ramp(triple, ramp_surface):
    lhs = homotopy_lhs(ramp_surface)
    rhs = homotopy_rhs(ramp_surface, t_nodes=200)
    assert abs(lhs - rhs) <= 1e-3 * (abs(lhs) + 1.0)


def test_homotopy_identity_sigma_ramp(triple):
    surface = build_surface(triple, hom_sigma_ramp(triple))
    lhs = homotopy_lhs(surface)
    # x(T) = v sin(T): lhs = -1 at T = pi/2, v_top = 1
    assert lhs == pytest.approx(-1.0, abs=1e-8)
    rhs = homotopy_rhs(surface, t_nodes=200)
    assert abs(lhs - rhs) <= 1e-3 * (abs(lhs) + 1.0)


def test_beta_range_adjudication(triple, ramp_surface):
    result = select_beta_range(ramp_surface, t_nodes=200)
    assert result["selected"] == "full"
    assert result["gaps"]["full"] <= result["gaps"]["paper"] + 1e-12


def test_minimal_labour_endpoints(triple, ramp_surface):
    assert minimal_labour_W(ramp_surface, 0.0) == 0.0
    total = minimal_labour_W(ramp_surface, 1.0, t_nodes=200)
    lhs = homotopy_lhs(ramp_surface)
    # W(1) equals C0 - C1
    assert total == pytest.approx(-lhs, abs=2e-3)


def test_minimal_labour_tracks_cost_profile(triple, ramp_surface):
    # W(delta) = C(T, 0) - C(T, delta)
    for k in (4, 8, 12):
        delta = ramp_surface.s_nodes[k]
        w = minimal_labour_W(ramp_surface, float(delta), t_nodes=200)
        traj = ramp_surface.slices[k].traj
        c_delta = ramp_surface.triple.terminal_cost(traj)
        c_0 = ramp_surface.triple.terminal_cost(ramp_surface.slices[0].traj)
        assert w == pytest.approx(c_0 - c_delta, abs=2e-3)


def test_minimal_labour_nonpositive_on_optimal(triple):
    # variations of the optimal pair (u = +1, v = v_max) can only raise cost
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([1.0 - 2.0 * s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=1.0),
        s_grid=uniform_s_grid(16),
        du_ds=lambda t, s: np.array([-2.0]),
    )
    surface = build_surface(triple, hom)
    for delta in (0.25, 0.5, 0.75, 1.0):
        assert minimal_labour_W(surface, delta, t_nodes=200) <= 1e-6


def test_infinitesimal_conditions_signs(triple):
    # descending initial velocity from the optimum: dC(V) >= 0
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([1.0], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=1.0 - 0.5 * s),
        s_grid=uniform_s_grid(8),
        du_ds=lambda t, s: np.zeros(1),
    )
    surface = build_surface(triple, hom)
    dC, base = infinitesimal_conditions(surface, t_nodes=100)
    # x(T) = v sin T + 1 - cos T, so dC/ds = -sin(T) dv/ds = +0.5 at T = pi/2
    assert dC == pytest.approx(0.5, abs=1e-6)
    assert base <= 1e-8


def test_infinitesimal_detects_bad_control(triple):
    # from u = -1 toward u = +1 the base-slice integral must be positive
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([-1.0 + 2.0 * s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=1.0),
        s_grid=uniform_s_grid(8),
        du_ds=lambda t, s: np.array([2.0]),
    )
    surface = build_surface(triple, hom)
    _, base = infinitesimal_conditions(surface, t_nodes=100)
    # integral of 2 sin(T - t) dt over [0, T] = 2 at T = pi/2
    assert base == pytest.approx(2.0, abs=1e-3)
    assert base > 0


def test_vertical_pairing_vanishes_at_zero(triple, ramp_surface):
    for k in range(0, ramp_surface.n_slices, 4):
        assert abs(vertical_pairing(ramp_surface, 0.0, k)) < 1e-8


def test_conservation_residual(triple, ramp_surface):
    for k in (0, 8, 16):
        res = conservation_residual(ramp_surface, k, t_nodes=200)
        assert abs(res) < 5e-4


@pytest.mark.parametrize("k", [0, 1, 8, 16])
def test_conservation_residual_builds_only_the_stencils_mu_tables(triple, monkeypatch, k):
    # the s-difference of mu at slice k reads three slices' tables, and gives
    # the bits of the difference taken over every slice
    surface = build_surface(triple, hom_control_ramp(triple))
    built = []
    ensure = ExtendedCurve._ensure_mu

    def counting(self):
        if self._mu_nodes is None:
            built.append(self)
        ensure(self)

    monkeypatch.setattr(ExtendedCurve, "_ensure_mu", counting)
    conservation_residual(surface, k, t_nodes=50)
    assert 1 <= len(built) <= 3
    T = triple.horizon
    every = surface.s_derivative(np.array([sl.ext.mu(T) for sl in surface.slices]))
    assert jacobi_tangent(surface, T, k).dmu0 == every[k]


def test_mu_prime_at_base_slice_is_mu(triple, ramp_surface):
    t = 0.9
    assert mu_prime(ramp_surface, t, 0) == pytest.approx(
        ramp_surface.slices[0].ext.mu(t), abs=1e-14)


def test_beta_range_tie_is_reported_as_a_tie(triple, ramp_surface):
    # a surface whose slices all coincide has no Jacobi field, so both
    # conventions close the identity to the same gap: the report names the
    # default instead of claiming a selection
    from hopmp.cli import _convention_line

    tying = select_beta_range(build_surface(triple, hom_constant(triple, intervals=2)),
                              t_nodes=100)
    assert tying["tie"] and tying["selected"] == "full"
    assert tying["gaps"]["full"] == tying["gaps"]["paper"]
    line = _convention_line(tying)
    assert "does not separate full and paper" in line
    assert "using the default full" in line and "selected by the identity" not in line

    separated = select_beta_range(ramp_surface, t_nodes=200)
    assert not separated["tie"]
    assert _convention_line(separated).startswith(
        "contact-index convention selected by the identity: full")


def test_beta_range_first_order_embedding():
    # r = 1: the narrow convention empties the auxiliary correction sum
    # (mu' = mu pointwise), but only the wide convention closes the
    # two-sided identity; the identity adjudicates.
    from hopmp.problems import pendulum_classical

    triple = pendulum_classical(T=PI / 2)
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=0.0),
        s_grid=uniform_s_grid(8),
        du_ds=lambda t, s: np.ones(1),
    )
    surface = build_surface(triple, hom)
    for k in (3, 8):
        t = 1.1
        assert mu_prime(surface, t, k, beta_range="paper") == pytest.approx(
            surface.slices[k].ext.mu(t), abs=1e-14)
    result = select_beta_range(surface, t_nodes=100)
    assert result["selected"] == "full"
    assert result["gaps"]["full"] < 1e-6
    assert result["gaps"]["paper"] > 1e-2


def test_classical_mu_term_integrates_to_zero_with_enforcement():
    # fixed initial data + terminal-enforcing adjoint branch: the mixed
    # mu' term contributes nothing to the double integral, so the right
    # side reduces to the bare Y dP/du integral
    from hopmp.homotopy import _mixed_mu_integrand, _time_grid
    from hopmp.problems import pendulum_classical
    from scipy.integrate import simpson

    triple = pendulum_classical(T=PI / 2)
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=0.0),
        s_grid=uniform_s_grid(8),
        du_ds=lambda t, s: np.ones(1),
    )
    surface = build_surface(triple, hom)
    ts = _time_grid(surface, 200)
    G = _mixed_mu_integrand(surface, ts, "full")
    total = simpson(simpson(G, x=ts, axis=1), x=surface.s_nodes)
    assert abs(total) < 1e-6


def test_jacobi_matches_spline_derivative(triple):
    from scipy.interpolate import CubicSpline

    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s ** 3], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=0.0),
        s_grid=uniform_s_grid(16),
    )
    surface = build_surface(triple, hom)
    t = 1.0
    vals = np.array([sl.traj.state(t)[0] for sl in surface.slices])
    spline = CubicSpline(surface.s_nodes, vals)
    Y = surface.jacobi_q(np.array([t]), 0)[:, 0, 0, 0]
    for k in range(2, 15):
        assert Y[k] == pytest.approx(float(spline(surface.s_nodes[k], 1)),
                                     abs=5e-3)


def test_jacobi_grid_convergence(triple):
    # with u(t, s) = s^3 the difference error scales like ds^2
    def surf(intervals):
        hom = ControlHomotopy(
            slice_curve=lambda s: ConstantControl([s ** 3], triple.horizon),
            sigma_path=lambda s: triple.initial_data.make(v=0.0),
            s_grid=uniform_s_grid(intervals),
        )
        return build_surface(triple, hom)

    t = np.array([1.2])
    exact = 3.0 * 0.5 ** 2 * (1 - math.cos(1.2))  # dx/ds at s = 1/2
    e = []
    for n in (8, 16):
        surface = surf(n)
        k = n // 2
        Y = surface.jacobi_q(t, 0)[k, 0, 0, 0]
        e.append(abs(Y - exact))
    assert e[1] < e[0] / 3.0
