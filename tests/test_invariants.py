"""Cross-module identities the modules promise beyond their unit examples."""

import math

import numpy as np
import pytest

from hopmp.auxiliary import ExtendedCurve
from hopmp.controls import ConstantControl
from hopmp.homotopy import (
    ControlHomotopy,
    build_surface,
    homotopy_gap,
    homotopy_lhs,
    uniform_s_grid,
)
from hopmp.jetspace import ScalarJetField, total_derivative
from hopmp.needle import NeedleSpec, gpmp_verdict, needle_variation, smooth_needle, needle_modification
from hopmp.problem import pontryagin_p
from hopmp.problems import (
    mth_order,
    pendulum_classical,
    pendulum_direct,
    pendulum_r2,
)

PI = math.pi


def test_total_derivative_matches_time_differencing_along_trajectory():
    # d/dt [f(jet(t), u)] by central differences over t agrees with the
    # formal total derivative at matching points (constant control)
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([0.8], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.4),
                                   tol=(1e-11, 1e-13))
    f = ScalarJetField(
        lambda p, uu: np.sin(p.coord(0, 0)) * p.coord(1, 1) + p.t * p.coord(0, 1),
        actual_order=1, reads={0: 1, 1: 1})

    def along(t):
        return f.value(traj.jet(t, 2), u.value(t))

    step = 1e-5
    for t in (0.3, 0.8, 1.2):
        fd = (along(t + step) - along(t - step)) / (2 * step)
        formal = total_derivative(f, traj.jet(t, 2), u.value(t))
        assert fd == pytest.approx(formal, abs=5e-9)


def test_mu_rate_is_minus_extended_lagrangian():
    # the quadrature of mu is consistent: finite differences of mu(t)
    # reproduce -Ltilde between breakpoints
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([0.5], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.7),
                                   tol=(1e-11, 1e-13))
    ext = ExtendedCurve(traj, triple)
    step = 1e-6
    for t in (0.4, 0.9, 1.3):
        fd = (ext.mu(t + step) - ext.mu(t - step)) / (2 * step)
        assert fd == pytest.approx(-ext.ltilde(t), abs=1e-7)
        assert ext.mu_rate(t) == pytest.approx(-ext.ltilde(t), rel=1e-12)


@pytest.mark.parametrize("builder,params", [
    (pendulum_direct, dict(T=PI / 2)),
    (pendulum_classical, dict(T=PI / 2)),
    (lambda **kw: mth_order([0.0, 1.0], 1.0), dict()),
    (lambda **kw: __import__("hopmp.problems", fromlist=["third_order"])
     .third_order(T=1.0), dict()),
])
def test_homotopy_identity_across_builtins(builder, params):
    triple = builder(**params)
    sigma = (triple.initial_data.make(v=0.2) if "pendulum" in triple.name
             else triple.initial_data.make())
    lo = float(triple.controls.lower[0])
    hi = float(triple.controls.upper[0])
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([lo + s * (hi - lo)],
                                              triple.horizon),
        sigma_path=lambda s: sigma,
        s_grid=uniform_s_grid(16),
        du_ds=lambda t, s: np.array([hi - lo]),
    )
    surface = build_surface(triple, hom, tol=(1e-10, 1e-12))
    lhs = homotopy_lhs(surface)
    gap = homotopy_gap(surface, t_nodes=200)
    assert gap <= 1e-3 * (abs(lhs) + 1.0)


def test_pointwise_limit_of_needle_jets():
    # the maximization function evaluated on the perturbed curves' jets
    # converges to its base-curve value as the needle shrinks; the probe
    # time sits just past the spike support so the reconstructed jets share
    # the base control and the difference is driven by state convergence
    # (the direct formulation's Lagrangian reads the state blocks)
    triple = pendulum_direct(T=PI / 2)
    u0 = ConstantControl([1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.1)
    probe = spec.tau + 2 * spec.k * spec.eps0 ** 2
    omega = np.array([-1.0])
    base = pontryagin_p(triple, g0.jet(probe, 1))(omega)
    widths = (0.1, 0.05, 0.025, 0.0125)
    gaps = []
    for eps in widths:
        surface = needle_variation(triple, g0, spec, eps, s_intervals=2)
        top_jet = surface.slices[-1].traj.jet(probe, 1)
        gaps.append(abs(pontryagin_p(triple, top_jet)(omega) - base))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    # linear decay in the width, with slack
    assert gaps[-1] <= 3.0 * gaps[0] * widths[-1] / widths[0]


def test_gpmp_agrees_with_classical_check_on_embedding():
    # on the first-order embedding the generalized verdict reduces to the
    # classical Hamiltonian comparison at every probe pair
    from hopmp.classical import classical_pmp_check, hamiltonian_table
    from tests_support import pendulum_classical_cp

    T = PI / 2
    triple = pendulum_classical(T=T)
    cp = pendulum_classical_cp(T, v=1.0)
    u0 = ConstantControl([-1.0], T)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    taus = (0.4, 0.9)
    omegas = (np.array([1.0]), np.array([-0.5]))
    rows = [w.tolist() for w in omegas]
    classical = classical_pmp_check(taus, rows, *hamiltonian_table(cp, u0, taus, rows))
    flagged = {(v.tau, float(v.omega[0])) for v in classical}
    for tau in taus:
        for w in omegas:
            v = gpmp_verdict(triple, g0, NeedleSpec(tau=tau, omega=w, eps0=0.05),
                             [0.05, 0.025, 0.0125])
            assert (not v.satisfied) == ((tau, float(w[0])) in flagged)


def test_smoothed_needle_stays_inside_box_pointwise():
    rng = np.random.default_rng(3)
    triple = pendulum_r2(T=PI / 2)
    u0 = ConstantControl([0.4], triple.horizon)
    for _ in range(10):
        tau = rng.uniform(0.3, 1.2)
        eps = rng.uniform(0.02, 0.15)
        omega = rng.uniform(-1.0, 1.0)
        spec = NeedleSpec(tau=tau, omega=[omega], eps0=eps)
        sm = smooth_needle(needle_modification(u0, spec, eps), spec, eps)
        ts = np.linspace(0.0, triple.horizon * 0.999, 400)
        vals = np.array([sm.value(t)[0] for t in ts])
        assert vals.min() >= -1.0 - 1e-12
        assert vals.max() <= 1.0 + 1e-12


def test_homotopy_identity_combined_control_and_sigma():
    # both legs of the pair deform at once: u(t, s) = s and v(s) = s/2
    triple = pendulum_r2(T=PI / 2)
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=0.5 * s),
        s_grid=uniform_s_grid(16),
        du_ds=lambda t, s: np.ones(1),
    )
    surface = build_surface(triple, hom, tol=(1e-10, 1e-12))
    lhs = homotopy_lhs(surface)
    # x(T, s) = s (1 - cos T) + s/2 sin T = 1.5 s at T = pi/2
    assert lhs == pytest.approx(-1.5, abs=1e-8)
    assert homotopy_gap(surface, t_nodes=200) <= 1e-3 * (abs(lhs) + 1.0)


def test_homotopy_identity_time_varying_control():
    # slices vary in time as well as in s; control derivatives feed the
    # jet reconstruction
    from hopmp.controls import HarmonicControl

    triple = pendulum_r2(T=PI / 2)
    hom = ControlHomotopy(
        slice_curve=lambda s: HarmonicControl(0.0, s, 1.0, 0.0, triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=0.0),
        s_grid=uniform_s_grid(16),
        du_ds=lambda ts, s: np.sin(ts)[:, None],
    )
    surface = build_surface(triple, hom, tol=(1e-10, 1e-12))
    lhs = homotopy_lhs(surface)
    # xdd = -x + s sin t from rest: x(t) = (s/2)(sin t - t cos t),
    # so x(T) = s/2 at T = pi/2 and the cost difference is -1/2
    assert lhs == pytest.approx(-0.5, abs=1e-8)
    assert homotopy_gap(surface, t_nodes=200) <= 1e-3 * (abs(lhs) + 1.0)


def test_first_order_reference_passes_scan():
    from hopmp.needle import pmp_scan
    from hopmp.problems import optimal_reference

    u_opt, sigma, _ = optimal_reference("mth-order", a=[0.0, 1.0], T=1.0)
    triple = mth_order([0.0, 1.0], 1.0)
    g0 = triple.controlled_curve(u_opt, sigma, tol=(1e-10, 1e-12))
    report = pmp_scan(triple, g0, np.linspace(0.1, 0.9, 5),
                      np.linspace(-1, 1, 5).reshape(-1, 1),
                      eps0=0.05, cert_taus=2, cert_omegas=2)
    assert report.certified and report.empty


def test_beta_range_adjudication_third_order():
    # at r = 3 the contested correction terms contribute through the moving
    # adjoint leg of the initial data; only the wide convention closes the
    # identity
    from hopmp.homotopy import homotopy_rhs
    from hopmp.problems import third_order

    triple = third_order(T=1.0)

    def sigma_path(s):
        return {"x": [0.0, 0.3 * s, 0.0],
                "p": [0.5 + 0.4 * s, -1.0 + 0.6 * s, 1.0 - 0.9 * s]}

    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([-0.8 + 1.5 * s], 1.0),
        sigma_path=sigma_path,
        s_grid=uniform_s_grid(32),
        du_ds=lambda t, s: np.array([1.5]),
    )
    surface = build_surface(triple, hom, tol=(1e-10, 1e-12))
    lhs = homotopy_lhs(surface)
    gap_full = abs(lhs - homotopy_rhs(surface, t_nodes=300, beta_range="full"))
    gap_paper = abs(lhs - homotopy_rhs(surface, t_nodes=300, beta_range="paper"))
    assert gap_full < 1e-8
    assert gap_paper > 1e-2


def test_homotopy_identity_nonunit_wavenumber_horizon():
    # horizons away from pi/2 exercise the auxiliary basis scaling
    T = 2.6
    triple = pendulum_r2(T=T)
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([s], T),
        sigma_path=lambda s: triple.initial_data.make(v=0.4 * s),
        s_grid=uniform_s_grid(16),
        du_ds=lambda t, s: np.ones(1),
    )
    surface = build_surface(triple, hom, tol=(1e-10, 1e-12))
    lhs = homotopy_lhs(surface)
    expected = -((1 - math.cos(T)) + 0.4 * math.sin(T))
    assert lhs == pytest.approx(expected, abs=1e-8)
    assert homotopy_gap(surface, t_nodes=200) <= 1e-3 * (abs(lhs) + 1.0)


def test_labour_functional_goes_positive_for_bad_control():
    # deforming u = -1 toward the maximizing control must raise the labour
    # functional above zero somewhere, refuting optimality of the base pair
    triple = pendulum_r2(T=PI / 2)
    hom = ControlHomotopy(
        slice_curve=lambda s: ConstantControl([-1.0 + 2.0 * s], triple.horizon),
        sigma_path=lambda s: triple.initial_data.make(v=1.0),
        s_grid=uniform_s_grid(16),
        du_ds=lambda t, s: np.array([2.0]),
    )
    surface = build_surface(triple, hom)
    from hopmp.homotopy import minimal_labour_W

    values = [minimal_labour_W(surface, d, t_nodes=100)
              for d in (0.25, 0.5, 1.0)]
    assert max(values) > 0.1
    # and W tracks the cost profile monotonically for this homotopy
    assert values == sorted(values)


def test_scan_modes_agree():
    from hopmp.needle import pmp_scan

    triple = pendulum_r2(T=PI / 2)
    u0 = ConstantControl([-1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    taus = np.array([0.4, 0.8, 1.2])
    omegas = np.array([[-1.0], [0.0], [1.0]])
    fast = pmp_scan(triple, g0, taus, omegas, eps0=0.05)
    full = pmp_scan(triple, g0, taus, omegas, eps0=0.05, certification="full")
    assert fast.certified and full.certified

    def table(report):
        return {(v.tau, float(v.omega[0])): v.margin for v in report.violations}

    tf, tv = table(fast), table(full)
    assert set(tf) == set(tv)
    for key in tf:
        assert tf[key] == pytest.approx(tv[key], abs=1e-7)


@pytest.mark.parametrize("horizon", [0.1, 10.0])
def test_h_solve_extreme_horizons(horizon):
    from hopmp.auxiliary import bvp_residuals, solve_h

    triple = pendulum_r2(T=horizon)
    u = ConstantControl([0.3], horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.5),
                                   tol=(1e-11, 1e-13))
    coeffs = solve_h(traj, triple)
    assert max(bvp_residuals(coeffs).values()) < 1e-8
