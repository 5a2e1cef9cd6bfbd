import dataclasses
import math

import numpy as np
import pytest

from conftest import CurveWithControl
from hopmp.auxiliary import (
    ExtendedCurve,
    HCoefficients,
    boundary_matrix,
    bvp_residuals,
    h_quadratic_terms,
    lift_tangent,
    pc_form_pairing,
    pc_lift_integral,
    solve_h,
    ExtendedJetPoint,
    ExtendedTangent,
)
from hopmp.controls import ConstantControl
from hopmp.jetspace import JetPoint, ScalarJetField
from hopmp.problem import CostFunction
from hopmp.problems import pendulum_direct, pendulum_r2
from tests_support import AnalyticCurve

PI = math.pi


def test_boundary_matrix_at_unit_wavenumber():
    # T = pi/2 puts the wavenumber at 1
    A = boundary_matrix(PI / 2)
    e = math.exp(PI / 2)
    expected = np.array([
        [1.0, 1.0, 1.0, 0.0],
        [1.0, -1.0, 0.0, 1.0],
        [e, -1.0 / e, -1.0, 0.0],
        [e, 1.0 / e, 0.0, -1.0],
    ])
    assert np.allclose(A, expected, atol=1e-15)


def test_boundary_matrix_first_row_universal():
    for T in (0.1, 0.7, 2.0, 10.0):
        assert np.array_equal(boundary_matrix(T)[0], [1.0, 1.0, 1.0, 0.0])


def test_boundary_matrix_determinants_nonzero():
    # numeric determinant oracle before trusting inversion
    for T in (0.1, 1.0, PI / 2, 10.0):
        det = np.linalg.det(boundary_matrix(T))
        assert abs(det) > 1e-12, f"det too small at T={T}"


def test_eval_h_cosh_identity():
    hyp = np.zeros((1, 1, 2))
    hyp[0, 0] = [0.5, 0.5]
    coeffs = HCoefficients(T=1.0, hyp=hyp, prime=np.zeros((1, 1, 4)),
                           second=np.zeros((1, 1, 4)))
    for t in (0.0, 0.3, 0.9):
        assert coeffs.h(t, 0)[0, 0] == pytest.approx(math.cosh(t), rel=1e-15)
        assert coeffs.h(t, 2)[0, 0] - coeffs.h(t, 0)[0, 0] == 0.0


def test_eval_h_zero_prime_family():
    coeffs = HCoefficients(T=1.0, hyp=np.zeros((1, 1, 2)),
                           prime=np.zeros((1, 1, 4)), second=np.zeros((1, 1, 4)))
    for d in range(4):
        assert coeffs.hp(0.5, d)[0, 0] == 0.0


def test_eval_h_quartic_identity_generic_coefficients():
    rng = np.random.default_rng(8)
    T = 1.3
    coeffs = HCoefficients(T=T, hyp=rng.normal(size=(2, 2, 2)),
                           prime=rng.normal(size=(2, 2, 4)),
                           second=rng.normal(size=(2, 2, 4)))
    k4 = (PI / (2 * T)) ** 4
    ts = rng.uniform(0, T, size=20)
    res = coeffs.hp(ts, 4) - k4 * coeffs.hp(ts, 0)
    assert np.max(np.abs(res)) < 1e-10 * (1 + k4)
    res2 = coeffs.hpp(ts, 4) - k4 * coeffs.hpp(ts, 0)
    assert np.max(np.abs(res2)) < 1e-10 * (1 + k4)


def _hand_curve_triple():
    """Direct-pendulum Lagrangian along a synthetic curve with
    x(0) = 1, xd(0) = 1, so the momentum sum at 0 is exactly 1."""
    triple = pendulum_direct(T=1.0, v_max=1.0)
    curve = AnalyticCurve([[lambda t: 1.0 + t, lambda t: 1.0, lambda t: 0.0,
                            lambda t: 0.0, lambda t: 0.0]])
    wrapped = CurveWithControl(curve, ConstantControl([0.0], 1.0), horizon=1.0)
    return triple, wrapped


def test_solve_h_hand_case_exponential():
    # A + B = q(0) = 1 and A - B = -m0 = -1 give A = 0, B = 1: h(t) = e^-t
    triple, curve = _hand_curve_triple()
    coeffs = solve_h(curve, triple)
    assert coeffs.hyp[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert coeffs.hyp[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
    for t in (0.0, 0.4, 1.0):
        assert coeffs.h(t, 0)[0, 0] == pytest.approx(math.exp(-t), rel=1e-12)


def test_solve_h_zero_case():
    # zero boundary data force h identically zero
    triple = pendulum_direct(T=1.0)
    curve = AnalyticCurve([[lambda t: 0.0] * 5])
    wrapped = CurveWithControl(curve, ConstantControl([0.0], 1.0), horizon=1.0)
    coeffs = solve_h(wrapped, triple)
    assert np.allclose(coeffs.hyp, 0.0, atol=1e-14)


def test_solve_h_bvp_residuals_on_integrated_pendulum():
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([1.0], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.7),
                                   tol=(1e-11, 1e-13))
    coeffs = solve_h(traj, triple)
    res = bvp_residuals(coeffs)
    for name, val in res.items():
        assert val < 1e-9, f"{name}: {val}"


def test_solve_h_second_family_matches_h_at_terminal():
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([-0.4], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.3),
                                   tol=(1e-10, 1e-12))
    coeffs = solve_h(traj, triple)
    T = triple.horizon
    assert np.allclose(coeffs.hpp(T, 1), coeffs.h(T, 0), atol=1e-9)
    assert np.allclose(coeffs.hpp(T, 2), coeffs.h(T, 1), atol=1e-9)


def _zero_cost(triple):
    zero = ScalarJetField(lambda p, u: 0.0, actual_order=0, reads={})
    return dataclasses.replace(triple, cost=CostFunction(field=zero, actual_order=0))


def test_mu_zero_when_everything_vanishes():
    triple = _zero_cost(pendulum_r2(T=1.0))
    u = ConstantControl([0.0], 1.0)
    sigma = {"x": [0.0, 0.0], "p": [0.0, 0.0]}
    traj = triple.controlled_curve(u, sigma)
    ext = ExtendedCurve(traj, triple)
    assert np.allclose(ext.h_coeffs.hyp, 0.0, atol=1e-13)
    for t in (0.0, 0.5, 1.0):
        assert ext.mu(t) == pytest.approx(0.0, abs=1e-12)


def test_mu_zero_at_origin_always():
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([0.6], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=-0.5))
    ext = ExtendedCurve(traj, triple)
    assert ext.mu(0.0) == 0.0


def test_mu_against_refined_gauss_oracle():
    # oracle: 7-point Gauss-Legendre on a 4x refined mesh
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([1.0], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=1.0),
                                   tol=(1e-10, 1e-12))
    ext = ExtendedCurve(traj, triple)

    nodes, weights = np.polynomial.legendre.leggauss(7)
    total = 0.0
    mesh = ext.base.mesh
    for a, b in zip(mesh[:-1], mesh[1:]):
        for c, d in zip(np.linspace(a, b, 5)[:-1], np.linspace(a, b, 5)[1:]):
            half = 0.5 * (d - c)
            mid = 0.5 * (c + d)
            total += half * sum(w * ext.ltilde(mid + half * x)
                                for x, w in zip(nodes, weights))
    assert ext.mu(triple.horizon) == pytest.approx(-total, abs=1e-7)


def test_pc_pairing_pure_dt_tangent_returns_lhat():
    triple = pendulum_r2(T=PI / 2)
    rng = np.random.default_rng(4)
    blocks = np.zeros((5, 2))
    blocks[0] = rng.normal(size=2)      # only order-0 coordinates nonzero
    jet = JetPoint(0.4, blocks)
    h = np.zeros((2, 2, 4))
    hp = np.zeros((2, 2, 4))
    hpp = np.zeros((2, 2, 4))
    h[..., 0] = rng.normal(size=(2, 2))
    hp[..., 0] = rng.normal(size=(2, 2))
    hpp[..., 0] = rng.normal(size=(2, 2))
    u = np.array([0.3])
    pt = ExtendedJetPoint(jet=jet, ujet=np.array([[0.3], [0.0], [0.0], [0.0]]),
                          h=h, hp=hp, hpp=hpp, mu_value=0.2, mu_rate=0.0)
    tangent = ExtendedTangent(dt=1.0, dq=np.zeros((jet.n + 1, 2)), dh=np.zeros((2, 2, 3)),
                              dhp=np.zeros((2, 2, 3)), dhpp=np.zeros((2, 2, 3)), dmu0=0.0,
                              du=np.zeros(1))

    L_val = triple.lagrangian.value(jet, u)
    ltil = L_val + float(h_quadratic_terms(pt.h, pt.hp, pt.hpp, triple.horizon))
    dcdt = triple.cost.rate_field().value_uj(jet, np.zeros((2, 1)))
    assert pc_form_pairing(triple, pt, tangent) == pytest.approx(ltil + dcdt,
                                                                 rel=1e-10)


def test_pc_pairing_lift_tangent_gives_rate_of_cost():
    # along the lift every contact pairing cancels, leaving L-hat = dC/dt
    triple = pendulum_r2(T=PI / 2)
    u = ConstantControl([1.0], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=1.0),
                                   tol=(1e-10, 1e-12))
    ext = ExtendedCurve(traj, triple)
    for t in (0.2, 0.8, 1.3):
        pt = ext.ext_point(t)
        pair = pc_form_pairing(triple, pt, lift_tangent(pt))
        dcdt = triple.cost.rate_field().value_uj(pt.jet, np.zeros((2, 1)))
        assert pair == pytest.approx(dcdt, abs=1e-9)


@pytest.mark.parametrize("builder,kwargs", [
    (pendulum_r2, dict(T=PI / 2)),
    (pendulum_direct, dict(T=PI / 2)),
])
def test_pc_lift_integral_equals_terminal_cost(builder, kwargs):
    triple = builder(**kwargs)
    u = ConstantControl([0.8], triple.horizon)
    traj = triple.controlled_curve(u, triple.initial_data.make(v=0.6),
                                   tol=(1e-10, 1e-12))
    ext = ExtendedCurve(traj, triple)
    value = pc_lift_integral(ext)
    cost = triple.terminal_cost(traj)
    assert value == pytest.approx(cost, abs=1e-6)
