import math

import numpy as np
import pytest

from hopmp.auxiliary import ExtendedCurve, gauss_legendre
from hopmp.controls import ConstantControl, PiecewiseConstantControl
from hopmp.errors import BadParams, NonSolvableForm
from hopmp.homotopy import SurfaceSlice, mu_prime_gap_direct
from hopmp.needle import (
    NeedleSpec,
    corrective_term,
    default_eps_sequence,
    gpmp_verdict,
    mu_prime_gap_closed,
    needle_modification,
    needle_variation,
    pmp_scan,
    smooth_needle,
    transversality_synthesize,
)
from hopmp.dynamics import control_measure_diff
from hopmp.problems import pendulum_classical, pendulum_r2, third_order
from hopmp.needle import adjoint_branch
from tests_support import oracle_gap

PI = math.pi


@pytest.fixture(scope="module")
def triple():
    return pendulum_r2(T=PI / 2, v_max=1.0)


@pytest.fixture(scope="module")
def gamma_opt(triple):
    u0 = ConstantControl([1.0], triple.horizon)
    return triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                   tol=(1e-10, 1e-12))


def test_needle_spec_validation():
    with pytest.raises(BadParams):
        NeedleSpec(tau=0.5, omega=[1.0], eps0=-0.1)
    spec = NeedleSpec(tau=0.05, omega=[1.0], eps0=0.1)
    with pytest.raises(BadParams):
        spec.validate(PI / 2)


def test_needle_modification_values(triple):
    u0 = ConstantControl([1.0], triple.horizon)
    spec = NeedleSpec(tau=0.5, omega=[-1.0], eps0=0.1)
    nd = needle_modification(u0, spec, 0.1)
    assert nd.value(0.4)[0] == -1.0
    assert nd.value(0.49999)[0] == -1.0
    assert nd.value(0.5)[0] == 1.0
    assert nd.value(0.2)[0] == 1.0
    assert control_measure_diff(u0, nd) == pytest.approx(0.1, abs=1e-3)


def test_needle_modification_noop_when_omega_matches(triple):
    u0 = ConstantControl([1.0], triple.horizon)
    spec = NeedleSpec(tau=0.5, omega=[1.0], eps0=0.1)
    nd = needle_modification(u0, spec, 0.1)
    assert control_measure_diff(u0, nd) == 0.0


def test_smooth_needle_ramp_endpoints(triple):
    u0 = ConstantControl([1.0], triple.horizon)
    spec = NeedleSpec(tau=0.5, omega=[-1.0], eps0=0.1, k=0.05)
    sm = smooth_needle(needle_modification(u0, spec, 0.1), spec, 0.1)
    w = 0.05 * 0.1 ** 2
    assert sm.value(0.4 - w)[0] == pytest.approx(1.0)
    assert sm.value(0.4)[0] == pytest.approx(-1.0)
    assert sm.value(0.45)[0] == -1.0
    assert sm.value(0.5 + w)[0] == pytest.approx(1.0)
    # stays in the box and measures eps + O(eps^2)
    ts = np.linspace(0, float(triple.horizon) * 0.999, 2001)
    vals = np.array([sm.value(t)[0] for t in ts])
    assert vals.min() >= -1.0 - 1e-12 and vals.max() <= 1.0 + 1e-12
    d = control_measure_diff(u0, sm)
    assert 0.1 - 1e-3 <= d <= 0.1 + 3 * w + 1e-3


def test_smooth_needle_c2_joints(triple):
    # value and first two derivatives approach the plateau/base limits at
    # every ramp joint (probe offsets scaled by the ramp width)
    u0 = ConstantControl([0.2], triple.horizon)
    spec = NeedleSpec(tau=0.6, omega=[0.9], eps0=0.08, k=0.05)
    sm = smooth_needle(u0, spec, 0.08)
    base_jet = np.array([[0.2], [0.0], [0.0]])
    plateau_jet = np.array([[0.9], [0.0], [0.0]])
    # exact edge evaluations agree with the adjacent regions' limits
    assert np.allclose(sm.jet(sm.t_on, 2), base_jet, atol=1e-12)
    assert np.allclose(sm.jet(sm.t_full, 2), plateau_jet, atol=1e-12)
    assert np.allclose(sm.jet(sm.t_off, 2), plateau_jet, atol=1e-12)
    assert np.allclose(sm.jet(sm.t_end, 2), base_jet, atol=1e-12)
    # one-sided limits converge linearly into every joint (true C^2 joints;
    # the third derivative scales like 1/ramp^3, so errors shrink with delta)
    for edge, side, ref in ((sm.t_on, +1, base_jet), (sm.t_full, -1, plateau_jet),
                            (sm.t_off, +1, plateau_jet), (sm.t_end, -1, base_jet)):
        e1 = np.max(np.abs(sm.jet(edge + side * 1e-5 * sm.ramp, 2) - ref))
        e2 = np.max(np.abs(sm.jet(edge + side * 1e-6 * sm.ramp, 2) - ref))
        assert e2 < e1 / 5.0 or e1 < 1e-12


def test_needle_variation_slices(triple, gamma_opt):
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.05)
    surface = needle_variation(triple, gamma_opt, spec, 0.05)
    # s = 0 slice reproduces the base
    for t in (0.3, 1.0, PI / 2):
        assert np.allclose(surface.slices[0].traj.state(t), gamma_opt.state(t),
                           atol=1e-9)
    # s = 1 slice equals the needle-controlled curve away from the spike
    assert surface.slices[-1].traj.control.value(0.2)[0] == pytest.approx(1.0)
    assert surface.slices[-1].traj.control.value(0.68)[0] == pytest.approx(-1.0)
    # the spike can only lower the terminal position of the optimal curve
    xT_bot = surface.slices[0].traj.state(triple.horizon)[0]
    xT_top = surface.slices[-1].traj.state(triple.horizon)[0]
    assert xT_top < xT_bot


def test_corrective_term_enforcing_sigma_near_zero(triple, gamma_opt):
    # the base adjoint branch satisfies the annihilating terminal data, so
    # the gap vanishes identically; estimates are numerically zero
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.1)
    est = corrective_term(triple, gamma_opt, spec, default_eps_sequence(0.1, 7))
    assert np.max(np.abs(est.estimates)) < 1e-6
    assert abs(est.estimates[-1]) < 1e-3
    assert est.consistent


def test_corrective_term_classical_embedding_near_zero():
    triple = pendulum_classical(T=PI / 2)
    u0 = ConstantControl([1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    spec = NeedleSpec(tau=0.6, omega=[-0.5], eps0=0.1)
    est = corrective_term(triple, g0, spec, default_eps_sequence(0.1, 5))
    assert np.max(np.abs(est.estimates)) < 1e-6


def test_corrective_term_frozen_sigma_nonzero_and_two_methods(triple):
    # freeze a non-transversal adjoint branch: the corrective term is a
    # genuine finite number, and the closed form must match the direct
    # quadrature of mu'
    u0 = ConstantControl([1.0], triple.horizon)
    sigma = {"x": [0.0, 1.0], "p": [0.0, 0.0]}
    g0 = triple.controlled_curve(u0, sigma, tol=(1e-10, 1e-12))
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.1)

    est = corrective_term(triple, g0, spec, default_eps_sequence(0.1, 5))
    assert abs(est.liminf_proxy) > 1e-3   # genuinely nonzero
    assert est.consistent

    for eps in (0.1, 0.03):
        surface = needle_variation(triple, g0, spec, eps, s_intervals=8)
        closed = mu_prime_gap_closed(triple, surface)
        direct = mu_prime_gap_direct(surface, "full")
        assert abs(closed - direct) <= 1e-4 * max(abs(closed), abs(direct))


def test_goodn_check_enforcing_and_frozen(triple, gamma_opt):
    # the boundary sign test of a verdict: its residuals are minus the
    # closed-form gaps, one per width
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.05)
    eps = default_eps_sequence(0.05, 3)
    v = gpmp_verdict(triple, gamma_opt, spec, eps)
    assert v.goodn_all
    assert np.max(np.abs(v.corrective.goodn_residuals)) < 1e-6

    sigma = {"x": [0.0, 1.0], "p": [0.0, 0.0]}
    g_frozen = triple.controlled_curve(ConstantControl([1.0], triple.horizon),
                                       sigma, tol=(1e-10, 1e-12))
    v2 = gpmp_verdict(triple, g_frozen, spec, eps)
    assert abs(v2.corrective.goodn_residuals[0]) > 1e-3


def test_needle_slices_continue_gamma0():
    # every slice shares gamma0's initial data and control before t_on, so
    # it keeps gamma0's mesh and states up to the last step endpoint t_k <= t_on
    from hopmp import build, optimal_reference

    triple = build("pendulum-direct", T=PI / 2, v_max=1.0)
    u0, sigma0, _ = optimal_reference("pendulum-direct", T=PI / 2, v_max=1.0)
    gamma0 = triple.controlled_curve(u0, sigma0, tol=(1e-10, 1e-12))
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.05)
    base = SurfaceSlice(0.0, gamma0, ExtendedCurve(gamma0, triple))
    surface = needle_variation(triple, gamma0, spec, 0.05, base=base)
    t_on = 0.7 - 0.05 - spec.k * 0.05 ** 2
    n = int(np.searchsorted(gamma0.mesh, t_on, side="right"))
    T = triple.horizon
    for sl in surface.slices[1:]:
        traj = sl.traj
        assert traj.splice == (gamma0, gamma0.mesh[n - 1])
        assert traj.mesh[:n].tobytes() == gamma0.mesh[:n].tobytes()
        assert traj.states[:n].tobytes() == gamma0.states[:n].tobytes()
        assert traj.mesh[n] > gamma0.mesh[n - 1]
        assert set(traj.control.breakpoints) <= set(traj.mesh)   # t_on among them
        cold = triple.controlled_curve(traj.control, sigma0, tol=(1e-8, 1e-10))
        assert cold.splice is None
        np.testing.assert_allclose(traj.state(T), cold.state(T), rtol=1e-8, atol=1e-10)
        assert sl.ext.prefix is base.ext

    # the s = 1 slice reads gamma0's Lagrangian table up to t_k and sums its
    # own intervals past it: every entry is the plain left-to-right sum
    def plain_sums(ext):
        mesh, sums = ext._mesh(), [0.0]
        for a, b in zip(mesh[:-1], mesh[1:]):
            sums.append(sums[-1] + gauss_legendre(ext.lagrangian, a, b))
        return np.array(sums)

    top = surface.slices[-1].ext
    assert base.ext.lagrangian_cumulative()[n - 1] > 0.1   # a prefix worth reusing
    for ext in (top, base.ext):
        assert np.array_equal(ext.lagrangian_cumulative(), plain_sums(ext))


def test_boundary_pairing_is_exactly_zero_only_where_the_jacobi_rows_are(triple, monkeypatch):
    # pendulum-direct's frozen slices share gamma0's data and control at
    # t = 0, so the Jacobi rows the pairing reads there are exact zeros and
    # it returns 0.0 without evaluating momenta; on pendulum-r2 the
    # s-differences at t = 0 leave rounding residue (|Y| ~ 1e-32), which
    # still takes the momenta
    import hopmp.needle as needle
    from hopmp import build, optimal_reference

    momenta, calls = needle.lagrangian_momenta, []

    def counting(*args):
        calls.append(args)
        return momenta(*args)

    monkeypatch.setattr(needle, "lagrangian_momenta", counting)
    direct = build("pendulum-direct", T=PI / 2, v_max=1.0)
    u0, sigma0, _ = optimal_reference("pendulum-direct", T=PI / 2, v_max=1.0)
    g0 = direct.controlled_curve(u0, sigma0, tol=(1e-10, 1e-12))
    injected = triple.controlled_curve(ConstantControl([-1.0], triple.horizon),
                                       triple.initial_data.make(v=1.0), tol=(1e-10, 1e-12))
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.05)
    flat = needle_variation(direct, g0, spec, 0.05,
                            base=SurfaceSlice(0.0, g0, ExtendedCurve(g0, direct)))
    assert needle._boundary_pairings(direct, [flat], 0.0)[0] == 0.0 and not calls
    assert needle._boundary_pairings(direct, [flat], direct.horizon)[0] != 0.0 and len(calls) == 1
    residue = needle_variation(triple, injected, spec, 0.05,
                               base=SurfaceSlice(0.0, injected, ExtendedCurve(injected, triple)))
    rows = residue.jacobi_q(np.array([0.0]), 1)[:, 0]
    assert 0.0 < np.max(np.abs(rows)) < 1e-30
    needle._boundary_pairings(triple, [residue], 0.0)
    assert len(calls) == 2


def test_moving_sigma_family_integrates_cold(triple, gamma_opt):
    # slices whose initial data move with s start from their own data, and
    # without a base slice no slice is spliced
    spec = NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.05,
                      sigma_family=lambda eps, s: triple.initial_data.make(v=1.0 - 0.1 * s))
    base = SurfaceSlice(0.0, gamma_opt, ExtendedCurve(gamma_opt, triple))
    surface = needle_variation(triple, gamma_opt, spec, 0.05, base=base)
    assert surface.slices[0] is base
    assert [sl.traj.splice for sl in surface.slices[1:]] == [None] * (surface.n_slices - 1)
    assert all(sl.ext.prefix is None for sl in surface.slices)
    frozen = needle_variation(triple, gamma_opt, NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.05),
                              0.05)
    assert all(sl.traj.splice is None for sl in frozen.slices)


def test_transversality_classical_embedding():
    triple = pendulum_classical(T=PI / 2)
    conds = transversality_synthesize(triple)
    # p_i(T) = -dC/dx^i: cost is -x1, so (1, 0)
    assert conds.terminal_values["p1"][0] == pytest.approx(1.0, abs=1e-9)
    assert conds.terminal_values["p2"][0] == pytest.approx(0.0, abs=1e-9)
    assert conds.paper_sign_note is None


def test_transversality_pendulum_r2(triple, gamma_opt):
    conds = transversality_synthesize(triple,
                                      jet_T=gamma_opt.jet(triple.horizon, 4))
    vals = conds.terminal_values["p"]
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[1] == pytest.approx(-1.0, abs=1e-10)
    assert np.max(conds.residuals) < 1e-9
    assert conds.paper_sign_note is None  # matches the printed sign for m = 2


def test_transversality_third_order_sign_flag():
    triple = third_order(T=1.0)
    u0 = ConstantControl([1.0], 1.0)
    g0 = triple.controlled_curve(u0, tol=(1e-11, 1e-13))
    conds = transversality_synthesize(triple, jet_T=g0.jet(1.0, 6))
    vals = conds.terminal_values["p"]
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[1] == pytest.approx(0.0, abs=1e-10)
    assert vals[2] == pytest.approx(1.0, abs=1e-10)   # printed convention says -1
    assert conds.paper_sign_note is not None
    assert oracle_gap(triple, conds, g0) <= 1e-9


def test_transversality_needs_adjoint_vars():
    from hopmp.problems import pendulum_direct

    with pytest.raises(NonSolvableForm):
        transversality_synthesize(pendulum_direct(T=PI / 2))


def test_adjoint_branch_meets_terminal_conditions(triple, gamma_opt):
    conds = transversality_synthesize(triple)
    branch = adjoint_branch(triple, gamma_opt, conds)
    T = triple.horizon
    jet = branch.jet(T, 1)
    assert jet.coord(1, 0) == pytest.approx(0.0, abs=1e-8)
    assert jet.coord(1, 1) == pytest.approx(-1.0, abs=1e-8)
    # and p(t) = sin(T - t) along the branch
    for t in (0.2, 0.9):
        assert branch.jet(t, 0).coord(1, 0) == pytest.approx(math.sin(T - t),
                                                             abs=1e-8)


def test_gpmp_verdict_optimal_satisfied(triple, gamma_opt):
    spec = NeedleSpec(tau=0.5, omega=[-1.0], eps0=0.05)
    v = gpmp_verdict(triple, gamma_opt, spec)
    assert v.satisfied
    assert v.goodn_all
    # P(w) - P(1) = sin(T - tau)(w - 1) <= 0
    expected = math.sin(PI / 2 - 0.5) * (-1.0 - 1.0)
    assert v.margin == pytest.approx(expected, abs=1e-8)


def test_gpmp_verdict_omega_equals_control(triple, gamma_opt):
    spec = NeedleSpec(tau=0.5, omega=[1.0], eps0=0.05)
    v = gpmp_verdict(triple, gamma_opt, spec)
    assert v.satisfied
    assert v.margin == pytest.approx(0.0, abs=1e-9)


def test_gpmp_verdict_violation(triple):
    u0 = ConstantControl([-1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    spec = NeedleSpec(tau=PI / 4, omega=[1.0], eps0=0.05)
    v = gpmp_verdict(triple, g0, spec)
    assert not v.satisfied
    assert v.margin == pytest.approx(2 * math.sin(PI / 4), abs=1e-8)


def test_gpmp_verdict_shared_base_matches_own(triple, gamma_opt):
    # a shared s = 0 slice whose cached integral an earlier verdict filled
    base = SurfaceSlice(0.0, gamma_opt, ExtendedCurve(gamma_opt, triple))
    gpmp_verdict(triple, gamma_opt, NeedleSpec(tau=0.5, omega=[0.0], eps0=0.05),
                 base=base)
    spec = NeedleSpec(tau=0.5, omega=[-1.0], eps0=0.05)
    own = gpmp_verdict(triple, gamma_opt, spec)
    shared = gpmp_verdict(triple, gamma_opt, spec, base=base)
    assert shared.margin == own.margin
    np.testing.assert_array_equal(shared.corrective.gaps, own.corrective.gaps)
    assert shared.goodn_all == own.goodn_all


def _count_jet_reads(monkeypatch, counted):
    """Record ``(trajs, ts, order)`` of each jet read that ``counted`` accepts
    (every module that reads jets calls ``jets_of``)."""
    import hopmp.auxiliary
    import hopmp.dynamics
    import hopmp.homotopy

    jets_of, reads = hopmp.dynamics.jets_of, []

    def counting(trajs, ts, order):
        if counted(trajs, ts, order):
            reads.append((trajs, ts, order))
        return jets_of(trajs, ts, order)

    for module in (hopmp.auxiliary, hopmp.dynamics, hopmp.homotopy):
        monkeypatch.setattr(module, "jets_of", counting)
    return reads


def test_pmp_scan_integrates_base_lagrangian_once(triple, monkeypatch):
    u0 = ConstantControl([-1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    # the Gauss-Legendre nodes of the first mesh interval, where only the
    # quadrature of the Lagrangian along g0 reads its jets: the grids that
    # hold them are the one pass of that quadrature over g0's whole mesh
    a, b = g0.mesh[0], g0.mesh[1]
    x, _ = np.polynomial.legendre.leggauss(5)
    nodes = set(0.5 * (a + b) + 0.5 * (b - a) * x)
    hits = _count_jet_reads(monkeypatch, lambda trajs, ts, order: any(
        tr is g0 for tr in trajs) and nodes <= set(np.atleast_1d(ts)))
    report = pmp_scan(triple, g0, [0.5, 1.0], np.array([[-1.0], [1.0]]),
                      eps0=0.05, certification="full")
    assert len(report.certificate) == 4
    assert len(hits) == 1


def test_pmp_scan_reads_gamma0_boundary_jets_once(triple, monkeypatch):
    # the s = 0 slice every verdict shares keeps gamma0's jets at T and 0
    # from the first family on, and each family's momenta at T and at 0 are
    # one batched pass over all its slices; every width of every omega at
    # one tau integrates as one family, and a lone corrective term's widths
    # as one family
    import hopmp.needle as needle
    import hopmp.problem

    u0 = ConstantControl([-1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0), tol=(1e-10, 1e-12))
    T = triple.horizon
    reads = _count_jet_reads(monkeypatch, lambda trajs, ts, order: any(
        tr is g0 for tr in trajs) and np.ndim(ts) == 0 and float(ts) in (0.0, T))
    momenta, calls = needle.lagrangian_momenta, []
    integrate_family, members = hopmp.problem.integrate_family, []

    def counting(*args):
        calls.append(args)
        return momenta(*args)

    def counting_family(dynamics, controls, *args, **kwargs):
        members.append(len(controls))
        return integrate_family(dynamics, controls, *args, **kwargs)

    monkeypatch.setattr(needle, "lagrangian_momenta", counting)
    monkeypatch.setattr(hopmp.problem, "integrate_family", counting_family)
    taus, widths = [0.5, 1.0], default_eps_sequence(0.05)
    report = pmp_scan(triple, g0, taus, np.array([[-1.0], [0.0], [1.0]]),
                      eps_sequence=widths, eps0=0.05, certification="full")
    assert len(report.certificate) == 6
    assert sorted(float(ts) for _, ts, _ in reads) == [0.0, T]
    assert 0 < len(calls) <= 2 * len(taus) * len(widths)
    assert members == [3 * len(widths) * 4] * len(taus)   # omegas x widths x slices s > 0
    members.clear()
    corrective_term(triple, g0, NeedleSpec(tau=0.5, omega=[1.0], eps0=0.05), widths)
    assert members == [len(widths) * 4]


def test_pmp_scan_runs_full_verdicts_where_certification_fails():
    # the subgrid's boundary sign test fails on pendulum-direct's optimum
    # u = 1, where the uncorrected margins are false violations: every grid
    # point gets its full verdict instead, the subgrid's reused
    from hopmp import build, optimal_reference

    direct = build("pendulum-direct", T=PI / 2, v_max=1.0)
    u0, sigma0, _ = optimal_reference("pendulum-direct", T=PI / 2, v_max=1.0)
    g0 = direct.controlled_curve(u0, sigma0, tol=(1e-10, 1e-12))
    taus = np.linspace(0.4, 1.4, 3)
    omegas = np.linspace(-1.0, 1.0, 3).reshape(-1, 1)
    report = pmp_scan(direct, g0, taus, omegas, eps0=0.05, cert_taus=2, cert_omegas=2)
    assert report.empty
    assert not report.certified and "FAILED" in report.note
    assert [(v.tau, v.omega[0]) for v in report.certificate] == [
        (t, w) for t in taus for w in omegas[:, 0]]


def test_pmp_scan_optimal_empty(triple, gamma_opt):
    taus = np.linspace(0.2, 1.3, 5)
    omegas = np.linspace(-1, 1, 3).reshape(-1, 1)
    report = pmp_scan(triple, gamma_opt, taus, omegas, eps0=0.05,
                      cert_taus=3, cert_omegas=2)
    assert report.certified
    assert report.empty


def test_pmp_scan_bad_control_margins(triple):
    u0 = ConstantControl([-1.0], triple.horizon)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    taus = np.linspace(0.2, 1.3, 5)
    omegas = np.linspace(-1, 1, 3).reshape(-1, 1)
    report = pmp_scan(triple, g0, taus, omegas, eps0=0.05,
                      cert_taus=3, cert_omegas=2)
    assert len(report.violations) > 0
    seen = {}
    for v in report.violations:
        seen[v.tau] = max(seen.get(v.tau, -1e9), v.margin)
    for tau in taus:
        assert seen[float(tau)] == pytest.approx(2 * math.sin(PI / 2 - tau),
                                                 abs=1e-6)


def test_pmp_scan_rejects_unknown_certification(triple, gamma_opt, monkeypatch):
    import hopmp.needle as needle

    def no_verdicts(*args, **kwargs):
        raise AssertionError("a verdict ran before the bad option was rejected")

    monkeypatch.setattr(needle, "gpmp_verdict", no_verdicts)
    with pytest.raises(BadParams, match="certification"):
        pmp_scan(triple, gamma_opt, [0.8], np.array([[1.0]]), eps0=0.05,
                 certification="ful")


def test_pmp_scan_single_point_satisfied(triple, gamma_opt):
    report = pmp_scan(triple, gamma_opt, [0.8], np.array([[1.0]]), eps0=0.05,
                      certification="full")
    assert report.empty and report.certified


def test_pmp_scan_sign_rule_mismatch_detected():
    # horizon 2.2: the rule asks for sign(sin(T - t)), which is +1
    # throughout, so a control that flips at pi/2 violates beyond it
    T = 2.2
    triple = pendulum_r2(T=T, v_max=1.0)
    u0 = PiecewiseConstantControl([PI / 2], [[1.0], [-1.0]], T)
    g0 = triple.controlled_curve(u0, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    taus = np.array([0.5, 1.2, 1.7, 1.9])
    omegas = np.array([[-1.0], [1.0]])
    report = pmp_scan(triple, g0, taus, omegas, eps0=0.05,
                      cert_taus=2, cert_omegas=2)
    bad_taus = sorted({v.tau for v in report.violations})
    assert bad_taus == [1.7, 1.9]
    for v in report.violations:
        assert v.margin == pytest.approx(2 * math.sin(T - v.tau), abs=1e-6)
