"""Acceptance suite: one check per shipped criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
them).  Runtime budgets are asserted where the criterion pins one.
"""

import math
import time

import numpy as np
import pytest

from hopmp.auxiliary import (
    boundary_matrix,
    ExtendedCurve,
    bvp_residuals,
    pc_lift_integral,
    solve_h,
)
from hopmp.classical import (
    adjoint_integrate,
    chain_reduction_problem,
    hamiltonian_table,
    phi_surjectivity_probe,
)
from hopmp.controls import ConstantControl, HarmonicControl
from hopmp.dynamics import lipschitz_probe
from hopmp.errors import BadParams, DegenerateHorizon
from hopmp.homotopy import (
    ControlHomotopy,
    build_surface,
    homotopy_lhs,
    homotopy_rhs,
    mu_prime_gap_direct,
    uniform_s_grid,
    vertical_pairing,
)
from hopmp.needle import (
    NeedleSpec,
    corrective_term,
    default_eps_sequence,
    gpmp_verdict,
    mu_prime_gap_closed,
    needle_variation,
    pmp_scan,
    transversality_synthesize,
)
from hopmp.problem import pontryagin_p
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
T_REF = PI / 2


def crit(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {num}: {name} ({detail})"


def test_criterion_01_pendulum_adjoint_closed_form():
    from tests_support import pendulum_classical_cp
    t0 = time.perf_counter()
    cp = pendulum_classical_cp(T_REF, v=1.0)
    u = ConstantControl([1.0], T_REF)
    adj = adjoint_integrate(cp, u, [1.0, 0.0])
    ts = np.linspace(0.0, T_REF, 181)
    err = max(max(abs(adj.state(t)[2] - math.cos(T_REF - t)),
                  abs(adj.state(t)[3] - math.sin(T_REF - t))) for t in ts)
    elapsed = time.perf_counter() - t0
    crit(1, "classical adjoint reproduces cos/sin closed forms",
         err <= 1e-8 and elapsed < 1.0,
         f"max err {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_higher_order_adjoint():
    t0 = time.perf_counter()
    triple = pendulum_r2(T=T_REF, v_max=1.0)
    u = ConstantControl([1.0], T_REF)
    g0 = triple.controlled_curve(u, triple.initial_data.make(v=1.0),
                                 tol=(1e-10, 1e-12))
    conds = transversality_synthesize(triple, jet_T=g0.jet(T_REF, 4))
    vals = conds.terminal_values["p"]
    ok_conds = abs(vals[0]) < 1e-10 and abs(vals[1] + 1.0) < 1e-10

    from hopmp.needle import adjoint_branch
    branch = adjoint_branch(triple, g0, conds)
    ts = np.linspace(0.0, T_REF, 121)
    err = max(abs(branch.jet(float(t), 0).coord(1, 0) - math.sin(T_REF - t))
              for t in ts)
    elapsed = time.perf_counter() - t0
    crit(2, "synthesized transversality yields p(t) = sin(T - t)",
         ok_conds and err <= 1e-8 and elapsed < 1.0,
         f"p(T)={vals[0]:.1e}, pdot(T)={vals[1]:+.6f}, max err {err:.2e}, "
         f"{elapsed:.2f}s")


def test_criterion_03_bang_bang_recovery_scan():
    t0 = time.perf_counter()
    triple = pendulum_r2(T=T_REF, v_max=1.0)
    eps0, k = 0.05, 0.05
    lo = eps0 + k * eps0 ** 2 + 1e-3
    hi = T_REF - k * eps0 ** 2 - 1e-3
    taus = np.linspace(lo, hi, 32)
    omegas = np.linspace(-1.0, 1.0, 17).reshape(-1, 1)

    u_good = ConstantControl([1.0], T_REF)
    g_good = triple.controlled_curve(u_good, triple.initial_data.make(v=1.0),
                                     tol=(1e-10, 1e-12))
    rep_good = pmp_scan(triple, g_good, taus, omegas, eps0=eps0, k=k)

    u_bad = ConstantControl([-1.0], T_REF)
    g_bad = triple.controlled_curve(u_bad, triple.initial_data.make(v=1.0),
                                    tol=(1e-10, 1e-12))
    rep_bad = pmp_scan(triple, g_bad, taus, omegas, eps0=eps0, k=k)

    worst_by_tau = {}
    for v in rep_bad.violations:
        worst_by_tau[v.tau] = max(worst_by_tau.get(v.tau, -np.inf), v.margin)
    margins_ok = len(worst_by_tau) == 32 and all(
        abs(worst_by_tau[float(t)] - 2.0 * math.sin(T_REF - t)) <= 1e-6
        for t in taus)
    elapsed = time.perf_counter() - t0
    crit(3, "32x17 scan: optimal clean, injected control refuted with "
            "closed-form margins",
         rep_good.empty and rep_good.certified and margins_ok and elapsed < 30.0,
         f"violations(good)={len(rep_good.violations)}, "
         f"violations(bad)={len(rep_bad.violations)}, {elapsed:.1f}s")


def test_criterion_04_optimal_cost():
    triple = pendulum_r2(T=T_REF, v_max=1.0)
    u_opt, sigma_opt, cost_ref = optimal_reference("pendulum-r2", T=T_REF,
                                                   v_max=1.0)
    # the terminal cost over the free initial velocity, searched on a grid of its box
    vs = np.linspace(-1.0, 1.0, 17)
    costs = [triple.terminal_cost(triple.controlled_curve(u_opt, triple.initial_data.make(v=v),
                                                          tol=(1e-10, 1e-12))) for v in vs]
    v_best, cost_best = vs[np.argmin(costs)], min(costs)
    crit(4, "optimized pendulum cost equals -(1 + v_max)",
         abs(cost_best - (-2.0)) <= 1e-8 and abs(cost_ref - (-2.0)) <= 1e-12,
         f"cost {cost_best:.12f}, v* {v_best:.9f}")


def test_criterion_05_homotopy_identity():
    t0 = time.perf_counter()
    triple = pendulum_r2(T=T_REF, v_max=1.0)

    def make_surface(s_intervals):
        hom = ControlHomotopy(
            slice_curve=lambda s: ConstantControl([s], T_REF),
            sigma_path=lambda s: triple.initial_data.make(v=0.0),
            s_grid=uniform_s_grid(s_intervals),
            du_ds=lambda t, s: np.ones(1),
        )
        return build_surface(triple, hom)

    surface = make_surface(64)
    lhs = homotopy_lhs(surface)
    rhs = homotopy_rhs(surface, t_nodes=400)
    gap = abs(lhs - rhs)
    tol = 1e-3 * (abs(lhs) + 1.0)

    # refinement at the quadrature's order: coarse grids sit well above the
    # fine-grid gap unless both already rest on the noise floor
    gap_coarse = abs(homotopy_lhs(surface) - homotopy_rhs(surface, t_nodes=24))
    shrinks = gap <= gap_coarse / 4.0 or gap < 1e-8
    elapsed = time.perf_counter() - t0
    crit(5, "two-sided terminal-cost identity at 400x64",
         abs(lhs + 1.0) <= 1e-8 and gap <= tol and shrinks and elapsed < 60.0,
         f"lhs {lhs:.9f}, gap {gap:.2e} (tol {tol:.1e}), coarse-gap "
         f"{gap_coarse:.2e}, {elapsed:.1f}s")


def test_criterion_06_h_bvp_audit():
    rng = np.random.default_rng(20260809)
    triple = pendulum_r2(T=T_REF, v_max=1.0)
    worst_bvp = 0.0
    for _ in range(50):
        v = rng.uniform(-1.0, 1.0)
        p0, pd0 = rng.normal(scale=1.0, size=2)
        amp = rng.uniform(0.1, 0.9)
        om = rng.uniform(0.5, 3.0)
        ph = rng.uniform(0.0, 2 * PI)
        u = HarmonicControl(0.0, amp, om, ph, T_REF)
        sigma = {"x": [0.0, v], "p": [p0, pd0]}
        traj = triple.controlled_curve(u, sigma, tol=(1e-11, 1e-13))
        coeffs = solve_h(traj, triple)
        worst_bvp = max(worst_bvp, max(bvp_residuals(coeffs).values()))
    dets_ok = all(abs(np.linalg.det(boundary_matrix(T))) > 1e-12
                  for T in (0.1, 1.0, PI / 2, 10.0))
    crit(6, "boundary-value audit on 50 random trajectories",
         worst_bvp <= 1e-9 and dets_ok,
         f"max boundary residual {worst_bvp:.2e}")


def _builtin_instances():
    yield pendulum_r2(T=T_REF), {"v": 0.6}
    yield pendulum_direct(T=T_REF), {"v": 0.6}
    yield pendulum_classical(T=T_REF), {"v": 0.6}
    yield mth_order([1.0, 0.0, 1.0], T_REF), {}
    yield mth_order([0.0, 1.0], 1.0), {}
    yield third_order(T=1.0), {}


def test_criterion_07_poincare_cartan_lift_identity():
    worst_lift = 0.0
    worst_vertical = 0.0
    for triple, params in _builtin_instances():
        u = ConstantControl([0.7], triple.horizon)
        traj = triple.controlled_curve(u, triple.initial_data.make(**params),
                                       tol=(1e-10, 1e-12))
        ext = ExtendedCurve(traj, triple)
        lift = pc_lift_integral(ext, n_nodes=401)
        cost = triple.terminal_cost(traj)
        worst_lift = max(worst_lift, abs(lift - cost))

        target = ConstantControl(triple.controls.lower, triple.horizon)
        from hopmp.controls import BlendControl

        sigma0 = triple.initial_data.make(**params)
        hom = ControlHomotopy(
            slice_curve=lambda s, u0=u, t1=target: u0 if s == 0.0
            else BlendControl(u0, t1, s),
            sigma_path=lambda s, sg=sigma0: sg,
            s_grid=uniform_s_grid(8),
            du_ds=lambda ts, s, u0=u, t1=target: t1.jets(ts, 0)[0].T - u0.jets(ts, 0)[0].T,
        )
        surface = build_surface(triple, hom, tol=(1e-10, 1e-12))
        for k in range(surface.n_slices):
            worst_vertical = max(worst_vertical,
                                 abs(vertical_pairing(surface, 0.0, k)))
    crit(7, "lift integral equals terminal cost; vertical side vanishes",
         worst_lift <= 1e-6 and worst_vertical <= 1e-8,
         f"max lift gap {worst_lift:.2e}, max t=0 pairing {worst_vertical:.2e}")


def test_criterion_08_corrective_term_decay():
    eps_seq = default_eps_sequence(0.1, 7)
    results = []
    for triple in (pendulum_classical(T=T_REF), pendulum_r2(T=T_REF)):
        u = ConstantControl([1.0], triple.horizon)
        g0 = triple.controlled_curve(u, triple.initial_data.make(v=1.0),
                                     tol=(1e-10, 1e-12))
        spec = NeedleSpec(tau=0.6, omega=[-1.0], eps0=0.1)
        est = corrective_term(triple, g0, spec, eps_seq)
        mags = np.abs(est.estimates)
        # the gap vanishes identically here, so the sequence must either
        # decrease or sit entirely on the quadrature noise floor
        decays = bool(np.all(np.diff(mags) <= 0.0)) or float(np.max(mags)) <= 1e-6
        results.append((decays, float(abs(est.estimates[-1])), float(np.max(mags))))
    ok = all(d and final <= 1e-3 for d, final, _ in results)
    crit(8, "corrective estimates vanish for terminal-enforcing needles",
         ok,
         "; ".join(f"final {f:.1e}, max {m:.1e}" for _, f, m in results))


def test_criterion_09_two_method_gap_agreement():
    probes = []
    # frozen, non-transversal adjoint branches give genuinely nonzero gaps
    triple = pendulum_r2(T=T_REF)
    g1 = triple.controlled_curve(ConstantControl([1.0], T_REF),
                                 {"x": [0.0, 1.0], "p": [0.0, 0.0]},
                                 tol=(1e-10, 1e-12))
    probes.append((triple, g1, NeedleSpec(tau=0.7, omega=[-1.0], eps0=0.1), 0.08))
    probes.append((triple, g1, NeedleSpec(tau=1.1, omega=[-0.4], eps0=0.1), 0.03))

    direct_triple = pendulum_direct(T=T_REF)
    g2 = direct_triple.controlled_curve(ConstantControl([0.5], T_REF),
                                        direct_triple.initial_data.make(v=0.8),
                                        tol=(1e-10, 1e-12))
    probes.append((direct_triple, g2,
                   NeedleSpec(tau=0.9, omega=[-1.0], eps0=0.1), 0.06))

    cl = pendulum_classical(T=T_REF)
    g3 = cl.controlled_curve(ConstantControl([0.3], T_REF),
                             {"x1": [0.0], "x2": [0.5], "p1": [0.2], "p2": [-0.4]},
                             tol=(1e-10, 1e-12))
    probes.append((cl, g3, NeedleSpec(tau=0.8, omega=[1.0], eps0=0.1), 0.05))

    t_m1 = mth_order([0.0, 1.0], 1.0)
    g4 = t_m1.controlled_curve(ConstantControl([1.0], 1.0),
                               {"x": [0.0], "p": [0.7]}, tol=(1e-10, 1e-12))
    probes.append((t_m1, g4, NeedleSpec(tau=0.5, omega=[-1.0], eps0=0.1), 0.07))

    t_3 = third_order(T=1.0)
    g5 = t_3.controlled_curve(ConstantControl([1.0], 1.0),
                              {"x": [0, 0, 0], "p": [0.4, -0.2, 0.0]},
                              tol=(1e-10, 1e-12))
    probes.append((t_3, g5, NeedleSpec(tau=0.5, omega=[-1.0], eps0=0.1), 0.07))

    worst = 0.0
    for trip, g0, spec, eps in probes:
        surface = needle_variation(trip, g0, spec, eps, s_intervals=8)
        closed = mu_prime_gap_closed(trip, surface)
        direct = mu_prime_gap_direct(surface, "full")
        rel = abs(closed - direct) / max(abs(closed), abs(direct))
        worst = max(worst, rel)
    crit(9, "closed form and direct quadrature of the gap agree",
         worst <= 1e-4, f"worst relative disagreement {worst:.2e}")


def test_criterion_10_third_order_oracle_cross_check():
    T = 1.0
    triple = third_order(T=T)
    u_plus = ConstantControl([1.0], T)
    u_minus = ConstantControl([-1.0], T)
    g_plus = triple.controlled_curve(u_plus, tol=(1e-11, 1e-13))
    g_minus = triple.controlled_curve(u_minus, tol=(1e-11, 1e-13))
    xT_plus = g_plus.state(T)[0]
    xT_minus = g_minus.state(T)[0]
    brute_ok = (abs(xT_plus - T ** 3 / 6.0) < 1e-9 and xT_plus > xT_minus)

    # classical chain reduction: p3(t) = (T-t)^2/2 and the maximizer is +1
    from tests_support import oracle_gap, third_order_chain_cp
    cp = third_order_chain_cp(T)
    adj = adjoint_integrate(cp, u_plus, [1.0, 0.0, 0.0])
    p3_ok = all(abs(adj.state(t)[5] - (T - t) ** 2 / 2.0) < 1e-9
                for t in np.linspace(0, T, 9))

    conds = transversality_synthesize(triple, jet_T=g_plus.jet(T, 6))
    flag_ok = conds.paper_sign_note is not None and oracle_gap(triple, conds, g_plus) <= 1e-9

    taus = np.linspace(0.1, 0.85, 8) * T
    omegas = np.array([[-1.0], [1.0]])
    table, _ = hamiltonian_table(chain_reduction_problem(triple, g_plus), g_plus.control,
                                 taus, omegas)
    oracle = omegas[np.argmax(table, axis=1)]
    agree = True
    verdicts_ok = True
    for row, tau in enumerate(taus):
        P = pontryagin_p(triple, g_plus.jet(float(tau), 3))
        w_p, _ = P.argmax_on_grid(omegas)
        agree = agree and np.allclose(w_p, oracle[row])
        spec = NeedleSpec(tau=float(tau), omega=[-1.0], eps0=0.03)
        v = gpmp_verdict(triple, g_plus, spec, default_eps_sequence(0.03, 4))
        verdicts_ok = verdicts_ok and v.satisfied
    crit(10, "third-order formulation matches the brute-force chain oracle",
         brute_ok and p3_ok and flag_ok and agree and verdicts_ok,
         f"x(T)={xT_plus:.9f}, printed-sign flag recorded, argmax agrees at "
         f"{len(taus)} probe times")


def test_criterion_11_lipschitz_probe():
    triple = pendulum_r2(T=T_REF, v_max=1.0)
    r1 = lipschitz_probe(triple, n_pairs=100, seed=42)
    r2 = lipschitz_probe(triple, n_pairs=100, seed=42)
    crit(11, "empirical boundedness probe is finite and seed-deterministic",
         np.isfinite(r1.max_ratio) and r1.ratios.size + r1.n_skipped == 100
         and np.array_equal(r1.ratios, r2.ratios),
         f"max ratio {r1.max_ratio:.3f}, mean {r1.mean_ratio:.3f}")


def test_criterion_12_phi_surjectivity_probe():
    triple = pendulum_direct(T=T_REF)
    report = phi_surjectivity_probe(triple, np.linspace(-1.0, 1.0, 9))
    slope_ok = abs(report.slope - 1.0) <= 1e-9
    res_ok = report.residual <= 1e-9
    try:
        pendulum_direct(T=PI)
        rejected = False
    except BadParams:
        rejected = True
    if not rejected:
        try:
            phi_surjectivity_probe(pendulum_direct(T=PI),
                                   np.linspace(-1, 1, 5))
        except DegenerateHorizon:
            rejected = True
    crit(12, "initial-velocity map has unit slope; degenerate horizon rejected",
         slope_ok and res_ok and rejected,
         f"slope {report.slope:.12f}, residual {report.residual:.2e}")
