"""Batch experiment runner.

Loads a flat INI-style config, executes the requested verification suites
(triple validation, the two-sided homotopy identity, needle corrective
estimates, maximum-principle scans, classical cross-checks, the empirical
boundedness probe, the initial-velocity surjectivity probe), and writes a
deterministic text report plus plot-ready trajectory data.

Every check is a :class:`~hopmp.problem.Check` record, and the exit code
comes from the records: 0 all checks pass, 1 a failed record (a violation
or refutation), 2 a failed record of the validate suite or another
configuration error, 3 numerical failure or internal error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .controls import ConstantControl
from .dynamics import lipschitz_probe
from .errors import ConfigError, HopmpError, NoClosedForm
from .homotopy import (
    blend_homotopy,
    build_surface,
    conservation_residual,
    homotopy_lhs,
    homotopy_rhs,
    infinitesimal_conditions,
    minimal_labour_W,
    select_beta_range,
    vertical_pairing,
    mu_prime_gap_direct,
)
from .needle import (
    NeedleSpec,
    default_eps_sequence,
    gpmp_verdict,
    mu_prime_gap_closed,
    needle_variation,
    oracle_argmax_gap,
    pmp_scan,
    transversality_synthesize,
)
from .problem import Check, validate_triple
from .problems import build, optimal_reference

SUITES = ("validate", "homotopy", "needle", "pmp-scan", "classical-cross",
          "lipschitz", "phi-probe")


@dataclass
class RunConfig:
    problem_id: str = "pendulum-r2"
    T: float = math.pi / 2
    v_max: float = 1.0
    a: Optional[list] = None
    u0: Optional[float] = None          # constant-control override
    jet_order: Optional[int] = None     # override the problem's jet order
    t_nodes: int = 400
    s_nodes: int = 64
    tau_points: int = 32
    omega_points: int = 17
    eps0: float = 0.1
    eps_count: int = 7
    needle_k: float = 0.05
    lipschitz_pairs: int = 100
    rtol: float = 1e-8
    atol: float = 1e-10
    suites: tuple = SUITES
    seed: int = 1234
    out: Path = Path("out")
    quiet: bool = False
    dump_mu_grid: bool = False

    @property
    def tol(self):
        return (self.rtol, self.atol)


def load_config(path: Path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()
    try:
        if parser.has_section("problem"):
            p = parser["problem"]
            cfg.problem_id = p.get("id", cfg.problem_id)
            cfg.T = p.getfloat("T", cfg.T)
            cfg.v_max = p.getfloat("v_max", cfg.v_max)
            if "a" in p:
                cfg.a = [float(x) for x in p["a"].split()]
            if "u0" in p:
                cfg.u0 = p.getfloat("u0")
            if "jet_order" in p:
                cfg.jet_order = p.getint("jet_order")
        if parser.has_section("grids"):
            g = parser["grids"]
            cfg.t_nodes = g.getint("t_nodes", cfg.t_nodes)
            cfg.s_nodes = g.getint("s_nodes", cfg.s_nodes)
            cfg.tau_points = g.getint("tau_points", cfg.tau_points)
            cfg.omega_points = g.getint("omega_points", cfg.omega_points)
            cfg.eps0 = g.getfloat("eps0", cfg.eps0)
            cfg.eps_count = g.getint("eps_count", cfg.eps_count)
            cfg.needle_k = g.getfloat("k", cfg.needle_k)
            cfg.lipschitz_pairs = g.getint("lipschitz_pairs", cfg.lipschitz_pairs)
        if parser.has_section("tolerances"):
            t = parser["tolerances"]
            cfg.rtol = t.getfloat("rtol", cfg.rtol)
            cfg.atol = t.getfloat("atol", cfg.atol)
        if parser.has_section("run"):
            r = parser["run"]
            if "suites" in r:
                cfg.suites = tuple(r["suites"].split())
            cfg.seed = r.getint("seed", cfg.seed)
            if "out" in r:
                cfg.out = Path(r["out"])
            cfg.dump_mu_grid = r.getboolean("mu_grid_dump", cfg.dump_mu_grid)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    unknown = set(cfg.suites) - set(SUITES)
    if unknown:
        raise ConfigError(f"unknown suites: {sorted(unknown)}")
    if cfg.t_nodes < 2 or cfg.s_nodes < 2 or cfg.tau_points < 1 \
            or cfg.omega_points < 1 or cfg.eps_count < 3:
        raise ConfigError("grids must be nonempty (and eps_count >= 3)")
    if cfg.lipschitz_pairs < 1:
        raise ConfigError(f"lipschitz_pairs = {cfg.lipschitz_pairs}; the probe needs a pair")
    if not (cfg.rtol > 0.0 and cfg.atol >= 0.0):
        raise ConfigError(f"tolerances need rtol > 0 and atol >= 0, got {cfg.rtol}, {cfg.atol}")
    if cfg.s_nodes % 2:
        raise ConfigError(f"s_nodes = {cfg.s_nodes} is odd; the Simpson rule over s needs it even")
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


def _problem_params(cfg: RunConfig) -> dict:
    """The keyword arguments of the configured problem's builder."""
    if cfg.problem_id == "mth-order":
        return {"a": cfg.a or [1.0, 0.0, 1.0], "T": cfg.T}
    if cfg.problem_id in ("pendulum-r2", "pendulum-direct", "pendulum-classical"):
        return {"T": cfg.T, "v_max": cfg.v_max}
    return {"T": cfg.T}


def _reference_pair(cfg: RunConfig, triple, params: dict):
    """Reference control and initial data: the closed-form optimum when one
    exists, the box midpoint otherwise; the config may override u0."""
    try:
        u, sigma, cost = optimal_reference(cfg.problem_id, **params)
    except NoClosedForm:
        u = ConstantControl(triple.controls.midpoint(), triple.horizon)
        sigma, cost = triple.initial_data.make(), None
    if cfg.u0 is not None:
        return ConstantControl([cfg.u0], triple.horizon), sigma, None
    return u, sigma, cost


def _tau_range(cfg: RunConfig, triple):
    lo = cfg.eps0 + cfg.needle_k * cfg.eps0 ** 2 + 1e-3
    hi = triple.horizon - cfg.needle_k * cfg.eps0 ** 2 - 1e-3
    return np.linspace(lo, hi, cfg.tau_points)


# A suite returns its report entries in order: info lines (str) and Check records.


def _suite_validate(cfg, triple, gamma0) -> list:
    checks = validate_triple(triple, seed=cfg.seed)
    res = [f"declared orders: r={triple.lagrangian.actual_order}, n={triple.jet_order}, "
           f"cost {triple.cost.actual_order}"] + checks
    if all(c.ok for c in checks):
        from .auxiliary import bvp_residuals, solve_h

        coeffs = solve_h(gamma0, triple)
        res += [f"boundary matrix condition number: {_fmt(coeffs.cond)}",
                Check("boundary-value residuals of h, h', h''",
                      max(bvp_residuals(coeffs).values()), 1e-9)]
    return res


def _suite_homotopy(cfg, triple, gamma0) -> list:
    u0 = gamma0.control
    # deform toward the box corner farthest from the reference control
    mid = triple.controls.midpoint()
    u_mean = u0.value(0.5 * triple.horizon)
    corner = np.where(u_mean >= mid, triple.controls.lower, triple.controls.upper)
    top = ConstantControl(corner, triple.horizon)
    sigma0 = triple.dynamics.unpack_state(gamma0.initial_state)
    hom = blend_homotopy(u0, top, lambda s: sigma0, cfg.s_nodes)
    surface = build_surface(triple, hom, tol=cfg.tol)

    selection = select_beta_range(surface, t_nodes=max(100, cfg.t_nodes // 2))
    mode = selection["selected"]

    lhs = homotopy_lhs(surface)
    rhs = homotopy_rhs(surface, t_nodes=cfg.t_nodes, beta_range=mode)
    gap = abs(lhs - rhs)
    tol = 1e-3 * (abs(lhs) + 1.0)
    gap_coarse = abs(lhs - homotopy_rhs(surface, t_nodes=cfg.t_nodes // 2,
                                        beta_range=mode))
    vmax = max(abs(vertical_pairing(surface, 0.0, k))
               for k in range(0, surface.n_slices, max(1, surface.n_slices // 8)))
    cres = conservation_residual(surface, surface.n_slices // 2,
                                 t_nodes=cfg.t_nodes // 2, beta_range=mode)
    w1 = minimal_labour_W(surface, 1.0, t_nodes=cfg.t_nodes, beta_range=mode)
    dc_ds, base = infinitesimal_conditions(surface, t_nodes=cfg.t_nodes, beta_range=mode)
    res = [
        _convention_line(selection),
        f"lhs={_fmt(lhs)} rhs={_fmt(rhs)}",
        Check("terminal-cost identity", gap, tol),
        "grid convergence table (t-nodes, gap): "
        f"({cfg.t_nodes // 2}, {_fmt(gap_coarse)}) ({cfg.t_nodes}, {_fmt(gap)})",
        Check("vertical side at t=0 vanishes", vmax, 1e-8),
        f"per-slice balance residual={_fmt(cres)}",
        Check("per-slice balance", abs(cres), 5e-4),
        f"W(1)={_fmt(w1)} C0-C1={_fmt(-lhs)}",
        Check("labour functional endpoint", abs(w1 - (-lhs)), 2 * tol),
        f"dC/ds(0)={_fmt(dc_ds)} integral of F(t, 0)={_fmt(base)}",
        # a candidate optimum has dC/ds(0) >= 0 and, by the identity, the integral <= 0
        Check("first-order sign of the principle", max(-dc_ds, base), tol),
    ]

    if cfg.dump_mu_grid:
        _dump_mu_grid(cfg, surface, mode)
    return res


def _convention_line(selection: dict) -> str:
    gaps = (f"(gaps: full={_fmt(selection['gaps']['full'])}, "
            f"paper={_fmt(selection['gaps']['paper'])})")
    if selection["tie"]:
        return ("contact-index convention: the identity does not separate full "
                f"and paper {gaps}; using the default {selection['selected']}")
    return f"contact-index convention selected by the identity: {selection['selected']} {gaps}"


def _dump_mu_grid(cfg, surface, mode) -> None:
    from .homotopy import mu_prime

    path = Path(cfg.out) / "mu_prime_grid.csv"
    ts = np.linspace(0.0, surface.triple.horizon, 41)
    with open(path, "w") as fh:
        fh.write("t,s,mu_prime\n")
        for t in ts:
            for k, s in enumerate(surface.s_nodes):
                fh.write(f"{_fmt(t)},{_fmt(s)},{_fmt(mu_prime(surface, float(t), k, mode))}\n")


def _suite_needle(cfg, triple, gamma0) -> list:
    T = triple.horizon
    tau = 0.45 * T
    omega = triple.controls.lower.copy()
    spec = NeedleSpec(tau=tau, omega=omega, eps0=cfg.eps0, k=cfg.needle_k)
    eps_seq = default_eps_sequence(cfg.eps0, cfg.eps_count)

    v = gpmp_verdict(triple, gamma0, spec, eps_seq, tol=cfg.tol)
    est = v.corrective
    res = ["corrective-term table (eps, estimate, boundary residual):"]
    res += [f"    {_fmt(e)}  {_fmt(q)}  {_fmt(g)}"
            for e, q, g in zip(est.eps, est.estimates, est.goodn_residuals)]
    res += [f"shrinking-limit proxy: {_fmt(est.liminf_proxy)}; "
            f"extrapolated: {_fmt(est.richardson) if est.richardson is not None else 'n/a'}; "
            f"trend consistent: {est.consistent}",
            f"boundary-sign test: {'pass' if v.goodn_all else 'fail'}",
            Check("pointwise inequality at the probe needle", v.margin, v.tolerance)]

    for eps in (eps_seq[0], eps_seq[len(eps_seq) // 2]):
        surface = needle_variation(triple, gamma0, spec, float(eps),
                                   s_intervals=8, tol=cfg.tol)
        closed = mu_prime_gap_closed(triple, surface)
        direct = mu_prime_gap_direct(surface, "full")
        # relative agreement, with an absolute floor for gaps that vanish
        # identically (both evaluations are then pure quadrature noise)
        res += [f"eps={_fmt(eps)}: closed={_fmt(closed)} direct={_fmt(direct)}",
                Check(f"two-method gap agreement at eps={_fmt(eps)}", abs(closed - direct),
                      1e-4 * max(abs(closed), abs(direct)) + 1e-8)]
    return res


def _suite_pmp_scan(cfg, triple, gamma0) -> list:
    taus = _tau_range(cfg, triple)
    lo, hi = triple.controls.lower[0], triple.controls.upper[0]
    omegas = np.linspace(lo, hi, cfg.omega_points).reshape(-1, 1)
    report = pmp_scan(triple, gamma0, taus, omegas,
                      eps_sequence=default_eps_sequence(cfg.eps0, cfg.eps_count),
                      eps0=cfg.eps0, k=cfg.needle_k, tol=cfg.tol)
    res = [report.note,
           f"grid: {len(taus)} tau x {len(omegas)} omega = {report.n_points} points",
           Check("no violations on the scan grid", len(report.violations), 0)]
    worst = report.sorted_violations()[:10]
    if worst:
        res.append("worst violations:")
    return res + [f"    tau={_fmt(v.tau)} omega={_fmt(v.omega[0])} margin={_fmt(v.margin)}"
                  for v in worst]


def _suite_classical_cross(cfg, triple, gamma0) -> list:
    from .classical import chain_reduction_problem, classical_pmp_check, hamiltonian_table

    if len(triple.state_vars) != 1 or not triple.adjoint_vars:
        return ["chain oracle needs a single state variable and an adjoint variable; skipped"]

    taus = np.linspace(0.1, 0.9, 7) * triple.horizon
    conds = transversality_synthesize(
        triple, jet_T=gamma0.jet(triple.horizon,
                                 2 * triple.lagrangian.actual_order - 1))
    name = triple.dynamics.names[triple.adjoint_vars[0]]
    vals = " ".join(_fmt(v) for v in conds.terminal_values[name])
    res = [f"synthesized terminal adjoint jet ({name}): {vals}"]
    if conds.paper_sign_note:
        res.append("NOTE: " + conds.paper_sign_note)

    cp = chain_reduction_problem(triple, gamma0)
    omegas = np.linspace(cp.controls.lower[0], cp.controls.upper[0], 9).reshape(-1, 1)
    table, at_u = hamiltonian_table(cp, gamma0.control, taus, omegas)
    # the argmax comparison reads every other column: 5 controls across the box
    argmax_gap = oracle_argmax_gap(triple, conds, gamma0, taus, omegas[::2], table[:, ::2])
    return res + [
        Check("annihilation residuals", float(np.max(conds.residuals)), 1e-8),
        Check("argmax agreement with the chain-reduction oracle", argmax_gap, 1e-9),
        Check("first-order check on the reference control",
              len(classical_pmp_check(taus, omegas, table, at_u)), 0),
    ]


def _suite_lipschitz(cfg, triple, gamma0) -> list:
    report = lipschitz_probe(triple, n_pairs=cfg.lipschitz_pairs, seed=cfg.seed)
    return [f"pairs={cfg.lipschitz_pairs} seed={cfg.seed} skipped={report.n_skipped}",
            report.note,
            f"boundedness ratio: max={_fmt(report.max_ratio)} mean={_fmt(report.mean_ratio)}",
            Check("finite boundedness ratio", int(not np.isfinite(report.max_ratio)), 0)]


def _suite_phi_probe(cfg, triple, gamma0) -> list:
    from .classical import phi_surjectivity_probe
    from .errors import DegenerateHorizon
    from .problems import pendulum_direct

    try:
        probe_triple = triple if triple.name == "pendulum-direct" \
            else pendulum_direct(T=cfg.T, v_max=cfg.v_max)
    except HopmpError as exc:
        return [f"probe problem rejected: {exc}", Check("degenerate horizon rejected", 0, 0)]
    try:
        report = phi_surjectivity_probe(probe_triple, np.linspace(-cfg.v_max,
                                                                  cfg.v_max, 9))
    except DegenerateHorizon as exc:
        return [f"degenerate horizon: {exc}", Check("degenerate horizon rejected", 0, 0)]
    return [f"slope={_fmt(report.slope)} expected={_fmt(report.expected_slope)}",
            Check("slope equals sin(T)", abs(report.slope - report.expected_slope), 1e-9),
            Check("affine residual", report.residual, 1e-9)]


_SUITE_FUNCS = {
    "validate": _suite_validate,
    "homotopy": _suite_homotopy,
    "needle": _suite_needle,
    "pmp-scan": _suite_pmp_scan,
    "classical-cross": _suite_classical_cross,
    "lipschitz": _suite_lipschitz,
    "phi-probe": _suite_phi_probe,
}


def _write_trajectory_csv(cfg: RunConfig, triple, gamma0) -> Path:
    dyn = triple.dynamics
    state_cols, adjoint_cols = [], []
    labels = dyn.state_labels()
    for i, (off, m) in enumerate(zip(dyn.offsets, dyn.orders)):
        cols = list(zip(labels[off:off + m], range(off, off + m)))
        (adjoint_cols if i in triple.adjoint_vars else state_cols).extend(cols)

    path = Path(cfg.out) / "trajectory.csv"
    ts = np.linspace(0.0, triple.horizon, cfg.t_nodes + 1)
    with open(path, "w") as fh:
        header = ["t"] + [c[0] for c in state_cols] + [c[0] for c in adjoint_cols]
        header += [f"u{a+1}" for a in range(triple.controls.dim)]
        fh.write(",".join(header) + "\n")
        for t in ts:
            y = gamma0.state(float(t))
            u = gamma0.control.value(float(gamma0.control.clamp(t)))
            row = [_fmt(t)]
            row += [_fmt(y[idx]) for _, idx in state_cols]
            row += [_fmt(y[idx]) for _, idx in adjoint_cols]
            row += [_fmt(v) for v in u]
            fh.write(",".join(row) + "\n")
    return path


def run(cfg: RunConfig) -> int:
    """Execute the configured suites; write report and data files."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    lines = [f"hopmp verification report (v{__version__})"]
    lines.append("generated: " + datetime.now(timezone.utc).isoformat())
    lines.append("")
    lines.append("[config]")
    for key in ("problem_id", "T", "v_max", "a", "u0", "t_nodes", "s_nodes",
                "tau_points", "omega_points", "eps0", "eps_count", "needle_k",
                "lipschitz_pairs", "rtol", "atol", "seed"):
        lines.append(f"  {key} = {getattr(cfg, key)}")
    lines.append(f"  suites = {' '.join(cfg.suites)}")
    lines.append("")

    exit_code = 0
    try:
        params = _problem_params(cfg)
        triple = build(cfg.problem_id, **params)
        if cfg.jet_order is not None:
            triple.jet_order = cfg.jet_order
        u0, sigma0, ref_cost = _reference_pair(cfg, triple, params)
        gamma0 = triple.controlled_curve(u0, sigma0, tol=cfg.tol)
        if ref_cost is not None:
            achieved = triple.terminal_cost(gamma0)
            lines.append(f"reference cost: analytic={_fmt(ref_cost)} "
                         f"integrated={_fmt(achieved)}")
            lines.append("")
        csv_path = _write_trajectory_csv(cfg, triple, gamma0)

        for name in cfg.suites:
            entries = _SUITE_FUNCS[name](cfg, triple, gamma0)
            lines.append(f"[{name}]")
            lines += ["  " + (e.line() if isinstance(e, Check) else e) for e in entries]
            lines.append("")
            if any(isinstance(e, Check) and not e.ok for e in entries):
                exit_code = max(exit_code, 2 if name == "validate" else 1)
        lines.append(f"trajectory data: {csv_path.name}")
    except ConfigError as exc:
        lines.append(f"CONFIG ERROR: {exc}")
        exit_code = 2
    except HopmpError as exc:
        from .errors import BadParams

        if isinstance(exc, BadParams):
            lines.append(f"CONFIG ERROR: {exc}")
            exit_code = 2
        else:
            lines.append(f"NUMERICAL FAILURE: {type(exc).__name__}: {exc}")
            exit_code = 3
    except Exception as exc:  # a defect, not a verdict: never exit 0 or 1
        traceback.print_exc()
        lines.append(f"INTERNAL ERROR: {type(exc).__name__}: {' '.join(str(exc).split())}")
        exit_code = 3

    lines.append(f"exit code: {exit_code}")
    report = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(report)
    if not cfg.quiet:
        sys.stdout.write(report)
    return exit_code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hopmp",
        description="Run maximum-principle verification suites on a control "
                    "problem described by a config file.")
    ap.add_argument("--config", type=Path, default=None,
                    help="INI config file (defaults apply when omitted)")
    ap.add_argument("--suite", action="append", default=None,
                    help="suite name, repeatable; overrides the config")
    ap.add_argument("--out", type=Path, default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    if args.suite:
        bad = set(args.suite) - set(SUITES)
        if bad:
            sys.stderr.write(f"config error: unknown suites {sorted(bad)}\n")
            return 2
        cfg.suites = tuple(args.suite)
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.quiet:
        cfg.quiet = True
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
