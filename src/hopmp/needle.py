"""Needle machinery: localized control spikes, their smoothed versions and
interpolating variations, the shrinking-width corrective term, the
boundary-sign (GoodN) test, terminal transversality synthesis and the
maximum-principle verdict.

The corrective term subtracted in the generalized inequality is the
shrinking-width limit of (mu'(T,1) - mu'(T,0)) / eps.  The difference
mu'(T,1) - mu'(T,0) is computed two ways: a closed form built from terminal
cost differences, Lagrangian time integrals and boundary pairings of the
momentum sums with the Jacobi field (cheap, well conditioned), and the
direct quadrature of mu' (used as a cross-check only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .controls import ControlCurve, NeedleOverlayControl, SmoothedNeedleControl, stacked_jet
from .dynamics import Trajectory, integrate_backward
from .errors import BadParams, NonSolvableForm
from .homotopy import (SurfaceSlice, VariationSurface, blend_homotopy, build_surfaces,
                       homotopy_lhs, slice_jets)
from .auxiliary import ExtendedCurve, lagrangian_cumulatives, simpson
from .classical import Violation
from .jetspace import JetPoint
from .problem import DefiningTriple, lagrangian_momenta, pontryagin_p


@dataclass
class NeedleSpec:
    """A generalized needle: spike time, ceiling value, maximal width, ramp
    fraction, and the two-parameter family of initial data leading it.

    ``sigma_family(eps, s)`` must return the base initial data at s = 0 for
    every eps.
    """

    tau: float
    omega: np.ndarray
    eps0: float
    k: float = 0.05
    sigma_family: Optional[Callable[[float, float], Mapping]] = None

    def __post_init__(self):
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if self.eps0 <= 0 or not (0 < self.k < 1):
            raise BadParams("need eps0 > 0 and ramp fraction k in (0, 1)")

    def validate(self, horizon: float) -> None:
        pad = self.k * self.eps0 ** 2
        if not (0.0 < self.tau - self.eps0 - pad and self.tau + pad < horizon):
            raise BadParams(
                f"needle support [{self.tau - self.eps0 - pad}, {self.tau + pad}] "
                f"must sit inside (0, {horizon})")

    def sigma(self, eps: float, s: float, default: np.ndarray):
        if self.sigma_family is None:
            return default
        return self.sigma_family(eps, s)


def needle_modification(u0: ControlCurve, spec: NeedleSpec,
                        eps: float) -> NeedleOverlayControl:
    """Ceiling value on [tau - eps, tau), the base control elsewhere."""
    if not 0 < eps <= spec.eps0:
        raise BadParams("needle width must lie in (0, eps0]")
    return NeedleOverlayControl(u0, spec.tau, spec.omega, eps)


def smooth_needle(needle: ControlCurve, spec: NeedleSpec,
                  eps: float) -> SmoothedNeedleControl:
    """C^2 version of a needle: quintic ramps of width k eps^2 on both sides.

    Accepts either the discontinuous needle (whose base is reused) or the
    base control itself.
    """
    if not 0 < eps <= spec.eps0:
        raise BadParams("needle width must lie in (0, eps0]")
    base = needle.base if isinstance(needle, NeedleOverlayControl) else needle
    return SmoothedNeedleControl(base, spec.tau, spec.omega, eps, spec.k)


def needle_variation(triple: DefiningTriple, gamma0: Trajectory,
                     spec: NeedleSpec, eps: float,
                     s_intervals: int = 4, tol=(1e-8, 1e-10),
                     base: Optional[SurfaceSlice] = None) -> VariationSurface:
    """The interpolating variation u(t, s) = (1-s) u0 + s ustar for one width,
    led by the spec's initial-data family."""
    return needle_variations(triple, gamma0, [spec], [eps], s_intervals, tol, base)[0]


def needle_variations(triple: DefiningTriple, gamma0: Trajectory,
                      specs: Sequence[NeedleSpec], eps_sequence: Sequence[float],
                      s_intervals: int = 4, tol=(1e-8, 1e-10),
                      base: Optional[SurfaceSlice] = None) -> list[VariationSurface]:
    """The variations of several needles at several widths, width-major
    (every spec at the first width, then at the next), from one family
    integration at ``tol / W`` for W widths; given gamma0's ``base`` slice,
    they continue gamma0 from its last step before the widest needle (see
    ``build_surfaces``).  A needle's mirror-image ramps, integrated alone,
    cancel their RK45 errors; in a family the narrower needles' breakpoints
    split the wider ones' down-ramps and the errors add up."""
    u0, sigma0 = gamma0.control, gamma0.initial_state
    for spec in specs:
        spec.validate(triple.horizon)
    homs, t_on = [], []
    for eps in map(float, eps_sequence):
        for spec in specs:
            smoothed = smooth_needle(needle_modification(u0, spec, eps), spec, eps)
            if spec.sigma_family is not None:
                anchored = triple.dynamics.pack_state(spec.sigma_family(eps, 0.0))
                if np.max(np.abs(anchored - gamma0.initial_state)) > 1e-10:
                    raise BadParams("sigma family must anchor the base data at s = 0")
            homs.append(blend_homotopy(
                u0, smoothed, lambda s, spec=spec, eps=eps: spec.sigma(eps, s, sigma0),
                s_intervals))
            t_on.append(smoothed.t_on)
    w = len(eps_sequence)
    return build_surfaces(triple, homs, (tol[0] / w, tol[1] / w), base=base, start=min(t_on))


def _boundary_pairings(triple: DefiningTriple, surfaces: Sequence[VariationSurface],
                       t_star: float) -> np.ndarray:
    """integral over s of sum_{i,beta} m^L_{i,beta} Y^i_(beta) at t_star, per
    surface: every slice's jets from one :func:`slice_jets` call and their
    momenta from one batched point."""
    r = triple.lagrangian.actual_order
    slices = [sl for surface in surfaces for sl in surface.slices]
    q = np.stack([p.blocks for p in slice_jets(slices, t_star, max(2 * r - 1, r))])
    cuts = np.cumsum([0] + [surface.n_slices for surface in surfaces])
    Ys = [surface.s_derivative(q[a:b]) for surface, a, b in zip(surfaces, cuts, cuts[1:])]
    # a surface whose Jacobi rows are exact zeros, as on slices sharing t = 0, pairs to 0.0
    live = [j for j, Y in enumerate(Ys) if Y[:, :r].any()]
    out = np.zeros(len(surfaces))
    if not live:
        return out
    jets = JetPoint(np.full(len(slices), t_star), np.moveaxis(q, 0, -1))
    m = lagrangian_momenta(triple, jets, stacked_jet([sl.traj.control for sl in slices],
                                                     t_star, r + 1))   # (N, r, len(slices))
    grids: dict = {}   # s-grid -> the live surfaces on it, integrated as rows of one call
    for j in live:
        grids.setdefault(surfaces[j].s_nodes.tobytes(), []).append(j)
    for js in grids.values():
        # one (N, r) reduction per slice keeps the rounding of a single node's sum
        vals = [[np.sum(m[..., cuts[j] + k] * Y[:r].T) for k, Y in enumerate(Ys[j])] for j in js]
        out[js] = simpson(np.array(vals), surfaces[js[0]].s_nodes)
    return out


def mu_prime_gaps_closed(triple: DefiningTriple,
                         surfaces: Sequence[VariationSurface]) -> np.ndarray:
    """mu'(T,1) - mu'(T,0) of each surface from terminal-cost differences,
    Lagrangian integrals and the two boundary pairings (no auxiliary
    functions), read in batched passes over all the surfaces' slices.

    The Lagrangian integrals are read from the end slices' extended curves,
    which cache them, and the jets at T and 0 from the slices, which keep
    them (so a shared s = 0 slice is read once)."""
    bT = _boundary_pairings(triple, surfaces, triple.horizon)
    b0 = _boundary_pairings(triple, surfaces, 0.0)
    int_L1 = [table[-1] for table in lagrangian_cumulatives([s.slices[-1].ext for s in surfaces])]
    int_L0 = [s.slices[0].ext.lagrangian_integral() for s in surfaces]
    return np.array([homotopy_lhs(s) for s in surfaces]) - int_L1 + int_L0 + bT - b0


def mu_prime_gap_closed(triple: DefiningTriple, surface: VariationSurface) -> float:
    """The gap of one surface, see :func:`mu_prime_gaps_closed`."""
    return float(mu_prime_gaps_closed(triple, [surface])[0])


@dataclass
class CorrectiveEstimate:
    """Shrinking-width estimates of the corrective term with extrapolation."""

    eps: np.ndarray
    gaps: np.ndarray            # mu'(T,1) - mu'(T,0) per width
    estimates: np.ndarray       # gaps / eps
    liminf_proxy: float
    richardson: Optional[float]
    consistent: bool
    goodn_residuals: np.ndarray


def corrective_term(triple: DefiningTriple, gamma0: Trajectory,
                    spec: NeedleSpec, eps_sequence: Sequence[float],
                    tol=(1e-8, 1e-10),
                    base: Optional[SurfaceSlice] = None,
                    gaps: Optional[np.ndarray] = None) -> CorrectiveEstimate:
    """Difference quotients (mu'(T,1) - mu'(T,0)) / eps along shrinking
    widths, via the closed-form evaluation of the gap (or given ``gaps``).

    Reports the sequence, the minimum over its tail as the shrinking-limit
    proxy, and a linear-in-eps extrapolation when the sequence is
    trend-consistent.
    """
    eps_sequence = np.asarray(list(eps_sequence), dtype=float)
    if eps_sequence.size < 3 or np.any(np.diff(eps_sequence) >= 0):
        raise BadParams("need a strictly decreasing width sequence, length >= 3")
    if gaps is None:
        gaps = _width_gaps(triple, gamma0, [spec], eps_sequence, tol, base)[0]
    estimates = gaps / eps_sequence

    tail = estimates[eps_sequence.size // 2:]
    liminf_proxy = float(np.min(tail))

    scale = 1.0 + float(np.max(np.abs(estimates)))
    monotone = bool(np.all(np.diff(np.abs(tail)) <= 1e-9 * scale))
    flat = bool(np.max(np.abs(tail - tail[-1])) <= 1e-6 * scale)
    consistent = monotone or flat

    richardson = None
    if consistent and eps_sequence.size >= 2:
        e1, e2 = estimates[-2], estimates[-1]
        x1, x2 = eps_sequence[-2], eps_sequence[-1]
        richardson = float((e2 * x1 - e1 * x2) / (x1 - x2))

    return CorrectiveEstimate(
        eps=eps_sequence, gaps=gaps, estimates=estimates,
        liminf_proxy=liminf_proxy, richardson=richardson,
        consistent=consistent, goodn_residuals=-gaps,
    )


def _width_gaps(triple: DefiningTriple, gamma0: Trajectory, specs: Sequence[NeedleSpec],
                eps_sequence: np.ndarray, tol,
                base: Optional[SurfaceSlice]) -> np.ndarray:
    """The closed-form gaps (len(specs), len(eps_sequence)), every width of
    every spec from one family and read in one batched pass."""
    if base is None:
        base = SurfaceSlice(0.0, gamma0, ExtendedCurve(gamma0, triple))
    surfaces = needle_variations(triple, gamma0, specs, eps_sequence, tol=tol, base=base)
    return mu_prime_gaps_closed(triple, surfaces).reshape(len(eps_sequence), len(specs)).T


def _goodn_floor(base: ExtendedCurve) -> float:
    """The boundary residuals pass the sign test down to this value:
    -1e-6 (1 + |integral of L along the base curve|)."""
    return -1e-6 * (1.0 + abs(base.lagrangian_integral()))


def _pointwise_tolerance(p_uo: float) -> float:
    """Slack of the pointwise inequality P(omega) - P(u_o) <= 0."""
    return 1e-6 * (1.0 + abs(p_uo))


# -- transversality synthesis ---------------------------------------------------


@dataclass
class TransversalityConditions:
    """Terminal adjoint jets annihilating the t = T boundary pairing."""

    terminal_values: dict
    residuals: np.ndarray
    paper_sign_note: Optional[str] = None


def transversality_synthesize(triple: DefiningTriple,
                              jet_T: Optional[JetPoint] = None) -> TransversalityConditions:
    """Solve dC/dq_(beta) + m_beta = 0 at t = T for the adjoint terminal jet.

    Works down from beta = r-1: at each level the condition is affine in the
    next adjoint derivative, probed numerically and solved as a linear
    system across adjoint variables.  Raises NonSolvableForm when a level's
    coefficient matrix is singular (the Lagrangian is not affine in the
    adjoint block in the required way).  The control is held at the box
    midpoint.
    """
    L = triple.lagrangian
    r = L.actual_order
    N = triple.dynamics.dim
    T = triple.horizon
    if not triple.adjoint_vars:
        raise NonSolvableForm("the triple declares no adjoint variables")
    adj = list(triple.adjoint_vars)
    states = list(triple.state_vars)

    if jet_T is None:
        blocks = np.zeros((2 * r, N))
        jet_T = JetPoint(T, blocks)
    ujet = np.zeros((r + 2, triple.controls.dim))
    ujet[0] = triple.controls.midpoint()

    work = np.array(jet_T.blocks, dtype=float)
    if work.shape[0] < 2 * r:
        work = np.vstack([work, np.zeros((2 * r - work.shape[0], N))])
    for i in adj:
        work[:, i] = 0.0

    n_adj = len(adj)
    solved_per_var: list[list[float]] = [[] for _ in adj]
    residuals = []
    for beta in range(r - 1, -1, -1):
        k_level = r - 1 - beta

        def conditions(new_vals: np.ndarray) -> np.ndarray:
            probe = work.copy()
            for col, i in enumerate(adj):
                for kk, val in enumerate(solved_per_var[col]):
                    probe[kk, i] = val
                probe[k_level, i] = new_vals[col]
            jet = JetPoint(T, probe)
            m = lagrangian_momenta(triple, jet, ujet)
            return np.array([
                triple.cost.partial(jet, ("q", j, beta)) + m[j, beta]
                for j in states
            ])

        base_val = conditions(np.zeros(n_adj))
        Mcols = np.empty((len(states), n_adj))
        for col in range(n_adj):
            e = np.zeros(n_adj)
            e[col] = 1.0
            Mcols[:, col] = conditions(e) - base_val
        try:
            new_vals = np.linalg.solve(Mcols, -base_val)
        except np.linalg.LinAlgError as exc:
            raise NonSolvableForm(
                f"level {k_level} coefficient matrix singular: {exc}") from exc
        if not np.all(np.isfinite(new_vals)):
            raise NonSolvableForm(f"level {k_level} produced non-finite values")
        residuals.append(conditions(new_vals))
        for col in range(n_adj):
            solved_per_var[col].append(float(new_vals[col]))

    terminal = {}
    for col, i in enumerate(adj):
        terminal[triple.dynamics.names[i]] = np.asarray(solved_per_var[col],
                                                        dtype=float)

    return TransversalityConditions(
        terminal_values=terminal,
        residuals=np.abs(np.asarray(residuals)).max(axis=1),
        paper_sign_note=_paper_sign_note(triple, terminal),
    )


def _paper_sign_note(triple: DefiningTriple, terminal: dict) -> Optional[str]:
    """Flag when the synthesized top condition disagrees with the printed
    convention p^(r-1)(T) = -1 for single-adjoint chains with cost -x(T)."""
    if len(terminal) != 1:
        return None
    vals = next(iter(terminal.values()))
    top = vals[-1]
    if abs(top) < 1e-12:
        return None
    if top * (-1.0) < 0:
        return ("synthesized top terminal condition p^({}) (T) = {:+.6g} has "
                "the opposite sign to the printed convention -1; the "
                "annihilation recipe and the classical-reduction oracle fix "
                "the sign".format(len(vals) - 1, top))
    return None


def adjoint_branch(triple: DefiningTriple, gamma0: Trajectory,
                   conds: TransversalityConditions) -> Trajectory:
    """Re-integrate the full system so the adjoint block meets the terminal
    conditions while the state block reproduces gamma0."""
    dyn, tol = triple.dynamics, (1e-10, 1e-12)
    T = triple.horizon
    yT = gamma0.state(T).copy()
    for i in triple.adjoint_vars:
        name = dyn.names[i]
        off, m = dyn.offsets[i], dyn.orders[i]
        yT[off:off + m] = conds.terminal_values[name][:m]

    y = integrate_backward(dyn, gamma0.control, yT, T, tol)
    # the state block reproduces gamma0 by uniqueness; reuse its exact data
    for i in triple.state_vars:
        off, m = dyn.offsets[i], dyn.orders[i]
        y[off:off + m] = gamma0.initial_state[off:off + m]
    return triple.controlled_curve(gamma0.control, y, tol=tol)


def oracle_argmax_gap(triple: DefiningTriple, conds: TransversalityConditions,
                      gamma0: Trajectory, tau_grid, omega_rows: np.ndarray,
                      table: np.ndarray) -> float:
    """Cross-check of the maximizers of the higher-order function P along the
    synthesized adjoint branch against a classical oracle's: ``table`` holds
    the chain reduction's Hamiltonian at every (tau, omega row) (see
    :func:`~hopmp.classical.hamiltonian_table`).  Returns the largest
    componentwise distance between the two argmaxes over the probe times."""
    branch = adjoint_branch(triple, gamma0, conds)
    r = triple.lagrangian.actual_order
    gaps = []
    for tau, w_h in zip(tau_grid, omega_rows[np.argmax(table, axis=1)]):
        w_p, _ = pontryagin_p(triple, branch.jet(float(tau), r)).argmax_on_grid(omega_rows)
        gaps.append(float(np.max(np.abs(w_p - w_h))))
    return max(gaps)


# -- verdicts and scans ----------------------------------------------------------


@dataclass
class PMPVerdict:
    """Outcome of one (tau, omega) application of the maximum principle."""

    tau: float
    omega: np.ndarray
    p_at_omega: float
    p_at_uo: float
    corrective: Optional[CorrectiveEstimate]
    corrective_used: float
    goodn_all: bool
    satisfied: bool
    margin: float
    tolerance: float


def default_eps_sequence(eps0: float = 0.1, count: int = 7) -> np.ndarray:
    return eps0 * 0.5 ** np.arange(count)


def gpmp_verdict(triple: DefiningTriple, gamma0: Trajectory, spec: NeedleSpec,
                 eps_sequence: Optional[Sequence[float]] = None,
                 tol=(1e-8, 1e-10),
                 base: Optional[SurfaceSlice] = None,
                 gaps: Optional[np.ndarray] = None) -> PMPVerdict:
    """Evaluate the pointwise inequality at one needle.

    When the boundary sign test passes for every width, the corrective term
    is dropped; otherwise the shrinking-width estimate is subtracted.

    ``base`` is the s = 0 slice of every width's variation: gamma0 with its
    extended curve, which caches gamma0's Lagrangian integral.  It is built
    here when omitted; a scan passes one slice to all of its verdicts, and
    the ``gaps`` per width it read from one family per tau.
    """
    spec.validate(triple.horizon)
    if eps_sequence is None:
        eps_sequence = default_eps_sequence(spec.eps0)
    r = triple.lagrangian.actual_order
    jet = gamma0.jet(spec.tau, r)
    P = pontryagin_p(triple, jet)
    p_omega = P(spec.omega)
    p_uo = P(gamma0.control.value(spec.tau))

    if base is None:
        base = SurfaceSlice(0.0, gamma0, ExtendedCurve(gamma0, triple))
    est = corrective_term(triple, gamma0, spec, eps_sequence, tol=tol, base=base, gaps=gaps)
    goodn_all = bool(np.all(est.goodn_residuals >= _goodn_floor(base.ext)))
    corrective_used = 0.0 if goodn_all else est.liminf_proxy

    tolerance = _pointwise_tolerance(p_uo)
    margin = p_omega - corrective_used - p_uo
    return PMPVerdict(
        tau=spec.tau, omega=spec.omega, p_at_omega=p_omega, p_at_uo=p_uo,
        corrective=est, corrective_used=corrective_used, goodn_all=goodn_all,
        satisfied=bool(margin <= tolerance), margin=float(margin),
        tolerance=float(tolerance),
    )


@dataclass
class ScanReport:
    violations: list
    certified: bool
    certificate: list    # PMPVerdict records: the subgrid's, or every point's when full
    n_points: int
    note: str = ""

    @property
    def empty(self) -> bool:
        return not self.violations

    def sorted_violations(self):
        return sorted(self.violations, key=lambda v: -v.margin)


def pmp_scan(triple: DefiningTriple, gamma0: Trajectory,
             tau_grid: Sequence[float], omega_grid: Sequence[float],
             eps_sequence: Optional[Sequence[float]] = None,
             sigma_policy: Optional[Callable[[float, np.ndarray], Callable]] = None,
             eps0: float = 0.05, k: float = 0.05,
             certification: str = "subgrid",
             cert_taus: int = 5, cert_omegas: int = 3,
             tol=(1e-8, 1e-10)) -> ScanReport:
    """Grid sweep of the pointwise inequality over (tau, omega).

    ``sigma_policy(tau, omega)`` supplies the initial-data family of each
    needle (frozen at the base data when omitted).  With
    ``certification="subgrid"`` the full verdict (corrective estimates and
    boundary sign test across the whole width sequence) runs on a corner
    and center subgrid; once every certification point passes the boundary
    test, the remaining grid uses the dropped corrective term, which is what
    the sign test licenses.  When a certification point fails the test,
    the full verdict runs at every other grid point too, and the report's
    ``certificate`` holds all of them.  ``certification="full"`` runs the
    complete verdict at every grid point from the start.

    Every verdict of the scan shares one s = 0 slice: gamma0 and its
    extended curve, so gamma0's Lagrangian integral is computed once per
    scan.  At each tau the other slices of every omega and width are one
    family at ``tol`` over the width count (see ``needle_variations``): they
    share a mesh and the splice node before the widest needle, and are read
    for their closed-form gaps in one pass and then dropped.
    """
    if certification not in ("subgrid", "full"):
        raise BadParams(f"certification must be 'subgrid' or 'full', got {certification!r}")
    taus = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    omegas = np.atleast_2d(np.asarray(omega_grid, dtype=float).reshape(len(omega_grid), -1))
    if taus.size == 0 or omegas.size == 0:
        raise BadParams("scan grids must be nonempty")
    if eps_sequence is None:
        eps_sequence = default_eps_sequence(eps0)

    base = SurfaceSlice(0.0, gamma0, ExtendedCurve(gamma0, triple))

    def spec_for(tau: float, omega: np.ndarray) -> NeedleSpec:
        family = sigma_policy(tau, omega) if sigma_policy else None
        return NeedleSpec(tau=float(tau), omega=omega, eps0=float(eps0), k=k,
                          sigma_family=family)

    def verdicts_at(tau: float, ws) -> list[PMPVerdict]:
        # full verdicts at one tau: the omegas ws at every width are one family
        specs = [spec_for(tau, w) for w in ws]
        if not specs:
            return []
        gaps = _width_gaps(triple, gamma0, specs, eps_sequence, tol, base)
        return [gpmp_verdict(triple, gamma0, spec, eps_sequence, tol=tol, base=base, gaps=g)
                for spec, g in zip(specs, gaps)]

    if certification == "full":
        ct, co = taus, omegas
    else:
        ct = taus[np.unique(np.linspace(0, taus.size - 1, min(cert_taus, taus.size)).astype(int))]
        co = omegas[np.unique(np.linspace(0, omegas.shape[0] - 1,
                                          min(cert_omegas, omegas.shape[0])).astype(int))]
    certificate = [v for t in ct for v in verdicts_at(float(t), co)]
    certified = all(v.goodn_all for v in certificate)

    violations = []
    if certification == "full" or not certified:
        # every point's full verdict; the certificate's are reused
        kept = {(v.tau, v.omega.tobytes()): v for v in certificate}
        verdicts = []
        for t in map(float, taus):
            fresh = iter(verdicts_at(t, [w for w in omegas if (t, w.tobytes()) not in kept]))
            verdicts += [kept.get((t, w.tobytes())) or next(fresh) for w in omegas]
        violations = [Violation(v.tau, v.omega, v.margin) for v in verdicts if not v.satisfied]
        note = ("full verdict at every grid point" if certification == "full" else
                f"certification FAILED on a subgrid of {len(certificate)} needles: full "
                "verdict at every grid point, the subgrid's reused")
        certificate = verdicts
    else:
        r = triple.lagrangian.actual_order
        for tau in taus:
            jet = gamma0.jet(float(tau), r)
            P = pontryagin_p(triple, jet)
            p_uo = P(gamma0.control.value(float(tau)))
            tolerance = _pointwise_tolerance(p_uo)
            for w in omegas:
                margin = P(w) - p_uo   # corrective dropped under the certificate
                if margin > tolerance:
                    violations.append(Violation(float(tau), w.copy(), float(margin)))
        note = ("boundary sign test certified on a subgrid of "
                f"{len(certificate)} needles; corrective term dropped accordingly")

    return ScanReport(violations=violations, certified=certified,
                      certificate=certificate,
                      n_points=int(taus.size * omegas.shape[0]), note=note)
