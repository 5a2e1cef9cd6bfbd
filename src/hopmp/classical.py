"""Classical first-order Mayer machinery: the embedding with auxiliary
adjoint variables, backward adjoint integration, the Pontryagin function
H = sum p_i f^i, maximum-principle checking and bang-bang synthesis.

Everything here doubles as the brute-force cross-validation oracle for the
higher-order formulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .controls import ConstantControl, ControlCurve, PiecewiseConstantControl
from .dynamics import ChainBlock, NormalFormDynamics, Trajectory, integrate
from .errors import DegenerateAdjoint, DegenerateHorizon
from .jetspace import JetPoint, ScalarJetField
from .problem import (
    ControlSet,
    ControlledLagrangian,
    CostFunction,
    DefiningTriple,
    InitialData,
)


@dataclass
class ClassicalProblem:
    """dx/dt = f(t, x, u), fixed x(0), terminal cost C(x(T)), box controls.

    ``f`` returns the components of dx/dt as an array or a list.  A list of
    elementwise expressions also holds a dual number beside the rows of a
    time grid, which ``np.array`` cannot stack, so the embedding's
    Lagrangian then takes its partials on whole grids.
    """

    f: Callable[[float, np.ndarray, np.ndarray], Sequence]
    dfdx: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray], float]
    cost_grad: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    controls: ControlSet
    horizon: float

    @property
    def dim(self) -> int:
        return np.atleast_1d(np.asarray(self.x0)).size

    def state_dynamics(self) -> NormalFormDynamics:
        """x' = f(t, x, u), one order-1 chain per coordinate: the embedding's x."""
        n = self.dim

        def top(i: int) -> ScalarJetField:
            return ScalarJetField(lambda p, u: np.atleast_1d(self.f(p.t, p.blocks[0, :n], u))[i],
                                  actual_order=0, name=f"f{i+1}", reads={j: 0 for j in range(n)})

        return NormalFormDynamics([ChainBlock(f"x{i+1}", 1, top(i)) for i in range(n)])


def smoothness_probe(cp: ClassicalProblem, rng, trials: int = 12,
                     tol: float = 1e-4) -> bool:
    """Finite-difference audit that dfdx matches f on random probe points."""
    n = cp.dim
    for _ in range(trials):
        t = rng.uniform(0.0, cp.horizon)
        x = cp.x0 + rng.normal(scale=1.0, size=n)
        u = rng.uniform(cp.controls.lower, cp.controls.upper)
        jac = np.atleast_2d(np.asarray(cp.dfdx(t, x, u), dtype=float))
        h = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (np.asarray(cp.f(t, x + e, u)) - np.asarray(cp.f(t, x - e, u))) / (2 * h)
            if np.max(np.abs(fd - jac[:, j])) > tol * (1.0 + np.max(np.abs(jac))):
                return False
    return True


def embed_classical(cp: ClassicalProblem) -> DefiningTriple:
    """First-order embedding as a variational problem on q = (x, p).

    L = sum_i p_i (x^i_(1) - f^i) has actual order 1 and vanishes identically
    along solutions; the extended cost gates the terminal cost by t/T (the
    additive constant C(x0) is removed, so jets at t = 0 cost nothing).
    """
    n = cp.dim
    N = 2 * n
    T = cp.horizon
    xi = tuple(range(n))
    pi = tuple(range(n, 2 * n))
    c0 = float(cp.cost(np.asarray(cp.x0, dtype=float)))

    def L_ev(pt: JetPoint, u):
        f = cp.f(pt.t, pt.blocks[0, :n], u)
        return sum(pt.coord(n + i, 0) * (pt.coord(i, 1) - f[i]) for i in range(n))

    reads = {i: 1 for i in range(n)}
    reads.update({n + i: 0 for i in range(n)})
    L = ScalarJetField(L_ev, actual_order=1, name="L", reads=reads)

    lag = ControlledLagrangian(field=L, actual_order=1, state_dim=N)

    def cost_ev(pt, u):
        return (pt.t / T) * (cp.cost(pt.blocks[0, :n]) - c0)

    cost = CostFunction(
        field=ScalarJetField(cost_ev, actual_order=0, name="cost",
                             reads={i: 0 for i in range(n)}),
        actual_order=0,
    )

    def make_top_p(i):
        # -sum_j p_j df^j/dx^i, one product per component: a matrix product
        # would also contract a batch of n nodes
        def g(pt, u):
            jac = np.atleast_2d(cp.dfdx(pt.t, pt.blocks[0, :n], u))
            return -sum(pt.coord(n + j, 0) * jac[j, i] for j in range(n))

        return ScalarJetField(g, actual_order=0, name=f"g{i+1}",
                              reads={j: 0 for j in range(2 * n)})

    blocks = list(cp.state_dynamics().blocks)
    blocks += [ChainBlock(f"p{i+1}", 1, make_top_p(i)) for i in range(n)]
    dyn = NormalFormDynamics(blocks)

    base = {f"x{i+1}": [float(np.asarray(cp.x0).ravel()[i])] for i in range(n)}
    base.update({f"p{i+1}": [0.0] for i in range(n)})
    init = InitialData(base=base, free=[],
                       predicate=None)

    return DefiningTriple(
        controls=cp.controls,
        lagrangian=lag,
        cost=cost,
        dynamics=dyn,
        initial_data=init,
        horizon=T,
        jet_order=3,
        name="classical-embedding",
        state_vars=xi,
        adjoint_vars=pi,
    )


class AdjointTrajectory:
    """Backward-integrated adjoint with dense output on [0, T]."""

    def __init__(self, sol, horizon: float) -> None:
        self._sol = sol
        self.horizon = float(horizon)

    def p(self, t: float) -> np.ndarray:
        return np.atleast_1d(self._sol(t))


def adjoint_integrate(cp: ClassicalProblem, x_traj: Trajectory, u: ControlCurve,
                      p_terminal, tol=(1e-10, 1e-12)) -> AdjointTrajectory:
    """Integrate dp_j/dt = -sum_i p_i df^i/dx^j backward from p(T)."""
    T = cp.horizon
    n = cp.dim

    def rhs(t, p):
        x = x_traj.state(t)[:n]
        jac = np.atleast_2d(cp.dfdx(t, x, u.value(u.clamp(t))))
        return -p @ jac

    sol = solve_ivp(rhs, (T, 0.0), np.asarray(p_terminal, dtype=float),
                    method="RK45", dense_output=True, rtol=tol[0], atol=tol[1])
    if not sol.success:
        raise DegenerateAdjoint(f"adjoint integration failed: {sol.message}")
    return AdjointTrajectory(sol.sol, T)


def hamiltonian(cp: ClassicalProblem, t: float, x, p) -> Callable:
    """u -> sum_i p_i f^i(t, x, u)."""
    xv = np.asarray(x, dtype=float)
    pv = np.asarray(p, dtype=float)

    def H(u):
        return float(np.dot(pv, np.asarray(cp.f(t, xv, np.atleast_1d(u)), dtype=float)))

    return H


@dataclass
class Violation:
    tau: float
    omega: np.ndarray
    margin: float


@dataclass
class ViolationReport:
    violations: list = dc_field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.violations


def _state_and_adjoint(cp: ClassicalProblem, u: ControlCurve,
                       tol) -> tuple[Trajectory, AdjointTrajectory]:
    """The state under ``u`` from x0 and the adjoint closed by
    p(T) = -grad C(x(T))."""
    dyn = cp.state_dynamics()
    x0 = {f"x{i+1}": [float(np.asarray(cp.x0).ravel()[i])] for i in range(cp.dim)}
    x_traj = integrate(dyn, u, dyn.pack_state(x0), cp.horizon, tol=tol)
    xT = x_traj.state(cp.horizon)
    p_traj = adjoint_integrate(cp, x_traj, u, -np.asarray(cp.cost_grad(xT)), tol=tol)
    return x_traj, p_traj


def classical_pmp_check(cp: ClassicalProblem, u0: ControlCurve,
                        tau_grid, omega_grid,
                        tol_scale: float = 1e-6,
                        tol=(1e-10, 1e-12)) -> ViolationReport:
    """Report every (tau, omega) with H(omega) > H(u0(tau)) + tolerance,
    with the adjoint closed by p(T) = -grad C(x(T))."""
    x_traj, p_traj = _state_and_adjoint(cp, u0, tol)

    report = ViolationReport()
    omegas = np.atleast_2d(np.asarray(omega_grid, dtype=float).reshape(len(omega_grid), -1))
    for tau in np.atleast_1d(tau_grid):
        x = x_traj.state(tau)
        p = p_traj.p(tau)
        H = hamiltonian(cp, tau, x, p)
        href = H(u0.value(tau))
        tol_here = tol_scale * (1.0 + abs(href))
        for w in omegas:
            gap = H(w) - href
            if gap > tol_here:
                report.violations.append(Violation(float(tau), w.copy(), float(gap)))
    return report


def mth_order_bang_bang(a: Sequence[float], T: float, tol: float = 1e-10,
                        samples: int = 2001):
    """Bang-bang rule u(t) = sign(p(t)) for sum_l a_l x^(l) = u with cost -x(T).

    The adjoint solves sum_l (-1)^l a_l p^(l) = 0 backward from the
    annihilating terminal conditions (synthesized and oracle-validated), and
    switch times are located by bisection on its dense output.
    """
    from .needle import transversality_synthesize
    from .problems import mth_order, solve_adjoint_chain

    a = np.asarray(a, dtype=float)
    triple = mth_order(a, T)
    conds = transversality_synthesize(triple)
    term = conds.terminal_values[triple.dynamics.names[1]]

    sol = solve_adjoint_chain(a, T, term)
    if not sol.success:
        raise DegenerateAdjoint(sol.message)
    adjoint = AdjointTrajectory(sol.sol, T)

    ts = np.linspace(0.0, T, samples)
    ps = np.array([adjoint.p(t)[0] for t in ts])
    scale = float(np.max(np.abs(ps))) or 1.0
    # flag stretches where the adjoint is numerically zero
    dead = np.abs(ps) < 1e-12 * scale
    run = 0
    for d in dead:
        run = run + 1 if d else 0
        if run * (T / (samples - 1)) > 0.01 * T:
            raise DegenerateAdjoint("adjoint vanishes on an interval")

    switches = []
    for k in range(samples - 1):
        if ps[k] == 0.0:
            continue
        if ps[k] * ps[k + 1] < 0.0:
            root = brentq(lambda t: adjoint.p(t)[0], ts[k], ts[k + 1], xtol=tol)
            switches.append(float(root))

    nodes = [0.0] + switches + [T]
    values = []
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        mid = 0.5 * (lo + hi)
        values.append([1.0 if adjoint.p(mid)[0] > 0 else -1.0])
    u_opt = PiecewiseConstantControl(switches, values, T)
    return u_opt, adjoint


def chain_reduction_problem(triple, gamma0=None) -> ClassicalProblem:
    """First-order chain reduction of a single-state-variable triple.

    The state is y = (x, xd, ..., x^(m-1)); the top equation supplies the
    last component of f.  Used as the brute-force oracle for the
    higher-order formulations.
    """
    from .jetspace import JetPoint

    if len(triple.state_vars) != 1:
        raise ValueError("chain reduction oracle needs a single state variable")
    xi = triple.state_vars[0]
    dyn = triple.dynamics
    m = dyn.orders[xi]
    top = dyn.blocks[xi].top
    N_full = triple.lagrangian.state_dim
    T = triple.horizon

    def jet_from_y(t, y, order):
        blocks = np.zeros((order + 1, N_full))
        blocks[:min(m, order + 1), xi] = y[:min(m, order + 1)]
        return JetPoint(t, blocks)

    def f(t, y, u):
        jet = jet_from_y(t, y, max(m - 1, top.actual_order))
        out = np.empty(m)
        out[:-1] = y[1:]
        out[-1] = top.value(jet, u)
        return out

    def dfdx(t, y, u):
        jet = jet_from_y(t, y, max(m - 1, top.actual_order))
        jac = np.zeros((m, m))
        for k in range(m - 1):
            jac[k, k + 1] = 1.0
        for l in range(m):
            jac[m - 1, l] = top.partial(jet, u, ("q", xi, l))
        return jac

    def cost(y):
        jet = jet_from_y(T, y, max(triple.cost.actual_order, m - 1))
        return triple.cost.value(jet)

    def cost_grad(y):
        jet = jet_from_y(T, y, max(triple.cost.actual_order, m - 1))
        return np.array([triple.cost.partial(jet, ("q", xi, l))
                         for l in range(m)])

    off = dyn.offsets[xi]
    x0 = None
    if gamma0 is not None:
        x0 = gamma0.initial_state[off:off + m].copy()
    return ClassicalProblem(
        f=f, dfdx=dfdx, cost=cost, cost_grad=cost_grad,
        x0=x0 if x0 is not None else np.zeros(m),
        controls=triple.controls, horizon=T,
    )


def classical_chain_oracle(triple, gamma0, tau_grid, omega_grid) -> np.ndarray:
    """Argmax table of the chain-reduction Hamiltonian along gamma0's state,
    one control row per probe time."""
    cp = chain_reduction_problem(triple, gamma0)
    x_traj, p_traj = _state_and_adjoint(cp, gamma0.control, (1e-10, 1e-12))
    omegas = np.atleast_2d(np.asarray(omega_grid, dtype=float))
    out = np.empty((len(np.atleast_1d(tau_grid)), omegas.shape[1]))
    for row, tau in enumerate(np.atleast_1d(tau_grid)):
        H = hamiltonian(cp, float(tau), x_traj.state(float(tau)),
                        p_traj.p(float(tau)))
        vals = [H(w) for w in omegas]
        out[row] = omegas[int(np.argmax(vals))]
    return out


@dataclass
class SurjectivityReport:
    slope: float
    intercept: float
    residual: float
    expected_slope: float


def phi_surjectivity_probe(triple: DefiningTriple, v_grid,
                           u: Optional[ControlCurve] = None,
                           tol=(1e-12, 1e-14),
                           degeneracy_threshold: float = 1e-6) -> SurjectivityReport:
    """Linear fit of v -> x(T) for the direct pendulum formulation.

    The map is affine with slope sin(T); horizons with |sin T| below the
    threshold are rejected as degenerate.
    """
    T = triple.horizon
    if abs(math.sin(T)) < degeneracy_threshold:
        raise DegenerateHorizon(f"sin(T) = {math.sin(T):.2e} too small at T = {T}")
    if u is None:
        u = ConstantControl([0.0], T)
    vs = np.asarray(v_grid, dtype=float)
    xT = []
    for v in vs:
        traj = triple.controlled_curve(u, triple.initial_data.make(v=v), tol=tol)
        xT.append(traj.state(T)[0])
    xT = np.asarray(xT)
    slope, intercept = np.polyfit(vs, xT, 1)
    fit = slope * vs + intercept
    return SurjectivityReport(
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.max(np.abs(xT - fit))),
        expected_slope=math.sin(T),
    )
