"""Classical first-order Mayer machinery: the embedding on q = (x, p), whose
p-chain is the adjoint, backward adjoint integration, the Pontryagin
function H = sum p_i f^i and its table over a (tau, omega) grid, the
first-order check read from that table, bang-bang synthesis and the
surjectivity probe of the direct pendulum.

The chain reduction of a single-state triple is the brute-force oracle for
the higher-order formulations: the classical-cross suite reads one
Hamiltonian table of it for both the first-order check and the argmax
comparison with the higher-order function P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .controls import ConstantControl, ControlCurve, PiecewiseConstantControl
from .dynamics import ChainBlock, NormalFormDynamics, Trajectory, integrate, integrate_backward
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

    Write ``f`` and ``cost`` with numpy (elementwise arithmetic, ``np.sin``
    and the like): the embedding takes their partials on dual numbers, so
    p(T) = -grad C is its cost's partials.  ``f`` returns dx/dt as an array
    or a list; a list of elementwise expressions also holds a dual number
    beside the rows of a time grid, which ``np.array`` cannot stack.
    ``dfdx`` closes the embedding's adjoint chain p' = -p df/dx.  Written
    with ``math``, they integrate, but their partials raise OrderUnavailable.
    """

    f: Callable[[float, np.ndarray, np.ndarray], Sequence]
    dfdx: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray], float]
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


def embed_classical(cp: ClassicalProblem) -> DefiningTriple:
    """First-order embedding as a variational problem on q = (x, p).

    L = sum_i p_i (x^i_(1) - f^i) has actual order 1 and vanishes identically
    along solutions; the extended cost gates the terminal cost by t/T (the
    additive constant C(x0) is removed, so jets at t = 0 cost nothing).
    """
    n = cp.dim
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

    def cost_ev(pt, u):
        return (pt.t / T) * (cp.cost(pt.blocks[0, :n]) - c0)

    cost = CostFunction(ScalarJetField(cost_ev, actual_order=0, name="cost",
                                       reads={i: 0 for i in range(n)}))

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
    return DefiningTriple(
        controls=cp.controls,
        lagrangian=ControlledLagrangian(L),
        cost=cost,
        dynamics=dyn,
        initial_data=InitialData(base),
        horizon=T,
        name="classical-embedding",
        state_vars=xi,
        adjoint_vars=pi,
    )


def adjoint_integrate(cp: ClassicalProblem, u: ControlCurve, p_terminal=None,
                      tol=(1e-10, 1e-12)) -> Trajectory:
    """The embedding's curve of (x, p) under ``u``: x from x0, and the
    adjoint p' = -p df/dx closed by ``p_terminal`` at T, by default
    p(T) = -grad C(x(T)).  x runs forward, then (x, p) back from T, then
    both forward from the p(0) found, with x(0) restored exactly."""
    triple = embed_classical(cp)
    dyn, T, n = triple.dynamics, cp.horizon, cp.dim
    y = np.concatenate([np.asarray(cp.x0, dtype=float).ravel(), np.zeros(n)])
    # x alone through the embedding's x-chains, which read no p
    x_T = integrate(cp.state_dynamics(), u, y[:n], T, tol=tol).state(T)
    if p_terminal is None:
        jet_T = JetPoint(T, np.concatenate([x_T, np.zeros(n)]))
        p_terminal = [-triple.cost.partial(jet_T, ("q", i, 0)) for i in range(n)]
    y[n:] = integrate_backward(dyn, u, np.concatenate([x_T, p_terminal]), T, tol)[n:]
    return integrate(dyn, u, y, T, tol=tol)


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


def hamiltonian_table(cp: ClassicalProblem, u: ControlCurve, tau_grid,
                      omega_grid) -> tuple[np.ndarray, np.ndarray]:
    """H at every (tau, omega), a (tau x omega) table, and H(u(tau)) per
    tau, along the state under ``u`` and the adjoint closed by
    p(T) = -grad C(x(T))."""
    traj, n = adjoint_integrate(cp, u, tol=(1e-10, 1e-12)), cp.dim
    table, at_u = [], []
    for tau in np.atleast_1d(tau_grid):
        y = traj.state(float(tau))
        H = hamiltonian(cp, tau, y[:n], y[n:])
        at_u.append(H(u.value(tau)))
        table.append([H(w) for w in _omega_rows(omega_grid)])
    return np.array(table), np.array(at_u)


def _omega_rows(omega_grid) -> np.ndarray:
    """One control value per row."""
    return np.atleast_2d(np.asarray(omega_grid, dtype=float).reshape(len(omega_grid), -1))


def classical_pmp_check(tau_grid, omega_grid, table: np.ndarray,
                        at_u: np.ndarray) -> list[Violation]:
    """Every (tau, omega) with H(omega) > H(u0(tau)) + tolerance, read from
    a :func:`hamiltonian_table` over the grids and its H(u0(tau)) column."""
    violations = []
    for tau, row, href in zip(np.atleast_1d(tau_grid), table, at_u):
        tol_here = 1e-6 * (1.0 + abs(href))
        for w, h in zip(_omega_rows(omega_grid), row):
            if h - href > tol_here:
                violations.append(Violation(float(tau), w.copy(), float(h - href)))
    return violations


def mth_order_bang_bang(a: Sequence[float], T: float):
    """Bang-bang rule u(t) = sign(p(t)) for sum_l a_l x^(l) = u with cost -x(T).

    The adjoint solves sum_l (-1)^l a_l p^(l) = 0: the mth-order triple's own
    p-chain, run back from the synthesized annihilating terminal conditions
    and then forward, so p is read from the returned curve's state.  Switch times are located by bisection on
    its dense output.
    """
    from scipy.optimize import brentq

    from .needle import transversality_synthesize
    from .problems import mth_order

    a = np.asarray(a, dtype=float)
    m = a.size - 1
    triple = mth_order(a, T)
    dyn = triple.dynamics
    conds = transversality_synthesize(triple)
    u0 = ConstantControl([0.0], T)
    y_T = dyn.pack_state({"x": np.zeros(m), "p": conds.terminal_values["p"]})
    tight = (1e-12, 1e-14)
    adjoint = integrate(dyn, u0, integrate_backward(dyn, u0, y_T, T, tight), T, tight)

    ts = np.linspace(0.0, T, 2001)
    ps = adjoint.state(ts)[m]
    scale = float(np.max(np.abs(ps))) or 1.0
    # flag stretches where the adjoint is numerically zero
    dead = np.abs(ps) < 1e-12 * scale
    run = 0
    for d in dead:
        run = run + 1 if d else 0
        if run * (T / 2000) > 0.01 * T:
            raise DegenerateAdjoint("adjoint vanishes on an interval")

    switches = []
    for k in range(2000):
        if ps[k] * ps[k + 1] < 0.0:
            root = brentq(lambda t: adjoint.state(t)[m], ts[k], ts[k + 1], xtol=1e-10)
            switches.append(float(root))

    nodes = [0.0] + switches + [T]
    values = []
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        mid = 0.5 * (lo + hi)
        values.append([1.0 if adjoint.state(mid)[m] > 0 else -1.0])
    u_opt = PiecewiseConstantControl(switches, values, T)
    return u_opt, adjoint


def chain_reduction_problem(triple, gamma0=None) -> ClassicalProblem:
    """First-order chain reduction of a single-state-variable triple.

    The state is y = (x, xd, ..., x^(m-1)); the top equation supplies the
    last component of f.  Used as the brute-force oracle for the
    higher-order formulations.
    """
    if len(triple.state_vars) != 1:
        raise ValueError("chain reduction oracle needs a single state variable")
    xi = triple.state_vars[0]
    dyn = triple.dynamics
    m = dyn.orders[xi]
    top = dyn.blocks[xi].top
    N_full = triple.dynamics.dim
    T = triple.horizon

    def jet_from_y(t, y, order):
        # y may hold a dual number, which the embedding's cost partials seed
        blocks = np.zeros((order + 1, N_full), dtype=np.result_type(y, float))
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
        jac = np.eye(m, k=1)
        for l in range(m):
            jac[m - 1, l] = top.partial(jet, u, ("q", xi, l))
        return jac

    def cost(y):
        jet = jet_from_y(T, y, max(triple.cost.actual_order, m - 1))
        return triple.cost.value(jet)

    off = dyn.offsets[xi]
    x0 = np.zeros(m) if gamma0 is None else gamma0.initial_state[off:off + m].copy()
    return ClassicalProblem(f=_last_node_memo(f), dfdx=_last_node_memo(dfdx), cost=cost, x0=x0,
                            controls=triple.controls, horizon=T)


def _last_node_memo(fn: Callable) -> Callable:
    """``fn(t, y, u)`` keeping its value, which callers only read, at the
    latest float node: the embedding's m x-tops ask for f, and its m
    adjoint tops for df/dx, at one node in turn, and each value of the
    chain reduction builds a jet and takes dual-number partials."""
    last = [None, None]

    def at(t, y, u):
        node = (t, y.tobytes(), np.asarray(u).tobytes()) if isinstance(t, float) \
            and isinstance(y, np.ndarray) and y.dtype == float else None
        if node is None or node != last[0]:
            last[:] = node, fn(t, y, u)
        return last[1]

    return at


@dataclass
class SurjectivityReport:
    slope: float
    intercept: float
    residual: float
    expected_slope: float


def phi_surjectivity_probe(triple: DefiningTriple, v_grid,
                           u: Optional[ControlCurve] = None) -> SurjectivityReport:
    """Linear fit of v -> x(T) for the direct pendulum formulation.

    The map is affine with slope sin(T); horizons with |sin T| below 1e-6
    are rejected as degenerate.
    """
    T = triple.horizon
    if abs(math.sin(T)) < 1e-6:
        raise DegenerateHorizon(f"sin(T) = {math.sin(T):.2e} too small at T = {T}")
    if u is None:
        u = ConstantControl([0.0], T)
    vs = np.asarray(v_grid, dtype=float)
    xT = []
    for v in vs:
        traj = triple.controlled_curve(u, triple.initial_data.make(v=v), tol=(1e-12, 1e-14))
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
