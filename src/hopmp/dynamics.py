"""Normal-form dynamics, adaptive integration and jet reconstruction.

Constraint systems are realized as chains: each variable ``q^i`` carries a
chain of length ``m_i`` (its value and derivatives up to ``m_i - 1`` are
state components) closed by a top equation ``d^{m_i} q^i/dt^{m_i} = f^i``.
Jet blocks above the state content are total derivatives of the top fields
along the flow, evaluated by one plan per jet order, never by differencing
samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .controls import ControlCurve, HarmonicControl, NeedleOverlayControl
from .errors import InsufficientJetOrder, OrderUnavailable, StepSizeUnderflow, TimeOutOfRange
from .jetspace import DerivedField, JetField, JetPoint, ScalarJetField


@dataclass(frozen=True)
class ChainBlock:
    """One variable's chain: d^order q/dt^order = top(jets, u)."""

    name: str
    order: int
    top: JetField


class EvaluationPlan(NamedTuple):
    """Steps ``(i, beta, field, depth)`` in an order that respects the
    fields' reads: block ``beta`` of variable ``i`` is ``field`` on blocks
    ``0 .. depth``."""

    steps: tuple
    rows: int      # blocks the steps write or read
    u_depth: int   # depth of the control stack they read


class NormalFormDynamics:
    """First-order normal form ``dy/dt = g(t, y, u)`` built from chain blocks.

    The state vector stacks, per variable, the jet blocks ``0 .. m_i - 1``.
    The blocks above the state are total derivatives of the top fields along
    the flow (one :class:`~hopmp.jetspace.DerivedField` per block).  Each jet
    order, and the right-hand side, has one :class:`EvaluationPlan`, built
    on first use; ``jets_at`` and ``rhs`` run it as one loop, and its
    ``u_depth`` tells callers how deep a control stack to pass.
    """

    def __init__(self, blocks: Sequence[ChainBlock],
                 rhs_override: Optional[Callable] = None) -> None:
        self.blocks = tuple(blocks)
        self.names = tuple(b.name for b in self.blocks)
        self.orders = tuple(b.order for b in self.blocks)
        self.dim = len(self.blocks)
        self.offsets = tuple(int(o) for o in np.cumsum([0] + [b.order for b in self.blocks])[:-1])
        self.state_dim = int(sum(self.orders))
        self.order = 2 * max(self.orders)  # order of the realized constraints
        self._rhs_override = rhs_override
        self._plans: dict = {}

    # -- state packing ------------------------------------------------------

    def pack_state(self, sigma) -> np.ndarray:
        """Build a state vector from a mapping name -> jets or a flat array."""
        if isinstance(sigma, Mapping):
            y = np.zeros(self.state_dim)
            for k, (name, off, m) in enumerate(zip(self.names, self.offsets, self.orders)):
                vals = np.atleast_1d(np.asarray(sigma[name], dtype=float))
                if vals.size != m:
                    raise ValueError(f"variable {name!r} needs {m} initial jets, got {vals.size}")
                y[off:off + m] = vals
            return y
        y = np.asarray(sigma, dtype=float).ravel()
        if y.size != self.state_dim:
            raise ValueError(f"state has dimension {self.state_dim}, got {y.size}")
        return y.copy()

    def unpack_state(self, y: np.ndarray) -> dict:
        """The mapping name -> jets that :meth:`pack_state` turns into ``y``."""
        return {name: np.asarray(y[off:off + m], dtype=float).copy()
                for name, off, m in zip(self.names, self.offsets, self.orders)}

    def state_labels(self) -> list[str]:
        out = []
        for name, m in zip(self.names, self.orders):
            out.append(name)
            out.extend(f"{name}_d{k}" for k in range(1, m))
        return out

    # -- evaluation plans ---------------------------------------------------

    def plan(self, order: Optional[int] = None) -> EvaluationPlan:
        """The plan for every block up to ``order`` (built on the plan one
        order below, so derived fields are shared), or for the top block of
        every chain when ``order`` is None."""
        if order in self._plans:
            return self._plans[order]
        if order is None:
            steps, targets = [], list(enumerate(self.orders))
        else:
            steps = list(self.plan(order - 1).steps) if order > 0 else []
            targets = [(i, order) for i in range(self.dim)]
        done = {(i, beta) for i, m in enumerate(self.orders) for beta in range(m)}
        done.update(step[:2] for step in steps)
        active = set()

        def visit(i: int, beta: int) -> None:
            if (i, beta) in done:
                return
            if (i, beta) in active:
                raise OrderUnavailable(
                    f"circular jet dependency at variable {self.names[i]!r} order {beta}")
            active.add((i, beta))
            ext = beta - self.orders[i]
            fld = DerivedField(self.blocks[i].top, ext) if ext else self.blocks[i].top
            depths = [fld.read_depth(j) for j in range(self.dim)]
            for j, dj in enumerate(depths):
                for delta in range(dj + 1):
                    visit(j, delta)
            done.add((i, beta))
            steps.append((i, beta, fld, max((d for d in depths if d >= 0),
                                            default=fld.actual_order)))

        for i, beta in targets:
            visit(i, beta)
        rows = max([max(self.orders)] + [max(beta, depth) + 1 for _, beta, _, depth in steps])
        u_depth = max((fld.u_depth for _, _, fld, _ in steps), default=0)
        return self._plans.setdefault(order, EvaluationPlan(tuple(steps), rows, u_depth))

    def _run(self, plan: EvaluationPlan, t: float, y: np.ndarray, ujet) -> np.ndarray:
        """The state, then every step of ``plan``, in one blocks array."""
        uj = np.atleast_2d(np.asarray(ujet, dtype=float))
        if uj.shape[0] <= plan.u_depth:
            raise InsufficientJetOrder(
                f"the plan reads {plan.u_depth + 1} control rows, got {uj.shape[0]}")
        blocks = np.zeros((plan.rows, self.dim))
        for i, (off, m) in enumerate(zip(self.offsets, self.orders)):
            blocks[:m, i] = y[off:off + m]
        for i, beta, fld, depth in plan.steps:
            blocks[beta, i] = fld.value_uj(JetPoint(t, blocks[:depth + 1]), uj)
        return blocks

    def jets_at(self, t: float, y: np.ndarray, ujet: np.ndarray, order: int) -> JetPoint:
        """Jet blocks of all variables at (t, y), to the requested order;
        ``ujet`` holds at least ``plan(order).u_depth + 1`` control rows."""
        return JetPoint(t, self._run(self.plan(order), t, y, ujet)[:order + 1])

    # -- right-hand side ----------------------------------------------------

    def rhs(self, t: float, y: np.ndarray, ujet) -> np.ndarray:
        """dy/dt for the chain system; ``ujet`` is a control-derivative stack
        of at least ``plan().u_depth + 1`` rows (or a bare control value)."""
        if self._rhs_override is not None:
            uj = np.atleast_2d(np.asarray(ujet, dtype=float))
            return np.asarray(self._rhs_override(t, y, uj[0]), dtype=float)
        blocks = self._run(self.plan(), t, y, ujet)
        return np.concatenate([blocks[1:m + 1, i] for i, m in enumerate(self.orders)])


def reduce_to_first_order(highest_order_rhs: Callable, order: int, state_dim: int,
                          partials: Optional[Mapping] = None,
                          names: Optional[Sequence[str]] = None) -> NormalFormDynamics:
    """Chain reduction of ``d^m q/dt^m = f(t, q, ..., d^{m-1} q, u)``.

    ``highest_order_rhs`` maps ``(JetPoint, u) -> (state_dim,)`` vector;
    ``partials`` optionally maps directions to vector-valued partials of f.
    ``order == 1`` yields the identity reduction.
    """
    names = list(names or (f"q{i}" for i in range(state_dim)))

    def make_top(i: int) -> ScalarJetField:
        comp_partials = None
        if partials is not None:
            comp_partials = {
                key: (lambda p, u, fn=fn, _i=i: np.atleast_1d(fn(p, u))[_i])
                for key, fn in partials.items()
            }
        return ScalarJetField(
            evaluator=lambda p, u, _i=i: np.atleast_1d(highest_order_rhs(p, u))[_i],
            actual_order=order - 1,
            partials=comp_partials,
            name=f"f[{names[i]}]",
        )

    blocks = [ChainBlock(names[i], order, make_top(i)) for i in range(state_dim)]
    return NormalFormDynamics(blocks)


class Trajectory:
    """A controlled curve with dense-output jet evaluation on [0, T].

    Built by :func:`integrate`; immutable after construction.  Jets are
    reconstructed from the dynamics right-hand side, with right-continuity
    at control breakpoints.
    """

    def __init__(self, dynamics: NormalFormDynamics, control: ControlCurve,
                 initial_state: np.ndarray, horizon: float,
                 seg_bounds: Sequence[tuple[float, float]], seg_sols: Sequence,
                 mesh: np.ndarray, states: np.ndarray) -> None:
        self.dynamics = dynamics
        self.control = control
        self.initial_state = np.asarray(initial_state, dtype=float)
        self.horizon = float(horizon)
        self._seg_bounds = list(seg_bounds)
        self._seg_sols = list(seg_sols)
        self.mesh = np.asarray(mesh, dtype=float)
        self.states = np.asarray(states, dtype=float)

    def _segment(self, t: float) -> int:
        for k, (a, b) in enumerate(self._seg_bounds):
            if t < b or k == len(self._seg_bounds) - 1:
                return k
        return len(self._seg_bounds) - 1

    def state(self, t: float) -> np.ndarray:
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise TimeOutOfRange(f"t={t} outside [0, {self.horizon}]")
        t = min(max(t, 0.0), self.horizon)
        k = self._segment(t)
        return np.atleast_1d(self._seg_sols[k](t))

    def jet(self, t: float, order: int) -> JetPoint:
        y = self.state(t)
        ujet = self.control.jet(self.control.clamp(t), self.dynamics.plan(order).u_depth)
        return self.dynamics.jets_at(t, y, ujet, order)

    def terminal_jet(self, order: int) -> JetPoint:
        return self.jet(self.horizon, order)


def segment_rhs(dynamics: NormalFormDynamics, control: ControlCurve,
                a: float, b: float) -> Callable:
    """dy/dt on the segment [a, b) between two control breakpoints, in
    either direction of integration: the control is sampled inside the
    half-open segment, so right-continuity picks the piece active on it."""
    depth = dynamics.plan().u_depth

    def rhs(t, y):
        tt = min(max(t, a), np.nextafter(b, a))
        return dynamics.rhs(t, y, control.jet(tt, depth))

    return rhs


def integrate(dynamics: NormalFormDynamics, control: ControlCurve, sigma,
              horizon: float, tol: tuple[float, float] = (1e-8, 1e-10)) -> Trajectory:
    """Adaptive Runge-Kutta (RK45) integration with dense output.

    Control breakpoints become integration breakpoints, so the mesh contains
    every discontinuity exactly.  ``tol = (rtol, atol)``.
    """
    rtol, atol = tol
    y0 = dynamics.pack_state(sigma)

    cuts = [0.0] + [float(b) for b in control.breakpoints if 0.0 < b < horizon] + [float(horizon)]
    cuts = sorted(set(cuts))
    seg_bounds: list[tuple[float, float]] = []
    seg_sols: list = []
    mesh_parts: list[np.ndarray] = []
    state_parts: list[np.ndarray] = []

    y = y0.copy()
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(segment_rhs(dynamics, control, a, b), (a, b), y,
                        method="RK45", dense_output=True, rtol=rtol, atol=atol)
        if not sol.success:
            raise StepSizeUnderflow(f"integration failed on [{a}, {b}]: {sol.message}")
        seg_bounds.append((a, b))
        seg_sols.append(sol.sol)
        mesh_parts.append(sol.t if not mesh_parts else sol.t[1:])
        state_parts.append(sol.y.T if not state_parts else sol.y.T[1:])
        y = sol.y[:, -1].copy()

    mesh = np.concatenate(mesh_parts)
    states = np.vstack(state_parts)
    return Trajectory(dynamics, control, y0, horizon, seg_bounds, seg_sols, mesh, states)


# -- empirical Lipschitz probe ----------------------------------------------


@dataclass
class LipschitzReport:
    """Empirical ratios ||gamma - gamma'||_{C^{2r-1}} / (dist(u,u') + rho(sigma,sigma'))."""

    ratios: np.ndarray
    max_ratio: float
    mean_ratio: float
    n_skipped: int
    seed: int
    note: str = ""


def _random_smooth_control(rng, box_lower, box_upper, horizon: float) -> ControlCurve:
    lo = np.atleast_1d(np.asarray(box_lower, dtype=float))
    hi = np.atleast_1d(np.asarray(box_upper, dtype=float))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    amp = rng.uniform(0.2, 0.9) * half
    om = rng.uniform(0.5, 3.0)
    ph = rng.uniform(0.0, 2 * np.pi)
    return HarmonicControl(mid, amp, om, ph, horizon)


# Range of the needle widths the probe draws; the report note prints it.
_NEEDLE_WIDTHS = (0.01, 0.2)


def lipschitz_probe(triple, n_pairs: int, seed: int, grid: int = 201) -> LipschitzReport:
    """Empirical boundedness probe for the control-to-trajectory map.

    Draws ``n_pairs`` random pairs (U, U'): a random sine control in the box,
    the same control overwritten by a constant on a random needle, and initial
    data over the declared compact parameter box; then reports
    sup-norm-over-jets ratios.  The trajectory metric uses jet blocks up to
    order 2r-1; the control metric is :func:`control_measure_diff`; the
    initial-data metric rho is Euclidean on the state coordinates.
    Zero-denominator pairs are skipped.
    """
    rng = np.random.default_rng(seed)
    r = triple.lagrangian.actual_order
    T = triple.horizon
    jet_depth = 2 * r - 1
    ts = np.linspace(0.0, T, grid)
    lo, hi = triple.controls.lower, triple.controls.upper

    ratios = []
    skipped = 0
    for _ in range(n_pairs):
        u = _random_smooth_control(rng, lo, hi, T)
        tau = rng.uniform(0.25 * T, 0.85 * T)
        eps = rng.uniform(*_NEEDLE_WIDTHS)
        omega = rng.uniform(lo, hi)
        u2 = NeedleOverlayControl(u, tau, omega, eps)

        s1 = triple.initial_data.sample(rng)
        s2 = triple.initial_data.sample(rng)
        y1 = triple.dynamics.pack_state(s1)
        y2 = triple.dynamics.pack_state(s2)

        t1 = integrate(triple.dynamics, u, y1, T, tol=(1e-8, 1e-10))
        t2 = integrate(triple.dynamics, u2, y2, T, tol=(1e-8, 1e-10))

        diff = 0.0
        for t in ts:
            j1 = t1.jet(t, jet_depth)
            j2 = t2.jet(t, jet_depth)
            diff = max(diff, float(np.max(np.abs(j1.blocks - j2.blocks))))
        du = control_measure_diff(u, u2)
        rho = float(np.linalg.norm(y1 - y2))
        den = du + rho
        if den < 1e-14:
            skipped += 1
            continue
        ratios.append(diff / den)

    ratios = np.asarray(ratios)
    note = ("rho: Euclidean metric on initial state coordinates; "
            "top jet blocks are control-driven, so ratios are reported for "
            f"needle widths in {_NEEDLE_WIDTHS}")
    return LipschitzReport(
        ratios=ratios,
        max_ratio=float(ratios.max()) if ratios.size else float("nan"),
        mean_ratio=float(ratios.mean()) if ratios.size else float("nan"),
        n_skipped=skipped,
        seed=seed,
        note=note,
    )


_MEASURE_NODES = 4001


def control_measure_diff(u1: ControlCurve, u2: ControlCurve) -> float:
    """Lebesgue measure of {t : u1(t) != u2(t)} on the curves' shared
    horizon, estimated on a uniform grid: the share of 4001 nodes where some
    component differs by more than 1e-12, each curve evaluated by one
    ``values`` call."""
    if abs(u1.horizon - u2.horizon) > 1e-12:
        raise ValueError("control curves must share the horizon")
    horizon = u1.horizon
    ts = np.linspace(0.0, horizon, _MEASURE_NODES)
    gap = np.max(np.abs(u1.values(ts) - u2.values(ts)), axis=1)
    return horizon * np.count_nonzero(gap > 1e-12) / _MEASURE_NODES
