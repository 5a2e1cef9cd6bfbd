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

from .controls import (ControlCurve, ControlFamily, HarmonicControl, NeedleOverlayControl,
                       stacked_jet)
from .errors import InsufficientJetOrder, OrderUnavailable, StepSizeUnderflow, TimeOutOfRange
from .jetspace import DerivedField, JetField, JetPoint, ScalarJetField, on_batch


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

    def __init__(self, blocks: Sequence[ChainBlock]) -> None:
        self.blocks = tuple(blocks)
        self.names = tuple(b.name for b in self.blocks)
        self.orders = tuple(b.order for b in self.blocks)
        self.dim = len(self.blocks)
        self.offsets = tuple(int(o) for o in np.cumsum([0] + [b.order for b in self.blocks])[:-1])
        self.state_dim = int(sum(self.orders))
        self.order = 2 * max(self.orders)  # order of the realized constraints
        self._plans: dict = {}
        at = np.array([(beta, i) for i, m in enumerate(self.orders) for beta in range(m)]).T
        self._state_at, self._rate_at = tuple(at), (at[0] + 1, at[1])   # (block, variable)

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

    def _run(self, plan: EvaluationPlan, t, y: np.ndarray, ujet) -> np.ndarray:
        """The state, then every step of ``plan`` (through :func:`on_batch`), in
        one blocks array; with B times, y (state_dim, B) and ujet (k+1, M, B)."""
        uj = np.atleast_2d(np.asarray(ujet, dtype=float))
        if uj.shape[0] <= plan.u_depth:
            raise InsufficientJetOrder(
                f"the plan reads {plan.u_depth + 1} control rows, got {uj.shape[0]}")
        blocks = np.zeros((plan.rows, self.dim) + y.shape[1:])
        blocks[self._state_at] = y
        for i, beta, fld, depth in plan.steps:
            blocks[beta, i] = on_batch(fld, JetPoint._wrap(t, blocks[:depth + 1]), uj)
        return blocks

    def jets_at(self, t, y: np.ndarray, ujet: np.ndarray, order: int) -> JetPoint:
        """Jet blocks of all variables at (t, y), to the requested order;
        ``ujet`` holds at least ``plan(order).u_depth + 1`` control rows (a
        time grid gives a batched point)."""
        return JetPoint._wrap(t, self._run(self.plan(order), t, y, ujet)[:order + 1])

    # -- right-hand side ----------------------------------------------------

    def rhs(self, t: float, y: np.ndarray, ujet) -> np.ndarray:
        """dy/dt for the chain system; ``ujet`` is a control-derivative stack
        of at least ``plan().u_depth + 1`` rows (or a bare control value).
        B states, y (state_dim, B) with ujet (k+1, M, B), take one pass of the
        plan."""
        return self._run(self.plan(), t, y, ujet)[self._rate_at]


def reduce_to_first_order(highest_order_rhs: Callable, order: int, state_dim: int,
                          names: Optional[Sequence[str]] = None) -> NormalFormDynamics:
    """Chain reduction of ``d^m q/dt^m = f(t, q, ..., d^{m-1} q, u)``.

    ``highest_order_rhs`` maps ``(JetPoint, u) -> (state_dim,)`` vector.
    ``order == 1`` yields the identity reduction.
    """
    names = list(names or (f"q{i}" for i in range(state_dim)))

    def make_top(i: int) -> ScalarJetField:
        return ScalarJetField(
            evaluator=lambda p, u, _i=i: np.atleast_1d(highest_order_rhs(p, u))[_i],
            actual_order=order - 1,
            name=f"f[{names[i]}]",
        )

    blocks = [ChainBlock(names[i], order, make_top(i)) for i in range(state_dim)]
    return NormalFormDynamics(blocks)


class Trajectory:
    """A controlled curve with dense-output jet evaluation on [0, T].

    Built by :func:`integrate_family`, as one column of its family's
    segments; immutable after construction.  Jets are reconstructed from the
    dynamics right-hand side, with right-continuity at control breakpoints.
    """

    def __init__(self, dynamics: NormalFormDynamics, control: ControlCurve,
                 initial_state: np.ndarray, horizon: float, segments: _Segments, column: int,
                 mesh: np.ndarray, states: np.ndarray,
                 splice: Optional[tuple[Trajectory, float]] = None) -> None:
        self.dynamics = dynamics
        self.control = control
        self.initial_state = np.asarray(initial_state, dtype=float)
        self.horizon = float(horizon)
        self._segments = segments
        self._column = column
        self.mesh = np.asarray(mesh, dtype=float)
        self.states = np.asarray(states, dtype=float)
        # (trajectory, mesh node t_k) when this one continues another from t_k
        self.splice = splice

    def state(self, t) -> np.ndarray:
        """The state at ``t``, or at every node of a 1-D grid ``t`` (shape
        (state_dim, len(t))): the one-member case of :func:`states_of`."""
        y = states_of([self], t)[:, 0]
        return y if np.ndim(t) else y[:, 0]

    def jet(self, t: float, order: int) -> JetPoint:
        return self.jets(float(t), order)

    def jets(self, ts, order: int) -> JetPoint:
        """The jets at every node of a 1-D time grid, a batched JetPoint with
        blocks of shape (order+1, N, len(ts)), or the batch-free jet at a
        float ``ts``: the one-member case of :func:`jets_of`."""
        p = jets_of([self], ts, order)
        return p if np.ndim(ts) else p.node(0)

    def terminal_jet(self, order: int) -> JetPoint:
        return self.jet(self.horizon, order)


def segment_rhs(dynamics: NormalFormDynamics, control, a: float, b: float,
                batch: int = 1) -> Callable:
    """dy/dt on the segment [a, b) between two control breakpoints, in
    either direction of integration: the control is sampled inside the
    half-open segment, so right-continuity picks the piece active on it.
    With ``batch = B``, a ControlFamily drives flattened (state_dim, B) states."""
    depth = dynamics.plan().u_depth
    end = np.nextafter(b, a)

    if batch > 1:
        def rhs(t, y):
            uj = control.jet(min(max(t, a), end), depth)
            return dynamics.rhs(t, y.reshape(-1, batch), uj).ravel()
    elif depth == 0:
        def rhs(t, y):
            return dynamics.rhs(t, y, control.value(min(max(t, a), end)))
    else:
        def rhs(t, y):
            return dynamics.rhs(t, y, control.jet(min(max(t, a), end), depth))

    return rhs


class _Segments(NamedTuple):
    """A family's dense output, which its members share: segment k starts at
    ``starts[k]``, and its solution ``sols[k]`` holds states stacked
    (state_dim, B) and flattened, of which a member reads column
    ``columns[k]``, or its own where that is None (the family's own
    segments, after those kept from the curve it continues)."""

    starts: np.ndarray
    sols: tuple
    columns: tuple


def states_of(trajs: Sequence[Trajectory], ts) -> np.ndarray:
    """The states of trajectories at a time or at every node of a 1-D grid,
    shape (state_dim, B, nodes).  Each segment solution is called once per
    run of nodes on it, for all the members that read it (a family's
    members, and the prefix their splice shares), which take their columns;
    a lone node takes the scalar call.  Raises TimeOutOfRange for a node
    outside [0, T]."""
    grid = np.atleast_1d(np.asarray(ts, dtype=float))
    families: dict = {}   # id(segments) -> (a member, the members, their columns)
    for b, traj in enumerate(trajs):
        family = families.setdefault(id(traj._segments), (traj, [], []))
        family[1].append(b)
        family[2].append(traj._column)
    reads: dict = {}   # (segment solution, times) -> (nodes, times, members, columns)
    for traj, members, columns in families.values():
        if grid.min() < -1e-12 or grid.max() > traj.horizon + 1e-12:
            raise TimeOutOfRange(f"t={ts} outside [0, {traj.horizon}]")
        clipped = np.clip(grid, 0.0, traj.horizon)
        starts, sols, fixed = traj._segments
        # right-continuous: a time on a breakpoint reads the segment starting there
        seg = starts.searchsorted(clipped, side="right") - 1
        for k in np.unique(seg):
            at = np.flatnonzero(seg == k)
            t = clipped[at]
            entry = reads.setdefault((sols[k], t.tobytes()), (at, t, [], []))
            entry[2].extend(members)
            entry[3].extend(columns if fixed[k] is None else [fixed[k]] * len(members))
    out = np.empty((trajs[0].initial_state.size, len(trajs), grid.size))
    for (sol, _), (at, t, members, columns) in reads.items():
        y = sol(t if at.size > 1 else t[0]).reshape(out.shape[0], -1, at.size)
        out[:, np.array(members)[:, None], at] = y[:, columns]
    return out


def jets_of(trajs: Sequence[Trajectory], ts, order: int) -> JetPoint:
    """The jets of trajectories of one dynamics at a time or at every node of
    a 1-D grid: their states from :func:`states_of`, then one pass of the
    evaluation plan over all members and nodes.  The batched JetPoint holds
    member b's node j in column b * nodes + j, with ``t`` the time or the
    grid repeated per member.  Controls are read in one family read at a
    lone node (:func:`~hopmp.controls.stacked_jet`) and by ``jets`` on a grid."""
    dynamics = trajs[0].dynamics
    grid = np.atleast_1d(np.asarray(ts, dtype=float))
    y = states_of(trajs, grid).reshape(dynamics.state_dim, -1)
    depth = dynamics.plan(order).u_depth
    if grid.size == 1:
        ujet = stacked_jet([tr.control for tr in trajs], float(grid[0]), depth)
    else:
        ujet = np.concatenate([tr.control.jets(grid, depth) for tr in trajs], axis=-1)
    t = float(ts) if not np.ndim(ts) else np.tile(grid, len(trajs))
    return dynamics.jets_at(t, y, ujet, order)


def integrate(dynamics: NormalFormDynamics, control: ControlCurve, sigma,
              horizon: float, tol: tuple[float, float] = (1e-8, 1e-10),
              start: Optional[tuple[Trajectory, float]] = None) -> Trajectory:
    """Adaptive Runge-Kutta (RK45) integration with dense output: the family
    of one curve (see :func:`integrate_family`), a 1-D state at ``tol``."""
    return integrate_family(dynamics, [control], [sigma], horizon, tol, start)[0]


def integrate_family(dynamics: NormalFormDynamics, controls: Sequence[ControlCurve],
                     sigmas: Sequence, horizon: float,
                     tol: tuple[float, float] = (1e-8, 1e-10),
                     start: Optional[tuple[Trajectory, float]] = None) -> list[Trajectory]:
    """The curves (controls[b], sigmas[b]) as one ODE on their stacked states
    (state_dim, B), one :class:`Trajectory` per member on a shared mesh and
    shared segment solutions, of which each reads its own column.

    Control breakpoints become integration breakpoints, so the mesh contains
    every discontinuity exactly.  Per segment one RK45 run (Dormand-Prince
    5(4); Hairer, Norsett and Wanner, *Solving ODEs I*, sec. II.4) takes
    ``tol = (rtol, atol)`` over sqrt(B): its RMS error norm sqrt(sum_b e_b^2)
    bounds each member's own.  Its right-hand side runs the plan once per
    stage on the whole family.

    ``start = (traj, t)`` splices the members onto ``traj``: its segment
    solutions, mesh and states up to the last mesh node ``t_k <= t`` are
    kept, and the integration restarts from the stored state at ``t_k`` (a
    step endpoint, not a dense-output sample).  The caller guarantees that
    each control equals ``traj.control`` on ``[0, t)`` and that all share
    ``dynamics`` and the horizon; the splice is skipped, and all members
    integrated from 0, unless every packed initial state equals
    ``traj.initial_state`` bit for bit."""
    rtol, atol = tol
    batch = len(controls)
    y0s = [dynamics.pack_state(sigma) for sigma in sigmas]
    segments = []   # (start, solution, column): those kept from start's curve, then the family's
    mesh_parts: list[np.ndarray] = []
    state_parts: list[np.ndarray] = []   # (nodes, state_dim, B)

    y, t0, splice = np.stack(y0s, axis=-1).ravel(), 0.0, None
    if start is not None and all(y0.tobytes() == start[0].initial_state.tobytes() for y0 in y0s):
        prev = start[0]
        n = int(np.searchsorted(prev.mesh, start[1], side="right"))
        if n > 1:
            t0 = float(prev.mesh[n - 1])
            splice = (prev, t0)
            segments = [(a, sol, prev._column if col is None else col)
                        for a, sol, col in zip(*prev._segments) if a < t0]
            mesh_parts.append(prev.mesh[:n])
            state_parts.append(np.repeat(prev.states[:n, :, None], batch, axis=2))
            y = np.repeat(prev.states[n - 1], batch)

    family = controls[0] if batch == 1 else ControlFamily(controls)
    cuts = sorted({t0, float(horizon)} | {float(b) for c in controls for b in c.breakpoints
                                         if t0 < b < horizon})
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(segment_rhs(dynamics, family, a, b, batch), (a, b), y, method="RK45",
                        dense_output=True, rtol=rtol / batch ** 0.5, atol=atol / batch ** 0.5)
        if not sol.success:
            raise StepSizeUnderflow(f"integration failed on [{a}, {b}]: {sol.message}")
        segments.append((a, sol.sol, None))
        skip = 1 if mesh_parts else 0
        mesh_parts.append(sol.t[skip:])
        state_parts.append(sol.y.T[skip:].reshape(-1, dynamics.state_dim, batch))
        y = sol.y[:, -1].copy()

    mesh = np.concatenate(mesh_parts)
    states = np.concatenate(state_parts)
    starts, sols, columns = zip(*segments)
    shared = _Segments(np.array(starts), sols, columns)
    return [Trajectory(dynamics, control, y0, horizon, shared, k, mesh, states[..., k],
                       splice=splice)
            for k, (control, y0) in enumerate(zip(controls, y0s))]


def integrate_backward(dynamics: NormalFormDynamics, control: ControlCurve, y_T,
                       horizon: float, tol: tuple[float, float] = (1e-8, 1e-10)) -> np.ndarray:
    """The state at t = 0 of the curve under ``control`` that ends at ``y_T``
    at ``horizon``: one RK45 run per control segment, from T down to 0,
    through :func:`segment_rhs`.  Raises StepSizeUnderflow when a run fails."""
    cuts = sorted({0.0, float(horizon)} | {float(b) for b in control.breakpoints
                                          if 0.0 < b < horizon})
    y = np.asarray(y_T, dtype=float)
    for a, b in zip(cuts[-2::-1], cuts[:0:-1]):
        sol = solve_ivp(segment_rhs(dynamics, control, a, b), (b, a), y, method="RK45",
                        rtol=tol[0], atol=tol[1])
        if not sol.success:
            raise StepSizeUnderflow(f"backward integration failed on [{a}, {b}]: {sol.message}")
        y = sol.y[:, -1]
    return y


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
# Pairs integrated together: a needle family's mesh is the union of its
# members' breakpoints, so its dense output grows with members x segments.
_PROBE_CHUNK = 25


def lipschitz_probe(triple, n_pairs: int, seed: int, grid: int = 201) -> LipschitzReport:
    """Empirical boundedness probe for the control-to-trajectory map.

    Draws ``n_pairs`` random pairs (U, U'): a random sine control in the box,
    the same control overwritten by a constant on a random needle, and initial
    data over the declared compact parameter box; then reports
    sup-norm-over-jets ratios.  The trajectory metric uses jet blocks up to
    order 2r-1; the control metric is :func:`control_measure_diff`; the
    initial-data metric rho is Euclidean on the state coordinates.
    Zero-denominator pairs are skipped.  Every pair is drawn first; then
    each chunk of at most 25 pairs is integrated as two families, the sines
    and the needle overlays, each read by one :func:`jets_of` call.
    """
    rng = np.random.default_rng(seed)
    dyn, T = triple.dynamics, triple.horizon
    jet_depth = 2 * triple.lagrangian.actual_order - 1
    ts = np.linspace(0.0, T, grid)
    lo, hi = triple.controls.lower, triple.controls.upper

    pairs = []   # (u, u', y, y')
    for _ in range(n_pairs):
        u = _random_smooth_control(rng, lo, hi, T)
        tau = rng.uniform(0.25 * T, 0.85 * T)
        eps = rng.uniform(*_NEEDLE_WIDTHS)
        u2 = NeedleOverlayControl(u, tau, rng.uniform(lo, hi), eps)
        y1, y2 = (dyn.pack_state(triple.initial_data.sample(rng)) for _ in range(2))
        pairs.append((u, u2, y1, y2))

    ratios, skipped = [], 0
    for at in range(0, n_pairs, _PROBE_CHUNK):
        chunk = pairs[at:at + _PROBE_CHUNK]
        us, u2s, y1s, y2s = zip(*chunk)
        gap = np.abs(jets_of(integrate_family(dyn, us, y1s, T), ts, jet_depth).blocks
                     - jets_of(integrate_family(dyn, u2s, y2s, T), ts, jet_depth).blocks)
        diffs = gap.reshape(gap.shape[:2] + (len(chunk), grid)).max(axis=(0, 1, 3))
        for (u, u2, y1, y2), diff in zip(chunk, diffs.tolist()):
            den = control_measure_diff(u, u2) + float(np.linalg.norm(y1 - y2))
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
    ``jets`` call (right-continuous at T)."""
    if abs(u1.horizon - u2.horizon) > 1e-12:
        raise ValueError("control curves must share the horizon")
    horizon = u1.horizon
    ts = np.linspace(0.0, horizon, _MEASURE_NODES)
    gap = np.max(np.abs(u1.jets(ts, 0)[0] - u2.jets(ts, 0)[0]), axis=0)
    return horizon * np.count_nonzero(gap > 1e-12) / _MEASURE_NODES
