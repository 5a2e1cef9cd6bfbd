"""Defining triples: control sets, controlled Lagrangians, costs, initial data.

A defining triple bundles a box control set, a controlled Lagrangian of
actual order ``r``, an extended terminal cost (vanishing identically on jets
at ``t = 0``), a normal-form realization of the constraint system, and the
admissible initial data.  The constraint audit, the Euler-Lagrange residual
and the pointwise maximization function ``P(u) = -L(jet, u)`` live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .controls import ControlCurve
from .dynamics import NormalFormDynamics, Trajectory, integrate, integrate_family
from .errors import ConstraintViolation, InsufficientJetOrder
from .jetspace import DerivedField, JetField, JetPoint, ScalarJetField, audit_actual_order


@dataclass(frozen=True)
class ControlSet:
    """Box control set K = prod [lower_a, upper_a]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if np.any(self.lower > self.upper):
            raise ValueError("control box needs lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


class _PartialField(JetField):
    """The partial of a field along one coordinate, as a field itself.

    Its value is the base field's partial (a dual number, unless the base
    overrides ``partial_uj``), taken on the full control-derivative stack;
    it reads what the base field reads, and its own partials are
    dual-number partials of that value, nested inside the first.
    """

    __slots__ = ("base", "direction", "actual_order", "u_depth", "name", "reads",
                 "dual_refused", "batch_safe")

    def __init__(self, base: JetField, direction) -> None:
        self.dual_refused, self.batch_safe = frozenset(), None
        self.base = base
        self.direction = direction
        self.actual_order = base.actual_order
        self.u_depth = base.u_depth
        self.name = f"d({base.name})/d{direction}"
        self.reads = base.reads

    def value_uj(self, p: JetPoint, ujet: np.ndarray) -> float:
        return self.base.partial_uj(p, ujet, self.direction)


@dataclass(frozen=True)
class ControlledLagrangian:
    """Lagrangian over (jet, control) of declared actual order ``r >= 1``."""

    field: ScalarJetField
    actual_order: int
    state_dim: int

    def value(self, p: JetPoint, u) -> float:
        return self.field.value(p, u)

    def du(self, p: JetPoint, u, a: int = 0) -> float:
        return self.field.partial(p, u, ("u", a))


@dataclass(frozen=True)
class CostFunction:
    """Extended terminal cost: a jet field with no control dependence that
    vanishes identically on jets at t = 0."""

    field: ScalarJetField
    actual_order: int

    def value(self, p: JetPoint) -> float:
        return self.field.value(p, np.zeros(1))

    def partial(self, p: JetPoint, direction) -> float:
        return self.field.partial(p, np.zeros(1), direction)

    def rate_field(self):
        """Total derivative dC/dt as a field (control independent)."""
        return DerivedField(self.field, 1)

    def max_at_zero(self, dim: int, order: int, rng, trials: int = 16,
                    scale: float = 2.0) -> float:
        """Largest |C| over ``trials`` random jets at t = 0."""
        return max(abs(self.value(JetPoint(0.0, rng.normal(scale=scale, size=(order + 1, dim)))))
                   for _ in range(trials))


@dataclass
class FreeParam:
    """One free scalar of the initial data: variable name, derivative index, range."""

    label: str
    var: str
    index: int
    lower: float
    upper: float


@dataclass
class InitialData:
    """Admissible initial jets: a base point plus boxed free parameters."""

    base: Mapping[str, Sequence[float]]
    free: Sequence[FreeParam] = ()
    predicate: Optional[Callable[[np.ndarray], bool]] = None

    def make(self, **params) -> dict:
        sigma = {k: np.array(v, dtype=float).copy() for k, v in self.base.items()}
        for p in self.free:
            if p.label in params:
                val = float(params[p.label])
                if val < p.lower - 1e-12 or val > p.upper + 1e-12:
                    raise ConstraintViolation(
                        f"{p.label}={val} outside [{p.lower}, {p.upper}]"
                    )
                sigma[p.var][p.index] = val
        return sigma

    def sample(self, rng) -> dict:
        params = {p.label: rng.uniform(p.lower, p.upper) for p in self.free}
        return self.make(**params)

    def admissible(self, state: np.ndarray) -> bool:
        if self.predicate is None:
            return True
        return bool(self.predicate(np.asarray(state, dtype=float)))


@dataclass
class DefiningTriple:
    """A generalized terminal-cost problem: controls, Lagrangian, cost,
    normal-form dynamics, admissible initial data, horizon and jet order."""

    controls: ControlSet
    lagrangian: ControlledLagrangian
    cost: CostFunction
    dynamics: NormalFormDynamics
    initial_data: InitialData
    horizon: float
    jet_order: int
    name: str = ""
    # variable split used by transversality synthesis (indices into dynamics.names)
    state_vars: tuple[int, ...] = ()
    adjoint_vars: tuple[int, ...] = ()

    def controlled_curve(self, u: ControlCurve, sigma=None,
                         tol: tuple[float, float] = (1e-8, 1e-10),
                         start: Optional[tuple[Trajectory, float]] = None) -> Trajectory:
        """Integrate the unique solution for (u, sigma); ``start`` is passed
        to :func:`~hopmp.dynamics.integrate`."""
        return integrate(self.dynamics, u, self._initial_state(sigma), self.horizon,
                         tol=tol, start=start)

    def controlled_curves(self, us: Sequence[ControlCurve], sigmas: Sequence,
                          tol: tuple[float, float] = (1e-8, 1e-10),
                          start: Optional[tuple[Trajectory, float]] = None) -> list[Trajectory]:
        """Every pair's solution, as one :func:`~hopmp.dynamics.integrate_family`."""
        return integrate_family(self.dynamics, us, [self._initial_state(s) for s in sigmas],
                                self.horizon, tol=tol, start=start)

    def _initial_state(self, sigma) -> np.ndarray:
        y0 = self.dynamics.pack_state(self.initial_data.make() if sigma is None else sigma)
        if not self.initial_data.admissible(y0):
            raise ConstraintViolation("sigma rejected by the initial-data constraint")
        return y0

    def terminal_cost(self, traj: Trajectory) -> float:
        return self.cost.value(traj.terminal_jet(max(self.cost.actual_order, 1)))


def el_residual(triple: DefiningTriple, traj, u: ControlCurve, t: float) -> np.ndarray:
    """Controlled Euler-Lagrange residual E_i(L) along the curve ``traj`` at
    time ``t``.

    E_i(L) = dL/dq^i + sum_{beta=1..r} (-1)^beta (d/dt)^beta (dL/dq^i_(beta)),
    with iterated total derivatives chained through the curve's control; it
    reads jets of order 2r.
    """
    L = triple.lagrangian
    r = L.actual_order
    N = L.state_dim
    jet = traj.jet(t, 2 * r)
    if jet.n < 2 * r:
        raise InsufficientJetOrder(f"need jets of order {2 * r}, got {jet.n}")
    ujet = u.jet(t, r + 1)
    out = np.zeros(N)
    for i in range(N):
        out[i] = L.field.partial(jet, ujet, ("q", i, 0))
        for beta in range(1, r + 1):
            fb = DerivedField(_PartialField(L.field, ("q", i, beta)), beta)
            out[i] += (-1) ** beta * fb.value(jet, ujet)
    return out


def momentum_sums(field: JetField, jet: JetPoint, ujet: np.ndarray, dim: int,
                  r: int) -> np.ndarray:
    """Boundary momentum sums M[i, beta] of a field F, grouped by contact index.

    M[i, beta] = sum_{delta=beta+1..r} (-1)^(delta-beta-1)
                 (d/dt)^(delta-beta-1) (dF/dq^i_(delta))

    On a batched jet each sum is a (B,) row, M of shape (dim, r, B).
    """
    out = np.zeros((dim, r) + jet.blocks.shape[2:])
    for i in range(dim):
        for beta in range(r):
            acc = 0.0
            # dF/dq^i_(delta) vanishes past the depth at which F reads q^i
            for delta in range(beta + 1, min(r, field.read_depth(i)) + 1):
                eps = delta - beta - 1
                fld = _PartialField(field, ("q", i, delta))
                if eps:
                    fld = DerivedField(fld, eps)
                acc += (-1) ** eps * fld.value(jet, ujet)
            out[i, beta] = acc
    return out


def lagrangian_momenta(triple: DefiningTriple, jet: JetPoint, ujet: np.ndarray) -> np.ndarray:
    """Momentum sums of L alone (used at t = 0 and in needle boundary terms)."""
    L = triple.lagrangian
    return momentum_sums(L.field, jet, ujet, L.state_dim, L.actual_order)


def full_momenta(triple: DefiningTriple, jet: JetPoint, ujet: np.ndarray) -> np.ndarray:
    """Momentum sums of L + dC/dt (used at t = T)."""
    L = triple.lagrangian
    return (lagrangian_momenta(triple, jet, ujet)
            + momentum_sums(triple.cost.rate_field(), jet, ujet, L.state_dim, L.actual_order))


class PontryaginFunction:
    """The pointwise maximization function P(u) = -L(jet, u) on K."""

    def __init__(self, lagrangian: ControlledLagrangian, jet: JetPoint) -> None:
        self._L = lagrangian
        self.jet = jet

    def __call__(self, u) -> float:
        return -self._L.value(self.jet, u)

    def argmax_on_grid(self, grid: np.ndarray) -> tuple[np.ndarray, float]:
        vals = np.array([self(u) for u in np.atleast_2d(grid)])
        k = int(np.argmax(vals))
        return np.atleast_2d(grid)[k], float(vals[k])


def pontryagin_p(triple: DefiningTriple, jet: JetPoint) -> PontryaginFunction:
    if jet.n < triple.lagrangian.actual_order:
        raise InsufficientJetOrder("jet too shallow for the Lagrangian")
    return PontryaginFunction(triple.lagrangian, jet)


@dataclass(frozen=True)
class Check:
    """One verdict with its numbers: it passes when ``achieved <= bound``.  A
    yes/no check counts its failures in ``achieved`` against a bound of 0."""

    label: str
    achieved: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.achieved <= self.bound)

    def line(self) -> str:
        """``[PASS] label: achieved=a bound=b ratio=a/b``, without the ratio
        when the bound is 0."""
        text = (f"[{'PASS' if self.ok else 'FAIL'}] {self.label}: "
                f"achieved={_num(self.achieved)} bound={_num(self.bound)}")
        return text + (f" ratio={_num(self.achieved / self.bound)}" if self.bound else "")


def _num(x) -> str:
    return repr(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))


def validate_triple(triple: DefiningTriple, seed: int = 0,
                    residual_tol: float = 1e-6) -> list[Check]:
    """Diagnostics: order inequality, cost vanishing at t = 0, actual-order
    audits and dynamics consistency (EL residual on a probe trajectory).
    Failures are reported, not raised."""
    rng = np.random.default_rng(seed)
    r = triple.lagrangian.actual_order
    n = triple.jet_order
    N = triple.lagrangian.state_dim
    cost_order = min(n, triple.cost.actual_order + 1)
    checks = [
        Check("order inequality 2r+1 <= n", 2 * r + 1, n),
        Check("cost vanishes on jets at t=0", triple.cost.max_at_zero(N, cost_order, rng), 1e-10),
    ]

    probe = JetPoint(0.3 * triple.horizon, rng.normal(size=(n + 1, N)))
    u_mid = triple.controls.midpoint()
    checks += [
        Check("Lagrangian actual-order audit",
              int(not audit_actual_order(triple.lagrangian.field, probe, u_mid, rng)), 0),
        Check("cost actual-order audit",
              int(not audit_actual_order(triple.cost.field, probe, np.zeros(1), rng)), 0),
    ]

    label = "dynamics realizes the Euler-Lagrange constraints"
    try:
        from .controls import ConstantControl

        u = ConstantControl(u_mid, triple.horizon)
        traj = triple.controlled_curve(u)
        ts = np.linspace(0.12 * triple.horizon, 0.93 * triple.horizon, 5)
        worst = max(float(np.max(np.abs(el_residual(triple, traj, u, t)))) for t in ts)
        scale = 1.0 + float(np.max(np.abs(traj.states)))
        checks.append(Check(label, worst, residual_tol * scale))
    except Exception as exc:  # report, never raise
        checks.append(Check(f"{label} ({type(exc).__name__})", float("inf"), residual_tol))
    return checks
