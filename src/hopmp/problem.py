"""Defining triples: control sets, controlled Lagrangians, costs, initial data.

A defining triple bundles a box control set, a controlled Lagrangian of
actual order ``r``, an extended terminal cost (vanishing identically on jets
at ``t = 0``), a normal-form realization of the constraint system, and the
admissible initial data.  The constraint audit, the Euler-Lagrange residual
and the pointwise maximization function ``P(u) = -L(jet, u)`` live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .controls import ControlCurve
from .dynamics import NormalFormDynamics, Trajectory, integrate
from .errors import ConstraintViolation, InsufficientJetOrder
from .jetspace import DerivedField, JetField, JetPoint, ScalarJetField, audit_actual_order


@dataclass(frozen=True)
class ControlSet:
    """Box control set K = prod [lower_a, upper_a] with inflation margin."""

    lower: np.ndarray
    upper: np.ndarray
    margin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if np.any(self.lower > self.upper):
            raise ValueError("control box needs lower <= upper componentwise")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u, inflated: bool = False, tol: float = 1e-12) -> bool:
        pad = (self.margin if inflated else 0.0) + tol
        v = np.atleast_1d(np.asarray(u, dtype=float))
        return bool(np.all(v >= self.lower - pad) and np.all(v <= self.upper + pad))

    def grid(self, count: int) -> np.ndarray:
        """Tensor grid over the box, flattened to rows (count^M kept small)."""
        axes = [np.linspace(lo, hi, count) for lo, hi in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


class _PartialField(JetField):
    """The partial of a field along one coordinate, as a field itself.

    Its value is the base field's (analytic or dual-number) partial, taken
    on the full control-derivative stack; it reads what the base field
    reads, and its own partials are dual-number partials of that value.
    """

    __slots__ = ("base", "direction", "actual_order", "u_depth", "name", "reads")

    def __init__(self, base: JetField, direction) -> None:
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

    def vanishes_at_zero(self, dim: int, order: int, rng, trials: int = 16,
                         scale: float = 2.0, tol: float = 1e-10) -> bool:
        for _ in range(trials):
            blocks = rng.normal(scale=scale, size=(order + 1, dim))
            if abs(self.value(JetPoint(0.0, blocks))) > tol:
                return False
        return True


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

    @property
    def order(self) -> int:
        return self.lagrangian.actual_order

    def controlled_curve(self, u: ControlCurve, sigma=None,
                         tol: tuple[float, float] = (1e-8, 1e-10)) -> Trajectory:
        """Integrate the unique solution for (u, sigma)."""
        if sigma is None:
            sigma = self.initial_data.make()
        y0 = self.dynamics.pack_state(sigma)
        if not self.initial_data.admissible(y0):
            raise ConstraintViolation("sigma rejected by the initial-data constraint")
        return integrate(self.dynamics, u, y0, self.horizon, tol=tol)

    def terminal_cost(self, traj: Trajectory) -> float:
        return self.cost.value(traj.terminal_jet(max(self.cost.actual_order, 1)))


def el_residual(triple: DefiningTriple, traj, u: ControlCurve, t: float) -> np.ndarray:
    """Controlled Euler-Lagrange residual E_i(L) along a curve at time ``t``.

    E_i(L) = dL/dq^i + sum_{beta=1..r} (-1)^beta (d/dt)^beta (dL/dq^i_(beta)),
    with iterated total derivatives chained through the curve's control; it
    reads jets of order 2r.
    """
    L = triple.lagrangian
    r = L.actual_order
    N = L.state_dim
    jet = traj.jet(t, 2 * r) if hasattr(traj, "jet") else traj
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
    """
    out = np.zeros((dim, r))
    for i in range(dim):
        for beta in range(r):
            acc = 0.0
            for delta in range(beta + 1, r + 1):
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


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ValidationCheck(name, bool(passed), detail))

    def lines(self) -> list[str]:
        return [f"{'PASS' if c.passed else 'FAIL'}  {c.name}"
                + (f"  [{c.detail}]" if c.detail else "")
                for c in self.checks]


def validate_triple(triple: DefiningTriple, seed: int = 0,
                    residual_tol: float = 1e-6) -> ValidationReport:
    """Diagnostics: order inequality, cost vanishing at t = 0, actual-order
    audits, dynamics consistency (EL residual on a probe trajectory), box
    sanity.  Failures are reported, not raised."""
    rng = np.random.default_rng(seed)
    rep = ValidationReport()
    r = triple.lagrangian.actual_order
    n = triple.jet_order
    N = triple.lagrangian.state_dim

    rep.add("order inequality 2r+1 <= n", 2 * r + 1 <= n, f"r={r}, n={n}")

    rep.add(
        "cost vanishes on jets at t=0",
        triple.cost.vanishes_at_zero(N, min(n, triple.cost.actual_order + 1), rng),
    )

    probe = JetPoint(0.3 * triple.horizon, rng.normal(size=(n + 1, N)))
    u_mid = triple.controls.midpoint()
    rep.add(
        "Lagrangian actual-order audit",
        audit_actual_order(triple.lagrangian.field, probe, u_mid, rng),
        f"declared r={r}",
    )
    rep.add(
        "cost actual-order audit",
        audit_actual_order(triple.cost.field, probe, np.zeros(1), rng),
        f"declared {triple.cost.actual_order}",
    )

    box_ok = bool(np.all(triple.controls.lower <= triple.controls.upper))
    rep.add("control box sanity", box_ok and triple.controls.margin >= 0.0)

    try:
        from .controls import ConstantControl

        u = ConstantControl(u_mid, triple.horizon)
        traj = triple.controlled_curve(u)
        ts = np.linspace(0.12 * triple.horizon, 0.93 * triple.horizon, 5)
        worst = max(float(np.max(np.abs(el_residual(triple, traj, u, t)))) for t in ts)
        scale = 1.0 + float(np.max(np.abs(traj.states)))
        rep.add(
            "dynamics realizes the Euler-Lagrange constraints",
            worst <= residual_tol * scale,
            f"max residual {worst:.3e}",
        )
    except Exception as exc:  # report, never raise
        rep.add("dynamics realizes the Euler-Lagrange constraints", False, repr(exc))

    return rep
