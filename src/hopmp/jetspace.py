"""Finite-order jet coordinates for curves in R^N and total-derivative calculus.

A jet of order ``n`` of a curve ``q(t)`` is the tuple ``(t, q, dq/dt, ...,
d^n q/dt^n)`` stored as derivative blocks.  Scalar fields over jets (with
control parameters) carry a declared *actual order*: the highest block the
evaluator reads.  The total derivative is the formal derivative along jet
prolongations,

    df/dt = df/dt|_t + sum_{j, delta <= r'} (df/dq^j_(delta)) q^j_(delta+1),

with the control held fixed.  Along a curve whose control varies in time the
chain picks up control-derivative terms; :func:`iterated_total_derivative`
builds that version, threading a stack of control derivatives through nested
applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import InsufficientJetOrder

# Optimal step scale for symmetric difference quotients.
FD_BASE_STEP = float(np.cbrt(np.finfo(float).eps))

Direction = object  # "t" | ("q", i, beta) | ("u", a) | ("u", a, k)


class JetPoint:
    """Time plus derivative blocks of a curve up to some order.

    Parameters
    ----------
    t : float
        Time coordinate.
    blocks : array_like, shape (n+1, N)
        Row ``beta`` is the beta-th time derivative of the curve at ``t``.
    """

    __slots__ = ("t", "blocks")

    def __init__(self, t: float, blocks) -> None:
        arr = np.atleast_2d(np.asarray(blocks, dtype=float)).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "blocks", arr)

    def __setattr__(self, name, value):
        raise AttributeError("JetPoint is immutable")

    @property
    def n(self) -> int:
        """Jet order (number of blocks minus one)."""
        return self.blocks.shape[0] - 1

    @property
    def dim(self) -> int:
        """Dimension N of the underlying curve."""
        return self.blocks.shape[1]

    def block(self, beta: int) -> np.ndarray:
        return self.blocks[beta]

    def coord(self, i: int, beta: int) -> float:
        return float(self.blocks[beta, i])

    def with_coord(self, i: int, beta: int, value: float) -> "JetPoint":
        """Copy with one jet coordinate replaced (used by difference quotients)."""
        arr = self.blocks.copy()
        arr[beta, i] = value
        return JetPoint(self.t, arr)

    def with_time(self, t: float) -> "JetPoint":
        return JetPoint(t, self.blocks)

    def __repr__(self) -> str:
        return f"JetPoint(t={self.t!r}, n={self.n}, dim={self.dim})"


def _as_ujet(u, depth: int = 0) -> np.ndarray:
    """Normalize a control value or control-derivative stack to shape (k+1, M)."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[0] < depth + 1:
        pad = np.zeros((depth + 1 - arr.shape[0], arr.shape[1]))
        arr = np.vstack([arr, pad])
    return arr


class JetField:
    """A scalar field over (jet point, control-derivative stack).

    A field defines ``actual_order`` (the highest jet block it reads) and
    ``value_uj(p, ujet)``, which evaluates it on a stack of shape (k+1, M)
    holding the control and its first k time derivatives.  The rest of the
    protocol comes from here: ``value`` accepts a bare control value,
    ``read_depth`` follows ``reads`` (or ``actual_order`` when it is None),
    and ``partial`` normalizes the control to a stack for ``partial_uj``,
    which takes symmetric finite differences of ``value_uj``.
    """

    __slots__ = ()

    # Depth of the control-derivative stack the field reads (0: value only).
    u_depth = 0
    # Optional per-variable read depths {i: max beta}; -1 marks "not read".
    # None means "may read every variable up to actual_order".
    reads = None
    name = ""

    def read_depth(self, j: int) -> int:
        if self.reads is None:
            return self.actual_order
        return int(self.reads.get(j, -1))

    def value(self, p: JetPoint, u) -> float:
        return self.value_uj(p, _as_ujet(u, self.u_depth))

    def partial(self, p: JetPoint, u, direction: Direction, step: float | None = None) -> float:
        return self.partial_uj(p, _as_ujet(u, self.u_depth), direction, step)

    def partial_uj(self, p: JetPoint, ujet: np.ndarray, direction: Direction,
                   step: float | None = None) -> float:
        return finite_diff_partial(self, p, ujet, direction, step)


@dataclass(frozen=True)
class ScalarJetField(JetField):
    """A field given by an evaluator of (JetPoint, control value).

    ``partials`` optionally maps coordinate directions to analytic partial
    evaluators with the same ``(JetPoint, u) -> float`` signature.  Keys are
    ``"t"``, ``("q", i, beta)`` and ``("u", a)``.  Missing partials fall back
    to symmetric finite differences.
    """

    evaluator: Callable[[JetPoint, np.ndarray], float]
    actual_order: int
    partials: Optional[Mapping] = None
    name: str = ""
    u_depth: int = 0
    reads: Optional[Mapping[int, int]] = None

    def value_uj(self, p: JetPoint, ujet: np.ndarray) -> float:
        return float(self.evaluator(p, ujet[0]))

    def partial_uj(self, p: JetPoint, ujet: np.ndarray, direction: Direction,
                   step: float | None = None) -> float:
        key = _canonical_direction(direction)
        if self.partials is not None:
            fn = self.partials.get(key)
            if fn is None and key[0] == "u" and key[2] == 0:
                fn = self.partials.get(("u", key[1]))
            if fn is not None:
                return float(fn(p, ujet[0]))
        return finite_diff_partial(self, p, ujet, direction, step)


def _canonical_direction(direction: Direction):
    if direction == "t":
        return "t"
    if isinstance(direction, tuple):
        if direction[0] == "q" and len(direction) == 3:
            return direction
        if direction[0] == "u":
            if len(direction) == 2:
                return ("u", direction[1], 0)
            if len(direction) == 3:
                return direction
    raise ValueError(f"unknown coordinate direction {direction!r}")


def _fd_step(x: float, step: float | None) -> float:
    if step is not None:
        return float(step)
    return FD_BASE_STEP * max(1.0, abs(x))


def finite_diff_partial(f, p: JetPoint, u, direction: Direction,
                        step: float | None = None) -> float:
    """Symmetric difference quotient of a field along one named coordinate.

    ``direction`` names ``t``, a jet coordinate ``("q", i, beta)`` or a
    control coordinate ``("u", a)`` (equivalently ``("u", a, k)`` for a row
    of the control-derivative stack).
    """
    key = _canonical_direction(direction)
    ujet = _as_ujet(u, f.u_depth)

    if key == "t":
        h = _fd_step(p.t, step)
        return (f.value_uj(p.with_time(p.t + h), ujet)
                - f.value_uj(p.with_time(p.t - h), ujet)) / (2.0 * h)

    if key[0] == "q":
        _, i, beta = key
        x = p.coord(i, beta)
        h = _fd_step(x, step)
        return (f.value_uj(p.with_coord(i, beta, x + h), ujet)
                - f.value_uj(p.with_coord(i, beta, x - h), ujet)) / (2.0 * h)

    _, a, k = key
    x = float(ujet[k, a])
    h = _fd_step(x, step)
    up = ujet.copy()
    um = ujet.copy()
    up[k, a] = x + h
    um[k, a] = x - h
    return (f.value_uj(p, up) - f.value_uj(p, um)) / (2.0 * h)


def _frozen_control_chain(f, p: JetPoint, ujet: np.ndarray) -> float:
    """df/dt|_t + sum_{j, delta} (df/dq^j_(delta)) q^j_(delta+1): the chain
    rule along the jet prolongation with the control stack held fixed."""
    out = f.partial_uj(p, ujet, "t")
    for j in range(p.dim):
        for delta in range(f.read_depth(j) + 1):
            df = f.partial_uj(p, ujet, ("q", j, delta))
            if df != 0.0:
                out += df * p.coord(j, delta + 1)
    return out


def total_derivative(f, p: JetPoint, u) -> float:
    """Total derivative of ``f`` at ``(p, u)`` with the control held fixed.

    Requires ``p.n >= f.actual_order + 1`` since the result reads blocks one
    order above what ``f`` reads.
    """
    if p.n < f.actual_order + 1:
        raise InsufficientJetOrder(
            f"total derivative of a field of actual order {f.actual_order} "
            f"needs a jet of order >= {f.actual_order + 1}, got {p.n}"
        )
    return float(_frozen_control_chain(f, p, _as_ujet(u, f.u_depth)))


class DerivedField(JetField):
    """Total derivative of a field along curves with time-varying control.

    Evaluation consumes a control-derivative stack one row deeper than the
    base field: the frozen-control chain rule of :func:`total_derivative`
    plus the terms that the control derivatives contribute.  Nested
    application yields iterated total derivatives.  Partials of a derived
    field are finite differences of this evaluator (which is itself
    assembled from the base field's partials).
    """

    __slots__ = ("base", "actual_order", "u_depth", "name", "reads", "_needed")

    def __init__(self, base: JetField) -> None:
        self.base = base
        self.actual_order = base.actual_order + 1
        self.u_depth = base.u_depth + 1
        self.name = f"D({base.name or 'f'})"
        # each read variable is read one block deeper than by the base
        if base.reads is None:
            self.reads = None
            self._needed = self.actual_order
        else:
            self.reads = {j: d + 1 for j, d in base.reads.items() if d >= 0}
            self._needed = max(self.reads.values(), default=-1)

    def value_uj(self, p: JetPoint, ujet: np.ndarray) -> float:
        if p.n < self._needed:
            raise InsufficientJetOrder(
                f"{self.name} needs a jet of order >= {self._needed}, got {p.n}"
            )
        base = self.base
        out = _frozen_control_chain(base, p, ujet)
        for k in range(base.u_depth + 1):
            for a in range(ujet.shape[1]):
                df = base.partial_uj(p, ujet, ("u", a, k))
                if df != 0.0:
                    out += df * ujet[k + 1, a]
        return float(out)


def iterated_total_derivative(f, count: int):
    """``count``-fold total derivative of a field, as a new field."""
    out = f
    for _ in range(count):
        out = DerivedField(out)
    return out


def coordinate_field(i: int, beta: int) -> ScalarJetField:
    """The coordinate function q^i_(beta) as a scalar jet field."""

    def ev(p, u, _i=i, _b=beta):
        return p.coord(_i, _b)

    return ScalarJetField(
        evaluator=ev,
        actual_order=beta,
        partials={("q", i, beta): (lambda p, u: 1.0)},
        name=f"q{i}_({beta})",
    )


def audit_actual_order(f, p: JetPoint, u, rng, trials: int = 2,
                       scale: float = 1.0, tol: float = 1e-9) -> bool:
    """Check that ``f`` ignores blocks above its declared actual order.

    Perturbs every coordinate in blocks ``actual_order+1 .. p.n`` (with
    ``trials`` random magnitudes each) and verifies the value is unchanged.
    """
    if f.actual_order + 1 > p.n:
        return True
    ujet = _as_ujet(u, f.u_depth)
    ref = f.value_uj(p, ujet)
    for beta in range(f.actual_order + 1, p.n + 1):
        for i in range(p.dim):
            for _ in range(trials):
                bump = scale * (1.0 + abs(p.coord(i, beta))) * (0.5 + rng.random())
                q = p.with_coord(i, beta, p.coord(i, beta) + bump)
                if abs(f.value_uj(q, ujet) - ref) > tol * (1.0 + abs(ref)):
                    return False
    return True


class AnalyticCurve:
    """A synthetic jet-providing curve built from per-variable derivative
    callables; handy wherever an operation accepts any curve, not only an
    integrated trajectory.

    ``layers[i][k]`` evaluates d^k q^i/dt^k; missing layers are zero.
    """

    def __init__(self, layers: Sequence[Sequence[Callable[[float], float]]]) -> None:
        self._layers = [list(v) for v in layers]

    @property
    def dim(self) -> int:
        return len(self._layers)

    def jet(self, t: float, order: int) -> JetPoint:
        blocks = np.zeros((order + 1, self.dim))
        for i, funs in enumerate(self._layers):
            for k in range(min(order + 1, len(funs))):
                blocks[k, i] = funs[k](t)
        return JetPoint(t, blocks)
