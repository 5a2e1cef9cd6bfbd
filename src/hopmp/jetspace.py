"""Finite-order jet coordinates for curves in R^N and total-derivative calculus.

A jet of order ``n`` of a curve ``q(t)`` is the tuple ``(t, q, dq/dt, ...,
d^n q/dt^n)`` stored as derivative blocks.  Scalar fields over jets (with
control parameters) carry a declared *actual order*: the highest block the
evaluator reads.  The total derivative is the formal derivative along jet
prolongations,

    df/dt = df/dt|_t + sum_{j, delta <= r'} (df/dq^j_(delta)) q^j_(delta+1),

with the control held fixed; :func:`total_derivative` evaluates that chain
rule and serves as the reference.  Along a curve whose control varies in
time, :class:`DerivedField` takes the k-fold total derivative in one pass of
truncated Taylor-series arithmetic (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 13): the field is evaluated on the jet read
as series in ``h`` along the curve at ``t + h``, with the control stack as
series too, and the k-th derivative of the result at h = 0 is the answer.
A field that cannot take series is refused with ``OrderUnavailable``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import InsufficientJetOrder, OrderUnavailable

Direction = object  # "t" | ("q", i, beta) | ("u", a) | ("u", a, k)


class TaylorSeries:
    """A truncated Taylor series in one variable h, stored as derivatives:
    ``c[k]`` is the k-th derivative at h = 0, k <= K, and arithmetic is exact
    modulo h^(K+1).

    Entries are floats, or series in another variable when a derived field is
    itself evaluated on series.  On a time grid of B nodes each entry carries
    the batch axis: ``c`` of shape (K+1, B) holds one series per node, or,
    when its entries are series in another variable (a dual number seeded on
    a grid), ``c`` is a (K+1,) object array of them and of (B,) rows.  A
    (B,) float array operand acts as a scalar, on either side.  Sums,
    products, quotients, powers and numpy's ``sin``, ``cos``, ``exp``,
    ``log`` and ``sqrt`` (which call the methods of those names) accept
    series; ``float()``, ``math`` functions and comparisons raise TypeError.
    """

    __slots__ = ("c",)
    # an ndarray on the left of an operator defers to the reflected method,
    # which hands a foreign array back to numpy's broadcast
    __array_priority__ = 1000

    def __init__(self, c: np.ndarray) -> None:
        self.c = c

    @property
    def batch(self) -> tuple:
        """The shape of the node axis: () at one node, (B,) on a time grid."""
        if self.c.dtype != object:
            return self.c.shape[1:]
        head = self.c[0]
        return head.batch if isinstance(head, TaylorSeries) else np.shape(head)

    def _foreign(self, other) -> bool:
        """An array numpy broadcasts the series over: not a float per node."""
        return isinstance(other, np.ndarray) and (other.dtype == object or other.shape != self.batch)

    def __add__(self, other):
        if isinstance(other, TaylorSeries):
            a, b = _aligned(self.c, other.c)
            return TaylorSeries(a + b)
        if self._foreign(other):
            return NotImplemented
        c = self.c.copy()
        c[0] = c[0] + other
        return TaylorSeries(c)

    def __radd__(self, other):
        return np.add(other, self) if self._foreign(other) else self + other

    def __neg__(self):
        return TaylorSeries(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return np.subtract(other, self) if self._foreign(other) else (-self) + other

    def __mul__(self, other):
        if isinstance(other, TaylorSeries):
            # the Cauchy product of the Taylor coefficients c[k] / k!, degree
            # by degree (np.convolve takes no batch axis)
            a, b = _aligned(self.c, other.c)
            w = _inverse_factorials(len(a))
            if len(w) > 2:   # 1/0! = 1/1! = 1 leave a dual number's product as it is
                a, b = (a.T * w).T, (b.T * w).T
            c = _stack([sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(w))])
            return TaylorSeries((c.T / w).T if len(w) > 2 else c)
        if self._foreign(other):
            return NotImplemented
        return TaylorSeries(self.c * other)

    def __rmul__(self, other):
        return np.multiply(other, self) if self._foreign(other) else self * other

    def __truediv__(self, other):
        if isinstance(other, TaylorSeries):
            return self * other.reciprocal()
        if self._foreign(other):
            return NotImplemented
        return TaylorSeries(self.c / other)

    def __rtruediv__(self, other):
        return np.true_divide(other, self) if self._foreign(other) else self.reciprocal() * other

    def __pow__(self, r):
        if isinstance(r, TaylorSeries):
            return NotImplemented
        if r >= 0 and r == int(r):   # products, which also allow c[0] = 0
            out = self if r else 0.0 * self + 1.0
            for _ in range(int(r) - 1):
                out = out * self
            return out
        return self._solve(self.c[0] ** r, self._log_rate(), lambda v, q: r * v * q)

    def _solve(self, first, rate, slope):
        """The series v with v(0) = ``first`` and v' = slope(v, rate), one
        degree at a time (Griewank and Walther, ch. 13): the slope to degree
        k - 1 needs v and the rate series only to degree k - 1."""
        v = np.empty_like(self.c)
        v[0] = first
        for k in range(1, len(v)):
            v[k] = slope(TaylorSeries(v[:k]), TaylorSeries(rate.c[:k])).c[k - 1]
        return TaylorSeries(v)

    def _log_rate(self):
        """u'/u, the derivative of log u, to degree K - 1."""
        return TaylorSeries(self.c[1:]) * TaylorSeries(self.c[:-1]).reciprocal()

    def reciprocal(self):
        return self._solve(1.0 / self.c[0], TaylorSeries(self.c[1:]), lambda v, du: -(v * v * du))

    def exp(self):
        return self._solve(np.exp(self.c[0]), TaylorSeries(self.c[1:]), lambda v, du: v * du)

    def log(self):
        return self._solve(np.log(self.c[0]), self._log_rate(), lambda v, q: q)

    def sqrt(self):
        return self ** 0.5

    def _sin_cos(self):
        s, c = np.empty_like(self.c), np.empty_like(self.c)
        s[0], c[0] = np.sin(self.c[0]), np.cos(self.c[0])
        for k in range(1, len(s)):   # as _solve, for sin' = u' cos, cos' = -u' sin
            du = TaylorSeries(self.c[1:k + 1])
            s[k] = (TaylorSeries(c[:k]) * du).c[k - 1]
            c[k] = -(TaylorSeries(s[:k]) * du).c[k - 1]
        return TaylorSeries(s), TaylorSeries(c)

    def sin(self):
        return self._sin_cos()[0]

    def cos(self):
        return self._sin_cos()[1]


def _cells(a: np.ndarray, lead: int) -> np.ndarray:
    """A copy of ``a`` as an object array of shape ``a.shape[:lead]``: on a
    batched array each cell holds a (B,) row, so that one cell can take a
    series that carries the batch axis itself."""
    if a.ndim == lead:
        return a.astype(object)
    out = np.empty(a.shape[:lead], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = a[idx]
    return out


def _aligned(a: np.ndarray, b: np.ndarray):
    """Two coefficient arrays in one layout: where a (K+1, B) array meets a
    (K+1,) object array, both as (K+1,) object arrays of their rows."""
    return (a, b) if a.ndim == b.ndim else (_cells(a, 1), _cells(b, 1))


def _stack(entries: list) -> np.ndarray:
    """Coefficients as one array: floats and (B,) rows stack, and a list
    holding a series stays a (K+1,) object array."""
    if not any(isinstance(e, TaylorSeries) for e in entries):
        return np.array(entries)
    out = np.empty(len(entries), dtype=object)
    for k, e in enumerate(entries):
        out[k] = e
    return out


@functools.lru_cache(maxsize=None)
def _inverse_factorials(n: int) -> np.ndarray:
    """1/k! for k < n, read-only."""
    w = 1.0 / np.array([float(math.factorial(k)) for k in range(n)])
    w.flags.writeable = False
    return w


def _as_float(x):
    """A Python float, unless ``x`` is a series or an array of node values."""
    return x if isinstance(x, TaylorSeries) or (isinstance(x, np.ndarray) and x.ndim) else float(x)


class JetPoint:
    """Time plus derivative blocks of a curve up to some order.

    Parameters
    ----------
    t : float
        Time coordinate.
    blocks : array_like, shape (n+1, N)
        Row ``beta`` is the beta-th time derivative of the curve at ``t``.

    A batched point holds the jets at B nodes: blocks (n+1, N, B), ``t`` of
    shape (B,) or one float for all of them, and ``coord`` returns (B,)
    arrays.  The time and the blocks may also be :class:`TaylorSeries` (the
    series view a :class:`DerivedField` evaluates its base on, or a dual
    number; on a batched point, blocks holding one are an (n+1, N) object
    array of (B,) rows and series).
    """

    __slots__ = ("t", "blocks")

    def __init__(self, t: float, blocks) -> None:
        arr = np.array(blocks, ndmin=2)
        if arr.dtype != object:
            arr = arr.astype(float, copy=False)
        arr.flags.writeable = False
        object.__setattr__(self, "t", _as_float(t))
        object.__setattr__(self, "blocks", arr)

    @classmethod
    def _wrap(cls, t, blocks: np.ndarray) -> "JetPoint":
        """A point on a float array that its caller made and no longer
        writes, without the constructor's copy; the array is made read-only."""
        p = object.__new__(cls)
        blocks.flags.writeable = False
        object.__setattr__(p, "t", _as_float(t))
        object.__setattr__(p, "blocks", blocks)
        return p

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

    def coord(self, i: int, beta: int):
        return self.blocks[beta, i] if self.blocks.ndim > 2 else self.blocks.item(beta, i)

    def node(self, b: int) -> "JetPoint":
        """The batch-free point at node ``b`` of a batched point; a float
        ``t`` is every node's time."""
        t = self.t[b] if isinstance(self.t, np.ndarray) else self.t
        return JetPoint._wrap(t, self.blocks[..., b])

    def with_coord(self, i: int, beta: int, value) -> "JetPoint":
        """Copy with one jet coordinate replaced (a float or a dual number);
        a dual number on a batched point holds the whole (B,) row, so the
        blocks become an (n+1, N) object array of rows."""
        arr = _cells(self.blocks, 2) if isinstance(value, TaylorSeries) else self.blocks.copy()
        arr[beta, i] = value
        return JetPoint(self.t, arr)


def _as_ujet(u, depth: int = 0, batch: tuple = ()) -> np.ndarray:
    """Normalize a control value or control-derivative stack to shape (k+1, M),
    or (k+1, M, B) on a batched point, where a 2-D array is a value per node."""
    arr = np.atleast_1d(u)
    if arr.dtype != object:
        arr = arr.astype(float, copy=False)
    if arr.ndim == 1 + len(batch):
        arr = arr[None]
    if arr.shape[0] < depth + 1:
        pad = np.zeros((depth + 1 - arr.shape[0],) + arr.shape[1:])
        arr = np.vstack([arr, pad])
    return arr


def on_batch(fld, p: JetPoint, ujet: np.ndarray, direction: Optional[Direction] = None):
    """``fld``'s value at (p, ujet), or its partial along ``direction``; on
    a batched point its (B,) values.  Whether one call evaluates a batch
    node for node is decided once per field, by :func:`_batch_audit` on its
    first batched point of two or more nodes, and kept as ``fld.batch_safe``
    for its value and partials alike.  A field that passed takes one call
    per batch, which counts if it raises no TypeError, ValueError or
    floating-point error and has shape () or (B,); any other call, and
    every call of a field that failed (a ``math`` function, a comparison, a
    product or reduction over the batch axis), evaluates each node alone."""
    fn = fld.value_uj if direction is None else (lambda q, uj: fld.partial_uj(q, uj, direction))
    if p.blocks.ndim < 3:
        return fn(p, ujet)
    count = p.blocks.shape[2]
    if fld.batch_safe or fld.batch_safe is None and count > 1:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                v = np.asarray(fn(p, ujet), dtype=float)
                if fld.batch_safe is None:
                    object.__setattr__(fld, "batch_safe", _batch_audit(fn, p, ujet, v))
            if fld.batch_safe and v.shape in ((), (count,)):
                return np.full(count, v)
        except ArithmeticError:
            pass   # this call runs node by node; a floating-point error decides nothing
        except (TypeError, ValueError):   # a partial's TypeError is a refused dual number
            if fld.batch_safe is None and direction is None:
                object.__setattr__(fld, "batch_safe", False)
    return np.array([fn(p.node(b), ujet[..., b]) for b in range(count)],
                    dtype=float).reshape(count)


def _batch_audit(fn, p: JetPoint, ujet: np.ndarray, v: np.ndarray) -> bool:
    """Whether ``v``, one call's values on a batched point of B nodes, is
    each node's own: a call on L of them (repeated when B < L) must match it
    to 1e-12 of its largest.  L >= 5, not B, is coprime to N, n+1 and M, so
    a product over a coordinate vector that contracts the batch raises, and
    a reduction over the batch or a read by position in it moves a value."""
    count = p.blocks.shape[2]
    dims = math.prod(p.blocks.shape[:2] + ujet.shape[1:2])
    size = next(n for n in range(5, 99) if math.gcd(n, dims) == 1 and n != count)
    at = np.arange(size) % count
    w = np.asarray(fn(JetPoint._wrap(p.t[at] if np.ndim(p.t) else p.t, p.blocks[..., at]),
                      ujet[..., at]), dtype=float)
    ref = np.broadcast_to(v, (count,))[at]   # raises ValueError on another shape
    return w.shape in ((), (size,)) and bool(np.all(abs(w - ref) <= 1e-12 * abs(ref).max()))


class JetField:
    """A scalar field over (jet point, control-derivative stack).

    A field defines ``actual_order`` (the highest jet block it reads) and
    ``value_uj(p, ujet)``, which evaluates it on a stack of shape (k+1, M)
    holding the control and its first k time derivatives.  The rest of the
    protocol comes from here: ``value`` accepts a bare control value,
    ``read_depth`` follows ``reads`` (or ``actual_order`` when it is None),
    and ``partial`` normalizes the control to a stack for ``partial_uj``,
    which evaluates the field once on a dual number (on a batched point, one
    dual number that carries the batch axis).  A field that cannot take
    series and knows its partials overrides ``partial_uj``.  On float jets
    ``value`` and ``partial`` return Python floats, on a batched point (B,)
    arrays (through :func:`on_batch`), and on a series view series.
    """

    __slots__ = ()

    # Depth of the control-derivative stack the field reads (0: value only).
    u_depth = 0
    # Optional per-variable read depths {i: max beta}; -1 marks "not read".
    # None means "may read every variable up to actual_order".
    reads = None
    name = ""
    # Whether one call evaluates a batched point elementwise (see on_batch).
    batch_safe = None

    def read_depth(self, j: int) -> int:
        if self.reads is None:
            return self.actual_order
        return int(self.reads.get(j, -1))

    def value(self, p: JetPoint, u) -> float:
        return _as_float(on_batch(self, p, _as_ujet(u, self.u_depth, p.blocks.shape[2:])))

    def partial(self, p: JetPoint, u, direction: Direction) -> float:
        return _as_float(on_batch(self, p, _as_ujet(u, self.u_depth, p.blocks.shape[2:]),
                                  direction))

    def partial_uj(self, p: JetPoint, ujet: np.ndarray, direction: Direction) -> float:
        """The exact partial along one coordinate: the field evaluated once
        with that coordinate a dual number x + e, its e-coefficient read
        back.  A field that cannot take one (TypeError) is refused at a
        float point with OrderUnavailable; see :func:`_at_float_point`."""
        key = _canonical_direction(direction)
        if key[0] == "q" and key[2] > self.read_depth(key[1]):
            return 0.0
        x, at = _coordinate(p, ujet, key)
        try:
            s = self.value_uj(*at(_seed_dual(x)))
        except TypeError as exc:
            if not _at_float_point(p, ujet):
                raise
            raise OrderUnavailable(f"{self.name or 'field'}: no exact partial along {key}, "
                                   f"it cannot take a dual number ({exc})") from exc
        return _dual_coefficient(s, x)


def _at_float_point(p: JetPoint, ujet: np.ndarray) -> bool:
    """Whether a TypeError on series is refused here.  On a time grid
    :func:`on_batch` retries node by node, and a series or dual point
    hands it to the derivative that made it."""
    return isinstance(p.t, float) and p.blocks.ndim == 2 and object not in (p.blocks.dtype, ujet.dtype)


def _seed_dual(x):
    """x + e for a new variable e: a degree-1 series in e at the innermost
    constant term of x, so that e nests inside the h-series of a series view
    instead of meeting them as a series in the same variable.  A (B,) row of
    a time grid gives one dual number per node, with ``c`` of shape (2, B)."""
    if not isinstance(x, TaylorSeries):
        c = np.empty((2,) + np.shape(x))
        c[0], c[1] = x, 1.0
        return TaylorSeries(c)
    c = _cells(x.c, 1)
    c[0] = _seed_dual(c[0])
    return TaylorSeries(c)


def _dual_coefficient(s, like):
    """The e-coefficient of ``s``, read at the nesting depth of ``like``."""
    if isinstance(like, TaylorSeries):
        if not isinstance(s, TaylorSeries):
            return 0.0
        return TaylorSeries(_stack([_dual_coefficient(c, like.c[0]) for c in s.c]))
    if isinstance(s, TaylorSeries):
        return s.c[1]
    return np.zeros(like.shape) if isinstance(like, np.ndarray) else 0.0


@dataclass(frozen=True)
class ScalarJetField(JetField):
    """A field given by an evaluator of (JetPoint, control value).

    Its partials are taken on a dual number, as for any :class:`JetField`.
    Evaluators should be elementwise arithmetic or numpy expressions, which
    also evaluate on series, on dual numbers and on a whole time grid at
    once, values and partials alike; anything else (``math`` functions,
    comparisons, reductions over coordinates) runs node by node on grids,
    and its partials and total derivatives raise OrderUnavailable unless
    it overrides ``partial_uj``.
    """

    evaluator: Callable[[JetPoint, np.ndarray], float]
    actual_order: int
    name: str = ""
    u_depth: int = 0
    reads: Optional[Mapping[int, int]] = None

    def value_uj(self, p: JetPoint, ujet: np.ndarray) -> float:
        return self.evaluator(p, ujet[0])


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


def _coordinate(p: JetPoint, ujet: np.ndarray, key):
    """The coordinate ``key`` of (p, ujet), and a function returning (p, ujet)
    copied with it replaced by a float or a dual number."""
    if key == "t":
        return p.t, lambda v: (JetPoint(v, p.blocks), ujet)
    if key[0] == "q":
        return p.coord(key[1], key[2]), lambda v: (p.with_coord(key[1], key[2], v), ujet)

    def at(v):
        uj = _cells(ujet, 2) if isinstance(v, TaylorSeries) else ujet.copy()
        uj[key[2], key[1]] = v
        return p, uj

    return ujet[key[2], key[1]], at


def finite_diff_partial(f, p: JetPoint, u, direction: Direction, step: float) -> float:
    """Symmetric difference quotient, over x -/+ ``step``, of a field along
    one named coordinate.

    ``direction`` names ``t``, a jet coordinate ``("q", i, beta)`` or a
    control coordinate ``("u", a)`` (equivalently ``("u", a, k)`` for a row
    of the control-derivative stack).  A jet coordinate the field does not
    read gives exactly 0 without evaluating.  The library itself takes no
    difference quotients; the tests use this one as an oracle.
    """
    key = _canonical_direction(direction)
    if key[0] == "q" and key[2] > f.read_depth(key[1]):
        return 0.0
    x, at = _coordinate(p, _as_ujet(u, f.u_depth), key)
    h = float(step)
    return (f.value_uj(*at(x + h)) - f.value_uj(*at(x - h))) / (2.0 * h)


def total_derivative(f, p: JetPoint, u) -> float:
    """Total derivative of ``f`` at ``(p, u)`` with the control held fixed:
    df/dt|_t + sum_{j, delta} (df/dq^j_(delta)) q^j_(delta+1), the chain
    rule along the jet prolongation, assembled from the field's partials.

    Requires ``p.n >= f.actual_order + 1`` since the result reads blocks one
    order above what ``f`` reads.
    """
    if p.n < f.actual_order + 1:
        raise InsufficientJetOrder(
            f"total derivative of a field of actual order {f.actual_order} "
            f"needs a jet of order >= {f.actual_order + 1}, got {p.n}"
        )
    ujet = _as_ujet(u, f.u_depth)
    out = f.partial_uj(p, ujet, "t")
    for j in range(p.dim):
        for delta in range(f.read_depth(j) + 1):
            out += f.partial_uj(p, ujet, ("q", j, delta)) * p.coord(j, delta + 1)
    return float(out)


def _shifted_series(rows: np.ndarray, count: int, keep: int) -> np.ndarray:
    """Rows 0 .. keep-1 of a derivative stack as series of degree ``count``
    in h: row r at t + h has the derivatives rows[r], ..., rows[r + count]."""
    out = np.empty((max(keep, 0), rows.shape[1]), dtype=object)
    for r in range(out.shape[0]):
        for i in range(out.shape[1]):
            out[r, i] = TaylorSeries(rows[r:r + count + 1, i])
    return out


def _series_view(p: JetPoint, count: int) -> JetPoint:
    """The jet point along its curve at t + h, as series in h of degree
    ``count``: q^i_(beta)(t + h) is read from blocks beta .. beta+count."""
    if isinstance(p.t, TaylorSeries):
        t = np.zeros(count + 1, dtype=object)
    else:
        t = np.zeros((count + 1,) + np.shape(p.t))
    t[0] = p.t
    t[1:2] = 1.0   # d(t + h)/dh, when the degree is at least 1
    return JetPoint(TaylorSeries(t), _shifted_series(p.blocks, count, p.n - count + 1))


class DerivedField(JetField):
    """The ``count``-fold total derivative of a field along curves with
    time-varying control.

    It evaluates the base field once, on the series view of the jet point
    and of the control-derivative stack, and returns the count-th
    derivative of the resulting series; the stack it consumes is ``count``
    rows deeper than the base field's.  A derived field of a derived field
    collapses into one.  A base that cannot take series (a ``math``
    function, a ``float()`` cast or a comparison in its evaluator) is
    refused at a float point with OrderUnavailable, as
    :meth:`JetField.partial_uj` refuses a dual number.
    """

    __slots__ = ("base", "count", "actual_order", "u_depth", "name", "reads",
                 "_needed", "batch_safe")

    def __init__(self, base: JetField, count: int) -> None:
        if isinstance(base, DerivedField):
            base, count = base.base, base.count + count
        self.base = base
        self.count = count
        self.actual_order = base.actual_order + count
        self.u_depth = base.u_depth + count
        self.name = f"D^{count}({base.name or 'f'})"
        self.batch_safe = None
        # each read variable is read ``count`` blocks deeper than by the base
        if base.reads is None:
            self.reads = None
            self._needed = self.actual_order
        else:
            self.reads = {j: d + count for j, d in base.reads.items() if d >= 0}
            self._needed = max(self.reads.values(), default=-1)

    def value_uj(self, p: JetPoint, ujet: np.ndarray) -> float:
        if p.n < self._needed:
            raise InsufficientJetOrder(
                f"{self.name} needs a jet of order >= {self._needed}, got {p.n}"
            )
        k = self.count
        if k == 0:
            return self.base.value_uj(p, ujet)
        try:
            s = self.base.value_uj(_series_view(p, k),
                                   _shifted_series(ujet, k, self.base.u_depth + 1))
        except TypeError as exc:
            if not _at_float_point(p, ujet):
                raise
            raise OrderUnavailable(f"{self.name}: no exact derivative, the base cannot "
                                   f"take Taylor series ({exc})") from exc
        return s.c[k] if isinstance(s, TaylorSeries) else 0.0


def audit_actual_order(f, p: JetPoint, u, rng) -> bool:
    """Check that ``f`` ignores blocks above its declared actual order.

    Perturbs every coordinate in blocks ``actual_order+1 .. p.n`` (with
    two random magnitudes each) and verifies the value is unchanged.
    """
    if f.actual_order + 1 > p.n:
        return True
    ujet = _as_ujet(u, f.u_depth)
    ref = f.value_uj(p, ujet)
    for beta in range(f.actual_order + 1, p.n + 1):
        for i in range(p.dim):
            for _ in range(2):
                bump = (1.0 + abs(p.coord(i, beta))) * (0.5 + rng.random())
                q = p.with_coord(i, beta, p.coord(i, beta) + bump)
                if abs(f.value_uj(q, ujet) - ref) > 1e-9 * (1.0 + abs(ref)):
                    return False
    return True
