"""Control curves: evaluable maps t -> u with derivative stacks and breakpoints.

Curves are right-continuous at their breakpoints, so a piecewise-constant
curve taking value ``w`` on ``[a, b)`` reports ``w`` at ``t = a`` and the
follow-on value at ``t = b``.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np


def smoothstep5(theta, deriv: int = 0):
    """Quintic smoothstep 6 th^5 - 15 th^4 + 10 th^3 on [0, 1], or its
    ``deriv``-th derivative, clamped outside, at a float or an array: in
    products, which round alike on both (``**`` and numpy's power do not)."""
    array = isinstance(theta, np.ndarray)
    th = np.minimum(np.maximum(theta, 0.0), 1.0) if array else min(max(0.0, theta), 1.0)
    if deriv == 0:
        return th * th * th * (10.0 + th * (-15.0 + 6.0 * th))
    if deriv == 1:
        return 30.0 * (th * th) * ((th - 1.0) * (th - 1.0))
    if deriv == 2:
        return th * (60.0 + th * (-180.0 + 120.0 * th))
    w = (60.0 + th * (-360.0 + 360.0 * th) if deriv == 3
         else -360.0 + 720.0 * th if deriv == 4 else 720.0 * (deriv == 5))
    inside = (0.0 < theta) & (theta < 1.0)
    return np.where(inside, w, 0.0) if array else (w if inside else 0.0)


class ControlCurve:
    """Base class; subclasses implement ``jet(t, depth)``, the value and time
    derivatives at ``t``, shape (depth+1, dim), and may give ``value`` a
    direct path, which must return ``jet(t, 0)[0]`` bit for bit."""

    def __init__(self, horizon: float, dim: int) -> None:
        self.horizon = float(horizon)
        self.dim = int(dim)
        self.breakpoints: tuple[float, ...] = ()

    def value(self, t: float) -> np.ndarray:
        return self.jet(t, 0)[0]

    def jets(self, ts, depth: int) -> np.ndarray:
        """``jet`` at every node of a grid, clamped: (depth+1, dim, len(ts))."""
        return np.stack([self.jet(t, depth) for t in self.clamp(np.asarray(ts, dtype=float))],
                        axis=-1)

    def clamp(self, t):
        """``t``, or each node of a grid, moved just left of the horizon when it
        reaches it, so a right-continuous curve reports its last piece at T."""
        if isinstance(t, np.ndarray) and t.ndim:
            return np.minimum(t, np.nextafter(self.horizon, 0.0))
        return t if t < self.horizon else np.nextafter(self.horizon, 0.0)


class ConstantControl(ControlCurve):
    def __init__(self, value, horizon: float) -> None:
        v = np.atleast_1d(np.asarray(value, dtype=float))
        super().__init__(horizon, v.size)
        self._v = v

    def value(self, t: float) -> np.ndarray:
        return self._v.copy()

    def jet(self, t: float, depth: int) -> np.ndarray:
        out = np.zeros((depth + 1, self.dim))
        out[0] = self._v
        return out

    def jets(self, ts, depth: int) -> np.ndarray:
        out = np.zeros((depth + 1, self.dim, len(ts)))
        out[0] = self._v[:, None]
        return out


def _sine_layer(k: int, x, mid, amp, om, om_k):
    """d^k/dt^k of ``mid + amp * sin(om * t + ph)`` at phase ``x``, ``om_k =
    om ** k``: one expression for a sine and a family's parameter arrays."""
    if k == 0:
        return mid + amp * np.sin(x)
    if k == 2:  # (-a * om) * om rounds apart from -a * om**2; tests pin these bits
        return -amp * om * om * np.sin(x)
    sign = 1.0 if k % 4 < 2 else -1.0
    return sign * amp * om_k * (np.sin(x) if k % 2 == 0 else np.cos(x))


class HarmonicControl(ControlCurve):
    """``mid + amp * sin(om * t + ph)`` with exact derivatives of every order."""

    def __init__(self, mid, amp, om: float, ph: float, horizon: float) -> None:
        self.mid = np.atleast_1d(np.asarray(mid, dtype=float))
        super().__init__(horizon, self.mid.size)
        self.amp = np.atleast_1d(np.asarray(amp, dtype=float))
        self.om, self.ph = float(om), float(ph)

    def _layer(self, k: int, x: float) -> np.ndarray:
        return _sine_layer(k, x, self.mid, self.amp, self.om, self.om ** k)

    def jet(self, t: float, depth: int) -> np.ndarray:
        x = self.om * t + self.ph
        out = np.empty((depth + 1, self.dim))
        for k in range(depth + 1):
            out[k] = self._layer(k, x)
        return out

    def jets(self, ts, depth: int) -> np.ndarray:
        x = self.om * self.clamp(np.asarray(ts, dtype=float))[:, None] + self.ph
        return np.stack([self._layer(k, x).T for k in range(depth + 1)])


class CallbackControl(ControlCurve):
    """Smooth curve given by a callback, with optional analytic derivatives.

    ``derivatives[k]`` evaluates d^(k+1) u / dt^(k+1); deeper derivatives fall
    back to symmetric differences of the highest analytic layer.
    """

    def __init__(self, fun: Callable[[float], Sequence[float]], horizon: float,
                 dim: int = 1, derivatives: Optional[Sequence[Callable]] = None) -> None:
        super().__init__(horizon, dim)
        self._fun = fun
        self._derivs = list(derivatives or [])

    def _layer(self, k: int, t: float) -> np.ndarray:
        if k == 0:
            return np.atleast_1d(np.asarray(self._fun(t), dtype=float))
        if k <= len(self._derivs):
            return np.atleast_1d(np.asarray(self._derivs[k - 1](t), dtype=float))
        # difference quotient of the deepest analytic layer
        h = 1e-4 * max(1.0, abs(self.horizon))
        return (self._layer(k - 1, t + h) - self._layer(k - 1, t - h)) / (2.0 * h)

    def jet(self, t: float, depth: int) -> np.ndarray:
        return np.vstack([self._layer(k, t) for k in range(depth + 1)])


class PiecewiseConstantControl(ControlCurve):
    """Right-continuous step function; ``times`` are the interior jumps."""

    def __init__(self, times: Sequence[float], values, horizon: float) -> None:
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        if vals.shape[0] != len(times) + 1:
            raise ValueError("need len(times)+1 value rows")
        super().__init__(horizon, vals.shape[1])
        self._times = [float(x) for x in times]
        self._vals = vals
        self.breakpoints = tuple(x for x in self._times if 0.0 < x < horizon)

    def jet(self, t: float, depth: int) -> np.ndarray:
        idx = bisect_right(self._times, t)
        out = np.zeros((depth + 1, self.dim))
        out[0] = self._vals[idx]
        return out


class NeedleOverlayControl(ControlCurve):
    """Base curve overwritten by a constant ceiling value on [tau-eps, tau)."""

    def __init__(self, base: ControlCurve, tau: float, omega, eps: float) -> None:
        super().__init__(base.horizon, base.dim)
        self.base = base
        self.tau = float(tau)
        self.eps = float(eps)
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        pts = set(base.breakpoints) | {self.tau - self.eps, self.tau}
        self.breakpoints = tuple(sorted(p for p in pts if 0.0 < p < self.horizon))

    def jet(self, t: float, depth: int) -> np.ndarray:
        if self.tau - self.eps <= t < self.tau:
            out = np.zeros((depth + 1, self.dim))
            out[0] = self.omega
            return out
        return self.base.jet(t, depth)

    def jets(self, ts, depth: int) -> np.ndarray:
        ts = self.clamp(np.asarray(ts, dtype=float))
        inside = (self.tau - self.eps <= ts) & (ts < self.tau)
        out = self.base.jets(ts, depth)
        out[:, :, inside] = 0.0
        out[0][:, inside] = self.omega[:, None]
        return out


class SmoothedNeedleControl(ControlCurve):
    """C^2 needle: quintic ramps of width k*eps^2 blend base and ceiling.

    Equals the base curve left of ``tau - eps - k eps^2`` and right of
    ``tau + k eps^2``, the ceiling on ``[tau - eps, tau]``, and the convex
    blend ``(1-w) base + w ceiling`` on the two ramps.  Box-valued whenever
    base and ceiling are.
    """

    def __init__(self, base: ControlCurve, tau: float, omega, eps: float, k: float) -> None:
        super().__init__(base.horizon, base.dim)
        self.base = base
        self.tau = float(tau)
        self.eps = float(eps)
        self.k = float(k)
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        w = self.k * self.eps ** 2
        self.t_on = self.tau - self.eps - w
        self.t_full = self.tau - self.eps
        self.t_off = self.tau
        self.t_end = self.tau + w
        self.ramp = w
        pts = set(base.breakpoints) | {self.t_on, self.t_full, self.t_off, self.t_end}
        self.breakpoints = tuple(sorted(p for p in pts if 0.0 < p < self.horizon))

    def _weight_jet(self, t: float, depth: int) -> list:
        """w(t) and derivatives: 0 outside, 1 on the plateau, ramps in between."""
        if self.t_on <= t < self.t_full:
            theta, slope = (t - self.t_on) / self.ramp, 1.0 / self.ramp
        elif self.t_off <= t < self.t_end:
            theta, slope = 1.0 - (t - self.t_off) / self.ramp, -1.0 / self.ramp
        else:
            return [1.0 if self.t_full <= t < self.t_off else 0.0] + [0.0] * depth
        return [smoothstep5(theta, j) * slope ** j for j in range(depth + 1)]

    def _weight_jets(self, ts: np.ndarray, depth: int) -> np.ndarray:
        """``_weight_jet`` at every node of a grid, (depth+1, len(ts)), in
        array operations that round as its float operations do."""
        out = np.zeros((depth + 1, ts.size))
        out[0, (self.t_full <= ts) & (ts < self.t_off)] = 1.0
        up = (self.t_on <= ts) & (ts < self.t_full)
        ramps = up | ((self.t_off <= ts) & (ts < self.t_end))
        t, up = ts[ramps], up[ramps]
        theta = np.where(up, (t - self.t_on) / self.ramp, 1.0 - (t - self.t_off) / self.ramp)
        for j in range(depth + 1):
            slope = np.where(up, (1.0 / self.ramp) ** j, (-1.0 / self.ramp) ** j)
            out[j, ramps] = smoothstep5(theta, j) * slope
        return out

    def jet(self, t: float, depth: int) -> np.ndarray:
        w = np.array(self._weight_jet(t, depth))[:, None]
        return _leibniz(self.base.jet(t, depth)[..., None], w, self.omega[:, None])[..., 0]

    def jets(self, ts, depth: int) -> np.ndarray:
        ts = self.clamp(np.asarray(ts, dtype=float))
        w = self._weight_jets(ts, depth)
        return _leibniz(self.base.jets(ts, depth), w, self.omega[:, None])


def _leibniz(b: np.ndarray, w: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The jet of u = b + w (omega - b) at n points, (depth+1, M, n), from
    b's (depth+1, M, n or 1) and w's (depth+1, n) by Leibniz' rule: row m
    adds its terms j = 0..m in turn, each only where w's factor is nonzero."""
    out = np.repeat(b, w.shape[1] // b.shape[2], axis=2)   # a copy on the n points
    for j in [j for j in range(len(w)) if w[j].any()]:
        for m in range(j, len(b)):
            term = comb(m, j) * w[j] * ((omega - b[0]) if j == m else -b[m - j])
            out[m] = np.where(w[j] != 0.0, out[m] + term, out[m])
    return out


class BlendControl(ControlCurve):
    """Convex interpolation (1-s) u0 + s u1 of two curves on one horizon."""

    def __init__(self, u0: ControlCurve, u1: ControlCurve, s: float) -> None:
        if abs(u0.horizon - u1.horizon) > 1e-12:
            raise ValueError("blended curves must share the horizon")
        super().__init__(u0.horizon, u0.dim)
        self.u0, self.u1, self.s = u0, u1, float(s)
        pts = set(u0.breakpoints) | set(u1.breakpoints)
        self.breakpoints = tuple(sorted(pts))

    def value(self, t: float) -> np.ndarray:
        return (1.0 - self.s) * self.u0.value(t) + self.s * self.u1.value(t)

    def jet(self, t: float, depth: int) -> np.ndarray:
        return (1.0 - self.s) * self.u0.jet(t, depth) + self.s * self.u1.jet(t, depth)

    def jets(self, ts, depth: int) -> np.ndarray:
        return (1.0 - self.s) * self.u0.jets(ts, depth) + self.s * self.u1.jets(ts, depth)


class _HarmonicStack:
    """Sines, or needle overlays on sines, as parameter arrays: ``mid``, ``amp``
    (M, B), ``om``, ``ph`` (B,) and each needle's window ``[tau - eps, tau)``
    and ``omega`` (a bare sine's window is empty).  The powers ``om ** k``
    are Python's: numpy's array power rounds apart from them."""

    def __init__(self, curves: Sequence[ControlCurve], sines: Sequence[HarmonicControl]) -> None:
        self.mid = np.stack([c.mid for c in sines], axis=-1)
        self.amp = np.stack([np.broadcast_to(c.amp, c.mid.shape) for c in sines], axis=-1)
        self.om, self.ph = np.array([c.om for c in sines]), np.array([c.ph for c in sines])
        needles = [c if c is not sine else None for c, sine in zip(curves, sines)]
        self.window = np.array([(c.tau - c.eps, c.tau) if c else (np.inf,) * 2 for c in needles]).T
        self.omega = np.stack([c.omega if c else sine.mid for c, sine in zip(needles, sines)], -1)

    def jet(self, t: float, depth: int) -> np.ndarray:
        x = self.om * t + self.ph
        out = np.empty((depth + 1,) + self.mid.shape)
        for k in range(depth + 1):
            om_k = np.array([om ** k for om in self.om.tolist()]) if k % 2 or k > 2 else None
            out[k] = _sine_layer(k, x, self.mid, self.amp, self.om, om_k)
        inside = (self.window[0] <= t) & (t < self.window[1])
        if inside.any():
            out[:, :, inside] = 0.0
            out[0][:, inside] = self.omega[:, inside]
        return out


class ControlFamily:
    """Curves read together: ``jet(t, depth)`` stacks their jets side by side,
    (depth+1, M, B), each column its member's ``jet`` (``value`` at depth 0)
    bit for bit.  Sines and needle overlays on sines are read as parameter
    arrays (:class:`_HarmonicStack`).  Blends (1 - s) u0 + s u1 of one base
    u0 (u0 itself is s = 0) read u0 once, each other top curve once, and the
    smoothed needles on u0 together, unless t lies outside every needle: a
    weight jet w per ramp geometry, then Leibniz' rule for b + w (omega - b)
    over all their columns at once.  Any other family reads member by
    member."""

    def __init__(self, curves: Sequence[ControlCurve]) -> None:
        self.curves = list(curves)
        sines = [c.base if type(c) is NeedleOverlayControl else c for c in self.curves]
        self._stack = (_HarmonicStack(self.curves, sines)
                       if all(type(c) is HarmonicControl for c in sines) else None)
        u0 = next((c.u0 for c in self.curves if isinstance(c, BlendControl)), self.curves[0])
        tops = [u0 if c is u0 else c.u1 for c in self.curves
                if c is u0 or isinstance(c, BlendControl) and c.u0 is u0]
        self._base = u0 if self._stack is None and len(tops) == len(self.curves) else None
        if self._base is None:
            return
        self._s = np.array([0.0 if c is u0 else c.s for c in self.curves])
        self._r = 1.0 - self._s
        groups: dict = {}   # the columns per ramp geometry of the needles on u0, and per other top
        for col, top in enumerate(tops):
            needle = isinstance(top, SmoothedNeedleControl) and top.base is u0
            key = (top.t_on, top.t_full, top.t_off, top.t_end, top.ramp) if needle else id(top)
            groups.setdefault(key, (top, needle, []))[2].append(col)
        needles = [(top, cols) for top, needle, cols in groups.values() if needle]
        self._others = [(top, _columns(cols)) for top, needle, cols in groups.values()
                        if not needle]
        self._ramps = [top for top, _ in needles]   # a needle of each geometry
        cols = [col for _, cols in needles for col in cols]
        self._needles, self._omega = _columns(cols), np.array([tops[c].omega for c in cols]).T
        self._group = np.repeat(np.arange(len(needles)), [len(c) for _, c in needles])
        self._span = (min([n.t_on for n in self._ramps], default=0.0),
                      max([n.t_end for n in self._ramps], default=0.0))

    def jet(self, t: float, depth: int) -> np.ndarray:
        if self._stack is not None:
            return self._stack.jet(t, depth)
        read = (lambda c: c.value(t)[None]) if depth == 0 else (lambda c: c.jet(t, depth))
        if self._base is None:
            return np.stack([read(c) for c in self.curves], axis=-1)
        b = read(self._base)[..., None]
        top = np.empty(b.shape[:2] + (len(self.curves),))
        for curve, cols in self._others:
            top[..., cols] = b if curve is self._base else read(curve)[..., None]
        if self._span[0] <= t < self._span[1]:   # SmoothedNeedleControl.jet, at once
            w = np.array([n._weight_jet(t, depth) for n in self._ramps])[self._group].T
            # at depth 0 Leibniz' rule is this blend, which costs half of _leibniz
            top[..., self._needles] = (np.where(w != 0.0, b + w * (self._omega - b), b)
                                       if depth == 0 else _leibniz(b, w, self._omega))
        else:
            top[..., self._needles] = b
        return self._r * b + self._s * top


def stacked_jet(curves: Sequence[ControlCurve], t: float, depth: int) -> np.ndarray:
    """The curves' jets at ``t`` (clamped to their horizon), (depth+1, M, B):
    one :class:`ControlFamily` read of two or more."""
    t = curves[0].clamp(t)
    return ControlFamily(curves).jet(t, depth) if curves[1:] else curves[0].jet(t, depth)[..., None]


def _columns(cols: list):
    """Column indices, as a slice when they are contiguous."""
    return slice(cols[0], cols[-1] + 1) if cols and cols[-1] - cols[0] == len(cols) - 1 else cols


class InterpolatedSamplesControl(ControlCurve):
    def __init__(self, ts: Sequence[float], us, horizon: float) -> None:
        from scipy.interpolate import CubicSpline

        vals = np.atleast_2d(np.asarray(us, dtype=float))
        if vals.shape[0] != len(ts):
            vals = vals.T
        super().__init__(horizon, vals.shape[1])
        self._spline = CubicSpline(np.asarray(ts, dtype=float), vals, axis=0)

    def jet(self, t: float, depth: int) -> np.ndarray:
        return np.vstack([np.atleast_1d(self._spline(t, nu=k)) for k in range(depth + 1)])
