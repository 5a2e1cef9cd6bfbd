"""Grid evaluation of control curves and the sine control's jets."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hopmp.controls import (
    BlendControl,
    ConstantControl,
    ControlCurve,
    ControlFamily,
    HarmonicControl,
    NeedleOverlayControl,
    PiecewiseConstantControl,
    SmoothedNeedleControl,
)
from hopmp.dynamics import _random_smooth_control, control_measure_diff

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def needle_grids(draw):
    """(T, tau, eps, ts): a needle inside [0, T] and a sorted grid holding
    0, tau - eps, tau and T exactly."""
    T = draw(st.floats(0.1, 6.0))
    tau = T * draw(st.floats(0.05, 0.95))
    eps = tau * draw(st.floats(0.01, 1.0))
    extra = draw(st.lists(unit, max_size=40))
    ts = np.array(sorted({0.0, tau - eps, tau, T} | {T * x for x in extra}))
    return T, tau, eps, ts


@st.composite
def harmonics(draw, T, dim=None):
    dim = dim or draw(st.integers(1, 2))
    mid = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    amp = draw(st.lists(st.floats(0.0, 2.0), min_size=dim, max_size=dim))
    om = draw(st.floats(0.1, 5.0))
    ph = draw(st.floats(0.0, 2 * math.pi))
    return HarmonicControl(mid, amp, om, ph, T)


def _stacked(c, ts):
    return np.vstack([c.value(t) for t in ts])


def _with_breakpoints(c, ts):
    """``ts`` with each breakpoint of ``c`` and its two neighbouring floats."""
    times = set(ts)
    for b in c.breakpoints:
        times |= {b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)}
    return np.array(sorted(x for x in times if 0.0 <= x <= c.horizon))


def _vectorised_curves(data, grid, k):
    """Every curve with a vectorised ``jets``, smoothed needles among them."""
    T, tau, eps, _ = grid
    sine = data.draw(harmonics(T))
    const = ConstantControl(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=sine.dim,
                                               max_size=sine.dim)), T)
    omega = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=sine.dim, max_size=sine.dim))
    smoothed = SmoothedNeedleControl(NeedleOverlayControl(sine, tau, omega, eps),
                                     tau, omega, eps, k)
    return [
        const,
        sine,
        NeedleOverlayControl(const, tau, omega, eps),
        NeedleOverlayControl(sine, tau, omega, eps),
        BlendControl(const, NeedleOverlayControl(sine, tau, omega, eps), 0.3),
        smoothed,
        SmoothedNeedleControl(const, tau, omega, eps, k),
        SmoothedNeedleControl(sine, tau, omega, eps, k),
        BlendControl(sine, smoothed, 1.0),
    ]


@settings(deadline=None, max_examples=60)
@given(data=st.data(), T=st.floats(0.1, 6.0), batch=st.integers(1, 7), dim=st.integers(1, 2),
       needles=st.booleans())
def test_harmonic_family_columns_equal_member_jets(data, T, batch, dim, needles):
    # sines, or needle overlays on sines, are read as parameter arrays: each
    # column is its member's jet, and its value at depth 0, bit for bit on
    # every needle edge, one ulp left of each, and at T
    members = []
    for _ in range(batch):
        sine = data.draw(harmonics(T, dim))
        if needles:
            tau = T * data.draw(st.floats(0.05, 0.95))
            omega = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
            sine = NeedleOverlayControl(sine, tau, omega, tau * data.draw(st.floats(0.01, 1.0)))
        members.append(sine)
    family = ControlFamily(members)
    assert family._stack is not None
    times = {T}
    for c in members:
        if needles:
            times |= {edge for e in (c.tau - c.eps, c.tau) for edge in (e, np.nextafter(e, 0.0))}
    for t in sorted(times):
        for depth in range(4):
            got = family.jet(t, depth)
            assert got.shape == (depth + 1, dim, batch)
            assert np.array_equal(got, np.stack([c.jet(t, depth) for c in members], axis=-1))
        assert np.array_equal(family.jet(t, 0)[0], np.stack([c.value(t) for c in members], -1))


@settings(deadline=None, max_examples=60)
@given(data=st.data(), grid=needle_grids(), k=st.floats(0.01, 0.9))
def test_values_equal_stacked_scalar_values(data, grid, k):
    # a grid read of values is the value row of ``jets(ts, 0)``: it equals
    # the stacked scalar values, with T clamped like every other grid read
    for c in _vectorised_curves(data, grid, k):
        times = _with_breakpoints(c, grid[3])
        got = c.jets(times, 0)[0].T
        assert got.shape == (times.size, c.dim)
        assert np.array_equal(got, _stacked(c, c.clamp(times))), type(c).__name__


@settings(deadline=None, max_examples=60)
@given(data=st.data(), grid=needle_grids(), k=st.floats(0.01, 0.9), depth=st.integers(0, 5))
def test_smoothed_needle_jets_equal_stacked_jets(data, grid, k, depth):
    # on the ramps and needle edges, next to them, and at T (clamped); the
    # smoothed needles sit among the other vectorised ``jets`` overrides
    for c in _vectorised_curves(data, grid, k):
        times = _with_breakpoints(c, grid[3])
        got = c.jets(times, depth)
        stacked = np.stack([c.jet(t, depth) for t in c.clamp(times)], axis=-1)
        assert got.shape == (depth + 1, c.dim, times.size)
        assert got.tobytes() == stacked.tobytes(), type(c).__name__


@settings(deadline=None, max_examples=60)
@given(data=st.data(), grid=needle_grids(), k=st.floats(0.01, 0.9),
       s=st.lists(unit, min_size=1, max_size=4))
def test_family_values_equal_member_values(data, grid, k, s):
    # blends of one base with needles of one ramp, with a second ramp and with
    # a shared curve, and u0 itself: each column of the family's stack is its
    # member's value bit for bit; a member of another shape reads on its own
    T, tau, eps, ts = grid
    u0 = data.draw(harmonics(T))
    omegas = data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=u0.dim,
                                         max_size=u0.dim), min_size=1, max_size=3))
    tops = [SmoothedNeedleControl(u0, tau, w, eps, k) for w in omegas]
    tops += [SmoothedNeedleControl(u0, tau, omegas[0], 0.5 * eps, k),
             HarmonicControl(-u0.mid, u0.amp, 2.0 * u0.om, u0.ph, T)]
    blends = [u0] + [BlendControl(u0, top, x) for top in tops for x in s]
    times = _with_breakpoints(BlendControl(u0, BlendControl(tops[-2], tops[0], 0.5), 0.5), ts)
    for members in (blends, blends + [tops[0]]):
        family = ControlFamily(members)
        for t in times:
            assert np.array_equal(family.jet(t, 0),
                                  np.stack([c.value(t) for c in members], axis=-1)[None])
            assert np.array_equal(family.jet(t, 2),
                                  np.stack([c.jet(t, 2) for c in members], axis=-1))


@settings(deadline=None, max_examples=20)
@given(data=st.data(), T=st.floats(0.5, 6.0), widths=st.integers(3, 5), k=st.floats(0.01, 0.9))
def test_scan_shaped_family_values_equal_member_values(data, T, widths, k):
    # a family as needle_variations builds one at a tau: one base u0, 2-3
    # omegas, nested widths eps0 / 2^j whose down-ramps all start at tau, and
    # s in {0.25, 0.5, 0.75, 1}, read together; each column is its member's
    # value, and its jet, bit for bit on every ramp edge, one ulp either side
    # of it and at the ramps' Gauss nodes
    u0 = data.draw(harmonics(T))
    tau = T * data.draw(st.floats(0.3, 0.95))
    eps0 = tau * data.draw(st.floats(0.05, 0.5))
    omegas = data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=u0.dim,
                                         max_size=u0.dim), min_size=2, max_size=3))
    needles = [SmoothedNeedleControl(u0, tau, w, eps0 / 2 ** j, k)
               for j in range(widths) for w in omegas]
    members = [BlendControl(u0, n, s) for n in needles for s in (0.25, 0.5, 0.75, 1.0)]
    family = ControlFamily(members)
    assert family._base is u0 and not family._others
    nodes = np.polynomial.legendre.leggauss(5)[0]
    times = set()
    for n in needles:
        for edge in (n.t_on, n.t_full, n.t_off, n.t_end):
            times |= {edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)}
        for a, b in ((n.t_on, n.t_full), (n.t_off, n.t_end)):
            times |= set(a + 0.5 * (b - a) * (1.0 + nodes))
    for t in sorted(x for x in times if 0.0 <= x < T):
        assert np.array_equal(family.jet(t, 0),
                              np.stack([c.value(t) for c in members], axis=-1)[None]), t
        assert np.array_equal(family.jet(t, 2), np.stack([c.jet(t, 2) for c in members], -1)), t


@settings(deadline=None, max_examples=60)
@given(t=st.floats(0.0, 6.0), om=st.floats(0.1, 5.0), ph=st.floats(0.0, 2 * math.pi),
       amp=st.floats(0.01, 2.0), mid=st.floats(-2.0, 2.0))
def test_harmonic_jet(t, om, ph, amp, mid):
    mid, amp = np.array([mid]), np.array([amp])

    # the sine control's derivative formulas, written out one by one
    def f(t):
        return mid + amp * np.sin(om * t + ph)

    def df(t):
        return amp * om * np.cos(om * t + ph)

    def d2f(t):
        return -amp * om * om * np.sin(om * t + ph)

    def d3f(t):
        return -amp * om ** 3 * np.cos(om * t + ph)

    jet = HarmonicControl(mid, amp, om, ph, 6.0).jet(t, 6)
    assert jet.shape == (7, 1)
    assert np.array_equal(jet[:4], np.vstack([f(t), df(t), d2f(t), d3f(t)]))
    for k in range(4, 7):
        scale = amp * om ** k
        closed = scale * np.sin(om * t + ph + k * math.pi / 2)
        np.testing.assert_allclose(jet[k], closed, rtol=0.0, atol=1e-12 * scale[0])


@settings(deadline=None, max_examples=60)
@given(data=st.data(), grid=needle_grids(), k=st.floats(0.01, 0.9), s=unit)
def test_value_is_the_jet_value_row(data, grid, k, s):
    # every curve's value(t) is jet(t, 0)[0] bit for bit: at the breakpoints
    # (the ramp edges of a smoothed needle among them), next to them, at
    # clamp(T) and at the grid's other times
    T, tau, eps, ts = grid
    sine = data.draw(harmonics(T))
    dim = sine.dim
    vec = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    const, omega = ConstantControl(data.draw(vec), T), data.draw(vec)
    steps = PiecewiseConstantControl([tau - eps, tau], [data.draw(vec) for _ in range(3)], T)
    overlay = NeedleOverlayControl(sine, tau, omega, eps)
    smoothed = SmoothedNeedleControl(overlay, tau, omega, eps, k)
    curves = [const, sine, steps, overlay, smoothed,
              SmoothedNeedleControl(const, tau, omega, eps, k),
              BlendControl(sine, smoothed, s), BlendControl(const, smoothed, 1.0),
              BlendControl(BlendControl(sine, const, s), smoothed, 1.0 - s)]
    covered = {type(c) for c in curves}
    assert covered == {c for c in _all_subclasses(ControlCurve)[1:]
                       if c.__module__ == "hopmp.controls"}
    for c in curves:
        for t in (x for x in _with_breakpoints(c, [*ts, c.clamp(T)]) if x < T):
            assert c.value(t).tobytes() == c.jet(t, 0)[0].tobytes(), (type(c).__name__, t)


def _all_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _all_subclasses(sub)
    return out


def test_control_measure_diff_makes_no_scalar_calls(monkeypatch):
    T = 2.0
    u = _random_smooth_control(np.random.default_rng(5), [-1.0], [1.0], T)
    u2 = NeedleOverlayControl(u, 1.2, [1.0], 0.1)
    calls = {"n": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapped

    for cls in _all_subclasses(ControlCurve):
        for name in ("value", "jet"):
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, counting(cls.__dict__[name]))
    d = control_measure_diff(u, u2)
    assert calls["n"] == 0
    assert abs(d - 0.1) <= 2 * T / 4001
