"""Bit-for-bit parity of hopmp's own numerics with the scipy routines they
replace (scipy is a test-only reference), and a run that loads no scipy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid
from scipy.integrate import simpson as scipy_simpson
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve

from hopmp.auxiliary import boundary_matrix, cumulative_trapezoid, simpson
from hopmp.dynamics import _rk45
from hopmp.errors import StepSizeUnderflow


def _forced_pendulums(w):
    """B damped pendulums under cos(w t), states stacked (x_1..x_B, v_1..v_B)."""
    def rhs(t, y):
        x, v = y.reshape(2, -1)
        return np.concatenate([v, -np.sin(x) - 0.1 * v + np.cos(w * t)])
    return rhs


def _match_scipy(y0, t0, tf, w, rtol, probes):
    """Run _rk45 and scipy's RK45 on the same problem, assert that mesh,
    states and dense output agree bit for bit, and return the number of
    rejected steps."""
    rhs, calls = _forced_pendulums(w), []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    atol = rtol * 1e-2
    ref = solve_ivp(rhs, (t0, tf), y0, method="RK45", dense_output=True, rtol=rtol, atol=atol)
    ts, ys, dense = _rk45(counted, t0, tf, y0, rtol, atol, dense=True)
    assert np.array_equal(ts, ref.t) and np.array_equal(ys, ref.y.T)
    lo, hi = min(t0, tf), max(t0, tf)
    grid = np.concatenate([ts, lo + (hi - lo) * np.asarray(probes)])
    for nodes in (np.sort(grid), grid):
        assert np.array_equal(dense(nodes), ref.sol(nodes))
    for t in (lo + (hi - lo) * probes[0], ts[len(ts) // 2]):
        assert np.array_equal(dense(t), ref.sol(t))
    bare = _rk45(rhs, t0, tf, y0, rtol, atol, dense=False)
    assert np.array_equal(bare[0], ts) and np.array_equal(bare[1], ys) and bare[2] is None
    # two evaluations choose the first step; every attempted step takes six
    return (len(calls) - 2) // 6 - (len(ts) - 1)


@settings(max_examples=100, deadline=None)
@given(members=st.integers(1, 4), y0=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
       t0=st.floats(0.0, 1.0), length=st.floats(0.1, 5.0), w=st.floats(0.5, 20.0),
       log_rtol=st.floats(-11.0, -5.0), backward=st.booleans(),
       probes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_rk45_matches_scipy_rk45(members, y0, t0, length, w, log_rtol, backward, probes):
    a, b = (t0 + length, t0) if backward else (t0, t0 + length)
    _match_scipy(np.array(y0[:2 * members]), a, b, w, 10.0 ** log_rtol, probes)


@pytest.mark.parametrize("backward", [False, True])
def test_rk45_matches_scipy_across_rejected_steps(backward):
    y0 = np.array([1.95, -1.27, 1.85, 1.20, -0.07, 1.25, 0.41, 0.62])
    a, b = (0.9, 5.0) if not backward else (5.0, 0.9)
    assert _match_scipy(y0, a, b, 16.8, 9e-10, [0.1, 0.7, 0.33]) > 0


def test_rk45_keeps_scipy_guards():
    rhs = _forced_pendulums(1.0)
    with pytest.raises(ValueError, match="must be finite"):
        _rk45(rhs, 0.0, 1.0, np.array([np.nan, 0.0]), 1e-8, 1e-10, dense=False)
    # an rtol below 100 eps runs at 100 eps, as scipy clamps it
    with pytest.warns(UserWarning, match="rtol"):
        ref = solve_ivp(rhs, (0.0, 0.5), [0.2, 0.1], method="RK45", rtol=1e-18, atol=1e-14)
    ts, ys, _ = _rk45(rhs, 0.0, 0.5, np.array([0.2, 0.1]), 1e-18, 1e-14, dense=False)
    assert np.array_equal(ts, ref.t) and np.array_equal(ys, ref.y.T)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            StepSizeUnderflow, match="Required step size is less than spacing between numbers"):
        _rk45(lambda t, y: y ** 2, 0.0, 2.0, np.array([1.0]), 1e-8, 1e-10, dense=False)


def _nodes(data, n, uniform):
    if uniform:
        return np.linspace(0.0, data.draw(st.floats(0.1, 5.0)), n)
    gaps = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    return data.draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(gaps)])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 40), rows=st.integers(1, 5), uniform=st.booleans(),
       scale=st.floats(-3.0, 3.0), data=st.data())
def test_quadrature_matches_scipy(n, rows, uniform, scale, data):
    x = _nodes(data, n, uniform)
    y = 10.0 ** scale * np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    stacked = simpson(y, x)
    assert np.array_equal(stacked, scipy_simpson(y, x=x, axis=1))
    for row, value in zip(y, stacked):
        # a row of a stacked call is the row's own call, as scipy's 1-D call
        assert np.array_equal(simpson(row, x), value)
        assert np.array_equal(value, scipy_simpson(row, x=x))
    assert np.array_equal(cumulative_trapezoid(y[0], x),
                          scipy_cumulative_trapezoid(y[0], x=x, initial=0))


@settings(max_examples=200, deadline=None)
@given(T=st.floats(0.2, 6.0), rhs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
def test_boundary_solve_matches_lu_solve(T, rhs):
    A = boundary_matrix(T)
    b = np.array([0.0, 0.0, *rhs])
    assert np.array_equal(np.linalg.solve(A, b), lu_solve(lu_factor(A), b))


def test_default_run_loads_no_scipy(tmp_path):
    script = textwrap.dedent("""
        import sys
        import hopmp
        from hopmp.cli import main
        code = main(["--config", sys.argv[1], "--suite", "homotopy", "--out", sys.argv[2],
                     "--quiet"])
        print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
    """)
    config = tmp_path / "third-order.ini"
    config.write_text("[problem]\nid = third-order\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "[]"]
