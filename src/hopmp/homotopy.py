"""Controlled variations: two-parameter families of controlled curves, their
Jacobi fields, and the two independently computable sides of the terminal-cost
identity

    C1 - C0 = - integral_0^T integral_0^1 ( Y^a dP/du^a - d2 mu'/dt ds ) ds dt.

The left side reads terminal costs off the endpoint slices; the right side is
a tensor-product Simpson quadrature.  The mixed derivative of mu' is never
formed by differencing mu' itself: its t-integrand is known in closed form
along every slice (the extended Lagrangian and the auxiliary-function
products) and only that integrand is differentiated across slices.

The sums over the auxiliary contact index beta admit two conventions,
``full`` (0..r-1) and ``paper`` (1..r-1); the identity itself adjudicates,
see :func:`select_beta_range`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.integrate import simpson

from .auxiliary import (
    ExtendedCurve,
    ExtendedTangent,
    HCoefficients,
    h_quadratic_terms,
    pc_form_pairing,
)
from .controls import BlendControl, ControlCurve
from .dynamics import Trajectory, jets_of
from .jetspace import JetPoint
from .problem import DefiningTriple

BETA_RANGES = ("full", "paper")


def beta_indices(r: int, mode: str) -> range:
    if mode == "full":
        return range(0, r)
    if mode == "paper":
        return range(1, r)
    raise ValueError(f"unknown beta range {mode!r}")


@dataclass
class ControlHomotopy:
    """A smooth one-parameter family of admissible control pairs.

    ``slice_curve(s)`` yields the control curve u(., s); ``sigma_path(s)``
    the initial data; ``du_ds(ts, s)`` optionally evaluates the control's
    s-derivative analytically on a time grid, as an array that broadcasts
    to (len(ts), M) (otherwise slices are differenced).
    """

    slice_curve: Callable[[float], ControlCurve]
    sigma_path: Callable[[float], Mapping]
    s_grid: np.ndarray
    du_ds: Optional[Callable[[float, float], np.ndarray]] = None

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        if self.s_grid[0] != 0.0 or abs(self.s_grid[-1] - 1.0) > 1e-12:
            raise ValueError("s-grid must span [0, 1]")
        steps = np.diff(self.s_grid)
        if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-12:
            raise ValueError("s-grid must be uniform and increasing")


def uniform_s_grid(intervals: int) -> np.ndarray:
    if intervals % 2:
        raise ValueError("use an even number of s-intervals (Simpson)")
    return np.linspace(0.0, 1.0, intervals + 1)


def blend_homotopy(u0: ControlCurve, u1: ControlCurve,
                   sigma_path: Callable[[float], Mapping],
                   s_intervals: int) -> ControlHomotopy:
    """The interpolating family u(., s) = (1-s) u0 + s u1, which is u0 itself
    at s = 0, with its analytic s-derivative u1 - u0 (sampled at the
    right-continuous times)."""

    def du_ds(ts, s):
        return u1.jets(ts, 0)[0].T - u0.jets(ts, 0)[0].T

    return ControlHomotopy(
        slice_curve=lambda s: u0 if s == 0.0 else BlendControl(u0, u1, s),
        sigma_path=sigma_path,
        s_grid=uniform_s_grid(s_intervals),
        du_ds=du_ds,
    )


@dataclass
class SurfaceSlice:
    s: float
    traj: Trajectory
    ext: ExtendedCurve
    # the deepest jet read at each time, see slice_jets
    kept: dict = field(default_factory=dict, repr=False, compare=False)


def slice_jets(slices: Sequence[SurfaceSlice], t: float, order: int) -> list[JetPoint]:
    """Each slice's jet at ``t``.  A slice keeps the deepest jet read at each
    time, and a kept jet gives every shallower order (the blocks below an
    order do not depend on it), so a slice shared by several surfaces, such
    as gamma0 in a scan, is read once; the slices that keep none deep enough
    are read by one :func:`~hopmp.dynamics.jets_of` call."""
    todo = list({id(sl): sl for sl in slices
                 if sl.kept.get(t) is None or sl.kept[t].n < order}.values())
    if todo:
        batch = jets_of([sl.traj for sl in todo], t, order)
        for b, sl in enumerate(todo):
            sl.kept[t] = batch.node(b)
    return [sl.kept[t] if sl.kept[t].n == order
            else JetPoint._wrap(t, sl.kept[t].blocks[:order + 1]) for sl in slices]


class VariationSurface:
    """All slices of a controlled variation, with difference-based Jacobi
    field access on arbitrary time grids."""

    def __init__(self, triple: DefiningTriple, hom: ControlHomotopy,
                 slices: Sequence[SurfaceSlice]) -> None:
        self.triple = triple
        self.hom = hom
        self.slices = list(slices)
        self.s_nodes = np.array([sl.s for sl in self.slices])
        self.ds = float(self.s_nodes[1] - self.s_nodes[0])
        self._grid_cache: dict = {}

    def _cached(self, key, make):
        """``make()``, computed once per key (a grid's bytes and its options)."""
        if key not in self._grid_cache:
            self._grid_cache[key] = make()
        return self._grid_cache[key]

    # -- plain slice access ---------------------------------------------------

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def coeffs(self, k: int) -> HCoefficients:
        return self.slices[k].ext.h_coeffs

    def q_blocks(self, ts: np.ndarray, order: int) -> np.ndarray:
        """Jet blocks of every slice on a time grid (ns, nt, order+1, N), from
        one :func:`~hopmp.dynamics.jets_of` call over all slices."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))

        def make():
            blocks = jets_of([sl.traj for sl in self.slices], ts, order).blocks
            return np.moveaxis(blocks.reshape(blocks.shape[:2] + (self.n_slices, ts.size)),
                               (2, 3), (0, 1))

        return self._cached(("q", ts.tobytes(), order), make)

    # -- s-differencing core ----------------------------------------------------

    def s_derivative(self, stacked: np.ndarray) -> np.ndarray:
        """Second-order difference along the first (s) axis, one-sided at the
        boundary nodes."""
        a = np.asarray(stacked, dtype=float)
        out = np.empty_like(a)
        h = self.ds
        out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
        out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
        out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
        return out

    def jacobi_q(self, ts: np.ndarray, order: int) -> np.ndarray:
        """Y^i_(beta) on the grid: s-derivative of jet blocks,
        shape (ns, nt, order+1, N)."""
        return self.s_derivative(self.q_blocks(ts, order))

    def coeff_derivatives(self) -> list[HCoefficients]:
        """Per-node s-derivatives of the auxiliary coefficient families (the
        coefficients are solved on demand)."""
        dhyp, dprime, dsecond = self._cached(("dh/ds",), lambda: [
            self.s_derivative(np.stack([getattr(sl.ext.h_coeffs, name) for sl in self.slices]))
            for name in ("hyp", "prime", "second")])
        T = self.triple.horizon
        return [HCoefficients(T, dhyp[k], dprime[k], dsecond[k]) for k in range(self.n_slices)]

    def u_values(self, ts: np.ndarray) -> np.ndarray:
        """(ns, nt, M) control values at the right-continuous times."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self._cached(("u", ts.tobytes()), lambda: np.stack(
            [sl.traj.control.jets(ts, 0)[0].T for sl in self.slices]))

    def jacobi_u(self, ts: np.ndarray) -> np.ndarray:
        """Y^a on the grid, analytic when the homotopy provides du_ds."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.hom.du_ds is not None:
            shape = (ts.size, self.triple.controls.dim)
            return np.stack([np.broadcast_to(self.hom.du_ds(ts, float(s)), shape)
                             for s in self.s_nodes])
        return self.s_derivative(self.u_values(ts))


def build_surface(triple: DefiningTriple, hom: ControlHomotopy,
                  tol=(1e-8, 1e-10),
                  base: Optional[SurfaceSlice] = None,
                  start: Optional[float] = None) -> VariationSurface:
    """The surface of one homotopy, see :func:`build_surfaces`."""
    return build_surfaces(triple, [hom], tol=tol, base=base, start=start)[0]


def build_surfaces(triple: DefiningTriple, homs: Sequence[ControlHomotopy],
                   tol=(1e-8, 1e-10),
                   base: Optional[SurfaceSlice] = None,
                   start: Optional[float] = None) -> list[VariationSurface]:
    """Integrate every slice of the homotopies as one family
    (:func:`~hopmp.dynamics.integrate_family`), except a ``base`` slice
    already built for their common s = 0 curve, and solve the slices'
    auxiliary boundary-value families.  With a ``base`` and ``start = t``,
    slices that share the base's initial data are spliced onto it at ``t``
    and read its Lagrangian table there; the caller guarantees that every
    slice's control equals the base control on ``[0, t)``.  Without a base
    nothing is spliced, so that the slices the s-differences compare share
    their prefix."""
    todo = [(hom, float(s)) for hom in homs for s in hom.s_grid if s != 0.0 or base is None]
    splice = None if base is None or start is None else (base.traj, start)
    trajs = iter(triple.controlled_curves([hom.slice_curve(s) for hom, s in todo],
                                          [hom.sigma_path(s) for hom, s in todo],
                                          tol=tol, start=splice))

    def slice_at(s: float) -> SurfaceSlice:
        if s == 0.0 and base is not None:
            return base
        traj = next(trajs)
        return SurfaceSlice(s, traj, ExtendedCurve(traj, triple,
                                                   prefix=base.ext if traj.splice else None))

    return [VariationSurface(triple, hom, [slice_at(float(s)) for s in hom.s_grid])
            for hom in homs]


def homotopy_lhs(surface: VariationSurface) -> float:
    """Difference of terminal costs between the endpoint slices, read from
    the jets the slices keep (see :func:`slice_jets`)."""
    cost = surface.triple.cost
    top, bottom = slice_jets([surface.slices[-1], surface.slices[0]], surface.triple.horizon,
                             max(1, cost.actual_order))
    return cost.value(top) - cost.value(bottom)


def _grid_terms(surface: VariationSurface, ts: np.ndarray) -> tuple:
    """(Y^a dP/du^a, dLtilde/ds) on the (s, t) grid, the parts of F that do
    not depend on the beta range, from each slice's batched jets; Ltilde is
    the Lagrangian plus the auxiliary quadratic terms.  Computed once per
    grid."""

    def make():
        L = surface.triple.lagrangian
        q, u, Ya = surface.q_blocks(ts, L.actual_order), surface.u_values(ts), surface.jacobi_u(ts)
        ydp, ltil = np.zeros((surface.n_slices, ts.size)), np.empty((surface.n_slices, ts.size))
        for k in range(surface.n_slices):
            c, jet, uk = surface.coeffs(k), JetPoint(ts, np.moveaxis(q[k], 0, -1)), u[k].T
            ltil[k] = L.value(jet, uk) + h_quadratic_terms(*c.rows(ts, 3), c.T)
            for a in range(Ya.shape[2]):
                ydp[k] -= Ya[k, :, a] * L.du(jet, uk, a)
        return ydp, surface.s_derivative(ltil)

    return surface._cached(("F parts", ts.tobytes()), make)


def _mixed_mu_integrand(surface: VariationSurface, ts: np.ndarray,
                        beta_range: str) -> np.ndarray:
    """G(t, s) = d2 mu'/dt ds on the (s, t) grid, shape (ns, nt), computed
    once per grid and beta range; callers must not write into it.

    The t-derivative of mu' is -Ltilde plus the auxiliary product sum; both
    are closed-form along slices, and only they are differenced in s.
    """
    triple = surface.triple
    ts = np.atleast_1d(ts)

    def make():
        G = -_grid_terms(surface, ts)[1]
        idx = list(beta_indices(triple.lagrangian.actual_order, beta_range))
        if idx:
            k4 = (math.pi / (2.0 * triple.horizon)) ** 4
            dcoeffs = surface.coeff_derivatives()
            for k in range(surface.n_slices):
                c, d = surface.coeffs(k), dcoeffs[k]
                # d/dt [h'_(3) Y'_(0) + h''_(3) Y''_(0)]
                term = (k4 * c.hp(ts, 0) * d.hp(ts, 0)
                        + c.hp(ts, 3) * d.hp(ts, 1)
                        + k4 * c.hpp(ts, 0) * d.hpp(ts, 0)
                        + c.hpp(ts, 3) * d.hpp(ts, 1))
                G[k] += np.sum(term[:, idx, :], axis=(0, 1))
        return G

    return surface._cached(("G", ts.tobytes(), beta_range), make)


def _rhs_integrand(surface: VariationSurface, ts: np.ndarray,
                   beta_range: str) -> np.ndarray:
    """F(t, s) = Y^a dP/du^a - d2 mu'/dt ds, shape (ns, nt), computed once
    per grid and beta range."""
    ts = np.atleast_1d(ts)
    return surface._cached(("F", ts.tobytes(), beta_range), lambda: (
        _grid_terms(surface, ts)[0] - _mixed_mu_integrand(surface, ts, beta_range)))


def _time_grid(surface: VariationSurface, t_nodes: int) -> np.ndarray:
    if t_nodes % 2:
        t_nodes += 1
    return np.linspace(0.0, surface.triple.horizon, t_nodes + 1)


def homotopy_rhs(surface: VariationSurface, t_nodes: int = 400,
                 beta_range: str = "full") -> float:
    """- integral of F over [0,T] x [0,1] by tensor-product Simpson."""
    ts = _time_grid(surface, t_nodes)
    F = _rhs_integrand(surface, ts, beta_range)
    inner = simpson(F, x=ts, axis=1)           # integrate over t per slice
    return -float(simpson(inner, x=surface.s_nodes))


def homotopy_gap(surface: VariationSurface, t_nodes: int = 400,
                 beta_range: str = "full") -> float:
    return abs(homotopy_lhs(surface) - homotopy_rhs(surface, t_nodes, beta_range))


def select_beta_range(surface: VariationSurface, t_nodes: int = 200) -> dict:
    """Let the two-sided identity pick the contact-index convention.  Gaps
    within 1e-12 of each other are a tie (``"tie": True``): the identity does
    not separate the conventions, and ``full`` is selected by default."""
    gaps = {mode: homotopy_gap(surface, t_nodes, mode) for mode in BETA_RANGES}
    tie = abs(gaps["full"] - gaps["paper"]) <= 1e-12
    chosen = "full" if tie else min(gaps, key=gaps.get)
    return {"selected": chosen, "gaps": gaps, "tie": tie}


def minimal_labour_W(surface: VariationSurface, delta: float,
                     t_nodes: int = 400, beta_range: str = "full") -> float:
    """Partial double integral of F up to s = delta (cumulative trapezoid in
    s, Simpson in t).  Nonpositive for every variation of an optimum."""
    if delta < 0.0 or delta > 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if delta == 0.0:
        return 0.0
    ts = _time_grid(surface, t_nodes)
    F = _rhs_integrand(surface, ts, beta_range)
    per_slice = simpson(F, x=ts, axis=1)
    s = surface.s_nodes
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (per_slice[1:] + per_slice[:-1])
                                           * np.diff(s))])
    return float(np.interp(delta, s, cum))


def infinitesimal_conditions(surface: VariationSurface,
                             t_nodes: int = 400,
                             beta_range: str = "full") -> tuple[float, float]:
    """The first-order sign of the principle at s = 0: (dC/ds(0), the base
    slice's integral of F).  dC/ds(0) pairs the cost's partials at T with
    the Jacobi field at (T, 0); by the identity it equals minus the second.

    A candidate optimum needs the first >= 0 and the second <= 0.
    """
    triple = surface.triple
    order = max(triple.cost.actual_order, 1)
    Y_T = surface.jacobi_q(np.array([triple.horizon]), order)[0, 0]   # (order+1, N)
    jet_T = surface.slices[0].traj.terminal_jet(order)
    dC = sum(triple.cost.partial(jet_T, ("q", i, b)) * Y_T[b, i]
             for i in range(triple.lagrangian.state_dim) for b in range(order + 1))

    ts = _time_grid(surface, t_nodes)
    base = float(simpson(_rhs_integrand(surface, ts, beta_range)[0], x=ts))
    return float(dC), base


# -- mu' and the auxiliary correction -----------------------------------------


def mu_prime(surface: VariationSurface, t: float, s_index: int,
             beta_range: str = "full") -> float:
    """mu'(t, s_k): mu of the k-th slice plus the cumulative auxiliary
    correction integral over v in [0, s_k] on the surface's s-grid."""
    corr = _correction_integrand(surface, t, beta_range)
    s = surface.s_nodes
    k = int(s_index)
    mu_k = surface.slices[k].ext.mu(t)
    if k == 0:
        return mu_k
    partial = np.concatenate([[0.0], np.cumsum(0.5 * (corr[1:] + corr[:-1])
                                               * np.diff(s))])
    return float(mu_k + partial[k])


def _correction_integrand(surface: VariationSurface, t: float,
                          beta_range: str) -> np.ndarray:
    """sum over (i, beta) of h'_(3) Y'_(0) + h''_(3) Y''_(0) at time t, per
    s-node."""
    r = surface.triple.lagrangian.actual_order
    idx = list(beta_indices(r, beta_range))
    out = np.zeros(surface.n_slices)
    if not idx:
        return out
    dcoeffs = surface.coeff_derivatives()
    for k in range(surface.n_slices):
        c = surface.coeffs(k)
        d = dcoeffs[k]
        term = (c.hp(t, 3) * d.hp(t, 0) + c.hpp(t, 3) * d.hpp(t, 0))
        out[k] = float(np.sum(term[:, idx]))
    return out


def mu_prime_gap_direct(surface: VariationSurface, beta_range: str = "full") -> float:
    """mu'(T, 1) - mu'(T, 0) with the correction integrated by Simpson over
    the whole s-grid (the direct-quadrature side of the two-method check)."""
    T = surface.triple.horizon
    corr = _correction_integrand(surface, T, beta_range)
    correction = float(simpson(corr, x=surface.s_nodes))
    return (surface.slices[-1].ext.mu(T) - surface.slices[0].ext.mu(T)
            + correction)


# -- pairings along vertical sides ---------------------------------------------


def jacobi_tangent(surface: VariationSurface, t: float, k: int) -> ExtendedTangent:
    """The s-direction tangent (Jacobi field) of the extended surface at
    (t, s_k), assembled from slice differences."""
    triple = surface.triple
    r = triple.lagrangian.actual_order
    N = triple.lagrangian.state_dim
    M = triple.controls.dim
    order = max(2 * r, 1)

    Yq = surface.jacobi_q(np.array([t]), order)[k, 0]   # (order+1, N)
    dcoeffs = surface.coeff_derivatives()[k]
    dh, dhp, dhpp = dcoeffs.rows(t, 3)
    # the s-difference at k reads mu on three slices only (one-sided at the ends)
    lo = min(max(k - 1, 0), surface.n_slices - 3)
    mus = np.array([sl.ext.mu(t) for sl in surface.slices[lo:lo + 3]])
    dmu0 = float(surface.s_derivative(mus)[k - lo])
    du = surface.jacobi_u(np.array([t]))[k, 0]
    return ExtendedTangent(dt=0.0, dq=Yq, dh=dh, dhp=dhp, dhpp=dhpp,
                           dmu0=dmu0, du=du)


def vertical_pairing(surface: VariationSurface, t: float, k: int) -> float:
    """Pairing of the Poincare-Cartan form with the Jacobi tangent at
    (t, s_k); vanishes identically at t = 0 by the boundary-value design."""
    pt = surface.slices[k].ext.ext_point(t)
    return pc_form_pairing(surface.triple, pt, jacobi_tangent(surface, t, k))


def conservation_residual(surface: VariationSurface, k: int,
                          t_nodes: int = 400, beta_range: str = "full") -> float:
    """Residual of the per-slice balance: pairing at (T, s_k) minus pairing
    at (0, s_k) minus the time integral of the mixed mu' derivative."""
    T = surface.triple.horizon
    ts = _time_grid(surface, t_nodes)
    G = _mixed_mu_integrand(surface, ts, beta_range)
    flux = float(simpson(G[k], x=ts))
    return (vertical_pairing(surface, T, k)
            - vertical_pairing(surface, 0.0, k) - flux)
