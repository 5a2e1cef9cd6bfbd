"""Auxiliary boundary-value functions, the mu bookkeeping scalar and the
controlled Poincare-Cartan pairing.

Every controlled curve gets, per variable i and contact index beta < r,
three closed-form companions:

    h(t)   = A e^t + B e^(-t)
    h'(t)  = A' e^(kt) + B' e^(-kt) + C' cos(kt) + D' sin(kt),   k = pi/(2T)
    h''(t) = same basis as h'

whose boundary data encode the curve's momentum sums at t = 0 and t = T.
They cancel the vertical-side boundary integrals in the Stokes argument, and
enter the extended Lagrangian

    Ltilde = L + (1/2) sum (hdot^2 - h'dd^2 - h''dd^2)
               + sum ( (1/2) h^2 + (pi^4/32 T^4)(h'^2 + h''^2) ),

whose sign-flipped time integral is the scalar mu (the multiplier lambda is
identically 1 and is never integrated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .dynamics import Trajectory, jets_of
from .errors import InsufficientJetOrder, SingularBoundaryMatrix
from .jetspace import JetPoint
from .problem import DefiningTriple, full_momenta, lagrangian_momenta


def boundary_matrix(T: float) -> np.ndarray:
    """The 4x4 matrix pairing the h'/h'' basis functions with their boundary
    functionals: value at 0, derivative at 0, derivative at T, second
    derivative at T, applied to (e^(kt), e^(-kt), cos kt, sin kt), k = pi/2T."""
    k = math.pi / (2.0 * T)
    e = math.exp(math.pi / 2.0)
    return np.array([
        [1.0, 1.0, 1.0, 0.0],
        [k, -k, 0.0, k],
        [k * e, -k / e, -k, 0.0],
        [k * k * e, k * k / e, 0.0, -k * k],
    ])


def _quartet_eval(coeffs: np.ndarray, k: float, t, deriv: int):
    """Derivative of A e^(kt) + B e^(-kt) + C cos(kt) + D sin(kt).

    ``coeffs`` has shape (..., 4); ``t`` may be scalar or an array appended
    as a trailing axis.
    """
    t = np.asarray(t, dtype=float)
    A, B, C, D = (coeffs[..., j] for j in range(4))
    if t.ndim:
        A, B, C, D = (x[..., None] for x in (A, B, C, D))
    kd = k ** deriv
    ek = np.exp(k * t)
    out = kd * (A * ek + ((-1.0) ** deriv) * B / ek)
    m = deriv % 4
    c, s = np.cos(k * t), np.sin(k * t)
    if m == 0:
        cc, ss = c, s
    elif m == 1:
        cc, ss = -s, c
    elif m == 2:
        cc, ss = -c, -s
    else:
        cc, ss = s, -c
    return out + kd * (C * cc + D * ss)


@dataclass
class HCoefficients:
    """Coefficient families of the auxiliary functions, with the boundary
    data they were solved from (kept for residual audits)."""

    T: float
    hyp: np.ndarray     # (N, r, 2): A, B
    prime: np.ndarray   # (N, r, 4): A', B', C', D'
    second: np.ndarray  # (N, r, 4)
    q0: np.ndarray = None       # q_(beta)(0)
    m0: np.ndarray = None       # momentum sums of L at t=0
    qT: np.ndarray = None       # q_(beta)(T)
    mT: np.ndarray = None       # momentum sums of L + dC/dt at t=T
    cond: float = float("nan")

    @property
    def wavenumber(self) -> float:
        return math.pi / (2.0 * self.T)

    def h(self, t, deriv: int = 0):
        t = np.asarray(t, dtype=float)
        A, B = self.hyp[..., 0], self.hyp[..., 1]
        if t.ndim:
            A, B = A[..., None], B[..., None]
        return A * np.exp(t) + ((-1.0) ** deriv) * B * np.exp(-t)

    def hp(self, t, deriv: int = 0):
        return _quartet_eval(self.prime, self.wavenumber, t, deriv)

    def hpp(self, t, deriv: int = 0):
        return _quartet_eval(self.second, self.wavenumber, t, deriv)

    def rows(self, t, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h, h', h'') at time(s) t, each with its derivatives 0..count-1
        stacked on a new last axis."""
        return tuple(np.stack([fn(t, d) for d in range(count)], axis=-1)
                     for fn in (self.h, self.hp, self.hpp))


def _boundary_jet_depth(triple: DefiningTriple) -> int:
    r = triple.lagrangian.actual_order
    return max(2 * r - 1, triple.cost.actual_order + r, 1)


def solve_h(traj: Trajectory, triple: DefiningTriple) -> HCoefficients:
    """Solve the three boundary-value families for one controlled curve.

    A, B come from the 2x2 system (value and slope of h at 0); the primed and
    double-primed quartets come from the boundary matrix, the latter fed by
    the already-solved h at t = T.
    """
    r = triple.lagrangian.actual_order
    N = triple.lagrangian.state_dim
    T = triple.horizon
    depth = _boundary_jet_depth(triple)

    jet0 = traj.jet(0.0, depth)
    jetT = traj.jet(T, depth)
    uj0 = traj.control.jet(0.0, r + 1)
    ujT = traj.control.jet(traj.control.clamp(T), r + 1)

    m0 = lagrangian_momenta(triple, jet0, uj0)
    mT = full_momenta(triple, jetT, ujT)
    q0 = jet0.blocks[:r, :].T.copy()   # (N, r): q^i_(beta)(0)
    qT = jetT.blocks[:r, :].T.copy()

    hyp = np.empty((N, r, 2))
    hyp[..., 0] = 0.5 * (q0 - m0)   # A
    hyp[..., 1] = 0.5 * (q0 + m0)   # B

    A = boundary_matrix(T)
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularBoundaryMatrix(f"cond(A) = {cond:.3e} at T = {T}")
    lu = lu_factor(A)

    prime = np.empty((N, r, 4))
    second = np.empty((N, r, 4))
    coeffs = HCoefficients(T, hyp, prime, second, q0=q0, m0=m0, qT=qT, mT=mT,
                           cond=cond)
    hT = coeffs.h(T, 0)
    hdT = coeffs.h(T, 1)
    for i in range(N):
        for b in range(r):
            prime[i, b] = lu_solve(lu, np.array([0.0, 0.0, qT[i, b], mT[i, b]]))
            second[i, b] = lu_solve(lu, np.array([0.0, 0.0, hT[i, b], hdT[i, b]]))
    return coeffs


def bvp_residuals(coeffs: HCoefficients) -> dict:
    """Relative residuals of all boundary conditions of the solved families."""
    T = coeffs.T

    def rel(err, scale):
        return float(np.max(np.abs(err) / (1.0 + np.abs(scale))))

    out = {
        "h(0)=q(0)": rel(coeffs.h(0.0, 0) - coeffs.q0, coeffs.q0),
        "hdot(0)=-m0": rel(coeffs.h(0.0, 1) + coeffs.m0, coeffs.m0),
        "h'(0)=0": rel(coeffs.hp(0.0, 0), coeffs.qT),
        "h'dot(0)=0": rel(coeffs.hp(0.0, 1), coeffs.qT),
        "h'dot(T)=q(T)": rel(coeffs.hp(T, 1) - coeffs.qT, coeffs.qT),
        "h'dd(T)=mT": rel(coeffs.hp(T, 2) - coeffs.mT, coeffs.mT),
        "h''(0)=0": rel(coeffs.hpp(0.0, 0), coeffs.q0),
        "h''dot(0)=0": rel(coeffs.hpp(0.0, 1), coeffs.q0),
        "h''dot(T)=h(T)": rel(coeffs.hpp(T, 1) - coeffs.h(T, 0), coeffs.h(T, 0)),
        "h''dd(T)=hdot(T)": rel(coeffs.hpp(T, 2) - coeffs.h(T, 1), coeffs.h(T, 1)),
    }
    return out


def h_quadratic_terms(h: np.ndarray, hp: np.ndarray, hpp: np.ndarray,
                      T: float) -> np.ndarray:
    """The auxiliary part of Ltilde:
    (1/2) sum (hdot^2 - h'dd^2 - h''dd^2) + sum ((1/2) h^2 + c4 (h'^2 + h''^2)),
    with c4 = pi^4 / (32 T^4), summed over (i, beta).

    ``h``, ``hp`` and ``hpp`` have shape (N, r, ..., rows >= 3): derivative
    orders on the last axis, as :meth:`HCoefficients.rows` and
    :class:`ExtendedJetPoint` hold them, with any time axes in between kept.
    """
    c4 = math.pi ** 4 / (32.0 * T ** 4)
    quad = 0.5 * (h[..., 1] ** 2 - hp[..., 2] ** 2 - hpp[..., 2] ** 2) \
        + 0.5 * h[..., 0] ** 2 + c4 * (hp[..., 0] ** 2 + hpp[..., 0] ** 2)
    return np.sum(quad, axis=(0, 1))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a, b):
    """5-point Gauss-Legendre integrals of ``f`` over [a, b], for one interval
    or for arrays ``a``, ``b`` of them.  ``f`` is called once, on the grid of
    every interval's nodes in turn, and returns its values there, or the
    values of several integrands as rows (whose integrals are rows too).
    Each interval sums ``half * (0 + w0 f0 + ... + w4 f4)`` left to right."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = f(nodes.ravel())
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    acc = 0.0
    for j, w in enumerate(_GL_WEIGHTS):
        acc = acc + w * vals[..., j]
    return half * acc


def cumulative_integral(f: Callable[[np.ndarray], np.ndarray], mesh: np.ndarray,
                        head: Optional[np.ndarray] = None) -> np.ndarray:
    """Integrals of ``f`` from mesh[0] to each mesh node, one Gauss-Legendre
    rule per interval (one call of ``f`` for all of them), summed left to
    right; ``head`` holds the values at the first nodes when they are
    already known.  Integrands given as rows (see :func:`gauss_legendre`)
    share the head, and each row is summed on its own."""
    head = np.zeros(1) if head is None else head
    k = head.size - 1
    steps = gauss_legendre(f, mesh[k:-1], mesh[k + 1:])
    first = np.broadcast_to(head[-1:], steps.shape[:-1] + (1,))
    sums = np.cumsum(np.concatenate([first, steps], axis=-1), axis=-1)
    return np.concatenate([np.broadcast_to(head[:-1], sums.shape[:-1] + (k,)), sums], axis=-1)


def _lagrangians(curves: Sequence[ExtendedCurve], grid: np.ndarray) -> np.ndarray:
    """L along each curve at every node of a grid, (len(curves), len(grid)),
    from one batched jet pass (:func:`~hopmp.dynamics.jets_of`); the
    controls are read at the right-continuous times."""
    triple = curves[0].triple
    jets = jets_of([c.base for c in curves], grid, triple.lagrangian.actual_order)
    u = np.concatenate([c.base.control.jets(grid, 0)[0] for c in curves], axis=-1)
    return triple.lagrangian.value(jets, u).reshape(len(curves), grid.size)


def lagrangian_cumulatives(curves: Sequence[ExtendedCurve]) -> list[np.ndarray]:
    """The Lagrangian tables of several curves (see
    :meth:`ExtendedCurve.lagrangian_cumulative`), computed for those that
    have none yet and cached on them.  The members of one family (one mesh,
    and one splice node on one prefix), such as a needle family's s = 1
    slices, take one batched jet pass over their Gauss-Legendre nodes past
    the splice, and read the head of their tables from the prefix's."""
    families: dict = {}
    for c in dict.fromkeys(curves):
        if c._lagrangian_cum is None:
            families.setdefault((id(c.base.mesh), c.prefix), []).append(c)
    for (_, prefix), family in families.items():
        mesh, head = family[0]._mesh(), None
        if prefix is not None:
            k = int(np.searchsorted(mesh, family[0].base.splice[1]))
            head = prefix.lagrangian_cumulative()[:k + 1]
        tables = cumulative_integral(lambda ts: _lagrangians(family, ts), mesh, head)
        for c, table in zip(family, tables):
            c._lagrangian_cum = table
    return [c._lagrangian_cum for c in curves]


class ExtendedCurve:
    """A controlled curve together with its auxiliary companions, the scalar
    mu obtained by quadrature of the extended Lagrangian, and the time
    integral of the bare Lagrangian.

    The auxiliary coefficients, the cumulative mu table and the cumulative
    Lagrangian table are computed on first use and cached on the instance,
    so they live as long as the curve that owns them.  Needle verdicts that
    share one instance for the reference curve pay for each at most once.

    ``prefix`` is the extended curve of the trajectory ``base`` was spliced
    onto (``base.splice``).  Its Lagrangian table is read up to the splice
    node instead of integrating that part again.  The states there are the
    prefix's own, and the caller guarantees equal controls: a needle's
    s = 1 slice, whose control on the spliced part is ``0 * u0 + 1 * u0``,
    gets the table it would sum itself bit for bit; an interior slice's
    blended control ``(1 - s) u0 + s u0`` may round one ulp away from u0.
    """

    def __init__(self, base: Trajectory, triple: DefiningTriple,
                 prefix: Optional[ExtendedCurve] = None) -> None:
        if prefix is not None and (base.splice is None or base.splice[0] is not prefix.base):
            raise ValueError("prefix must extend the trajectory base was spliced onto")
        self.base = base
        self.triple = triple
        self.prefix = prefix
        self._h_coeffs: Optional[HCoefficients] = None
        self._mu_nodes: Optional[np.ndarray] = None
        self._mu_cum: Optional[np.ndarray] = None
        self._lagrangian_cum: Optional[np.ndarray] = None

    @property
    def h_coeffs(self) -> HCoefficients:
        # solved on first use; the closed-form needle bookkeeping never needs it
        if self._h_coeffs is None:
            self._h_coeffs = solve_h(self.base, self.triple)
        return self._h_coeffs

    # -- extended Lagrangian --------------------------------------------------

    def lagrangian(self, ts):
        """L along the curve at a time, or at every node of a 1-D grid of
        times from one batched jet pass; the control is read at the
        right-continuous times.  A time is the one-node grid."""
        grid = np.atleast_1d(np.asarray(ts, dtype=float))
        vals = _lagrangians([self], grid)[0]
        return vals if np.ndim(ts) else float(vals[0])

    def ltilde(self, ts):
        """The extended Lagrangian, at a time or on a grid as :meth:`lagrangian`."""
        grid = np.atleast_1d(np.asarray(ts, dtype=float))
        coeffs = self.h_coeffs
        vals = self.lagrangian(grid) + h_quadratic_terms(*coeffs.rows(grid, 3), coeffs.T)
        return vals if np.ndim(ts) else float(vals[0])

    # -- Gauss-Legendre over the integrator mesh -------------------------------

    def _mesh(self) -> np.ndarray:
        mesh = np.unique(np.clip(self.base.mesh, 0.0, self.base.horizon))
        if mesh[0] > 0.0:
            mesh = np.concatenate([[0.0], mesh])
        if mesh[-1] < self.base.horizon:
            mesh = np.concatenate([mesh, [self.base.horizon]])
        return mesh

    def lagrangian_cumulative(self) -> np.ndarray:
        """Integrals of the bare Lagrangian from 0 to each node of the mesh
        of mu (see :func:`cumulative_integral`): the one-curve case of
        :func:`lagrangian_cumulatives`."""
        return lagrangian_cumulatives([self])[0]

    def lagrangian_integral(self) -> float:
        """Integral of the bare Lagrangian from 0 to T, on the mesh of mu."""
        return self.lagrangian_cumulative()[-1]

    def _ensure_mu(self) -> None:
        if self._mu_nodes is not None:
            return
        self._mu_nodes = self._mesh()
        self._mu_cum = cumulative_integral(self.ltilde, self._mu_nodes)

    def mu(self, t: float) -> float:
        """mu(t) = - integral of Ltilde from 0 to t."""
        if t <= 0.0:
            return 0.0
        self._ensure_mu()
        t = min(t, self.base.horizon)
        k = int(np.searchsorted(self._mu_nodes, t, side="right") - 1)
        k = min(k, self._mu_nodes.size - 2)
        partial = gauss_legendre(self.ltilde, self._mu_nodes[k], t)
        return -(self._mu_cum[k] + partial)

    def mu_rate(self, t: float) -> float:
        return -self.ltilde(t)

    # -- extended jet points ---------------------------------------------------

    def ext_point(self, t: float) -> "ExtendedJetPoint":
        r = self.triple.lagrangian.actual_order
        depth = max(2 * r, _boundary_jet_depth(self.triple) + 1)
        jet = self.base.jet(t, depth)
        ujet = self.base.control.jet(self.base.control.clamp(t), r + 1)
        h, hp, hpp = self.h_coeffs.rows(t, 4)
        return ExtendedJetPoint(jet=jet, ujet=ujet, h=h, hp=hp, hpp=hpp,
                                mu_value=self.mu(t), mu_rate=self.mu_rate(t))


@dataclass
class ExtendedJetPoint:
    """A jet of the extended curve: base jets, control stack, auxiliary
    function values/derivatives (rows 0..3) and mu data."""

    jet: JetPoint
    ujet: np.ndarray
    h: np.ndarray    # (N, r, 4)
    hp: np.ndarray   # (N, r, 4)
    hpp: np.ndarray  # (N, r, 4)
    mu_value: float
    mu_rate: float


@dataclass
class ExtendedTangent:
    """A tangent vector over the extended jet coordinates plus t and u.

    ``dq`` rows are indexed by jet order; ``dh``/``dhp``/``dhpp`` carry the
    components along the auxiliary coordinates and their derivative levels
    (rows 0..2 used).  Contact pairings subtract the coordinate velocity
    times ``dt``.
    """

    dt: float
    dq: np.ndarray            # (>= r, N)
    dh: np.ndarray            # (N, r, >=1)
    dhp: np.ndarray           # (N, r, >=2)
    dhpp: np.ndarray          # (N, r, >=2)
    dmu0: float
    du: np.ndarray


def lift_tangent(pt: ExtendedJetPoint) -> ExtendedTangent:
    """The tangent of the extended lift: every contact pairing vanishes."""
    n, N = pt.jet.n, pt.jet.dim
    r = pt.h.shape[1]
    dq = np.zeros((n + 1, N))
    dq[:n] = pt.jet.blocks[1:]
    dh = pt.h[..., 1:4].copy()
    dhp = pt.hp[..., 1:4].copy()
    dhpp = pt.hpp[..., 1:4].copy()
    return ExtendedTangent(dt=1.0, dq=dq, dh=dh, dhp=dhp, dhpp=dhpp,
                           dmu0=pt.mu_rate, du=np.zeros(pt.ujet.shape[1]))


def pc_form_pairing(triple: DefiningTriple, pt: ExtendedJetPoint,
                    tangent: ExtendedTangent) -> float:
    """Evaluate the controlled Poincare-Cartan form on a tangent vector.

    The form is L-hat dt, plus the momentum sums of L + dC/dt paired with
    the base contact forms, plus the auxiliary contact terms
    h_(1) w_(0) - h'_(2) w'_(1) - h''_(2) w''_(1) + h'_(3) w'_(0)
    + h''_(3) w''_(0), plus the mu contact form.
    """
    L = triple.lagrangian
    r = L.actual_order
    N = L.state_dim
    jet = pt.jet
    if jet.n < 2 * r:
        raise InsufficientJetOrder(f"extended jet order must be >= {2 * r}")

    u = pt.ujet[0]
    ltil = L.value(jet, u) + float(h_quadratic_terms(pt.h, pt.hp, pt.hpp, triple.horizon))
    dcdt = triple.cost.rate_field().value(jet, np.zeros(1))
    lhat = pt.mu_rate + ltil + dcdt

    out = lhat * tangent.dt

    # base contact pairings with the momentum sums of L + dC/dt
    M = full_momenta(triple, jet, pt.ujet)
    for i in range(N):
        for b in range(r):
            w = tangent.dq[b, i] - jet.coord(i, b + 1) * tangent.dt
            out += M[i, b] * w

    # auxiliary contact pairings
    for i in range(N):
        for b in range(r):
            w_h0 = tangent.dh[i, b, 0] - pt.h[i, b, 1] * tangent.dt
            w_p1 = tangent.dhp[i, b, 1] - pt.hp[i, b, 2] * tangent.dt
            w_s1 = tangent.dhpp[i, b, 1] - pt.hpp[i, b, 2] * tangent.dt
            w_p0 = tangent.dhp[i, b, 0] - pt.hp[i, b, 1] * tangent.dt
            w_s0 = tangent.dhpp[i, b, 0] - pt.hpp[i, b, 1] * tangent.dt
            out += (
                pt.h[i, b, 1] * w_h0
                - pt.hp[i, b, 2] * w_p1 - pt.hpp[i, b, 2] * w_s1
                + pt.hp[i, b, 3] * w_p0 + pt.hpp[i, b, 3] * w_s0
            )

    # mu contact pairing
    out += tangent.dmu0 - pt.mu_rate * tangent.dt
    return float(out)


def pc_lift_integral(ext: ExtendedCurve, n_nodes: int = 401) -> float:
    """Integral of the Poincare-Cartan form along the extended lift.

    Along an extended controlled curve this equals the terminal cost.
    Composite Simpson over a uniform grid refined by the control breakpoints.
    """
    from scipy.integrate import simpson

    T = ext.base.horizon
    ts = np.linspace(0.0, T, n_nodes if n_nodes % 2 == 1 else n_nodes + 1)
    vals = np.empty(ts.size)
    for k, t in enumerate(ts):
        pt = ext.ext_point(t)
        vals[k] = pc_form_pairing(ext.triple, pt, lift_tangent(pt))
    return float(simpson(vals, x=ts))
