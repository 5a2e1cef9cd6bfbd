"""The traced layer boundaries and the per-layer metrics derived from them.

Layers are hopmp's modules.  Each boundary is named ``<module>.<qualname>``
and reports ``<boundary>.calls`` and ``<boundary>.self_s``.  Control curves
are traced on every :class:`hopmp.controls.ControlCurve` subclass that
defines ``value`` or ``jet``, and are summed under ``controls.value`` and
``controls.jet``.  ``classical`` is not traced: no workload spends time in it.
"""

from __future__ import annotations

import inspect

from spans import Patches, Tracer, subclasses

BOUNDARIES = (
    "cli.main",
    "dynamics.integrate",
    "dynamics.NormalFormDynamics.rhs",
    "dynamics.Trajectory.jet",
    "dynamics.control_measure_diff",
    "dynamics.lipschitz_probe",
    "jetspace.finite_diff_partial",
    "problem.ControlledLagrangian.value",
    "problem.ControlledLagrangian.du",
    "problem.pontryagin_p",
    "auxiliary.solve_h",
    "homotopy.build_surface",
    "homotopy.VariationSurface.q_blocks",
    "homotopy.homotopy_rhs",
    "homotopy.minimal_labour_W",
    "needle.pmp_scan",
    "needle.gpmp_verdict",
    "needle.corrective_term",
    "needle.needle_variation",
    "needle.mu_prime_gap_closed",
)
CONTROL_METHODS = ("value", "jet")

JET_KEYS = "dynamics.Trajectory.jet"
INTEGRAND_KEYS = "homotopy.integrand"


def _binder(fn):
    """Call arguments of ``fn`` by parameter name, defaults filled in."""
    sig = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _key_makers() -> dict:
    """Boundary -> (key function, key group) for the unique-call ratios."""

    def jet_key(fn):
        arguments = _binder(fn)

        def key(tracer, args, kwargs):
            if len(args) == 3 and not kwargs:   # the common (self, t, order) call
                traj, t, order = args
            else:
                a = arguments(args, kwargs)
                traj, t, order = a["self"], a["t"], a["order"]
            return tracer.serial(traj), float(t), int(order)
        return key

    def integrand_key(fn):
        # the (surface, t_nodes, beta_range) that fixes _rhs_integrand's grid
        arguments = _binder(fn)

        def key(tracer, args, kwargs):
            a = arguments(args, kwargs)
            return tracer.serial(a["surface"]), int(a["t_nodes"]), str(a["beta_range"])
        return key

    return {
        "dynamics.Trajectory.jet": (jet_key, JET_KEYS),
        "homotopy.homotopy_rhs": (integrand_key, INTEGRAND_KEYS),
        "homotopy.minimal_labour_W": (integrand_key, INTEGRAND_KEYS),
    }


def install(patches: Patches, tracer: Tracer) -> None:
    """Wrap every boundary so that its calls record spans in ``tracer``."""
    import hopmp  # noqa: F401  (loads every module, so every binding is seen)
    from hopmp.controls import ControlCurve

    keyed = _key_makers()
    for boundary in BOUNDARIES:
        def make(fn, boundary=boundary):
            maker = keyed.get(boundary)
            if maker is None:
                return tracer.wrap(boundary, fn)
            key_fn, group = maker
            return tracer.wrap(boundary, fn, key=key_fn(fn), key_group=group)
        patches.boundary(boundary, make)
    for cls in subclasses(ControlCurve):
        for name in CONTROL_METHODS:
            if name in cls.__dict__:
                patches.method(cls, name, tracer.wrap(f"controls.{name}", cls.__dict__[name]))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-boundary calls and self time, the control totals and the
    unique-call ratios, all as plain numbers."""
    stats = tracer.per_name()
    out: dict[str, float] = {}
    for boundary in BOUNDARIES + tuple(f"controls.{m}" for m in CONTROL_METHODS):
        calls, busy = stats.get(boundary, (0, 0.0))
        out[f"{boundary}.calls"] = calls
        out[f"{boundary}.self_s"] = busy
    out["controls.self_s"] = sum(out[f"controls.{m}.self_s"] for m in CONTROL_METHODS)
    out[f"{JET_KEYS}.unique_ratio"] = tracer.unique_ratio(JET_KEYS)
    out[f"{INTEGRAND_KEYS}.unique_ratio"] = tracer.unique_ratio(INTEGRAND_KEYS)
    return out
