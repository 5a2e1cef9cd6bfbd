"""In-memory span recording around hopmp's public functions and methods.

A :class:`Tracer` records one span per call of a wrapped boundary: its name,
start, end and the span that was open when it began (its parent).  Spans live
in flat typed arrays until :meth:`Tracer.save` writes them out, so a run of a
few million calls costs tens of megabytes, not a Python object per span.

:class:`Patches` installs wrappers by rebinding every name under which a
hopmp module holds the original object, so ``from .x import f`` bindings are
wrapped too, and restores the originals on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import uuid
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Span store for one workload run; every span shares ``run_id``."""

    def __init__(self, run_id: str | None = None) -> None:
        self.run_id = run_id or uuid.uuid4().hex
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.keys: dict[str, list] = {}
        self._serials: dict[int, int] = {}
        self._pinned: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def serial(self, obj) -> int:
        """A number per distinct object; objects are kept alive while the
        tracer lives, so an ``id`` is never reused for another object."""
        s = self._serials.get(id(obj))
        if s is None:
            s = self._serials[id(obj)] = len(self._pinned)
            self._pinned.append(obj)
        return s

    def wrap(self, name: str, fn, key=None, key_group: str | None = None):
        """``fn`` wrapped to record a span named ``name``.

        ``key(tracer, args, kwargs)``, when given, is appended to
        ``self.keys[key_group or name]`` on every call (for unique-call ratios).
        """
        nid = self._intern(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        bucket = self.keys.setdefault(key_group or name, []) if key else None

        def traced(*args, **kwargs):
            if bucket is not None:
                bucket.append(key(self, args, kwargs))
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def __len__(self) -> int:
        return len(self.start)

    def per_name(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}``; self time is a span's duration
        minus the durations of its direct children (spans nest, one thread)."""
        n = len(self.start)
        if n == 0:
            return {name: (0, 0.0) for name in self.names}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}

    def unique_ratio(self, group: str) -> float:
        """Distinct keys over calls for one key group; 0 when never called."""
        seen = self.keys.get(group, [])
        return len(set(seen)) / len(seen) if seen else 0.0

    def save(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
        return path


def resolve(boundary: str):
    """``"dynamics.Trajectory.jet"`` -> (``hopmp.dynamics.Trajectory``, ``"jet"``);
    the owner is the module itself for a module-level function."""
    module_name, *path = boundary.split(".")
    owner = importlib.import_module(f"hopmp.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Patches:
    """Reversible rebinding of hopmp functions and methods."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, name: str, wrapper) -> None:
        """Rebind every hopmp module global that holds ``module.name``."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hopmp" or mod_name.startswith("hopmp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def method(self, cls, name: str, wrapper) -> None:
        self._set(cls, name, wrapper)

    def boundary(self, boundary: str, make_wrapper) -> None:
        """Wrap one boundary named as in :func:`resolve`."""
        owner, attr = resolve(boundary)
        if inspect.isclass(owner):
            self.method(owner, attr, make_wrapper(owner.__dict__[attr]))
        else:
            self.function(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def subclasses(cls) -> list:
    """``cls`` and every subclass, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in subclasses(sub) if c not in out)
    return out
