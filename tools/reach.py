"""Which ``src/hopmp`` functions, and which of their options, only the tests reach.

Usage::

    python3 tools/reach.py [PYTEST_ARGS ...]

Traces function entry with ``sys.setprofile`` over two sides.  The run side
is the five default ``hopmp`` runs (one per builtin problem, all suites) and
the bodies of the three benchmark workloads in ``perfbench/workloads.py``
(imported, set up and run once each).  The test side is Tier-1, run by
``pytest`` in this process with a plugin that traces from configuration to
the end of the session (``PYTEST_ARGS`` default to ``-q -p no:cacheprovider
tests``).

Prints each function defined in ``src/hopmp`` that the test side enters and
the run side does not, as ``module:first-last qualified.name`` with its line
span, then the total count and lines.  A function nested in one already
listed is not counted again.  Functions neither side enters are listed
apart.  A code object's ``co_firstlineno`` is its first decorator's line, so
a function is keyed by that line.  Outputs go to a temporary directory.
Tier-1 runs several times slower under the profiler.

It then prints the options: every parameter with a default, of a module-level
function or a method in ``src/hopmp`` that either side enters, that no call
on a side binds to another value, as ``module:line qualified.name(param=default)``.
The same hook reads each call's arguments from its frame; a value is the
default when it is the same object, or an equal number, string, tuple or
None.  Two lists: "no call varies" (neither side) and "only Tier-1 varies".
Nested functions and lambdas are left out (their defaults bind loop
variables), and so are the ``__init__`` methods that dataclasses generate.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import numbers
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopmp"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def src_functions() -> dict:
    """(file, first line) -> (qualified name, last line) of every def in src/hopmp."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        out[(str(path), first)] = (name, child.end_lineno)
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), f"{path.stem}:")
    return out


def src_defaults() -> dict:
    """code object -> ((parameter, default), ...) of every module-level
    function and method in src/hopmp with a parameter that has a default."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("hopmp" if path.stem == "__init__" else f"hopmp.{path.stem}")
        for obj in vars(module).values():
            for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                fn = getattr(fn, "__func__", getattr(fn, "fget", fn))
                code = getattr(fn, "__code__", None)
                if code is None or Path(code.co_filename).parent != SRC:
                    continue
                params = tuple((p.name, p.default)
                               for p in inspect.signature(fn).parameters.values()
                               if p.default is not p.empty)
                if params:
                    out[code] = params
    return out


_PLAIN = (numbers.Number, str, tuple, type(None))


def is_default(value, default) -> bool:
    """The same object, or an equal number, string, tuple or None."""
    if value is default:
        return True
    if not (isinstance(value, _PLAIN) and isinstance(default, _PLAIN)):
        return False
    try:
        return bool(value == default)
    except (TypeError, ValueError):   # a tuple holding arrays
        return False


class Tracer:
    """Records the code object of every Python call while active, and each
    (code object, parameter) of ``defaults`` that a call binds to another
    value than its default."""

    def __init__(self, defaults: dict) -> None:
        self.codes: set = set()
        self.defaults = defaults
        self.varied: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.codes.add(code)
            params = self.defaults.get(code)
            if params:
                args = frame.f_locals
                self.varied.update((code, name) for name, default in params
                                   if not is_default(args[name], default))

    def start(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def keys(self) -> set:
        return {(c.co_filename, c.co_firstlineno) for c in self.codes}


def run_side(tmp: Path, defaults: dict) -> Tracer:
    from hopmp.cli import main
    from hopmp.problems import BUILTIN_IDS
    from workloads import WORKLOADS

    tracer = Tracer(defaults)
    tracer.start()
    try:
        for problem_id in BUILTIN_IDS:
            out = tmp / "runs" / problem_id
            out.mkdir(parents=True)
            config = out / "config.ini"
            config.write_text(f"[problem]\nid = {problem_id}\n")
            code = main(["--config", str(config), "--out", str(out), "--quiet"])
            sys.stderr.write(f"run {problem_id}: exit {code}\n")
        for name, workload in WORKLOADS.items():
            body = workload(seed=1, out=tmp / "perfbench")
            body.setup()
            failed = [c.name for c in body.run() if not c.ok]
            sys.stderr.write(f"workload {name}: {len(failed)} failed checks {failed}\n")
    finally:
        tracer.stop()
    return tracer


class TracePlugin:
    def __init__(self, defaults: dict) -> None:
        self.tracer = Tracer(defaults)

    def pytest_configure(self, config):
        self.tracer.start()

    def pytest_unconfigure(self, config):
        self.tracer.stop()


def tier1_side(args: list, defaults: dict) -> Tracer:
    import pytest

    plugin = TracePlugin(defaults)
    code = pytest.main(args, plugins=[plugin])
    sys.stderr.write(f"pytest exit {int(code)}\n")
    return plugin.tracer


def main(argv: list) -> int:
    functions, defaults = src_functions(), src_defaults()
    with tempfile.TemporaryDirectory() as tmp:
        run = run_side(Path(tmp), defaults)
    test = tier1_side(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], defaults)
    ran, tested = run.keys(), test.keys()

    def report(title: str, keys: list) -> None:
        spans = sorted((Path(f).stem, first, functions[(f, first)]) for f, first in keys)
        shown, lines = [], 0
        for module, first, (name, last) in spans:
            if any(m == module and a < first <= b for m, a, b in shown):
                continue   # nested in a function already listed
            shown.append((module, first, last))
            lines += last - first + 1
            print(f"{module}:{first}-{last} {name}")
        print(f"{title}: {len(shown)} functions, {lines} lines\n")

    report("only Tier-1", [k for k in functions if k in tested and k not in ran])
    report("neither side", [k for k in functions if k not in tested and k not in ran])

    def knobs(title: str, keys: list) -> None:
        rows = sorted((Path(c.co_filename).stem, c.co_firstlineno,
                       functions[(c.co_filename, c.co_firstlineno)][0], name, default)
                      for c, name, default in keys)
        for module, first, qualname, name, default in rows:
            print(f"{module}:{first} {qualname.split(':', 1)[1]}({name}={default!r})")
        print(f"{title}: {len(rows)} parameters\n")

    entered = run.codes | test.codes
    params = [(c, name, default) for c in defaults if c in entered for name, default in defaults[c]]
    knobs("no call varies", [k for k in params if k[:2] not in run.varied | test.varied])
    knobs("only Tier-1 varies", [k for k in params
                                 if k[:2] in test.varied and k[:2] not in run.varied])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
