"""Which ``src/hopmp`` functions only the tests reach.

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
"""

from __future__ import annotations

import ast
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


class Tracer:
    """Records the code object of every Python call while active."""

    def __init__(self) -> None:
        self.codes: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def keys(self) -> set:
        return {(c.co_filename, c.co_firstlineno) for c in self.codes}


def run_side(tmp: Path) -> set:
    from hopmp.cli import main
    from hopmp.problems import BUILTIN_IDS
    from workloads import WORKLOADS

    tracer = Tracer()
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
    return tracer.keys()


class TracePlugin:
    def __init__(self) -> None:
        self.tracer = Tracer()

    def pytest_configure(self, config):
        self.tracer.start()

    def pytest_unconfigure(self, config):
        self.tracer.stop()


def tier1_side(args: list) -> set:
    import pytest

    plugin = TracePlugin()
    code = pytest.main(args, plugins=[plugin])
    sys.stderr.write(f"pytest exit {int(code)}\n")
    return plugin.tracer.keys()


def main(argv: list) -> int:
    functions = src_functions()
    with tempfile.TemporaryDirectory() as tmp:
        ran = run_side(Path(tmp))
    tested = tier1_side(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])

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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
