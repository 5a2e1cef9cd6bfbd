"""Digest of ``hopmp``'s output on every builtin problem, for same-behaviour checks.

Usage::

    python3 tools/report_digest.py OUT [ID ...]
    python3 tools/report_digest.py --diff A B [ID ...]
    python3 tools/report_digest.py --checks A B [ID ...]

Runs ``hopmp`` with the default suites on each builtin problem named (all of
them when none is), writing into ``OUT/<id>/``, and prints one line per
problem::

    <id> exit=<code> report=<sha1> trajectory=<sha1>

``report`` hashes ``report.txt`` without its ``generated:`` timestamp line and
``trajectory`` hashes ``trajectory.csv`` (``missing`` when the run
stopped before writing it).  Run it on two checkouts and diff
the printed lines: equal lines mean byte-identical reports and trajectory
data.  It imports ``hopmp`` from the ``src/`` directory of the checkout it
lives in.  Standard error gets each run's wall time, ``<id> wall_s=<seconds>``,
so the digests on standard output stay comparable across runs.

``--diff A B`` runs nothing: it compares the reports that two earlier runs
wrote into the ``OUT`` directories ``A`` and ``B`` and prints, per problem,
the report lines that differ (a unified diff without context, ``generated:``
lines left out).  It exits 1 when some line differs.

``--checks A B`` runs nothing either: per problem it prints both exit codes
and, for every check label of either report, its status in ``A`` and in
``B`` and ``B``'s ratio (``-`` where the line has none), marking with
``!`` each label whose status differs.  It exits 1 when a status or an
exit code differs.
"""

from __future__ import annotations

import difflib
import hashlib
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hopmp.cli import main  # noqa: E402
from hopmp.problems import BUILTIN_IDS  # noqa: E402


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _report_lines(out: Path, problem_id: str) -> list[str]:
    path = out / problem_id / "report.txt"
    lines = path.read_text().splitlines(keepends=True) if path.exists() else []
    return [line for line in lines if not line.startswith("generated:")]


def digest(out: Path, problem_id: str) -> str:
    run_dir = out / problem_id
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "config.ini"
    config.write_text(f"[problem]\nid = {problem_id}\n")
    start = time.perf_counter()
    code = main(["--config", str(config), "--out", str(run_dir), "--quiet"])
    sys.stderr.write(f"{problem_id} wall_s={time.perf_counter() - start:.2f}\n")
    kept = "".join(_report_lines(out, problem_id))
    csv = run_dir / "trajectory.csv"
    trajectory = _sha1(csv.read_bytes()) if csv.exists() else "missing"
    return f"{problem_id} exit={code} report={_sha1(kept.encode())} trajectory={trajectory}"


def diff(a: Path, b: Path, problem_ids) -> int:
    moved = False
    for problem_id in problem_ids:
        lines = list(difflib.unified_diff(
            _report_lines(a, problem_id), _report_lines(b, problem_id),
            fromfile=str(a / problem_id / "report.txt"),
            tofile=str(b / problem_id / "report.txt"), n=0))
        sys.stdout.writelines(lines)
        moved = moved or bool(lines)
    return 1 if moved else 0


_CHECK = re.compile(r"^  \[(PASS|FAIL)\] ([^:\n]+)(.*)$")
_RATIO = re.compile(r" ratio=(\S+)")


def _statuses(out: Path, problem_id: str) -> tuple[str, dict]:
    """The exit code and {label: (status, ratio)} of one report."""
    code, checks = "missing", {}
    for line in _report_lines(out, problem_id):
        if line.startswith("exit code: "):
            code = line.split()[-1]
        m = _CHECK.match(line.rstrip("\n"))
        if m:
            ratio = _RATIO.search(m.group(3))
            checks[m.group(2)] = (m.group(1), ratio.group(1) if ratio else "-")
    return code, checks


def compare_checks(a: Path, b: Path, problem_ids) -> int:
    changed = False
    for problem_id in problem_ids:
        code_a, checks_a = _statuses(a, problem_id)
        code_b, checks_b = _statuses(b, problem_id)
        changed = changed or code_a != code_b
        print(f"{problem_id} exit={code_a} -> {code_b}{' !' if code_a != code_b else ''}")
        for label in dict.fromkeys([*checks_b, *checks_a]):
            status_a = checks_a.get(label, ("missing",))[0]
            status_b, ratio = checks_b.get(label, ("missing", "-"))
            changed = changed or status_a != status_b
            mark = "!" if status_a != status_b else " "
            print(f"  {mark} {status_a} -> {status_b} ratio={ratio} {label}")
    return 1 if changed else 0


def run(argv: list[str]) -> int:
    mode = argv[0] if argv[:1] in (["--diff"], ["--checks"]) else None
    if mode:
        argv = argv[1:]
    ids = argv[2:] if mode else argv[1:]
    unknown = [arg for arg in ids if arg not in BUILTIN_IDS]
    if len(argv) < (2 if mode else 1) or unknown:
        sys.stderr.write("usage: report_digest.py OUT [ID ...] | --diff A B [ID ...] | "
                         f"--checks A B [ID ...], ID in {', '.join(BUILTIN_IDS)}\n")
        return 2
    if mode:
        compare = diff if mode == "--diff" else compare_checks
        return compare(Path(argv[0]), Path(argv[1]), ids or BUILTIN_IDS)
    out = Path(argv[0])
    for problem_id in ids or BUILTIN_IDS:
        print(digest(out, problem_id), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
