"""Digest of ``hopmp``'s output on every builtin problem, for same-behaviour checks.

Usage::

    python3 tools/report_digest.py OUT [ID ...]

Runs ``hopmp`` with the default suites on each builtin problem named (all of
them when none is), writing into ``OUT/<id>/``, and prints one line per
problem::

    <id> exit=<code> report=<sha1> trajectory=<sha1>

``report`` hashes ``report.txt`` without its ``generated:`` timestamp line and
``trajectory`` hashes ``trajectory.csv`` (``missing`` when the run
stopped before writing it).  Run it on two checkouts and diff
the printed lines: equal lines mean byte-identical reports and trajectory
data.  It imports ``hopmp`` from the ``src/`` directory of the checkout it
lives in.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hopmp.cli import main  # noqa: E402
from hopmp.problems import BUILTIN_IDS  # noqa: E402


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def digest(out: Path, problem_id: str) -> str:
    run_dir = out / problem_id
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "config.ini"
    config.write_text(f"[problem]\nid = {problem_id}\n")
    code = main(["--config", str(config), "--out", str(run_dir), "--quiet"])
    report = (run_dir / "report.txt").read_text().splitlines(keepends=True)
    kept = "".join(line for line in report if not line.startswith("generated:"))
    csv = run_dir / "trajectory.csv"
    trajectory = _sha1(csv.read_bytes()) if csv.exists() else "missing"
    return f"{problem_id} exit={code} report={_sha1(kept.encode())} trajectory={trajectory}"


def run(argv: list[str]) -> int:
    unknown = [arg for arg in argv[1:] if arg not in BUILTIN_IDS]
    if not argv or unknown:
        sys.stderr.write(f"usage: report_digest.py OUT [ID ...], ID in {', '.join(BUILTIN_IDS)}\n")
        return 2
    out = Path(argv[0])
    for problem_id in argv[1:] or BUILTIN_IDS:
        print(digest(out, problem_id), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
