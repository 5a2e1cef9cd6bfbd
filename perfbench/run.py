"""hopmp benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The launcher pins BLAS and OpenMP to one
thread, points ``PYTHONPATH`` at the checkout's ``src``, and starts each
measuring process itself (see ``worker.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity-third-order", "probe-pendulum-r2", "scan-full-pendulum")
SETUP_BEFORE, SETUP_AFTER = 8, 7   # set-up processes around the measuring one
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def worker(mode: str, workload: str, seed: int, seconds: float = 0.0) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_counts(checks: list) -> tuple[int, int]:
    failed = [name for name, ok, _ in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return len(checks), len(failed)


def untraced(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    setups = [worker("setup", workload, seed)["setup_s"] for _ in range(SETUP_BEFORE)]
    res = worker("measure", workload, seed, seconds)
    setups += [worker("setup", workload, seed)["setup_s"] for _ in range(SETUP_AFTER)]
    print(f"wall_s per repetition: {res['wall_s']}", file=sys.stderr)
    return res["checks"], {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(res["wall_s"]), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


def traced(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    res = worker("trace", workload, seed, seconds)
    checks = res["checks"]
    values = dict(res["metrics"])
    values["checks.worst_ratio"] = max((r for _, _, r in checks if r is not None), default=0.0)
    values["checks_failed"] = sum(not ok for _, ok, _ in checks) / len(checks)
    moves = json.loads((HERE / "metric_map.json").read_text())["per_layer"]
    for name, value in values.items():
        m = moves[name]
        target = f"moves {m['moves']} on {', '.join(m['workloads'])}" if m["moves"] else "diagnostic"
        print(f"{name:45s} {value:<14.6g} {unit_of(name):6s} {target}", file=sys.stderr)
    return checks, {name: metric(value, unit_of(name)) for name, value in values.items()}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "checks_failed":
        return "share"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hopmp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    if not (ROOT / "src" / "hopmp" / "__init__.py").is_file():
        print(f"no hopmp sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        run = traced if args.trace else untraced
        checks, metrics = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = check_counts(checks)
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
