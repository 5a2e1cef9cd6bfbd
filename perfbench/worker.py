"""One benchmark process for one workload; started by ``run.py``.

Modes (each prints one JSON object as its last line of standard output):

``setup``    time to import hopmp, build the workload's problem and integrate
             its reference curve, from the first line of this process;
``measure``  untraced repetitions of the workload body for ``--seconds``,
             with the process's peak resident memory;
``trace``    untraced repetitions for half of ``--seconds``, then one traced
             repetition of the same inputs; writes its spans and reports the
             per-layer metrics.  The first untraced repetition warms the
             process and is left out of the tracing overhead.
"""

import time

STARTED = time.perf_counter()   # set-up time counts from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _workload(name: str, seed: int):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, OUT)


def repeat(workload, seconds: float, min_reps: int) -> tuple[list, list]:
    """Run the body until another repetition would end after ``seconds``
    (at least ``min_reps`` times); returns wall times and all checks."""
    walls, checks = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        checks += workload.run()
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if len(walls) >= min_reps and (t1 - begin) + max(walls) > seconds:
            return walls, checks


def _checks_json(checks) -> list:
    return [[c.name, bool(c.ok), c.ratio] for c in checks]


def mode_setup(args) -> dict:
    workload = _workload(args.workload, args.seed)
    workload.setup()
    return {"setup_s": time.perf_counter() - STARTED}


def mode_measure(args) -> dict:
    workload = _workload(args.workload, args.seed)
    walls, checks = repeat(workload, args.seconds, min_reps=2)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": walls, "peak_rss_mb": peak_kib / 1024.0,
            "checks": _checks_json(checks)}


def mode_trace(args) -> dict:
    from layers import install, layer_metrics
    from spans import Patches, Tracer

    workload = _workload(args.workload, args.seed)
    walls, checks = repeat(workload, args.seconds / 2.0, min_reps=2)
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{time.time_ns()}")
    with Patches() as patches:
        install(patches, tracer)
        t0 = time.perf_counter()
        checks += workload.run()
        traced = time.perf_counter() - t0
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced - statistics.median(walls[1:])
    path = tracer.save(OUT / f"{args.workload}.spans.npz")
    print(f"{len(tracer)} spans of run {tracer.run_id} written to {path}", file=sys.stderr)
    return {"metrics": metrics, "untraced_wall_s": walls, "traced_wall_s": traced,
            "checks": _checks_json(checks)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    result = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
