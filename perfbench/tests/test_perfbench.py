"""Self-test of the benchmark's wrappers, checks and metric names.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

The traced counts below are the ones the workloads imply on the code the
benchmark was defined against.  A count that drops means some caller reaches
a boundary through a binding the wrappers do not see (for instance a
``from x import y`` bound under another name); a count that changes because
the program changed is updated here together with that change.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from layers import install, layer_metrics  # noqa: E402
from spans import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, homotopy_checks  # noqa: E402

SEED = 1234

EXPECTED_CALLS = {
    "identity-third-order": {
        "homotopy.build_surface.calls": 1,
        "homotopy.homotopy_rhs.calls": 4,
        "homotopy.minimal_labour_W.calls": 1,
        "auxiliary.solve_h.calls": 65,
    },
    "probe-pendulum-r2": {
        # 200 pairs plus the reference curve cli.run integrates
        "dynamics.integrate.calls": 201,
        "dynamics.control_measure_diff.calls": 100,
    },
    "scan-full-pendulum": {
        "needle.gpmp_verdict.calls": 60,
    },
}

# Reported by run.py and worker.py around the layer metrics.
HARNESS_METRICS = {"trace.overhead_s", "checks.worst_ratio", "checks_failed"}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, out)
        tracer = Tracer()
        with Patches() as patches:
            install(patches, tracer)
            checks = workload.run()
        runs[name] = (layer_metrics(tracer), checks, tracer)
    return runs


@pytest.mark.parametrize("name", sorted(EXPECTED_CALLS))
def test_traced_counts(traced_runs, name):
    metrics, _, _ = traced_runs[name]
    for metric, expected in EXPECTED_CALLS[name].items():
        assert metrics[metric] == expected, metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_under_tracing(traced_runs, name):
    _, checks, _ = traced_runs[name]
    assert checks
    assert [c.name for c in checks if not c.ok] == []


def test_integrand_unique_ratio(traced_runs):
    metrics, _, _ = traced_runs["identity-third-order"]
    assert metrics["homotopy.integrand.unique_ratio"] == pytest.approx(3 / 5)


def test_self_time_partitions_the_traced_time(traced_runs):
    _, _, tracer = traced_runs["scan-full-pendulum"]
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    roots = np.frombuffer(tracer.parent, dtype=np.int32) < 0
    busy = sum(s for _, s in tracer.per_name().values())
    assert busy == pytest.approx(float(np.sum((end - start)[roots])), rel=1e-9)


def test_patches_restore_every_binding():
    import hopmp
    from hopmp import cli, controls, dynamics

    before = (cli.lipschitz_probe, hopmp.integrate, dynamics.Trajectory.__dict__["jet"],
              controls.BlendControl.__dict__["jet"])
    with Patches() as patches:
        install(patches, Tracer())
        assert cli.lipschitz_probe is not before[0]
        assert hopmp.integrate is not before[1]
    after = (cli.lipschitz_probe, hopmp.integrate, dynamics.Trajectory.__dict__["jet"],
             controls.BlendControl.__dict__["jet"])
    assert all(a is b for a, b in zip(before, after))


def test_metric_names_agree(traced_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    mapped = set(json.loads((BENCH / "metric_map.json").read_text())["per_layer"])
    metrics, _, _ = traced_runs["identity-third-order"]
    assert set(metrics) | HARNESS_METRICS == per_layer == mapped


def test_launcher_agrees_with_benchmark_json():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOADS) == set(WORKLOADS) == {w["name"] for w in declared["workloads"]}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {m["name"]: run.unit_of(m["name"]) for m in declared["per_layer"]}


def test_homotopy_check_lines():
    report = (
        "  [PASS] terminal-cost identity: gap=1e-06 tol=0.001\n"
        "  [PASS] vertical side at t=0 vanishes: max=5e-09\n"
        "  [FAIL] per-slice balance: residual=-0.001\n"
        "  [PASS] labour functional endpoint: W(1)=-0.5 C0-C1=-0.5001\n"
    )
    checks = homotopy_checks(report)
    assert [c.ok for c in checks] == [True, True, False, True, True]
    ratios = [c.ratio for c in checks[:4]]
    assert ratios == pytest.approx([1e-3, 0.5, 2.0, 0.05])
