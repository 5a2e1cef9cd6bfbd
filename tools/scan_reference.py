"""Verdicts of the benchmark's full-certification scan against a tight-tolerance reference.

Usage::

    python3 tools/scan_reference.py SEED [--save FILE] [--against FILE]

Builds the two curves that the ``scan-full-pendulum`` benchmark workload
scans, without importing ``perfbench/``: pendulum-r2 under the injected
control u = -1, and the closed-form optimum of pendulum-direct (T = pi/2,
v_max = 1, both integrated at rtol 1e-10).  The grid is the workload's: six
taus drawn from SEED, five omegas in [-1, 1], eps0 = k = 0.05 and
``certification="full"``.  Each curve is scanned at the default tolerance
(rtol 1e-8, atol 1e-10) and at the reference tolerance (rtol 1e-11, atol
1e-13), and one line per problem is printed::

    <problem> vs-reference points=<n> flips=<n> max_dgap=<x> max_dmargin=<y> max_margin_ratio=<z>

``flips`` counts the points whose ``satisfied`` or ``goodn_all`` differ,
``max_dgap`` is the largest difference of a width gap mu'(T,1) - mu'(T,0),
``max_dmargin`` that of a margin and ``max_margin_ratio`` the largest
margin difference as a share of the point's tolerance, the bound that a
margin must stay below to be ``satisfied``.

``--save FILE`` writes the default-tolerance verdicts as JSON.  ``--against
FILE`` compares them with a file that another checkout saved at the same
SEED and prints a ``vs-saved`` line per problem.  The script imports
``hopmp`` from the ``src/`` directory of the checkout it lives in.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hopmp import build, optimal_reference, pmp_scan  # noqa: E402
from hopmp.controls import ConstantControl  # noqa: E402

T = math.pi / 2
EPS0 = K = 0.05
DEFAULT_TOL = (1e-8, 1e-10)
REFERENCE_TOL = (1e-11, 1e-13)


def scan_grid(seed: int) -> tuple[np.ndarray, np.ndarray]:
    lo = EPS0 + K * EPS0 ** 2 + 1e-3
    hi = T - K * EPS0 ** 2 - 1e-3
    taus = np.sort(np.random.default_rng(seed).uniform(lo, hi, 6))
    return taus, np.linspace(-1.0, 1.0, 5).reshape(-1, 1)


def curves() -> dict:
    r2 = build("pendulum-r2", T=T, v_max=1.0)
    injected = r2.controlled_curve(ConstantControl([-1.0], T), r2.initial_data.make(v=1.0),
                                   tol=(1e-10, 1e-12))
    direct = build("pendulum-direct", T=T, v_max=1.0)
    u, sigma, _ = optimal_reference("pendulum-direct", T=T, v_max=1.0)
    return {"pendulum-r2": (r2, injected),
            "pendulum-direct": (direct, direct.controlled_curve(u, sigma, tol=(1e-10, 1e-12)))}


def verdicts(triple, gamma0, taus, omegas, tol) -> list[dict]:
    report = pmp_scan(triple, gamma0, taus, omegas, eps0=EPS0, k=K,
                      certification="full", tol=tol)
    return [{"tau": v.tau, "omega": v.omega.tolist(), "satisfied": v.satisfied,
             "goodn_all": v.goodn_all, "margin": v.margin, "tolerance": v.tolerance,
             "gaps": v.corrective.gaps.tolist()} for v in report.certificate]


def compare(a: list[dict], b: list[dict]) -> str:
    if [(v["tau"], v["omega"]) for v in a] != [(v["tau"], v["omega"]) for v in b]:
        raise SystemExit("the two scans cover different points")
    flips = sum((v["satisfied"], v["goodn_all"]) != (w["satisfied"], w["goodn_all"])
                for v, w in zip(a, b))
    dgap = max(float(np.max(np.abs(np.subtract(v["gaps"], w["gaps"])))) for v, w in zip(a, b))
    dmargins = [abs(v["margin"] - w["margin"]) for v, w in zip(a, b)]
    ratio = max(d / v["tolerance"] for d, v in zip(dmargins, a))
    return (f"points={len(a)} flips={flips} max_dgap={dgap:.3g} max_dmargin={max(dmargins):.3g}"
            f" max_margin_ratio={ratio:.3g}")


def run(argv: list[str]) -> int:
    options = dict(zip(argv[1::2], argv[2::2]))
    if not argv or not argv[0].isdigit() or len(argv) % 2 != 1 \
            or set(options) - {"--save", "--against"}:
        sys.stderr.write("usage: scan_reference.py SEED [--save FILE] [--against FILE]\n")
        return 2
    taus, omegas = scan_grid(int(argv[0]))
    saved = json.loads(Path(options["--against"]).read_text()) if "--against" in options else {}
    scans = {}
    for problem, (triple, gamma0) in curves().items():
        scans[problem] = verdicts(triple, gamma0, taus, omegas, DEFAULT_TOL)
        reference = verdicts(triple, gamma0, taus, omegas, REFERENCE_TOL)
        print(f"{problem} vs-reference {compare(scans[problem], reference)}", flush=True)
        if problem in saved:
            print(f"{problem} vs-saved {compare(scans[problem], saved[problem])}", flush=True)
    if "--save" in options:
        Path(options["--save"]).write_text(json.dumps(scans))
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
