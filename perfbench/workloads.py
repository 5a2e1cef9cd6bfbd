"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs a body that ends in a
verdict, and checks every output of that body.  ``setup`` does what a fresh
process must do before a verdict: import hopmp, build the problem and
integrate its reference curve.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Patches


@dataclass
class Check:
    name: str
    ok: bool
    ratio: float | None = None   # achieved / bound, for checks with a tolerance


def _reference_curve(problem_id: str, **params):
    from hopmp import build, optimal_reference

    triple = build(problem_id, **params)
    u, sigma, _ = optimal_reference(problem_id, **params)
    return triple, triple.controlled_curve(u, sigma, tol=(1e-8, 1e-10))


# -- identity-third-order ------------------------------------------------------

_CHECK_LINE = re.compile(r"^\s*\[(PASS|FAIL)\] ([^:\n]+)(?:: (.*))?$", re.M)

# Bounds the homotopy suite applies to the lines that do not print theirs.
_VERTICAL_BOUND = 1e-8
_BALANCE_BOUND = 5e-4


def _field(detail: str, key: str) -> float | None:
    m = re.search(rf"(?:^|\s){re.escape(key)}=(\S+)", detail)
    return float(m.group(1)) if m else None


def _ratio(label: str, detail: str, identity_tol: float | None) -> float | None:
    """achieved/bound of one homotopy check line; None when the line does not
    carry the numbers."""
    v = {key: _field(detail, key)
         for key in ("ratio", "gap", "tol", "max", "residual", "W(1)", "C0-C1")}
    if v["ratio"] is not None:
        return v["ratio"]
    if label == "terminal-cost identity" and v["gap"] is not None and v["tol"]:
        return v["gap"] / v["tol"]
    if label == "vertical side at t=0 vanishes" and v["max"] is not None:
        return v["max"] / _VERTICAL_BOUND
    if label == "per-slice balance" and v["residual"] is not None:
        return abs(v["residual"]) / _BALANCE_BOUND
    if label == "labour functional endpoint" and identity_tol \
            and v["W(1)"] is not None and v["C0-C1"] is not None:
        return abs(v["W(1)"] - v["C0-C1"]) / (2.0 * identity_tol)
    return None


def homotopy_checks(report: str) -> list[Check]:
    """One check per ``[PASS]``/``[FAIL]`` line of a homotopy report, plus
    one that the identity line is present."""
    checks = []
    identity_tol = None
    for status, label, detail in _CHECK_LINE.findall(report):
        label = label.strip()
        if label == "terminal-cost identity":
            identity_tol = _field(detail, "tol")
        checks.append(Check(f"homotopy: {label}", status == "PASS",
                            _ratio(label, detail, identity_tol)))
    present = any(c.name == "homotopy: terminal-cost identity" for c in checks)
    checks.append(Check("homotopy: identity check reported", present))
    return checks


class IdentityThirdOrder:
    """``hopmp --suite homotopy`` on third-order (T = 1), default 400x64 grids.

    The identity is a deterministic quadrature: the seed reaches the CLI but
    changes no input of this suite."""

    name = "identity-third-order"

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        config = self.out / "run.ini"
        config.write_text("[problem]\nid = third-order\nT = 1.0\n")
        self.argv = ["--config", str(config), "--suite", "homotopy",
                     "--out", str(self.out), "--seed", str(seed), "--quiet"]

    def setup(self) -> None:
        _reference_curve("third-order", T=1.0)

    def run(self) -> list[Check]:
        from hopmp import cli

        report_path = self.out / "report.txt"
        report_path.unlink(missing_ok=True)
        code = cli.main(self.argv)
        report = report_path.read_text()
        return [Check("exit code 0", code == 0)] + homotopy_checks(report)


# -- probe-pendulum-r2 ---------------------------------------------------------


class ProbePendulumR2:
    """``hopmp --suite lipschitz`` on pendulum-r2: 100 random pairs drawn
    from the seed."""

    name = "probe-pendulum-r2"
    pairs = 100

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out / self.name
        self.argv = ["--suite", "lipschitz", "--seed", str(seed),
                     "--out", str(self.out), "--quiet"]
        self._previous = None

    def setup(self) -> None:
        _reference_curve("pendulum-r2", T=math.pi / 2, v_max=1.0)

    def run(self) -> list[Check]:
        from hopmp import cli, dynamics

        reports = []
        probe = dynamics.lipschitz_probe

        def recording(*args, **kwargs):
            reports.append(probe(*args, **kwargs))
            return reports[-1]

        with Patches() as patches:
            patches.function(dynamics, "lipschitz_probe", recording)
            code = cli.main(self.argv)
        checks = [Check("exit code 0", code == 0),
                  Check("one probe per run", len(reports) == 1)]
        if len(reports) != 1:
            return checks
        rep = reports[0]
        checks += [
            Check("max_ratio is finite", bool(np.isfinite(rep.max_ratio))),
            Check("ratios.size + n_skipped == pairs",
                  rep.ratios.size + rep.n_skipped == self.pairs),
        ]
        if self._previous is not None:
            same = (np.array_equal(rep.ratios, self._previous.ratios)
                    and rep.n_skipped == self._previous.n_skipped)
            checks.append(Check("same seed, equal ratios", same))
        self._previous = rep
        return checks


# -- scan-full-pendulum --------------------------------------------------------


class ScanFullPendulum:
    """``pmp_scan(certification="full")`` on a 6-tau x 5-omega grid, twice:
    pendulum-r2 under the injected control u = -1 (refuted at every tau with
    worst margin 2 sin(T - tau)) and the closed-form optimum of
    pendulum-direct (no violation).  The seed draws the tau grid."""

    name = "scan-full-pendulum"
    T = math.pi / 2
    eps0 = k = 0.05
    margin_tol = 1e-6

    def __init__(self, seed: int, out: Path) -> None:
        lo = self.eps0 + self.k * self.eps0 ** 2 + 1e-3
        hi = self.T - self.k * self.eps0 ** 2 - 1e-3
        self.taus = np.sort(np.random.default_rng(seed).uniform(lo, hi, 6))
        self.omegas = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)

    def _curves(self):
        from hopmp import build, optimal_reference
        from hopmp.controls import ConstantControl

        r2 = build("pendulum-r2", T=self.T, v_max=1.0)
        injected = r2.controlled_curve(ConstantControl([-1.0], self.T),
                                       r2.initial_data.make(v=1.0), tol=(1e-10, 1e-12))
        direct = build("pendulum-direct", T=self.T, v_max=1.0)
        u, sigma, _ = optimal_reference("pendulum-direct", T=self.T, v_max=1.0)
        optimum = direct.controlled_curve(u, sigma, tol=(1e-10, 1e-12))
        return (r2, injected), (direct, optimum)

    def setup(self) -> None:
        self._curves()

    def run(self) -> list[Check]:
        from hopmp import pmp_scan

        (r2, injected), (direct, optimum) = self._curves()
        grid = dict(eps0=self.eps0, k=self.k, certification="full")
        refuted = pmp_scan(r2, injected, self.taus, self.omegas, **grid)
        clean = pmp_scan(direct, optimum, self.taus, self.omegas, **grid)

        worst: dict[float, float] = {}
        for v in refuted.violations:
            worst[v.tau] = max(worst.get(v.tau, -math.inf), v.margin)
        checks = []
        for tau in map(float, self.taus):
            name = f"u=-1 refuted at tau={tau!r} with margin 2 sin(T - tau)"
            if tau not in worst:
                checks.append(Check(name, False))
                continue
            err = abs(worst[tau] - 2.0 * math.sin(self.T - tau))
            checks.append(Check(name, err <= self.margin_tol, err / self.margin_tol))
        points = self.taus.size * self.omegas.shape[0]
        full = len(refuted.certificate) == len(clean.certificate) == points
        checks.append(Check("full verdict at every point", full))
        top = max((v.margin / v.tolerance for v in clean.certificate), default=0.0)
        checks.append(Check("pendulum-direct optimum: 0 violations", clean.empty,
                            max(top, 0.0)))
        return checks


WORKLOADS = {w.name: w for w in (IdentityThirdOrder, ProbePendulumR2, ScanFullPendulum)}
