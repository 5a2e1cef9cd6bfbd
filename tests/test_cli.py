import math
import re
import textwrap

import pytest

from hopmp import cli
from hopmp.cli import RunConfig, load_config, main, run
from hopmp.errors import ConfigError
from hopmp.problem import Check

PI = math.pi


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(body))
    return path


FAST_SUITES = "validate phi-probe"


def small_cfg(tmp_path, extra_problem="", suites=FAST_SUITES, seed=7):
    return write_config(tmp_path, f"""
        [problem]
        id = pendulum-r2
        T = {PI / 2}
        v_max = 1.0
        {extra_problem}
        [grids]
        t_nodes = 60
        s_nodes = 8
        tau_points = 4
        omega_points = 3
        eps0 = 0.05
        eps_count = 3
        lipschitz_pairs = 3
        [run]
        suites = {suites}
        seed = {seed}
        out = {tmp_path / 'out'}
    """)


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(small_cfg(tmp_path))
    assert cfg.problem_id == "pendulum-r2"
    assert cfg.t_nodes == 60
    assert cfg.suites == ("validate", "phi-probe")
    assert cfg.seed == 7


def test_unknown_suite_rejected(tmp_path):
    path = small_cfg(tmp_path, suites="validate nonsense")
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_all_pass_exit_zero(tmp_path):
    code = main(["--config", str(small_cfg(tmp_path)), "--quiet"])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "FAIL" not in report
    assert "exit code: 0" in report


def test_injected_bad_control_exit_one(tmp_path):
    path = small_cfg(tmp_path, extra_problem="u0 = -1.0",
                     suites="pmp-scan")
    code = main(["--config", str(path), "--quiet"])
    assert code == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "violations" in report


def test_order_inequality_config_error(tmp_path):
    path = small_cfg(tmp_path, extra_problem="jet_order = 2",
                     suites="validate")
    code = main(["--config", str(path), "--quiet"])
    assert code == 2


def test_bad_problem_params_exit_two(tmp_path):
    path = write_config(tmp_path, f"""
        [problem]
        id = pendulum-direct
        T = {PI}
        [run]
        suites = validate
        out = {tmp_path / 'out'}
    """)
    assert main(["--config", str(path), "--quiet"]) == 2


def test_odd_s_nodes_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, f"""
        [grids]
        s_nodes = 63
        [run]
        suites = homotopy
        out = {tmp_path / 'out'}
    """)
    with pytest.raises(ConfigError, match="Simpson"):
        load_config(path)
    assert main(["--config", str(path), "--quiet"]) == 2
    assert "Simpson" in capsys.readouterr().err


ALL_SUITES = " ".join(cli.SUITES)
CHECK_LINE = re.compile(r"  \[(PASS|FAIL)\] ([^:]+): achieved=(\S+) bound=(\S+)(?: ratio=(\S+))?")


def test_every_check_line_carries_achieved_bound_and_ratio(tmp_path):
    main(["--config", str(small_cfg(tmp_path, suites=ALL_SUITES)), "--quiet"])
    report = (tmp_path / "out" / "report.txt").read_text()
    checks = [ln for ln in report.splitlines() if ln.startswith("  [")]
    assert len(checks) >= 20
    for ln in checks:
        m = CHECK_LINE.fullmatch(ln)
        assert m, ln
        status, _, a, b, r = m.groups()
        a, b = float(a), float(b)
        assert (status == "PASS") == (a <= b), ln
        assert (r is None) == (b == 0), ln
        if b > 0:
            assert float(r) == a / b, ln


@pytest.mark.parametrize("suite, code", [("phi-probe", 1), ("validate", 2)])
def test_exit_code_comes_from_the_records(tmp_path, monkeypatch, suite, code):
    def one_failed(cfg, triple, gamma0):
        return ["an info line", Check("passes", 1.0, 2.0), Check("fails", 3.0, 2.0)]

    monkeypatch.setitem(cli._SUITE_FUNCS, suite, one_failed)
    assert main(["--config", str(small_cfg(tmp_path, suites=suite)), "--quiet"]) == code
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert "  [FAIL] fails: achieved=3.0 bound=2.0 ratio=1.5" in lines
    assert "  [PASS] passes: achieved=1.0 bound=2.0 ratio=0.5" in lines


def test_internal_error_exit_three(tmp_path, monkeypatch):
    def broken(cfg, triple, gamma0):
        raise ZeroDivisionError("float division\nby zero")

    monkeypatch.setitem(cli._SUITE_FUNCS, "validate", broken)
    code = main(["--config", str(small_cfg(tmp_path, suites="validate")), "--quiet"])
    assert code == 3
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert "INTERNAL ERROR: ZeroDivisionError: float division by zero" in lines
    assert lines[-1] == "exit code: 3"


def test_report_determinism(tmp_path):
    path = small_cfg(tmp_path, suites="validate lipschitz")
    main(["--config", str(path), "--quiet", "--out", str(tmp_path / "a")])
    main(["--config", str(path), "--quiet", "--out", str(tmp_path / "b")])

    def stripped(p):
        return [ln for ln in (p / "report.txt").read_text().splitlines()
                if not ln.startswith("generated:")
                and not ln.startswith("  out")]

    assert stripped(tmp_path / "a") == stripped(tmp_path / "b")


def test_trajectory_csv_layout(tmp_path):
    path = small_cfg(tmp_path, suites="validate")
    main(["--config", str(path), "--quiet"])
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header == ["t", "x", "x_d1", "p", "p_d1", "u1"]
    assert len(csv) == 1 + 61
    row = [float(v) for v in csv[-1].split(",")]
    assert row[0] == pytest.approx(PI / 2)
    # optimal reference: x(T) = 2, u = 1
    assert row[1] == pytest.approx(2.0, abs=1e-6)
    assert row[-1] == 1.0


def test_csv_values_roundtrip(tmp_path):
    path = small_cfg(tmp_path, suites="validate")
    main(["--config", str(path), "--quiet"])
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    for token in csv[1].split(","):
        float(token)   # shortest round-trip repr parses back


def test_mu_grid_dump(tmp_path):
    path = write_config(tmp_path, f"""
        [problem]
        id = pendulum-r2
        T = {PI / 2}
        [grids]
        t_nodes = 40
        s_nodes = 8
        [run]
        suites = homotopy
        out = {tmp_path / 'out'}
        mu_grid_dump = true
    """)
    code = main(["--config", str(path), "--quiet"])
    assert code == 0
    dump = (tmp_path / "out" / "mu_prime_grid.csv").read_text().splitlines()
    assert dump[0] == "t,s,mu_prime"
    assert len(dump) == 1 + 41 * 9


def test_default_config_runconfig():
    cfg = RunConfig()
    assert cfg.problem_id == "pendulum-r2"
    assert set(cfg.suites) == {"validate", "homotopy", "needle", "pmp-scan",
                               "classical-cross", "lipschitz", "phi-probe"}
