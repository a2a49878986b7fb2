"""Command-line interface: subcommands, exit codes, file outputs."""
import json
import os
import subprocess
import sys

import pytest

from funneltrack.cli import main
from funneltrack.errors import ConfigError, DomainError, FunnelViolation, IntegrationError
from funneltrack.funnel import FunnelSpec
from funneltrack.model import PlantState
from funneltrack.reference import TransitionRef
from funneltrack.sim import ScenarioConfig


@pytest.fixture
def short_config(tmp_path):
    cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.0)
    path = tmp_path / "scenario.json"
    cfg.write_json(path)
    return path


def test_simulate_writes_csv(tmp_path, short_config, capsys):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(short_config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,alpha,beta")
    assert len(lines) == 1002
    summary = json.loads(capsys.readouterr().out)
    assert summary["funnel_invariant"] is True


def test_simulate_mode_override(tmp_path, short_config):
    out = tmp_path / "hg.csv"
    assert main(["simulate", "--config", str(short_config), "--mode", "hg",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].endswith("zeta1,zeta2,zeta3")


def test_simulate_t_end_override(tmp_path, short_config):
    out = tmp_path / "short.csv"
    assert main(["simulate", "--config", str(short_config), "--t-end", "0.5",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 501
    never = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(short_config), "--t-end", "nan",
                 "--out", str(never)]) == 1
    assert not never.exists()


def test_missing_config_is_exit_1(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_is_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", "--config", str(bad)]) == 1


def test_non_object_json_is_exit_1(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


# non-finite leaves: test_config_properties.py::test_non_finite_leaf_is_exit_1_before_any_run
@pytest.mark.parametrize("path, value", [
    ("t_end", "soon"),
    ("integrator.min_step", 0.0),
    ("integrator.min_step", 0.1),  # not below max_step
    # pytest names a list value by its position in this list, which moves
    # whenever a case above it is added or removed; pin the ids instead
    pytest.param("funnels", [{"a": 1.5, "b": 0.8, "eps": 0.001}] * 2, id="funnels-value14"),
    pytest.param("observer_gains", [1e2, 1e5], id="observer_gains-value15"),
    ("params.s", 1.0),  # the tracking offset is no longer a field
    # a number field takes a finite int or float at every depth, never a
    # string, null or bool
    ("ref.yf", "0.5"),
    ("x0.alpha", "0.1"),
    ("disturbance.amp1", None),
    ("t_end", True),
])
def test_invalid_field_is_exit_1(tmp_path, path, value):
    data = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.0).to_dict()
    *parents, leaf = path.split(".")
    node = data
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    cfg = tmp_path / "invalid.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_usage_error_is_exit_1():
    assert main(["simulate"]) == 1  # --config missing


def test_funnel_violation_is_exit_2(tmp_path):
    # phi(0) = 500 puts the initial error outside funnel 0; test_sim covers
    # a violation in the middle of a run
    cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.7853981633974483, 0.0, 3.0),
                         funnels=(FunnelSpec(0.001, 0.8, 0.001),) * 3)
    path = tmp_path / "violating.json"
    cfg.write_json(path)
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_domain_exit_is_exit_3(tmp_path):
    cfg = ScenarioConfig(x0=PlantState(beta=1.0))
    path = tmp_path / "outside.json"
    cfg.write_json(path)
    assert main(["simulate", "--config", str(path)]) == 3


def test_integrator_failure_is_exit_4(tmp_path, short_config, monkeypatch):
    from funneltrack import cli

    def boom(cfg):
        raise IntegrationError("step size underflow", t=0.1)

    monkeypatch.setattr(cli, "integrate", boom)
    assert cli.main(["simulate", "--config", str(short_config)]) == 4


@pytest.mark.parametrize("exc, code, label", [
    (ConfigError("bad field"), 1, "config error"),
    (FunnelViolation("boundary", t=0.1, level=2), 2, "funnel violation"),
    (DomainError("outside", t=0.1), 3, "domain exit"),
    (IntegrationError("underflow", t=0.1), 4, "integrator failure"),
    (FileNotFoundError(2, "No such file or directory"), 1, "I/O error"),
])
def test_failure_exit_code_and_label(short_config, monkeypatch, capsys, exc, code, label):
    from funneltrack import cli

    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli, "integrate", fail)
    assert cli.main(["simulate", "--config", str(short_config)]) == code
    assert capsys.readouterr().err == f"{label}: {exc}\n"


def test_unwritable_output_is_exit_1_without_traceback(tmp_path, short_config, capsys):
    out = tmp_path / "missing" / "a.csv"
    assert main(["simulate", "--config", str(short_config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_case_study_outputs(tmp_path, capsys):
    assert main(["case-study", "--out-dir", str(tmp_path)]) == 0
    for name in ("lin.csv", "hg.csv", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["lin"]["funnel_invariant"] is True
    assert summary["hg"]["funnel_invariant"] is True
    assert summary["lin"]["max_abs_beta"] < 0.8411


def test_sweep_command(tmp_path, short_config):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(short_config),
                 "--vary", "disturbance.amp1=0:0.2:3", "--out", str(out),
                 "--serial"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert rows[-1]["value"] == 0.2


def test_sweep_bad_spec_is_exit_1(short_config):
    assert main(["sweep", "--config", str(short_config), "--vary", "oops"]) == 1


@pytest.mark.parametrize("vary", ["funnels.3.a=0:1:2", "funnels.x.a=0:1:2",
                                  "params.bogus=0:1:2", "t_end=1:-1:3",
                                  "disturbance.amp1=0:1:0"])
def test_sweep_invalid_point_is_exit_1_before_any_run(tmp_path, short_config,
                                                      monkeypatch, vary):
    from funneltrack import sim

    calls = []
    monkeypatch.setattr(sim, "integrate", calls.append)
    out = tmp_path / "never.json"
    assert main(["sweep", "--config", str(short_config), "--vary", vary,
                 "--out", str(out), "--serial"]) == 1
    assert calls == [] and not out.exists()


def _passing():
    return True, "fine"


def _failing():
    return False, "off by one"


def _raising():
    raise ZeroDivisionError("boom")


@pytest.mark.parametrize("stubs, code, line", [
    ((("a", _passing), ("b", _passing)), 0, "[PASS] b: fine"),
    ((("a", _passing), ("b", _failing)), 1, "[FAIL] b: off by one"),
    ((("a", _raising), ("b", _passing)), 1, "[FAIL] a: raised ZeroDivisionError: boom"),
], ids=["pass", "fail", "raise"])
def test_check_command_exit_code(monkeypatch, capsys, stubs, code, line):
    from funneltrack import checks

    monkeypatch.setattr(checks, "ALL_CHECKS", stubs)
    assert main(["check"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(stubs) and line in lines


def test_checks_load_lazily():
    code = "import sys, funneltrack.cli; sys.exit('funneltrack.checks' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_run_path_never_loads_scipy(tmp_path, short_config):
    # the package needs numpy only; scipy serves the tests alone
    args = ["simulate", "--config", str(short_config), "--t-end", "0.3",
            "--out", str(tmp_path / "run.csv")]
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError",
        "import funneltrack",
        "from funneltrack.cli import main",
        f"assert main({args!r}) == 0",
        "assert sys.modules['scipy'] is None, 'scipy was loaded'",
        "assert 'numpy.polynomial' not in sys.modules, 'simulate loaded numpy.polynomial'",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
