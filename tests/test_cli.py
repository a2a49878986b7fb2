"""Command-line interface: subcommands, exit codes, file outputs."""
import json
import math

import pytest

from funneltrack.cli import main
from funneltrack.funnel import FunnelSpec
from funneltrack.model import PlantState
from funneltrack.reference import TransitionRef
from funneltrack.sim import IntegratorConfig, ScenarioConfig


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


def test_missing_config_is_exit_1(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_is_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", "--config", str(bad)]) == 1


@pytest.mark.parametrize("path, value", [
    ("t_end", math.nan),
    ("t_end", math.inf),
    ("t_end", "soon"),
    ("funnels.0.a", math.nan),
    ("funnels.2.eps", math.inf),
    ("params.c", math.nan),
    ("x0.beta", math.nan),
    ("ref.yf", math.inf),
    ("disturbance.amp1", math.nan),
    ("observer_gains.1", math.inf),
    ("integrator.rel_tol", math.nan),
    ("integrator.min_step", 0.0),
    ("integrator.min_step", 0.1),  # not below max_step
    ("integrator.max_step", math.inf),
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
    cfg = ScenarioConfig(
        ref=TransitionRef(0.0, 0.7853981633974483, 0.0, 3.0),
        funnels=(FunnelSpec(1.5, 100.0, 1e-4), FunnelSpec(1.5, 0.8, 0.001),
                 FunnelSpec(60.0, 0.2, 0.001)),
        t_end=0.5,
        integrator=IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, min_step=1e-10))
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
    from funneltrack.errors import IntegrationError

    def boom(cfg):
        raise IntegrationError("step size underflow", t=0.1)

    monkeypatch.setattr(cli, "integrate", boom)
    assert cli.main(["simulate", "--config", str(short_config)]) == 4


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


def test_check_command_passes():
    assert main(["check"]) == 0
