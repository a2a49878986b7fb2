"""Command-line interface: subcommands, exit codes, file outputs."""
import dataclasses
import hashlib
import json
import warnings
from unittest import mock

import pytest

from conftest import run_python
from funneltrack.cli import main
from funneltrack.errors import ConfigError, DomainError, FunnelViolation, IntegrationError
from funneltrack.funnel import FunnelSpec
from funneltrack.model import PlantState
from funneltrack.reference import TransitionRef
from funneltrack.sim import ScenarioConfig, case_study_config
from test_config_properties import with_leaf


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


def test_simulate_unknown_mode_is_exit_1(tmp_path, short_config, capsys):
    # ScenarioConfig, not the parser, says which modes exist
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(short_config), "--mode", "fancy",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: mode must be 'lin' or 'hg', got 'fancy'\n"
    assert not out.exists()


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


def test_missing_config_is_exit_1_across_a_process_boundary(tmp_path):
    # the console script is sys.exit(main()), as cli.py's __main__ block is
    out = tmp_path / "never.csv"
    run = run_python("-m", "funneltrack.cli", "simulate",
                     "--config", str(tmp_path / "missing.json"), "--out", str(out))
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("config error: ")
    assert not out.exists()


def test_invalid_json_is_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", "--config", str(bad)]) == 1


# a config file is UTF-8 JSON: other bytes raise UnicodeDecodeError, nesting
# past the recursion limit RecursionError, and an integer of more digits than
# int() converts a ValueError, not JSONDecodeError
@pytest.mark.parametrize("content", [
    pytest.param(b'\xff\xfe{"t_end": 1.0}', id="not-utf-8"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-past-the-recursion-limit"),
    pytest.param(b'{"t_end": ' + b"1" * 5000 + b"}", id="integer-past-the-digit-limit"),
])
def test_undecodable_config_is_exit_1(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid JSON in {bad}: ") and err.count("\n") == 1
    assert not out.exists()


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
    # l^2 m outside the floats: l**2 raises OverflowError, or l^2 m is 0
    ("params.l", 1e200),
    ("params.l", 1e-200),
])
def test_invalid_field_is_exit_1(tmp_path, path, value):
    data = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.0).to_dict()
    cfg = tmp_path / "invalid.json"
    cfg.write_text(json.dumps(with_leaf(data, path, value)))
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


# windows of 1 ns or less: linspace repeats knots, which the spline's solve
# divides by, or spaces them so closely that its coefficients overflow
@pytest.mark.parametrize("t0, tf", [(1.0, 1.0000000000000002), (1.0, 1.0000000000001),
                                    (0.0, 5e-324), (1000.0, 1000.0000000001)])
def test_window_too_short_for_the_spline_is_exit_1(tmp_path, capsys, t0, tf):
    data = ScenarioConfig(t_end=0.5).to_dict()
    data["ref"].update(t0=t0, tf=tf)
    cfg = tmp_path / "short-window.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: transition window [") and err.count("\n") == 1
    assert not out.exists()


# horizons whose tenth underflows (the starting step) and whose tau = t / 3
# underflows at the evaluations inside the step (the rising reference), and
# one shorter than 1e-14 s (the end sample)
@pytest.mark.parametrize("mode", ["lin", "hg"])
@pytest.mark.parametrize("t_end", [5e-324, 2e-323, 1e-15])
def test_shortest_horizon_ends_with_its_end_sample(tmp_path, capsys, mode, t_end):
    cfg = tmp_path / "short-horizon.json"
    dataclasses.replace(case_study_config(mode), t_end=t_end).write_json(cfg)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]] == [0.0, t_end]


# phi_0'(0) = b a phi_0(0)**2 overflows to inf, so k0's derivative takes
# inf * 0 = NaN at the zero scenario's start, and e2, k2 and u are NaN
NAN_GAIN_FUNNELS = [{"a": 1e-10, "b": 1e300, "eps": 1e-10},
                    {"a": 1.5, "b": 0.8, "eps": 0.001}, {"a": 60.0, "b": 0.2, "eps": 0.001}]


@pytest.mark.parametrize("mode", ["lin", "hg"])
def test_nan_error_is_a_funnel_violation(tmp_path, capsys, mode):
    cfg = tmp_path / "nan-gain.json"
    cfg.write_text(json.dumps({"funnels": NAN_GAIN_FUNNELS, "mode": mode, "t_end": 0.5}))
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("funnel violation at t = 0.000000: ") and err.count("\n") == 1
    assert "at level 2: phi*|e| = nan, not < 1" in err
    assert not out.exists()


# an unstable observer: a stage sum of rk45.solve overflows, the step is
# rejected and the run stops at a funnel wall; numpy's RuntimeWarning must
# neither reach stderr nor, under -W error, escape main
def test_overflowing_stage_sum_is_exit_2_without_a_warning(tmp_path, capsys):
    cfg = tmp_path / "unstable-observer.json"
    cfg.write_text(json.dumps({"mode": "hg", "observer_gains": [-200.0, 0.0, 0.0],
                               "t_end": 3.7, "x0": {"alpha": 0.01}}))
    out = tmp_path / "never.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("funnel violation at t = ") and err.count("\n") == 1
    assert not out.exists()


def fast_disturbance_config(path, t_end):
    """The lin case study to ``t_end`` with amp1 = 0 and freq1 = 1e308, whose
    phase freq1 * t overflows past t = 1.8 s, written to ``path``."""
    data = case_study_config("lin").to_dict()
    data["disturbance"].update(amp1=0.0, freq1=1e308)
    path.write_text(json.dumps({**data, "t_end": t_end}))
    return path


# past 1.8 s the phase is inf, whose sin raises ValueError (math domain
# error) in the kernel; the config is rejected before any run instead
@pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["plain", "W_error"])
def test_overflowing_disturbance_phase_is_exit_1(tmp_path, flags):
    cfg = fast_disturbance_config(tmp_path / "fast-disturbance.json", 3.0)
    out = tmp_path / "never.csv"
    run = run_python(*flags, "-m", "funneltrack.cli", "simulate", "--config", str(cfg),
                     "--out", str(out))
    assert run.returncode == 1
    assert run.stderr.count("\n") == 1
    assert run.stderr.startswith("config error: disturbance phase freq1 * t overflows")
    assert not out.exists()


def test_t_end_override_that_overflows_the_disturbance_phase_is_exit_1(tmp_path, capsys):
    cfg = fast_disturbance_config(tmp_path / "fast-disturbance.json", 1.0)
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(cfg), "--t-end", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: disturbance phase freq1")
    assert not out.exists()


def test_sweep_whose_last_point_overflows_the_disturbance_phase_is_exit_1_before_any_run(
        tmp_path, monkeypatch, capsys):
    from funneltrack import sim

    calls = []
    monkeypatch.setattr(sim, "integrate", calls.append)
    cfg = fast_disturbance_config(tmp_path / "fast-disturbance.json", 1.0)
    out = tmp_path / "never.json"
    assert main(["sweep", "--config", str(cfg), "--vary", "t_end=0.5:2:4",
                 "--out", str(out), "--serial"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: disturbance phase freq1") and err.count("\n") == 1
    assert calls == [] and not out.exists()


# endpoints from about 4e307 up overflow the bounded reference's quadrature
# and spline solve, whose numpy warnings reached stderr, and under -W error
# ended in a traceback; the NaN or huge reference stops the run at t = 0
@pytest.mark.parametrize("endpoint, value", [("y0", 4.2e307), ("yf", 7.3e307),
                                             ("yf", 1.7e308)])
def test_reference_endpoint_near_the_float_limit_is_exit_2_without_a_warning(
        tmp_path, endpoint, value):
    data = case_study_config("lin").to_dict()
    data["ref"][endpoint] = value
    cfg = tmp_path / "huge-endpoint.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "never.csv"
    run = run_python("-X", "dev", "-W", "error", "-m", "funneltrack.cli", "simulate",
                     "--config", str(cfg), "--out", str(out))
    assert run.returncode == 2
    assert run.stderr.startswith("funnel violation at t = 0.000000: ")
    assert run.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.usefixtures("one_non_finite_sample")
def test_non_finite_sample_is_exit_2(tmp_path, short_config, capsys):
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(short_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("funnel violation at t = 1.000000: "
                                       "non-finite values in sampled trajectory\n")
    assert not out.exists()


def test_usage_error_is_exit_1():
    assert main(["simulate"]) == 1  # --config missing


def test_unknown_command_is_exit_1(capsys):
    assert main(["bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: argument command: invalid choice") and err.count("\n") == 1


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


@pytest.mark.parametrize("mode", ["lin", "hg"])
@pytest.mark.parametrize("far", [{"x0": PlantState(alpha=1e200)}, {"ref": TransitionRef(yf=1e200)}],
                         ids=["x0", "ref"])
def test_start_far_outside_funnel_0_is_exit_2(tmp_path, capsys, mode, far):
    # an error so large that (phi e)**2 would overflow is a violation as well
    path = tmp_path / "far.json"
    ScenarioConfig(mode=mode, **far).write_json(path)
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("funnel violation at t = 0.000000: ") and err.count("\n") == 1
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


def test_underflow_at_the_start_is_exit_4_at_t_0(tmp_path, capsys):
    # valid, but too tight for the case study: the first step underflows,
    # below every funnel wall, so it stays an integrator failure
    data = case_study_config("lin").to_dict()
    data["integrator"]["abs_tol"] = 1e-150
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        "integrator failure at t = 0.000000: step size underflow (")
    assert not out.exists()


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
    # the time of a stopped run (t = 0.1 in each) comes first
    where = "" if code == 1 else " at t = 0.100000"
    assert capsys.readouterr().err == f"{label}{where}: {exc}\n"


def test_unwritable_output_is_exit_1_without_traceback(tmp_path, short_config, capsys):
    a_file = tmp_path / "file.txt"
    a_file.write_text("")
    (tmp_path / "taken" / "lin.csv").mkdir(parents=True)
    # a missing directory, a directory path that is not a directory, a directory
    bad = [tmp_path / "missing" / "a.csv", a_file / "a.csv", tmp_path]
    commands = [
        *(["simulate", "--config", str(short_config), "--out", str(p)] for p in bad),
        *(["sweep", "--config", str(short_config), "--vary", "t_end=1:2:2",
           "--out", str(p), "--serial"] for p in bad),
        *(["case-study", "--out-dir", str(p)] for p in (a_file, a_file / "sub", tmp_path / "taken")),
    ]
    before = sorted(tmp_path.rglob("*"))
    with mock.patch("funneltrack.cli.integrate") as simulate_runs, \
            mock.patch("funneltrack.sim.integrate") as other_runs:
        for argv in commands:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("I/O error: ") and err.count("\n") == 1, err
    assert simulate_runs.call_count == other_runs.call_count == 0
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_case_study_writes_no_file(tmp_path, monkeypatch):
    from funneltrack import sim

    def fail(cfg):
        raise FunnelViolation("boundary", t=0.1, level=2)

    monkeypatch.setattr(sim, "integrate", fail)
    out = tmp_path / "results"
    assert main(["case-study", "--out-dir", str(out)]) == 2
    assert list(out.iterdir()) == []


# SHA-256 of every seed-0 case-study output; the CSV hashes are the
# benchmark's PINNED_CSV_SHA256
CASE_STUDY_SHA256 = {
    "lin.csv": "5455cc04bf251bc16ef6670f432a354b839bc15e1955fd199edd81b89dfe8741",
    "hg.csv": "8dcc1da5f0d7f4fd608c26f91f0c7c1478cd46d662ef4b0dd48562bfd637d908",
    "summary.json": "0557d20a5e81088f5293bc0203e56d4b579d930fa81affd0e2e87e90d6714db5",
}


def test_case_study_outputs(tmp_path, capsys):
    assert main(["case-study", "--out-dir", str(tmp_path)]) == 0
    for name, sha256 in CASE_STUDY_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256, name
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["lin"]["funnel_invariant"] is True
    assert summary["hg"]["funnel_invariant"] is True
    assert summary["lin"]["max_abs_beta"] < 0.8411


def test_case_study_without_disturbance(tmp_path, case_lin_nodist, case_hg_nodist):
    assert main(["case-study", "--out-dir", str(tmp_path), "--no-disturbance"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["disturbed"] is False
    for mode, run in (("lin", case_lin_nodist), ("hg", case_hg_nodist)):
        assert summary[mode]["y_final"] == float(run.traj["y"][-1]), mode


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


# linspace raises MemoryError (6.94 EiB, nothing allocated), IndexError and
# ValueError for these
@pytest.mark.parametrize("n", [10**18, 2**63, 10**20])
def test_sweep_grid_numpy_cannot_build_is_exit_1(tmp_path, short_config, capsys, n):
    out = tmp_path / "never.json"
    with mock.patch("funneltrack.sim.integrate") as runs:
        assert main(["sweep", "--config", str(short_config), "--vary", f"t_end=1:2:{n}",
                     "--out", str(out), "--serial"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot sweep {n} points: ") and err.count("\n") == 1
    assert runs.call_count == 0 and not out.exists()


@pytest.mark.parametrize("vary", ["funnels.3.a=0:1:2", "funnels.x.a=0:1:2",
                                  "params.bogus=0:1:2", "t_end=1:-1:3",
                                  "disturbance.amp1=0:1:0", "ref.tf=0.5:5e-324:2"])
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
    assert run_python("-c", code).returncode == 0


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
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
