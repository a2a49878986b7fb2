"""Shared fixtures: the case-study runs and the checks are expensive, so run
them once; and the one way the tests start a fresh interpreter."""
import math
import os
import re
import subprocess
import sys
import time

import pytest

from funneltrack import checks
from funneltrack.funnel import cascade_margins
from funneltrack.sim import ClosedLoop, case_study_config, integrate


class CaseStudyRun:
    def __init__(self, cfg):
        self.cfg = cfg
        start = time.perf_counter()
        self.traj = integrate(cfg)
        self.wall_seconds = time.perf_counter() - start


def margins_of(run):
    """phi_i |e_i| of each sample of a case-study run, shape (n, 3)."""
    return cascade_margins(run.cfg.funnels, run.traj.t, [run.traj[c] for c in ("e0", "e1", "e2")])


@pytest.fixture(scope="session")
def case_lin():
    return CaseStudyRun(case_study_config("lin", disturbed=True))


@pytest.fixture(scope="session")
def case_hg():
    return CaseStudyRun(case_study_config("hg", disturbed=True))


@pytest.fixture(scope="session")
def case_lin_nodist():
    return CaseStudyRun(case_study_config("lin", disturbed=False))


@pytest.fixture(scope="session")
def case_hg_nodist():
    return CaseStudyRun(case_study_config("hg", disturbed=False))


# pyproject.toml's faulthandler_timeout: a child that hangs fails its test
CHILD_TIMEOUT = 120


def run_python(*args, **env):
    """``python *args`` in a fresh interpreter that imports what this one
    does, with ``env`` added to the environment; text output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


@pytest.fixture(scope="session")
def check_results():
    """name -> (ok, detail) of each check of ``funneltrack.checks``, read off
    one ``funneltrack check`` run in a fresh interpreter under ``-X dev -W
    error`` that cannot import scipy: the package needs numpy only."""
    run = run_python("-X", "dev", "-W", "error", "-c",
                     "import sys; sys.modules['scipy'] = None  # importing scipy raises\n"
                     "from funneltrack.cli import main; sys.exit(main(['check']))")
    lines = [re.fullmatch(r"\[(PASS|FAIL)\] ([a-z-]+): (.*)", line)
             for line in run.stdout.splitlines()]
    assert [line and line[2] for line in lines] == [name for name, _ in checks.ALL_CHECKS], (
        run.stdout + run.stderr)
    results = {line[2]: (line[1] == "PASS", line[3]) for line in lines}
    assert run.returncode == (0 if all(ok for ok, _ in results.values()) else 1), run.stderr
    return results


@pytest.fixture
def one_non_finite_sample(monkeypatch):
    """``ClosedLoop.row`` gives one sample a NaN, as a diverging ``hg``
    observer's ungated ``zeta1`` can while every gated entry stays finite."""
    row = ClosedLoop.row

    def one_nan(self, ts, states):
        data = row(self, ts, states)
        data[len(ts) // 2, -1] = math.nan
        return data

    monkeypatch.setattr(ClosedLoop, "row", one_nan)
