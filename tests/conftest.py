"""Shared fixtures: the case-study runs and the checks are expensive, so run them once."""
import math
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


class CheckResults(dict):
    """name -> (ok, detail) of a check of ``funneltrack.checks``, run on first use."""

    def __missing__(self, name):
        self[name] = result = dict(checks.ALL_CHECKS)[name]()
        return result


@pytest.fixture(scope="session")
def check_results():
    return CheckResults()


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
