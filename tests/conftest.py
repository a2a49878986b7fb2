"""Shared fixtures: the case-study runs and the checks are expensive, so run them once."""
import time

import numpy as np
import pytest

from funneltrack import checks
from funneltrack.funnel import cascade_margins
from funneltrack.sim import case_study_config, integrate


class CaseStudyRun:
    def __init__(self, cfg):
        self.cfg = cfg
        start = time.perf_counter()
        self.traj = integrate(cfg)
        self.wall_seconds = time.perf_counter() - start


def margins_of(run):
    """phi_i |e_i| of each sample of a case-study run, shape (n, 3)."""
    return cascade_margins(run.cfg.funnels, run.traj.t, [run.traj[c] for c in ("e0", "e1", "e2")])


def formed(y):
    """A copy of the state array ``y``, or the array that the stage parts
    ``(increment, h, base)`` of ``rk45.solve(..., stage_parts=True)`` stand
    for, formed as the default path forms it: ``*= h``, then ``+= base``."""
    if type(y) is tuple:
        increment, h, base = y
        return increment * h + np.array(base)
    return y.copy()


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
