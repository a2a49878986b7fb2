"""Shared fixtures: the case-study runs and the checks are expensive, so run them once."""
import time

import pytest

from funneltrack import case_study_config, checks, integrate


class CaseStudyRun:
    def __init__(self, cfg):
        self.cfg = cfg
        start = time.perf_counter()
        self.traj = integrate(cfg)
        self.wall_seconds = time.perf_counter() - start


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
