"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria 5-9 and 11 read the results of the named
checks of ``funneltrack.checks``, the one home of the oracles.  Criteria 3
(mode-agreement clause) and 4 compare the two controller variants across
separately evolving closed loops; see test_regression.py for this build's
frozen values of those quantities.
"""
import math

import numpy as np

from conftest import margins_of
from funneltrack.model import BETA_MAX


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion:2d} [{'PASS' if ok else 'FAIL'}]: {detail}")
    return ok


def run_checks(check_results, *names):
    """(ok, detail) of the named checks, combined."""
    results = [(name, *check_results[name]) for name in names]
    return (all(ok for _, ok, _ in results),
            "; ".join(f"{name}: {detail}" for name, _, detail in results))


class TestCriterion1FunnelInvariance:
    def test_funnel_invariance_and_runtime(self, case_lin, case_hg):
        worst = {}
        for name, run in (("lin", case_lin), ("hg", case_hg)):
            worst[name] = float(np.max(margins_of(run)))
        ok = all(w < 1.0 for w in worst.values())
        runtime_ok = case_lin.wall_seconds < 60.0 and case_hg.wall_seconds < 60.0
        ok = ok and runtime_ok
        assert report(1, ok,
                      f"max phi_i|e_i|: lin {worst['lin']:.4f}, hg {worst['hg']:.4f}; "
                      f"runtime lin {case_lin.wall_seconds:.1f}s, hg {case_hg.wall_seconds:.1f}s")


class TestCriterion2DomainInvariance:
    def test_beta_stays_inside(self, case_lin, case_hg):
        b_lin = float(np.max(np.abs(case_lin.traj["beta"])))
        b_hg = float(np.max(np.abs(case_hg.traj["beta"])))
        ok = b_lin < BETA_MAX and b_hg < BETA_MAX
        assert report(2, ok, f"max |beta|: lin {b_lin:.4f}, hg {b_hg:.4f} "
                             f"(limit {BETA_MAX:.4f})")


class TestCriterion3Tracking:
    def test_final_tracking_and_mode_agreement(self, case_lin, case_hg):
        target = math.pi / 4
        y_lin = float(case_lin.traj["y"][-1])
        y_hg = float(case_hg.traj["y"][-1])
        err_lin, err_hg = abs(y_lin - target), abs(y_hg - target)
        agreement = abs(y_lin - y_hg)
        ok = err_lin <= 0.1 and err_hg <= 0.1 and agreement <= 0.02
        assert report(3, ok,
                      f"|y(3) - pi/4|: lin {err_lin:.4f}, hg {err_hg:.4f} (<= 0.1); "
                      f"mode agreement {agreement:.4f} (<= 0.02)")


class TestCriterion4ControllerAgreement:
    def test_input_agreement_after_transient(self, case_lin, case_hg):
        mask = case_lin.traj.t >= 0.5
        gap = float(np.max(np.abs(case_lin.traj["u"][mask] - case_hg.traj["u"][mask])))
        assert report(4, gap <= 0.5,
                      f"sup_(t>=0.5)|u_lin - u_hg| = {gap:.4f} (<= 0.5)")


class TestCriterion5LinearizationOracle:
    def test_linearization(self, check_results):
        assert report(5, *run_checks(check_results, "linearization-fd",
                                     "eigen-diagonalization", "eigen-coupling-split",
                                     "eigen-identities", "eigen-closed-form"))


class TestCriterion6TransformSuite:
    def test_transform_suite(self, check_results):
        assert report(6, *run_checks(check_results, "transform-roundtrip",
                                     "input-decoupling", "internal-dynamics-oracle"))


class TestCriterion7RelativeDegree:
    def test_relative_degree_checks(self, check_results):
        assert report(7, *run_checks(check_results, "lie-derivatives-analytic",
                                     "lie-derivatives-fd", "gamma-at-zero",
                                     "gamma-root-at-boundary", "gamma-sign-on-circle"))


class TestCriterion8ReferenceGenerator:
    def test_reference_generator(self, check_results):
        assert report(8, *run_checks(check_results, "reference-ic-quadrature",
                                     "reference-derivative-fd", "reference-steady-state",
                                     "reference-forward-agreement", "reference-sup-bound"))


class TestCriterion9Observer:
    def test_observer_convergence(self, check_results):
        assert report(9, *run_checks(check_results, "observer-convergence"))


class TestCriterion10Robustness:
    def test_disturbed_and_undisturbed(self, case_lin, case_hg,
                                       case_lin_nodist, case_hg_nodist):
        target = math.pi / 4
        details = []
        ok = True
        for label, run_l, run_h in (("d(t) on", case_lin, case_hg),
                                    ("d = 0", case_lin_nodist, case_hg_nodist)):
            m = max(float(np.max(margins_of(run_l))), float(np.max(margins_of(run_h))))
            b = max(float(np.max(np.abs(run_l.traj["beta"]))),
                    float(np.max(np.abs(run_h.traj["beta"]))))
            e = max(abs(float(run_l.traj["y"][-1]) - target),
                    abs(float(run_h.traj["y"][-1]) - target))
            agree = abs(float(run_l.traj["y"][-1]) - float(run_h.traj["y"][-1]))
            ok &= m < 1.0 and b < BETA_MAX and e <= 0.1 and agree <= 0.02
            details.append(f"{label}: margin {m:.3f}, |beta| {b:.3f}, "
                           f"err {e:.3f}, agree {agree:.4f}")
        assert report(10, ok, "; ".join(details))


class TestCriterion11DegenerateScenario:
    def test_zero_config(self, check_results):
        assert report(11, *run_checks(check_results, "zero-scenario"))
