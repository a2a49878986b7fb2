"""Frozen values of this build's validated case-study runs.

These pins catch accidental behavior changes (controller algebra, sign
conventions, reference evaluation).  They are regression numbers measured
from this implementation, not external requirements; the bands allow for
small cross-platform floating-point drift.
"""
import json
import math
import platform

import numpy as np
import pytest

from conftest import run_python
from funneltrack.linid import eigensplit
from funneltrack.model import ManipulatorParams
from funneltrack.reference import BoundedReference, TransitionRef
from funneltrack.sim import summarize

LIN = eigensplit(ManipulatorParams())


class TestEigensplitNumbers:
    def test_eigenvalues(self):
        assert LIN.lambda1 == pytest.approx(-2.274917217635375, abs=1e-12)
        assert LIN.lambda2 == pytest.approx(5.274917217635375, abs=1e-12)

    def test_modal_coupling(self):
        assert LIN.p1 == pytest.approx(0.5712319909644353, abs=1e-12)
        assert LIN.p2 == pytest.approx(3.071231990964435, abs=1e-12)


def test_bounded_reference_initial_value():
    ic = BoundedReference(LIN, TransitionRef(0.0, math.pi / 4, 0.0, 3.0)).value(0.0)
    assert ic == pytest.approx(-0.009914086010189479, abs=1e-10)


class TestCaseStudyRegression:
    def test_final_outputs(self, case_lin, case_hg):
        assert float(case_lin.traj["y"][-1]) == pytest.approx(0.8114754640, abs=1e-4)
        assert float(case_hg.traj["y"][-1]) == pytest.approx(0.7893495481, abs=1e-4)

    def test_solver_statistics(self, case_lin, case_hg):
        for run, nfev, naccept in ((case_lin, 2732, 455), (case_hg, 24872, 4145)):
            stats = summarize(run.cfg, run.traj)["solver"]
            assert stats["nfev"] == pytest.approx(nfev, rel=0.01)
            assert stats["naccept"] == pytest.approx(naccept, rel=0.01)
            assert stats["nguard"] == 0

    def test_peak_quantities(self, case_lin, case_hg):
        assert float(np.max(np.abs(case_lin.traj["u"]))) == pytest.approx(1.5281, abs=1e-2)
        assert float(np.max(np.abs(case_hg.traj["u"]))) == pytest.approx(2.2944, abs=1e-2)
        assert float(np.max(np.abs(case_lin.traj["beta"]))) == pytest.approx(0.46386, abs=1e-3)
        assert float(np.max(np.abs(case_hg.traj["beta"]))) == pytest.approx(0.38376, abs=1e-3)

    def test_cross_mode_gaps(self, case_lin, case_hg):
        # the two variants evolve on separate trajectories; their pointwise
        # input gap and final-output gap are properties of the method, and
        # are pinned here at this build's measured values
        mask = case_lin.traj.t >= 0.5
        gap = float(np.max(np.abs(case_lin.traj["u"][mask] - case_hg.traj["u"][mask])))
        assert gap == pytest.approx(1.8318, abs=0.01)
        dy3 = abs(float(case_lin.traj["y"][-1]) - float(case_hg.traj["y"][-1]))
        assert dy3 == pytest.approx(0.0221, abs=0.001)

    def test_initial_input(self, case_lin):
        assert float(case_lin.traj["u"][0]) == pytest.approx(0.3904945878889262, abs=1e-6)

    def test_undisturbed_variants(self, case_lin_nodist, case_hg_nodist):
        assert float(case_lin_nodist.traj["y"][-1]) == pytest.approx(0.8110044556, abs=1e-4)
        assert float(case_hg_nodist.traj["y"][-1]) == pytest.approx(0.7900232798, abs=1e-4)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86 core")
def test_case_study_on_a_blas_kernel_without_fma(tmp_path, case_lin, case_hg):
    # bit identity holds per numpy, scipy and OpenBLAS kernel: OpenBLAS's
    # Prescott kernel has no FMA, so rk45's stage dots and dense-output gemv
    # round differently and every case-study hash moves, but the steps stay
    # the same and the outputs stay within these bounds (measured 1.1e-14 in y
    # and 1.4e-10 in u); where numpy's BLAS is not OpenBLAS the variable does
    # nothing, the outputs are equal and this passes trivially
    run = run_python("-m", "funneltrack.cli", "case-study", "--out-dir", str(tmp_path),
                     OPENBLAS_CORETYPE="Prescott")
    assert run.returncode == 0, run.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    for mode, case in (("lin", case_lin), ("hg", case_hg)):
        assert summary[mode]["solver"] == case.traj.solver
        with open(tmp_path / f"{mode}.csv") as fh:
            columns = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",")
        assert tuple(columns) == case.traj.columns and data.shape == case.traj.data.shape
        for name, bound in (("y", 1e-12), ("u", 1e-9)):
            gap = np.max(np.abs(data[:, columns.index(name)] - case.traj[name]))
            assert gap <= bound, (mode, name, gap)
