"""Transition polynomial and the bounded auxiliary reference."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from funneltrack import rk45
from funneltrack.errors import ConfigError
from funneltrack.linid import eigensplit
from funneltrack.model import ManipulatorParams
from funneltrack.reference import (BoundedReference, NewRefConfig,
                                   TransitionRef, new_ref_ic,
                                   sylvester_ic, yref_eval)

LIN = eigensplit(ManipulatorParams())
CFG = NewRefConfig(lambda2=LIN.lambda2, p2=LIN.p2)
REF = TransitionRef(y0=0.0, yf=math.pi / 4, t0=0.0, tf=3.0)


def naive_transition(r, t):
    """Power-basis evaluation, independent of the Horner implementation."""
    tau = (t - r.t0) / (r.tf - r.t0)
    coeffs = {5: 126.0, 6: -420.0, 7: 540.0, 8: -315.0, 9: 70.0}
    val = sum(c * tau**k for k, c in coeffs.items())
    dval = sum(k * c * tau ** (k - 1) for k, c in coeffs.items()) / (r.tf - r.t0)
    return r.y0 + val * (r.yf - r.y0), dval * (r.yf - r.y0)


class TestTransition:
    def test_endpoints(self):
        assert yref_eval(REF, REF.t0) == (REF.y0, 0.0)
        y, ydot = yref_eval(REF, REF.tf)
        assert y == pytest.approx(REF.yf, abs=1e-15)
        assert ydot == 0.0

    def test_coefficients_sum_to_transition(self):
        assert 126 - 420 + 540 - 315 + 70 == 1
        assert 5 * 126 - 6 * 420 + 7 * 540 - 8 * 315 + 9 * 70 == 0

    def test_hold_outside_window(self):
        assert yref_eval(REF, -1.0) == (REF.y0, 0.0)
        assert yref_eval(REF, 10.0) == (REF.yf, 0.0)

    def test_midpoint_against_power_basis(self):
        got = yref_eval(REF, 0.5 * (REF.t0 + REF.tf))
        want = naive_transition(REF, 0.5 * (REF.t0 + REF.tf))
        assert got[0] == pytest.approx(want[0], abs=1e-14)
        assert got[1] == pytest.approx(want[1], abs=1e-14)

    def test_sweep_against_power_basis(self):
        # near tau = 1 the power basis cancels O(1e3) terms to O(1e-3),
        # so the oracle itself is only good to a few 1e-12 there
        for t in np.linspace(0.05, 2.95, 59):
            got = yref_eval(REF, t)
            want = naive_transition(REF, t)
            assert got[0] == pytest.approx(want[0], abs=5e-12)
            assert got[1] == pytest.approx(want[1], abs=5e-12)

    def test_shifted_window(self):
        ref = TransitionRef(y0=0.1, yf=0.6, t0=1.0, tf=2.5)
        assert yref_eval(ref, 1.0) == (0.1, 0.0)
        y, ydot = yref_eval(ref, 2.5)
        assert y == pytest.approx(0.6, abs=1e-15)
        assert ydot == 0.0

    def test_derivative_matches_fd(self):
        for t in np.linspace(0.1, 2.9, 29):
            fd = (yref_eval(REF, t + 1e-6)[0] - yref_eval(REF, t - 1e-6)[0]) / 2e-6
            assert yref_eval(REF, t)[1] == pytest.approx(fd, abs=1e-6)

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            TransitionRef(0.0, 1.0, 2.0, 1.0)


class TestInitialCondition:
    def test_zero_reference(self):
        assert new_ref_ic(CFG, TransitionRef(0.0, 0.0, 0.0, 3.0)) == 0.0

    def test_pure_hold(self):
        ref = TransitionRef(y0=0.2, yf=0.2, t0=0.0, tf=0.0)
        assert new_ref_ic(CFG, ref) == pytest.approx(-CFG.p2 * 0.2, abs=1e-12)

    def test_against_richardson_simpson(self):
        got = new_ref_ic(CFG, REF)

        def integrand(s):
            return math.exp(-CFG.lambda2 * s) * CFG.lambda2 * CFG.p2 * yref_eval(REF, s)[0]

        def simpson(n):
            ts = np.linspace(0.0, REF.tf, n + 1)
            vals = np.array([integrand(t) for t in ts])
            h = ts[1] - ts[0]
            return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                            + 2 * vals[2:-1:2].sum())

        fine, finer = simpson(4096), simpson(8192)
        refined = finer + (finer - fine) / 15.0
        want = -(refined + CFG.p2 * REF.yf * math.exp(-CFG.lambda2 * REF.tf))
        assert got == pytest.approx(want, abs=1e-9)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            NewRefConfig(lambda2=-1.0, p2=1.0)
        with pytest.raises(ConfigError):
            NewRefConfig(lambda2=1.0, p2=math.nan)


class TestBoundedReference:
    def setup_method(self):
        self.bref = BoundedReference(CFG, REF)

    def test_zero_reference_stays_zero(self):
        b = BoundedReference(CFG, TransitionRef(0.0, 0.0, 0.0, 3.0))
        for t in (0.0, 1.0, 5.0):
            assert b.eval(t) == (0.0, 0.0, 0.0)

    def test_steady_state_after_transition(self):
        for t in (3.0, 3.5, 100.0):
            assert self.bref.eval(t) == (-CFG.p2 * REF.yf, 0.0, 0.0)

    def test_value_at_zero_matches_ic(self):
        assert self.bref.value(0.0) == pytest.approx(new_ref_ic(CFG, REF), abs=1e-9)

    def test_ode_residual_by_construction(self):
        for t in np.linspace(0.0, 2.99, 100):
            v, vd, vdd = self.bref.eval(t)
            yr, yr_dot = yref_eval(REF, t)
            assert vd == CFG.lambda2 * v + CFG.lambda2 * CFG.p2 * yr
            assert vdd == CFG.lambda2 * vd + CFG.lambda2 * CFG.p2 * yr_dot

    def test_first_derivative_matches_fd(self):
        for t in np.linspace(0.01, 2.95, 59):
            fd = (self.bref.value(t + 1e-4) - self.bref.value(t - 1e-4)) / 2e-4
            assert self.bref.eval(t)[1] == pytest.approx(fd, abs=1e-5)

    def test_continuity_at_transition_end(self):
        eps = 1e-9
        below = self.bref.eval(REF.tf - eps)
        at = self.bref.eval(REF.tf)
        for a, b in zip(below, at):
            assert abs(a - b) < 1e-6  # C^1 junction, derivative scale lam2

    def test_boundedness(self):
        bound = 10.0 * abs(CFG.p2) * abs(REF.yf)
        sup = max(abs(self.bref.value(t)) for t in np.linspace(0.0, 10.0, 2001))
        assert sup <= bound

    def test_forward_integration_agreement(self):
        ic = new_ref_ic(CFG, REF)
        res = rk45.solve(
            lambda t, x: np.array([CFG.lambda2 * x[0]
                                   + CFG.lambda2 * CFG.p2 * yref_eval(REF, t)[0]]),
            (0.0, 3.0), np.array([ic]),
            rel_tol=1e-13, abs_tol=1e-15, max_step=0.01, sample_step=0.01)
        worst = max(abs(y[0] - self.bref.value(t)) for t, y in zip(res.t, res.y))
        assert worst <= 1e-4  # forward mode amplifies errors by exp(lam2 t)

    @pytest.mark.parametrize("ref", [REF, TransitionRef(0.3, 0.7, 1.0, 2.0),
                                     TransitionRef(-1, 2, -0.5, 1.7),
                                     TransitionRef(0.1, 0.5, 0.5, 0.5)])
    def test_grid_equals_scalar_recurrence(self, ref):
        # the build's oracle: one scalar yref_eval per Gauss node, panel by panel
        b = BoundedReference(CFG, ref)
        lam2, p2 = CFG.lambda2, CFG.p2
        ts = np.linspace(b.t_lo, ref.tf, len(b._vals))
        h = ts[1] - ts[0]
        gx, gw = np.polynomial.legendre.leggauss(10)
        vals = np.empty(len(ts))
        vals[-1] = -p2 * ref.yf
        for i in range(len(ts) - 2, -1, -1):
            mid, half = 0.5 * (ts[i] + ts[i + 1]), 0.5 * h
            sg = mid + half * gx
            yr = np.array([yref_eval(ref, s)[0] for s in sg])
            panel = -lam2 * p2 * half * float(np.sum(gw * np.exp(lam2 * (ts[i] - sg)) * yr))
            vals[i] = panel + math.exp(-lam2 * h) * vals[i + 1]
        assert np.array_equal(b._vals, vals)

    def test_early_start_before_window(self):
        ref = TransitionRef(y0=0.3, yf=0.7, t0=1.0, tf=2.0)
        b = BoundedReference(NewRefConfig(CFG.lambda2, CFG.p2), ref)
        got = b.value(-2.0)
        lam2, p2 = CFG.lambda2, CFG.p2
        want = quad(lambda s: -math.exp(lam2 * (-2.0 - s)) * lam2 * p2 * yref_eval(ref, s)[0],
                    -2.0, 2.0, epsabs=1e-12)[0] - p2 * ref.yf * math.exp(lam2 * (-2.0 - 2.0))
        assert got == pytest.approx(want, abs=1e-9)


class TestSylvesterRoute:
    def test_constant_reference(self):
        ic = sylvester_ic(CFG, [[0.0]], [[1.0]], [0.25])
        assert ic == pytest.approx(-CFG.p2 * 0.25, abs=1e-12)
        hold = TransitionRef(y0=0.25, yf=0.25, t0=0.0, tf=0.0)
        assert ic == pytest.approx(new_ref_ic(CFG, hold), abs=1e-10)

    def test_sinusoid_reference(self):
        amp, omega = 0.4, 2.0
        A_e = np.array([[0.0, omega], [-omega, 0.0]])
        got = sylvester_ic(CFG, A_e, [[1.0, 0.0]], [0.0, amp])
        lam2, p2 = CFG.lambda2, CFG.p2
        closed = -lam2 * p2 * amp * omega / (lam2**2 + omega**2)
        assert got == pytest.approx(closed, abs=1e-12)
        numeric = -quad(lambda s: math.exp(-lam2 * s) * lam2 * p2 * amp * math.sin(omega * s),
                        0.0, 80.0, epsabs=1e-13, limit=400)[0]
        assert got == pytest.approx(numeric, abs=1e-10)

    def test_unstable_exosystem_rejected(self):
        with pytest.raises(ConfigError):
            sylvester_ic(CFG, [[0.5]], [[1.0]], [1.0])
