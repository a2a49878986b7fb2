"""Funnel functions, gain cascade, and the high-gain observer."""
import math

import numpy as np
import pytest

from funneltrack.errors import ConfigError, FunnelViolation
from funneltrack.funnel import FunnelSpec, cascade, gain, observer_rhs, phi_eval
from funneltrack.sim import ClosedLoop, ScenarioConfig, case_study_config

SPECS = (FunnelSpec(1.5, 0.8, 0.001), FunnelSpec(1.5, 0.8, 0.001),
         FunnelSpec(60.0, 0.2, 0.001))
GAINS = (1e2, 1e5, 1e6)


class TestPhi:
    def test_case_study_value_at_zero(self):
        phi, _ = phi_eval(SPECS[0], 0.0)
        assert phi == pytest.approx(1.0 / 1.501, abs=1e-12)

    def test_monotone_to_limit(self):
        phis = [phi_eval(SPECS[0], t)[0] for t in np.linspace(0.0, 40.0, 200)]
        assert all(b > a for a, b in zip(phis, phis[1:]))
        assert phi_eval(SPECS[0], 60.0)[0] == pytest.approx(1000.0, rel=1e-6)

    def test_derivative_matches_fd(self):
        for t in np.linspace(0.0, 5.0, 101):
            fd = (phi_eval(SPECS[0], t + 1e-6)[0] - phi_eval(SPECS[0], t - 1e-6)[0]) / 2e-6
            assert phi_eval(SPECS[0], t)[1] == pytest.approx(fd, abs=1e-6)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            FunnelSpec(-1.0, 0.8, 0.001)
        with pytest.raises(ConfigError):
            FunnelSpec(1.0, 0.8, 0.0)


class TestGain:
    def test_zero_error(self):
        assert gain(0.5, 0.0) == 1.0

    def test_reference_value(self):
        assert gain(1.0, 0.6) == pytest.approx(1.5625, abs=1e-15)

    def test_boundary_raises(self):
        with pytest.raises(FunnelViolation):
            gain(1.0, 1.0, level=1)
        # far outside, where (phi e)**2 would overflow, the test comes first
        with pytest.raises(FunnelViolation) as far:
            gain(1e200, 1.0, level=1)
        assert str(far.value) == "funnel boundary reached at level 1: phi*|e| = 1.000000e+200, not < 1"

    def test_nan_is_outside(self):
        # a NaN fails phi |e| < 1, as a NaN angle fails cos(beta) > 2/3
        with pytest.raises(FunnelViolation):
            gain(1.0, math.nan, level=2)

    def test_violation_carries_diagnostics(self):
        with pytest.raises(FunnelViolation) as exc:
            gain(2.0, 0.7, level=2)
        assert exc.value.t is None
        assert exc.value.level == 2

    def test_monotone_blowup(self):
        ks = [gain(1.0, e) for e in (0.0, 0.5, 0.9, 0.99, 0.9999)]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert ks[0] == 1.0
        assert ks[-1] > 5e3


class TestCascade:
    def test_all_zero(self):
        out = cascade(SPECS, 0.0, 0, 0, 0, 0, 0, 0)
        assert (out.e0, out.e1, out.e2) == (0.0, 0.0, 0.0)
        assert (out.k0, out.k1, out.k2) == (1.0, 1.0, 1.0)
        assert out.u == 0.0

    def test_zero_e0_kills_gain_derivative_term(self):
        # y_new == y_bar_ref with nonzero matched derivatives
        out = cascade(SPECS, 0.7, 0.3, 0.05, -0.02, 0.3, 0.01, 0.03)
        e0_1, e0_2 = 0.05 - 0.01, -0.02 - 0.03
        assert out.e0 == 0.0 and out.k0 == 1.0
        assert out.e1 == e0_1
        # the k0' e0 term drops out: e2 = e0'' + k0 e0' + k1 e1
        assert out.e2 == e0_2 + e0_1 + out.k1 * e0_1
        assert out.u == out.k2 * out.e2

    def test_gain_derivative_matches_fd_on_synthetic_signal(self):
        # e0(t) = 0.1 sin t with its true derivatives: e2 - k1 e1 is the
        # derivative of e1 = e0' + k0 e0, so the cascade's k0' must be d/dt k0
        # (e0 >= 0.02 here); restricted to times where the synthetic signal
        # fits all funnels
        def out_at(t):
            return cascade(SPECS, t, 0.1 * math.sin(t), 0.1 * math.cos(t),
                           -0.1 * math.sin(t), 0.0, 0.0, 0.0)

        h = 1e-5
        for t in np.linspace(0.2, 1.8, 33):
            out = out_at(t)
            fd = (out_at(t + h).e1 - out_at(t - h).e1) / (2 * h)
            assert out.e2 - out.k1 * out.e1 == pytest.approx(fd, abs=1e-8)

    def test_positive_feedback_direction(self):
        # du/de2 > 0 wherever the cascade is defined
        for e2 in (-0.9, -0.1, 0.1, 0.9):
            k2 = gain(1.0, e2)
            k2_eps = gain(1.0, e2 + 1e-6)
            u, u_eps = k2 * e2, k2_eps * (e2 + 1e-6)
            assert u_eps > u

    def test_violation_propagates(self):
        with pytest.raises(FunnelViolation):
            cascade(SPECS, 3.0, 5.0, 0, 0, 0, 0, 0)  # e0 far outside phi0 funnel


class TestObserver:
    def test_zero_fixed_point(self):
        assert observer_rhs(GAINS, (0.0, 0.0, 0.0), 0.0) == (0.0, 0.0, 0.0)

    def test_exact_tracking_fixed_point(self):
        assert observer_rhs(GAINS, (0.7, 0.0, 0.0), 0.7) == (0.0, 0.0, 0.0)

    def test_zero_gains_keep_stale_estimates(self):
        assert observer_rhs((0.0, 0.0, 0.0), (0.4, 0.0, 0.0), 1.3) == (0.0, 0.0, 0.0)


class TestControllers:
    def test_hg_zero_gain_observer_is_decoupled(self):
        cfg = case_study_config("hg")
        loop = ClosedLoop(ScenarioConfig(ref=cfg.ref, mode="hg", observer_gains=(0.0, 0.0, 0.0),
                                         disturbance=cfg.disturbance))
        state = loop.initial_state()
        assert np.array_equal(loop.rhs(0.0, state)[4:], np.zeros(3))
