"""Funnel functions, gain cascade, observer, and the two control laws."""
import math

import numpy as np
import pytest

from funneltrack import rk45
from funneltrack.errors import ConfigError, FunnelViolation
from funneltrack.funnel import (FunnelSpec, cascade, control_law, gain,
                                observer_rhs, phi_eval)
from funneltrack.linid import eigensplit, psi, ynew_derivatives
from funneltrack.model import ManipulatorParams
from funneltrack.reference import BoundedReference, NewRefConfig, TransitionRef
from funneltrack.sim import ClosedLoop, ScenarioConfig, case_study_config

from test_model import random_domain_states

P = ManipulatorParams()
LIN = eigensplit(P)
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
            gain(1.0, 1.0, t=0.3, level=1)

    def test_violation_carries_diagnostics(self):
        with pytest.raises(FunnelViolation) as exc:
            gain(2.0, 0.7, t=1.25, level=2)
        assert exc.value.t == 1.25
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
        assert out.e0 == 0.0
        assert out.k0_1 == 0.0
        assert out.e1 == out.e0_1
        assert out.u == pytest.approx(
            out.k2 * (out.e0_2 + out.k0 * out.e0_1 + out.k1 * out.e1), rel=1e-15)

    def test_gain_derivative_matches_fd_on_synthetic_signal(self):
        # e0(t) = 0.1 sin t with its true derivative: k0_1 must be d/dt k0;
        # restricted to times where the synthetic signal fits all funnels
        ts = np.linspace(0.2, 1.8, 33)
        h = 1e-5
        for t in ts:
            def k0_of(tt):
                phi, _ = phi_eval(SPECS[0], tt)
                e = 0.1 * math.sin(tt)
                return 1.0 / (1.0 - phi * phi * e * e)

            out = cascade(SPECS, t, 0.1 * math.sin(t), 0.1 * math.cos(t),
                          -0.1 * math.sin(t), 0.0, 0.0, 0.0)
            fd = (k0_of(t + h) - k0_of(t - h)) / (2 * h)
            assert out.k0_1 == pytest.approx(fd, abs=1e-5)

    def test_randomized_reconstruction(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            t = rng.uniform(0.0, 3.0)
            # small enough to stay inside the tightest funnel on [0, 3]
            args = rng.uniform(-0.02, 0.02, 6)
            out = cascade(SPECS, t, *args)
            phi0, dphi0 = phi_eval(SPECS[0], t)
            phi1, _ = phi_eval(SPECS[1], t)
            phi2, _ = phi_eval(SPECS[2], t)
            e0 = args[0] - args[3]
            e0_1 = args[1] - args[4]
            e0_2 = args[2] - args[5]
            k0 = 1 / (1 - phi0**2 * e0**2)
            k0_1 = 2 * phi0 * e0 / (1 - phi0**2 * e0**2) ** 2 * (dphi0 * e0 + phi0 * e0_1)
            e1 = e0_1 + k0 * e0
            k1 = 1 / (1 - phi1**2 * e1**2)
            e2 = e0_2 + k0 * e0_1 + k0_1 * e0 + k1 * e1
            k2 = 1 / (1 - phi2**2 * e2**2)
            assert out.u == pytest.approx(k2 * e2, abs=1e-12)
            assert out.e2 == pytest.approx(e2, abs=1e-12)

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

    def test_linearity(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            za, zb = rng.normal(size=3), rng.normal(size=3)
            ya, yb = rng.normal(), rng.normal()
            a1, b1 = rng.normal(), rng.normal()
            lhs = np.array(observer_rhs(GAINS, a1 * za + b1 * zb, a1 * ya + b1 * yb))
            rhs = (a1 * np.array(observer_rhs(GAINS, za, ya))
                   + b1 * np.array(observer_rhs(GAINS, zb, yb)))
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))

    def test_derivative_estimation_of_sinusoid(self):
        # driven by y_new(t) = sin t, the estimates settle onto cos/-sin
        def rhs(t, z):
            return np.array(observer_rhs(GAINS, z, math.sin(t)))

        res = rk45.solve(rhs, (0.0, 3.0), np.zeros(3), rel_tol=1e-9, abs_tol=1e-12,
                         max_step=0.01, sample_step=1e-2)
        for t, z in zip(res.t, res.y):
            if t < 0.5:
                continue
            assert abs(z[1] - math.cos(t)) <= 1e-2
            assert abs(z[2] + math.sin(t)) <= 0.5

    def test_zero_gains_keep_stale_estimates(self):
        assert observer_rhs((0.0, 0.0, 0.0), (0.4, 0.0, 0.0), 1.3) == (0.0, 0.0, 0.0)


class TestControllers:
    def setup_method(self):
        self.zero_ref = BoundedReference(
            NewRefConfig(LIN.lambda2, LIN.p2), TransitionRef(0.0, 0.0, 0.0, 0.0))
        self.case_ref = BoundedReference(
            NewRefConfig(LIN.lambda2, LIN.p2), TransitionRef(0.0, math.pi / 4, 0.0, 3.0))

    def test_equilibrium_zero_reference(self):
        out, y_new = control_law(P, LIN, SPECS, self.zero_ref, 0.0, np.zeros(4))
        assert out.u == 0.0 and y_new == 0.0

    def test_initial_feasibility_of_case_study(self):
        out, _ = control_law(P, LIN, SPECS, self.case_ref, 0.0, np.zeros(4))
        assert out.e0 == pytest.approx(-self.case_ref.value(0.0), abs=1e-15)
        phi0, _ = phi_eval(SPECS[0], 0.0)
        assert phi0 * abs(out.e0) < 1.0

    def test_hg_with_exact_derivatives_matches_lin(self):
        for x in random_domain_states(200, 79, vel_scale=0.5, beta_margin=0.2):
            t = 1.0
            zeta = ynew_derivatives(P, LIN, x)
            try:
                want, _ = control_law(P, LIN, SPECS, self.case_ref, t, x)
            except FunnelViolation:
                continue  # random state outside the funnels; not the point here
            got, y_new = control_law(P, LIN, SPECS, self.case_ref, t, x, zeta)
            assert got == want
            assert y_new == zeta[0]

    def test_hg_persistent_rest(self):
        zeta = (psi(P, LIN, np.zeros(4)), 0.0, 0.0)
        out, y_new = control_law(P, LIN, SPECS, self.zero_ref, 0.0, np.zeros(4), zeta)
        assert out.u == 0.0
        assert observer_rhs(GAINS, zeta, y_new) == (0.0, 0.0, 0.0)

    def test_hg_zero_gain_observer_is_decoupled(self):
        cfg = case_study_config("hg")
        loop = ClosedLoop(ScenarioConfig(ref=cfg.ref, mode="hg", observer_gains=(0.0, 0.0, 0.0),
                                         disturbance=cfg.disturbance))
        state = loop.initial_state()
        assert np.array_equal(loop.rhs(0.0, state)[4:], np.zeros(3))
