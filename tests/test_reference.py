"""Transition polynomial and the bounded auxiliary reference."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from funneltrack import reference
from funneltrack.errors import ConfigError
from funneltrack.linid import eigensplit
from funneltrack.model import ManipulatorParams
from funneltrack.reference import BoundedReference, TransitionRef, yref_eval
from test_config_properties import transitions

LIN = eigensplit(ManipulatorParams())
REF = TransitionRef(y0=0.0, yf=math.pi / 4, t0=0.0, tf=3.0)
REFS = [REF, TransitionRef(0.3, 0.7, 1.0, 2.0), TransitionRef(-1, 2, -0.5, 1.7),
        TransitionRef(0.1, 0.5, 0.5, 0.5)]


def random_refs(n, seed, t0_min=-1.0):
    """Transitions with spans from 5 ms to 6 s and windows starting in [t0_min, 2),
    by default before or after 0."""
    rng = np.random.default_rng(seed)
    refs = []
    for _ in range(n):
        t0 = rng.uniform(t0_min, 2.0)
        refs.append(TransitionRef(rng.uniform(-1, 1), rng.uniform(-1, 1), t0,
                                  t0 + 10 ** rng.uniform(math.log10(5e-3), math.log10(6.0))))
    return refs


def quad_value(lin, r, t, epsabs=1e-10):
    """Bounded solution at t by adaptive quadrature of the convolution
    integral up to tf plus the analytic exponential tail
    -p2 * yf * exp(lam2 * (t - tf))."""
    lam2, p2 = lin.lambda2, lin.p2
    hi = max(r.tf, t)
    body = 0.0
    if hi > t:
        pts = [r.t0] if t < r.t0 < hi else None
        body, _ = quad(lambda s: math.exp(lam2 * (t - s)) * lam2 * p2 * yref_eval(r, s)[0],
                       t, hi, epsabs=epsabs, epsrel=1e-12, limit=200, points=pts)
    return -(body + p2 * r.yf * math.exp(lam2 * (t - hi)))


def knot_values(b):
    """The spline's knot values: c0 of each interval, then -p2 yf at tf."""
    return [*b._coeffs[3].tolist(), b.final_value]


def assert_closed_form_without_window(b, ref):
    """A reference whose window has no part after 0 builds no spline: it is
    -p2 yf from tf on, and a pure decay from -p2 yf before a step at t0 > 0."""
    assert b._coeffs.size == 0
    for t in (0.0, 0.5 * ref.t0, ref.t0, 1.0, ref.tf + 1.0):
        if t < 0.0:
            continue  # value is defined for t >= 0
        want = -LIN.p2 * ref.yf
        if t < ref.tf:
            want = -LIN.p2 * (ref.y0 + (ref.yf - ref.y0) * math.exp(LIN.lambda2 * (t - ref.t0)))
        assert b.value(t) == pytest.approx(want, rel=1e-14, abs=1e-15), t


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

    def test_step(self):
        # tf == t0: y0 before the step, yf from it on, with zero slope throughout
        ref = TransitionRef(y0=0.1, yf=0.6, t0=1.0, tf=1.0)
        assert [yref_eval(ref, t) for t in (0.5, 1.0, 1.5)] == [(0.1, 0.0), (0.6, 0.0), (0.6, 0.0)]

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
        assert BoundedReference(LIN, TransitionRef(0.0, 0.0, 0.0, 3.0)).value(0.0) == 0.0

    def test_pure_hold(self):
        ref = TransitionRef(y0=0.2, yf=0.2, t0=0.0, tf=0.0)
        assert BoundedReference(LIN, ref).value(0.0) == pytest.approx(-LIN.p2 * 0.2, abs=1e-12)


class TestBoundedReference:
    def setup_method(self):
        self.bref = BoundedReference(LIN, REF)

    def test_zero_reference_stays_zero(self):
        b = BoundedReference(LIN, TransitionRef(0.0, 0.0, 0.0, 3.0))
        for t in (0.0, 1.0, 5.0):
            assert b.eval(t) == (0.0, 0.0, 0.0)

    def test_value_at_zero_matches_ic(self):
        # windows starting before 0 put 0 between knots, so the spline's
        # interpolation error shows there; 5 ms transitions are included
        for ref in REFS + random_refs(30, seed=97):
            scale = LIN.p2 * max(abs(ref.y0), abs(ref.yf))
            got = BoundedReference(LIN, ref).value(0.0)
            assert got == pytest.approx(quad_value(LIN, ref, 0.0), abs=1e-10 * scale), ref

    def test_ode_residual_by_construction(self):
        for t in np.linspace(0.0, 2.99, 100):
            v, vd, vdd = self.bref.eval(t)
            yr, yr_dot = yref_eval(REF, t)
            assert vd == LIN.lambda2 * v + LIN.lambda2 * LIN.p2 * yr
            assert vdd == LIN.lambda2 * vd + LIN.lambda2 * LIN.p2 * yr_dot

    def test_continuity_at_transition_end(self):
        eps = 1e-9
        below = self.bref.eval(REF.tf - eps)
        at = self.bref.eval(REF.tf)
        for a, b in zip(below, at):
            assert abs(a - b) < 1e-6  # C^1 junction, derivative scale lam2

    @pytest.mark.parametrize("ref", REFS)
    def test_grid_equals_scalar_recurrence(self, ref):
        # the build's oracle: one scalar yref_eval per Gauss node, panel by panel
        b = BoundedReference(LIN, ref)
        if ref.tf <= max(0.0, ref.t0):
            assert_closed_form_without_window(b, ref)
            return
        lam2, p2 = LIN.lambda2, LIN.p2
        ts = np.linspace(b.t_lo, ref.tf, len(b._knots))
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
        assert knot_values(b) == vals.tolist()

    def test_gauss_literals_equal_leggauss(self):
        gx, gw = np.polynomial.legendre.leggauss(10)
        assert reference._GAUSS_NODES == tuple(gx.tolist())
        assert reference._GAUSS_WEIGHTS == tuple(gw.tolist())

    @pytest.mark.parametrize("ref", REFS + random_refs(30, seed=97))
    def test_spline_equals_scipy(self, ref):
        # the own not-a-knot solve reproduces scipy's spline bit for bit
        b = BoundedReference(LIN, ref)
        if ref.tf <= max(0.0, ref.t0):
            assert_closed_form_without_window(b, ref)
            return
        assert np.array_equal(b._coeffs, CubicSpline(b._knots, knot_values(b)).c)

    @pytest.mark.parametrize("ref", [TransitionRef(0.0, 0.5, 0.0, 0.002),
                                     TransitionRef(0.0, 0.5, 0.0, 0.0064),
                                     TransitionRef(0.2, -0.4, 0.5, 0.51),
                                     TransitionRef(-1.0, 1.0, 0.0, 0.025),
                                     TransitionRef(0.3, 0.7, 1.0, 1.33)])
    def test_short_window_midpoints_match_quad(self, ref):
        # halfway between knots, where the spline's interpolation error peaks;
        # windows under 1 s need the 1000-interval floor for this
        b = BoundedReference(LIN, ref)
        assert len(b._knots) == 1001
        scale = LIN.p2 * max(abs(ref.y0), abs(ref.yf))
        mids = 0.5 * (b._knots[:-1] + b._knots[1:])
        for t in mids[::25].tolist():
            want = quad_value(LIN, ref, t, epsabs=1e-14)
            assert b.value(t) == pytest.approx(want, abs=1e-12 * scale), t

    @pytest.mark.parametrize("ref", random_refs(20, seed=41, t0_min=0.05)
                             + [r for r in REFS + random_refs(30, seed=97) if r.t0 < 0.0 < r.tf])
    def test_value_before_grid_matches_quad(self, ref):
        # before max(0, t0) the value is the analytic decay from the first knot:
        # at t in [0, t0) of delayed windows, up to 0.1 ms before t0 where a
        # spline across t0 would show, and at 0 of windows starting before 0
        b = BoundedReference(LIN, ref)
        scale = LIN.p2 * max(abs(ref.y0), abs(ref.yf))
        ts = [0.0]
        if ref.t0 > 0.0:
            ts = [*np.linspace(0.0, ref.t0, 5)[:-1], ref.t0 - 3e-4, ref.t0 - 1e-4]
        for t in ts:
            want = quad_value(LIN, ref, t, epsabs=1e-14)
            assert b.value(t) == pytest.approx(want, abs=1e-12 * scale), (ref, t)

    def test_one_ulp_before_tf_is_on_the_last_interval(self):
        # there the interval index (t - t_lo) / h rounds up to the interval
        # count, past the last interval, and value clamps it back
        ref = TransitionRef(0.0, 0.5, 1.291323856929842, 2.8254626662376747)
        b = BoundedReference(LIN, ref)
        t = math.nextafter(ref.tf, -math.inf)
        assert int((t - b.t_lo) / b._h) == len(b._knots) - 1
        want = quad_value(LIN, ref, t, epsabs=1e-14)
        assert b.value(t) == pytest.approx(want, abs=1e-12 * LIN.p2 * 0.5)

    def test_early_start_before_window(self):
        ref = TransitionRef(y0=0.3, yf=0.7, t0=1.0, tf=2.0)
        b = BoundedReference(LIN, ref)
        got = b.value(-2.0)
        lam2, p2 = LIN.lambda2, LIN.p2
        want = quad(lambda s: -math.exp(lam2 * (-2.0 - s)) * lam2 * p2 * yref_eval(ref, s)[0],
                    -2.0, 2.0, epsabs=1e-12)[0] - p2 * ref.yf * math.exp(lam2 * (-2.0 - 2.0))
        assert got == pytest.approx(want, abs=1e-9)


@st.composite
def ulp_windows(draw):
    """(y0, yf, t0, tf) with a window k ulps long, k = 1 .. 10**4: in [0.5, 1)
    and [1000, 1024) the k ulps stay in t0's binade, so t0 + k ulp(t0) is exact."""
    t0 = draw(st.sampled_from((0.5, 1.0, 1000.0)))
    return 0.0, 1.0, t0, t0 + draw(st.integers(1, 10_000)) * math.ulp(t0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ulp_windows() | transitions().map(dataclasses.astuple))
def test_every_valid_window_builds_a_finite_spline(fields):
    # a window whose knots would lie under 1 ps apart is a ConfigError; every
    # other builds a spline on increasing knots with finite coefficients
    try:
        ref = TransitionRef(*fields)
    except ConfigError as exc:
        assert str(exc).startswith("transition window [")
        return
    b = BoundedReference(LIN, ref)
    assert (b._knots[:-1] < b._knots[1:]).all() and np.isfinite(b._coeffs).all()
