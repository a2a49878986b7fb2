"""Closed-loop harness: configs, integration, CSV, guards, sweep."""
import collections
import copy
import dataclasses
import functools
import gc
import json
import math
import os
import sys
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import margins_of
from funneltrack import reference, rk45, sim
from funneltrack.bif import phi_inverse
from funneltrack.errors import (ConfigError, DomainError, FunnelViolation, IntegrationError,
                                SimulationError)
from funneltrack.funnel import FunnelSpec, cascade, cascade_margins, observer_rhs, phi_eval
from funneltrack.linid import psi, ynew_derivatives
from funneltrack.model import ManipulatorParams, PlantState, output, plant_rhs
from funneltrack.reference import TransitionRef, yref_eval
from funneltrack.sim import (OBSERVER_COLUMNS, ClosedLoop, DisturbanceSpec,
                             IntegratorConfig, ScenarioConfig, Trajectory, case_study_config,
                             disturbance, integrate, run_sweep, summarize)


class TestDisturbance:
    CASE = DisturbanceSpec(0.1, 5.0, 0.2, 8.0)

    def test_value_at_zero(self):
        assert disturbance(self.CASE, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_zero_spec(self):
        assert all(disturbance(DisturbanceSpec(), t) == 0.0 for t in (0.0, 1.0, 2.5))

    def test_amplitude_bound(self):
        worst = max(abs(disturbance(self.CASE, t)) for t in np.linspace(0, 10, 10001))
        assert worst <= 0.1 + 0.2


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = case_study_config("hg")
        path = tmp_path / "scenario.json"
        cfg.write_json(path)
        assert ScenarioConfig.from_json_file(path) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"mode": "lin", "typo_field": 1})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"mode": "fancy"})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_file(tmp_path / "absent.json")

    # the solver may hand the right-hand side t_end + 1 ulp, where freq * t
    # can overflow though freq * t_end does not
    def test_disturbance_phase_must_stay_finite_one_ulp_past_t_end(self):
        freq = sys.float_info.max / 2.0
        assert math.isfinite(freq * 2.0)
        with pytest.raises(ConfigError, match="disturbance phase freq2"):
            ScenarioConfig(disturbance=DisturbanceSpec(freq2=freq), t_end=2.0)
        ScenarioConfig(disturbance=DisturbanceSpec(freq2=freq), t_end=math.nextafter(2.0, 0.0))

    def test_case_study_defaults(self):
        cfg = case_study_config("lin")
        assert cfg.ref == TransitionRef(0.0, math.pi / 4, 0.0, 3.0)
        assert cfg.funnels[2] == FunnelSpec(60.0, 0.2, 0.001)
        assert cfg.integrator.rel_tol == 1e-9
        assert cfg.integrator.abs_tol == 1e-12
        assert cfg.observer_gains == (1e2, 1e5, 1e6)


def composed(loop, t, state):
    """(rhs, row) of ``loop`` at (t, state), composed from the public layer
    functions on numpy scalars; the oracle for ``ClosedLoop``.  A controller
    error comes from the layers, stamped with t and the state."""
    cfg, lin = loop.cfg, loop.lin
    x = state[:4]
    try:
        if cfg.mode == "hg":
            y_new, y1, y2 = psi(lin, x), state[5], state[6]
        else:
            y_new, y1, y2 = ynew_derivatives(lin, x)
        out = cascade(cfg.funnels, t, y_new, y1, y2, *loop.new_ref.eval(t))
    except SimulationError as exc:
        exc.t, exc.state = t, state.copy()
        raise
    deriv = plant_rhs(cfg.params, x, out.u + disturbance(cfg.disturbance, t))
    row = [t, *x, output(x)[0], yref_eval(cfg.ref, t)[0],
           loop.new_ref.value(t), y_new, *out[2:]]
    if cfg.mode == "hg":
        deriv = np.concatenate([deriv, observer_rhs(cfg.observer_gains, state[4:], y_new)])
        row.extend(state[4:])
    return deriv, row


def states_of(traj):
    """The sampled closed-loop states (plant, then observer) of a trajectory."""
    names = ("alpha", "beta", "alpha_dot", "beta_dot") + OBSERVER_COLUMNS
    return traj.data[:, [traj.columns.index(c) for c in names if c in traj.columns]]


# runs whose samples reach the branches the case study does not
ROW_CONFIGS = (
    # samples before t0 (the decay ahead of the grid), in the window, at and after tf
    ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.4, 0.8), mode="hg", t_end=1.0),
    # tf == t0: a bounded reference without a grid, held from the start
    ScenarioConfig(t_end=0.5),
    # samples at and after tf
    ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.25),
)


class TestClosedLoopRhs:
    def test_equilibrium_zero_scenario(self):
        # each mode on its own, with the observer (hg) at rest on y_new = 0
        for mode in ("lin", "hg"):
            loop = ClosedLoop(ScenarioConfig(mode=mode))
            state = loop.initial_state()
            out = loop.evaluate(0.0, state.tolist())
            assert out.u == 0.0 and out.y_new == 0.0
            assert loop.rhs(0.0, state) == [0.0] * len(state)

    def test_case_study_start_is_finite_and_moderate(self):
        cfg = case_study_config("lin")
        loop = ClosedLoop(cfg)
        out = loop.evaluate(0.0, loop.initial_state().tolist())
        assert abs(out.u) < 100.0
        # the start lies inside funnel 0: y_new = 0 against the reference
        assert out.e0 == -loop.new_ref.value(0.0)
        assert phi_eval(cfg.funnels[0], 0.0)[0] * abs(out.e0) < 1.0
        deriv = loop.rhs(0.0, loop.initial_state())
        assert np.all(np.isfinite(deriv))

    def test_lin_and_hg_agree_with_exact_observer(self):
        cfg_lin = case_study_config("lin")
        cfg_hg = case_study_config("hg")
        loop_lin, loop_hg = ClosedLoop(cfg_lin), ClosedLoop(cfg_hg)
        rng = np.random.default_rng(83)
        for _ in range(50):
            x = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                          rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)])
            t = rng.uniform(0.0, 2.0)
            zeta = ynew_derivatives(loop_hg.lin, x)
            try:
                want = loop_lin.evaluate(t, x.tolist())
            except FunnelViolation:
                continue  # random state outside the funnels; not the point here
            got = loop_hg.evaluate(t, [*x.tolist(), *zeta])
            assert type(got) is type(want) and got == want  # the whole record

    def test_matches_layer_composition_bit_for_bit(self, case_lin, case_hg):
        # all samples in one array pass, each the bits of the scalar oracle
        runs = [(run.cfg, run.traj) for run in (case_lin, case_hg)]
        runs += [(cfg, integrate(cfg)) for cfg in ROW_CONFIGS]
        for cfg, traj in runs:
            loop = ClosedLoop(cfg)
            states = states_of(traj)
            rows = loop.row(traj.t, states)
            assert np.array_equal(rows, traj.data)
            for i in range(len(traj.t)):
                t, state = traj.t[i], states[i]
                want_rhs, want_row = composed(loop, t, state)
                assert np.array_equal(loop.rhs(t, state), want_rhs)
                assert np.array_equal(rows[i], want_row)

    def test_a_dropped_loop_is_freed_without_the_cycle_collector(self):
        assert_freed_without_the_cycle_collector("hg")

    def test_a_dropped_lin_loop_is_freed_without_the_cycle_collector(self):
        assert_freed_without_the_cycle_collector("lin")

    def test_kernel_calls_no_reference_code(self, monkeypatch):
        assert_kernel_calls_no_reference_code(ClosedLoop(ROW_CONFIGS[2]), monkeypatch)

    def test_hg_kernel_calls_no_reference_code(self, monkeypatch):
        loop = ClosedLoop(dataclasses.replace(ROW_CONFIGS[2], mode="hg"))
        assert_kernel_calls_no_reference_code(loop, monkeypatch)

    def test_row_computes_no_dynamics(self, case_lin, case_hg, monkeypatch):
        def no_dynamics(*args):
            raise AssertionError("an output row evaluated the dynamics")

        for run in (case_lin, case_hg):
            loop = ClosedLoop(run.cfg)
            monkeypatch.setattr(loop, "_kernel", no_dynamics)
            assert np.array_equal(loop.row(run.traj.t, states_of(run.traj)), run.traj.data)

    @pytest.mark.parametrize("mode, column, shift, level", [
        ("lin", 1, 1.5, None),    # cos(beta) < 2/3
        ("hg", 1, 1.5, None),
        ("lin", 0, 3.0, 0),       # y_new far from its reference
        ("hg", 0, 3.0, 0),
        ("lin", 0, 1e200, 0),     # so far that (phi e0)**2 would overflow
        ("hg", 0, 1e200, 0),
        ("hg", 5, 60.0, 1),       # observer's first derivative estimate
        ("hg", 6, 1e4, 2),        # observer's second derivative estimate
    ])
    def test_violations_match_layer_composition(self, case_lin, case_hg, mode, column,
                                                shift, level):
        # the row batch holds every sample, only the middle one pushed out
        run = case_lin if mode == "lin" else case_hg
        loop = ClosedLoop(run.cfg)
        i = 1500
        t = run.traj.t[i]
        states = states_of(run.traj)
        states[i, column] += shift
        state = states[i]
        want = outcome(composed, loop, t, state)
        assert type(want) in (DomainError, FunnelViolation) and want.t == t and want.level == level
        for got in (outcome(loop.rhs, t, state), outcome(loop.row, run.traj.t, states)):
            assert outcome_bits(got) == outcome_bits(want)


def assert_freed_without_the_cycle_collector(mode):
    """The right-hand-side kernel of a ``mode`` loop holds no reference to its
    loop; a sweep builds a loop per point, each with its reference's spline
    tables."""
    gc.disable()
    try:
        loop = ClosedLoop(case_study_config(mode))
        ref = weakref.ref(loop)
        del loop
        assert ref() is None
    finally:
        gc.enable()


def assert_kernel_calls_no_reference_code(loop, monkeypatch):
    """Inside the funnels, in the window, at tf and after it, the kernel gives
    its bits with every reference evaluation raising."""
    tf = loop.cfg.ref.tf
    points = [(t, placed_state(loop, t, 0.1, 0.05, 0.1, [0.3, -0.2, 0.4], 0.0))
              for t in (0.25, 0.5, 0.999, tf, tf + 1e-9, 1.2)]
    want = [loop.rhs(t, state) for t, state in points]

    def no_reference(*args):
        raise AssertionError("the kernel evaluated the reference")

    for owner, name in ((sim.BoundedReference, "eval"), (sim.BoundedReference, "value"),
                        (sim, "yref_eval"), (reference, "yref_eval")):
        monkeypatch.setattr(owner, name, no_reference)
    got = [loop.rhs(t, state) for t, state in points]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared whole below, whatever its type
        return exc


def outcome_bits(got):
    """An outcome of ``rhs`` as comparable data: its values' bytes, or the
    exception's type, message, level, time and state bytes."""
    if isinstance(got, Exception):
        state = getattr(got, "state", None)
        return (type(got), str(got), getattr(got, "level", None), getattr(got, "t", None),
                None if state is None else state.tobytes())
    return np.array(got).tobytes()


def assert_same_outcome(loop, t, state):
    """``loop.rhs`` at (t, state), the state an array or stage parts
    ``(increment, h, base)``, the kernel at (t, state) handed ``evaluate``'s
    record of the array that the state forms, as ``rhs`` hands it where the
    kernel returns None, and ``rhs`` at that array give the bits of
    ``composed`` at that array as a list of Python floats, or raise as it
    does: the same type, message, level, time and state bytes.  Where
    ``composed`` gives a value, the kernel gives one too, except at the
    layers' own times: before ``max(0, t0)``, and before tf where tau = (t -
    t0) / (tf - t0) is 0."""
    array = rk45.formed(state)
    want = outcome(lambda: composed(loop, t, array)[0])
    ref = loop.cfg.ref
    if not (isinstance(want, Exception) or t < max(0.0, ref.t0)
            or t < ref.tf and (t - ref.t0) / (ref.tf - ref.t0) == 0.0):
        assert loop._kernel(t, state) is not None

    def with_record(t, state):
        return loop._kernel(t, state, loop.evaluate(t, array.tolist()))

    calls = [(loop.rhs, state), (with_record, state)]
    if type(state) is tuple:
        calls.append((loop.rhs, array))
    for rhs, arg in calls:
        got = outcome(rhs, t, arg)
        assert outcome_bits(got) == outcome_bits(want)
        assert (isinstance(got, Exception)
                or type(got) is list and all(type(v) is float for v in got))


def placed_state(loop, t, beta, y, y_dot, margins, zeta1):
    """A state at time t with the funnel margins phi_i e_i near ``margins``.

    It reads y_new's targets (y_new, y1, y2) off the margins through the
    cascade's algebra, up to the first margin past 1.  In hg mode y and y_dot
    are kept, and the observer's estimates are y1 and y2; in lin mode y and
    y_dot are set so that the ladder gives y1 and y2.  ``phi_inverse`` then
    makes the plant state with this beta and the eta2 that gives y_new."""
    lin, observer = loop.lin, loop.observer
    (phi0, phi0_dot), (phi1, _), (phi2, _) = [phi_eval(f, t) for f in loop.cfg.funnels]
    r0, r1, r2 = loop.new_ref.eval(t)
    lam2, p2 = lin.lambda2, lin.p2
    e0 = margins[0] / phi0
    y_new, y1, y2 = r0 + e0, lam2 * (r0 + e0) + lam2 * p2 * y, 0.0
    if abs(margins[0]) < 1.0:
        k0 = 1.0 / (1.0 - margins[0] ** 2)
        e1 = margins[1] / phi1
        e0_1 = e1 - k0 * e0
        y1 = r1 + e0_1
        if abs(margins[1]) < 1.0:
            k0_1 = 2.0 * phi0 * e0 * k0 * k0 * (phi0_dot * e0 + phi0 * e0_1)
            k1 = 1.0 / (1.0 - margins[1] ** 2)
            y2 = r2 + margins[2] / phi2 - k0 * e0_1 - k0_1 * e0 - k1 * e1
    if not observer:
        y = (y1 - lam2 * y_new) / (lam2 * p2)
        y_dot = (y2 - lam2 * y1) / (lam2 * p2)
    w0, w1 = lin.unstable_row
    x = phi_inverse([y, y_dot, beta, (y_new + p2 * y - w0 * beta) / w1]).tolist()
    return np.array(x + [y_new + zeta1, y1, y2] * observer)


def bounded(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def kernel_cases(draw):
    """The ClosedLoop of a drawn scenario in each mode, and (t, state) points to
    evaluate both at.

    The reference window starts before 0, at 0 or after it, or is a step
    (tf == t0); t lies at t0, before it, in the window, one ulp before tf,
    at tf or after it; and the states sit inside the funnels, near a wall or
    past one, or outside cos(beta) > 2/3, or have a NaN angle."""
    t0 = draw(st.sampled_from((-0.3, 0.0, 0.4)) | bounded(-1.0, 1.0))
    tf = t0 + draw(st.sampled_from((0.0, 0.5, 1.0)) | bounded(0.05, 1.0))
    cfg = ScenarioConfig(
        params=ManipulatorParams(draw(bounded(0.3, 3.0)), draw(bounded(0.3, 3.0)),
                                 draw(bounded(0.1, 5.0)), draw(bounded(0.0, 2.0))),
        ref=TransitionRef(draw(bounded(-0.5, 0.5)), draw(bounded(-0.5, 0.5)), t0, tf),
        funnels=tuple(FunnelSpec(draw(bounded(0.0, 3.0)), draw(bounded(0.1, 3.0)),
                                 draw(bounded(0.01, 1.0))) for _ in range(3)),
        observer_gains=(draw(bounded(1.0, 1e3)), draw(bounded(1.0, 1e5)),
                        draw(bounded(1.0, 1e6))),
        disturbance=DisturbanceSpec(draw(bounded(-2.0, 2.0)), draw(bounded(0.0, 10.0)),
                                    draw(bounded(-2.0, 2.0)), draw(bounded(0.0, 10.0))))
    loops = [ClosedLoop(dataclasses.replace(cfg, mode=mode)) for mode in ("lin", "hg")]
    t_lo, t_hi = max(0.0, t0), max(0.0, tf)
    window = bounded(t_lo, max(t_lo, t_hi))
    below_tf = max(t_lo, math.nextafter(t_hi, -math.inf))  # on the spline's last interval
    times = (st.sampled_from((t_lo, below_tf, t_hi)) | bounded(0.0, t_lo)
             | bounded(t_hi, t_hi + 2.0) | window)
    points = []
    for _ in range(draw(st.integers(1, 10))):
        t = draw(window | times)
        margins = [draw(bounded(-1.05, 1.05) | bounded(0.99, 1.0)) for _ in range(3)]
        placed = (t, draw(bounded(-0.8, 0.8)), draw(bounded(-1.0, 1.0)), draw(bounded(-3.0, 3.0)),
                  margins, draw(bounded(-0.1, 0.1)))
        beta = None  # now and then NaN, or past the domain's edge at 0.841
        if draw(st.integers(0, 9)) == 0:
            beta = draw(st.sampled_from((math.nan, -0.9, 0.9)))
        points.append((placed, beta))
    return loops, points


def case_states(case):
    """The (loop, t, state) triples of a ``kernel_cases`` example."""
    loops, points = case
    for loop in loops:
        for placed, beta in points:
            state = placed_state(loop, *placed)
            if beta is not None:
                state[1] = beta
            yield loop, placed[0], state


# about four times the right-hand-side calls of each of the amp1 sweep's
# violating points (10 766 to 12 500) up to its funnel stop
MAX_CALLS_TO_THE_STOP = 50_000


class TestKernelMatchesLayers:
    # a failure is reported as drawn: shrinking it took minutes, two ClosedLoops a try
    @settings(max_examples=60, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(kernel_cases())
    def test_rhs_equals_the_layer_composition(self, case):
        for loop, t, state in case_states(case):
            assert_same_outcome(loop, t, state)

    # each state handed over as stage parts (increment, h, base), as
    # rk45.solve(..., stage_parts=True) hands them over, with base entries of
    # either zero, subnormals and NaN
    @settings(max_examples=60, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(kernel_cases(), st.data())
    def test_stage_parts_give_the_bits_of_the_formed_state(self, case, data):
        special = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, math.nan))
        for loop, t, state in case_states(case):
            h = data.draw(bounded(1e-8, 0.05))
            base = np.array([data.draw(special | st.just(v)) for v in state.tolist()])
            increment = np.array([data.draw(st.sampled_from((0.0, -0.0)) | st.just(v))
                                  for v in ((state - base) / h).tolist()])
            assert_same_outcome(loop, t, (increment, h, base.tolist()))

    # one ulp before tf the spline's interval index rounds up to the interval
    # count, and the kernel clamps it back to the last interval; funnels this
    # wide hold any other interval's value too, so the kernel answers itself
    @pytest.mark.parametrize("mode", ["lin", "hg"])
    def test_one_ulp_before_tf_is_on_the_last_interval(self, mode):
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.5, 1.291323856929842, 2.8254626662376747),
                             funnels=(FunnelSpec(0.0, 1.0, 100.0),) * 3, mode=mode)
        loop, t = ClosedLoop(cfg), math.nextafter(cfg.ref.tf, -math.inf)
        assert int((t - loop.new_ref.t_lo) / loop.new_ref.gap) == len(loop.new_ref.knots) - 1
        state = placed_state(loop, t, 0.2, 0.1, 0.3, [0.5, 0.5, 0.5], 0.0)
        assert_same_outcome(loop, t, state)

    # the state entry stepped: alpha for funnel 0; in lin the velocities, in hg
    # the observer's estimates for funnels 1 and 2
    @pytest.mark.parametrize("mode, level, entry", [("lin", 0, 0), ("lin", 1, 2), ("lin", 2, 3),
                                                    ("hg", 0, 0), ("hg", 1, 5), ("hg", 2, 6)])
    def test_each_gain_squares_as_the_layers_do(self, mode, level, entry):
        # pow(pe, 2) and pe * pe differ in the last bit at about one pe in
        # 500 near 0.99: step one state entry by a relative 1e-12 until the
        # margin pe at this level is such a value, and compare there
        loop, t = ClosedLoop(case_study_config(mode)), 1.0
        margins = [0.99 if i == level else 0.5 for i in range(3)]
        state = placed_state(loop, t, 0.2, 0.1, 0.3, margins, 0.0)
        for _ in range(20_000):
            e = loop.evaluate(t, state.tolist())[2 + level]
            pe = phi_eval(loop.cfg.funnels[level], t)[0] * e
            if pe ** 2 != pe * pe:
                break
            state[entry] += 1e-12 * (1.0 + abs(state[entry]))
        else:
            pytest.skip("this C library's pow(pe, 2) is pe * pe near the wall")
        assert 0.9 < abs(pe) < 1.0
        assert_same_outcome(loop, t, state)

    # a NaN error is not inside its funnel: the kernel hands it to the layers,
    # which raise at the first level the NaN reaches
    @pytest.mark.parametrize("mode, entry, level", [("lin", 2, 0), ("hg", 5, 1), ("hg", 6, 2)])
    def test_nan_error_is_outside_the_funnel(self, mode, entry, level):
        loop, t = ClosedLoop(case_study_config(mode)), 1.0
        state = placed_state(loop, t, 0.2, 0.1, 0.3, [0.5, 0.5, 0.5], 0.0)
        state[entry] = math.nan
        stop = outcome(loop.rhs, t, state)
        assert type(stop) is FunnelViolation and stop.level == level
        assert_same_outcome(loop, t, state)

    @pytest.mark.parametrize("amp1", np.linspace(0.0, 3.0, 8)[4:].tolist())
    def test_last_states_before_a_pinned_funnel_stop(self, amp1, monkeypatch):
        # the violating points of the amp1 sweep of the hg case study: each
        # rides a funnel wall until the step size underflows, where a gain's
        # square decides the last bits
        hg = case_study_config("hg")
        cfg = dataclasses.replace(hg, disturbance=dataclasses.replace(hg.disturbance, amp1=amp1))
        calls = collections.deque(maxlen=1000)
        made = 0
        rhs = ClosedLoop.rhs

        def recorded(self, t, state):
            # a kernel fault that moves the trajectory off the wall fails here,
            # not after a solve to t_end or a crawl along another wall
            nonlocal made
            made += 1
            assert made <= MAX_CALLS_TO_THE_STOP, f"no funnel stop in {made - 1} calls"
            calls.append((t, copy.deepcopy(state)))  # an array or stage parts, as handed over
            return rhs(self, t, state)

        monkeypatch.setattr(ClosedLoop, "rhs", recorded)
        with pytest.raises(FunnelViolation) as stop:
            integrate(cfg)
        monkeypatch.undo()
        assert stop.value.level == 2 and isinstance(stop.value.__cause__, IntegrationError)
        loop = ClosedLoop(cfg)
        for t, state in calls:
            assert_same_outcome(loop, t, state)

    # the kernel is a pure function of (t, state): calls in any order, with
    # any state and either form of it, give a fresh loop's bits
    @pytest.mark.parametrize("case", ["lin", "hg", "either_zero_time"])
    def test_calls_in_any_order_give_a_fresh_loops_bits(self, case):
        if case == "either_zero_time":
            # -0.0 == 0.0, but past tf, with amp2 = -0.0, the disturbance is a
            # zero of t's sign, and alpha'' carries it where u = -0.0
            loop = ClosedLoop(ScenarioConfig(ref=TransitionRef(0.0, -0.0, -1.0, -0.5), mode="hg",
                                             disturbance=DisturbanceSpec(1.0, 1.0, -0.0, 0.0)))
            state = np.array([0.0, -0.0, 0.0, 0.0, 0.0, -0.0, -0.0])
            calls = [(0.0, state), (-0.0, state), (0.0, state)]
        else:
            loop = ClosedLoop(case_study_config(case))
            t1, t2 = 1.0, 1.0 + 2.0 ** -40
            s1 = placed_state(loop, t1, 0.2, 0.1, 0.3, [0.5, -0.4, 0.3], 0.0)
            s2 = placed_state(loop, t2, -0.1, 0.05, -0.2, [-0.3, 0.2, 0.6], 0.01)
            h = 1e-3
            parts = ((s2 - s1) / h, h, s1.tolist())
            calls = [(t1, s1), (t2, s2), (t1, s2), (t2, s1), (t1, s1),  # alternating
                     (t1, s2), (t1, s1),  # t repeated, the state new
                     (t2, parts), (t2, s1), (t1, parts), (t1, s2)]  # stage parts between
        got = [outcome(loop.rhs, t, state) for t, state in calls]
        assert not any(isinstance(g, Exception) for g in got)
        bits = [outcome_bits(g) for g in got]
        assert bits == [outcome_bits(outcome(ClosedLoop(loop.cfg).rhs, t, state))
                        for t, state in calls]
        assert bits[0] != bits[1]  # so an answer kept from the first call would show


class TestReferenceCache:
    def test_loops_of_one_config_share_one_reference(self):
        a, b = ClosedLoop(case_study_config("hg")), ClosedLoop(case_study_config("lin"))
        assert a.new_ref is b.new_ref and a.lin is b.lin

    def test_equal_configs_of_other_bits_get_their_own_bytes(self):
        # equal, and equal in hash, but y_ref and y_bar_ref differ in the sign
        # of zero from tf on
        pos = ScenarioConfig(ref=TransitionRef(0.0, 0.0, 0.0, 0.5), t_end=1.0)
        neg = dataclasses.replace(pos, ref=TransitionRef(0.0, -0.0, 0.0, 0.5))
        assert pos == neg and hash(pos) == hash(neg)
        cached = [integrate(cfg).data.tobytes() for cfg in (pos, neg, pos)]
        built = []
        for cfg in (pos, neg, pos):
            sim._split_and_reference.cache_clear()
            built.append(integrate(cfg).data.tobytes())
        assert cached == built and built[0] != built[1]


class TestCaseStudyRuns:
    def test_lin_run(self, case_lin):
        s = summarize(case_lin.cfg, case_lin.traj)
        assert s["funnel_invariant"]
        assert s["max_abs_beta"] < math.acos(2 / 3)
        assert len(case_lin.traj.t) == 3001

    def test_hg_run(self, case_hg):
        s = summarize(case_hg.cfg, case_hg.traj)
        assert s["funnel_invariant"]
        assert s["max_abs_beta"] < math.acos(2 / 3)
        assert case_hg.traj.columns[-3:] == ("zeta1", "zeta2", "zeta3")

    def test_worst_margin_and_its_time(self, case_lin, case_hg):
        for run in (case_lin, case_hg):
            s = summarize(run.cfg, run.traj)
            margins = margins_of(run)
            for j, (worst, t) in enumerate(zip(s["max_funnel_margins"],
                                               s["max_funnel_margin_times"])):
                assert worst == np.max(margins[:, j])
                i = int(np.flatnonzero(run.traj.t == t)[0])
                assert margins[i, j] == worst and np.all(margins[:i, j] < worst)

    def test_observer_tracks_auxiliary_output(self, case_hg):
        # after the transient, zeta1 follows y_new closely
        traj = case_hg.traj
        mask = traj.t >= 0.5
        assert np.max(np.abs(traj["zeta1"][mask] - traj["y_new"][mask])) < 1e-3

    def test_sampled_time_grid(self, case_lin):
        t = case_lin.traj.t
        assert t[0] == 0.0 and t[-1] == 3.0
        assert np.allclose(np.diff(t), 1e-3, atol=1e-12)

    def test_trajectory_invariants(self, case_lin, case_hg):
        for run in (case_lin, case_hg):
            assert np.all(np.diff(run.traj.t) > 0)
            assert np.all(np.isfinite(run.traj.data))
            for col in ("k0", "k1", "k2"):
                assert np.all(run.traj[col] >= 1.0)
            assert np.max(np.abs(run.traj["u"])) < 1e3


class TestCsv:
    def test_header_and_digits(self, tmp_path, case_lin):
        path = tmp_path / "lin.csv"
        case_lin.traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,alpha,beta,alpha_dot,beta_dot,y,y_ref,y_bar_ref,"
                            "y_new,e0,e1,e2,k0,k1,k2,u")
        # >= 15 significant digits survive a parse round-trip
        first = lines[1].split(",")
        assert float(first[0]) == case_lin.traj.t[0]
        reparsed = np.array([float(v) for v in lines[2].split(",")])
        assert np.array_equal(reparsed, case_lin.traj.data[1])

    def test_bit_identical_reruns(self, tmp_path):
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        integrate(cfg).write_csv(a)
        integrate(cfg).write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unix_newlines(self, tmp_path, case_lin):
        path = tmp_path / "nl.csv"
        case_lin.traj.write_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    # no rows, one, a block less one, a block, a block and one, the case study
    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 3001])
    def test_blocks_write_the_bytes_of_one_row_at_a_time(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        data = rng.standard_normal((rows, 9)) * 10.0 ** rng.integers(-300, 300, (rows, 9))
        if rows:
            special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
            data.flat[rng.choice(data.size, len(special), replace=False)] = special
        traj = Trajectory(columns=tuple(f"c{i}" for i in range(9)), data=data, solver={})
        fmt = ",".join(["%.17g"] * 9) + "\n"
        want = "c0,c1,c2,c3,c4,c5,c6,c7,c8\n" + "".join(fmt % tuple(r) for r in data.tolist())
        path = tmp_path / "blocks.csv"
        traj.write_csv(path)
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("repeat", [1, 4])
    def test_writer_holds_a_block_not_the_table(self, tmp_path, case_hg, repeat):
        # the hg case study (3001 x 19) and a table four times as long: the
        # whole table as Python floats takes about 2 MiB, and 8 MiB
        traj = case_hg.traj
        traj = dataclasses.replace(traj, data=np.concatenate([traj.data] * repeat))
        tracemalloc.start()
        try:
            traj.write_csv(tmp_path / "hg.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


def _stop_configs():
    base, hg = case_study_config("lin"), case_study_config("hg")
    hopeless = (FunnelSpec(0.001, 0.8, 0.001),) * 3  # boundary ~ 0.002
    # funnel 0 tightened: the run still leaves funnel 2, at t = 0.0471
    tight = (FunnelSpec(1.5, 100.0, 1e-4), base.funnels[1], base.funnels[2])
    return {
        "lin-beta=1": ScenarioConfig(x0=PlantState(beta=1.0)),  # cos(1) < 2/3
        "hg-beta=1": ScenarioConfig(x0=PlantState(beta=1.0), mode="hg"),
        "lin-outside-funnel-0": ScenarioConfig(ref=base.ref, funnels=hopeless, mode="lin"),
        "hg-outside-funnel-0": ScenarioConfig(ref=base.ref, funnels=hopeless, mode="hg"),
        # so far out that (phi e)**2 would overflow
        "lin-far-outside-funnel-0": ScenarioConfig(x0=PlantState(alpha=1e200)),
        "hg-far-outside-funnel-0": ScenarioConfig(x0=PlantState(alpha=1e200), mode="hg"),
        "mid-run": ScenarioConfig(ref=base.ref, funnels=tight, mode="lin",
                                  disturbance=base.disturbance, t_end=0.5,
                                  integrator=IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9,
                                                              min_step=1e-10)),
        "pinned": dataclasses.replace(
            hg, disturbance=dataclasses.replace(hg.disturbance, amp1=12 / 7)),
        "abs_tol=1e-150": dataclasses.replace(base, integrator=IntegratorConfig(abs_tol=1e-150)),
        # the disturbed case study past the transition (README, "Past 3 s")
        "lin-12s": dataclasses.replace(base, t_end=12.0),
        "hg-12s": dataclasses.replace(hg, t_end=12.0),
    }


STOP_CONFIGS = _stop_configs()


@functools.cache
def stopped(name):
    """(config, the SimulationError that stops its run); each runs once."""
    cfg = STOP_CONFIGS[name]
    with pytest.raises(SimulationError) as exc:
        integrate(cfg)
    return cfg, exc.value


class TestGuardsAndFailures:
    @pytest.mark.usefixtures("one_non_finite_sample")
    def test_non_finite_sample_is_a_violation_at_t_end(self):
        cfg = dataclasses.replace(case_study_config("lin"), t_end=0.5)
        with pytest.raises(FunnelViolation) as exc:
            integrate(cfg)
        assert str(exc.value) == "non-finite values in sampled trajectory"
        assert exc.value.t == cfg.t_end and exc.value.level is None

    def test_forced_funnel_violation_is_clean(self):
        # the one tier-1 run through integrate in which a guard exception
        # reaches min_step mid-run, after about 123 000 RHS calls;
        # rk45.solve passes on the FunnelViolation that ClosedLoop.evaluate
        # stamped, so no IntegrationError is its cause
        _, exc = stopped("mid-run")
        assert type(exc) is FunnelViolation and exc.level == 2
        assert 0.04 < exc.t < 0.05
        assert exc.__cause__ is None
        assert exc.state is not None and np.all(np.isfinite(exc.state))

    def test_infeasible_start_raises_immediately(self):
        for name in ("lin-outside-funnel-0", "lin-far-outside-funnel-0"):
            _, exc = stopped(name)
            assert type(exc) is FunnelViolation and exc.t == 0.0 and exc.level == 0

    def test_domain_exit_reported(self):
        assert type(stopped("lin-beta=1")[1]) is DomainError

    def test_step_underflow_at_a_funnel_wall_is_a_violation(self):
        # the hg case study with amp1 = 12/7 rides funnel 2 until the step
        # size underflows; integrate reads the margins there and reports it
        _, exc = stopped("pinned")
        assert type(exc) is FunnelViolation and exc.level == 2
        assert 1.0 < exc.t < 1.2
        assert isinstance(exc.__cause__, IntegrationError)
        assert "pinned against funnel 2" in str(exc)

    @pytest.mark.parametrize("name", STOP_CONFIGS)
    def test_every_stop_carries_its_time_and_state(self, name):
        cfg, exc = stopped(name)
        loop = ClosedLoop(cfg)
        assert type(exc.t) is float
        assert exc.state.shape == (7 if cfg.mode == "hg" else 4,)
        assert np.all(np.isfinite(exc.state))
        if isinstance(exc, IntegrationError) or exc.__cause__ is not None:
            # the solver stopped on a step-size underflow at an accepted
            # state, where the controller still runs
            out = loop.evaluate(exc.t, exc.state.tolist())
            margins = cascade_margins(cfg.funnels, [exc.t], [[out.e0], [out.e1], [out.e2]])[0]
            assert exc.level == (None if max(margins) < 0.99 else int(np.argmax(margins)))
        else:
            # a guard error: the controller raises it again from its stamp
            again = outcome(loop.evaluate, exc.t, exc.state.tolist())
            assert type(again) is type(exc) and again.level == exc.level
            assert again.t == exc.t and np.array_equal(again.state, exc.state)

    def test_start_failures_are_stamped_alike_in_both_modes(self):
        for kind in ("beta=1", "outside-funnel-0", "far-outside-funnel-0"):
            (_, lin), (_, hg) = stopped("lin-" + kind), stopped("hg-" + kind)
            assert type(lin) is type(hg) and str(lin) == str(hg)
            assert lin.t == hg.t == 0.0 and lin.level == hg.level
            # the start, with the observer at zero in hg mode
            assert hg.state.tolist() == lin.state.tolist() + [0.0, 0.0, 0.0]

    def test_underflow_below_the_funnel_walls_stays_an_integrator_failure(self):
        # abs_tol = 1e-150 is valid but the start's first step already
        # underflows; the margins there are far below 0.99, so integrate
        # re-raises the solver's error with the start time and state
        cfg, exc = stopped("abs_tol=1e-150")
        assert type(exc) is IntegrationError and exc.__cause__ is None
        assert exc.t == 0.0
        assert np.array_equal(exc.state, ClosedLoop(cfg).initial_state())

    def test_disturbed_hg_run_past_the_transition_leaves_funnel_2(self):
        # the present outcome of the case study extended to 12 s: funnel 2 at
        # t = 3.9405, reached as a step-size underflow (README, "Past 3 s")
        _, exc = stopped("hg-12s")
        assert type(exc) is FunnelViolation and exc.level == 2
        assert 3.93 < exc.t < 3.95
        assert isinstance(exc.__cause__, IntegrationError)

    def test_disturbed_lin_run_past_the_transition_leaves_funnel_1(self):
        # the lin case study extended to 12 s stalls at t = 5.5376 against
        # funnel 1, for every min_step from 1e-9 to 1e-6 (README, "Past 3 s")
        _, exc = stopped("lin-12s")
        assert type(exc) is FunnelViolation and exc.level == 1
        assert 5.53 < exc.t < 5.55
        assert isinstance(exc.__cause__, IntegrationError)
        assert "pinned against funnel 1" in str(exc)

    @pytest.mark.parametrize("name", ["lin-12s", "hg-12s"])
    def test_past_3s_stop_belongs_to_the_ode_not_to_rk45(self, name):
        # scipy's LSODA, a multistep method sharing no code with rk45, stops
        # on the same ClosedLoop.rhs within 1e-6 s of rk45 (measured 5e-7 s).
        # Its level may differ: in lin it reads 2, where rk45 reads 1, since
        # both margins pass 0.99 there
        cfg, exc = stopped(name)
        loop = ClosedLoop(cfg)
        with pytest.raises(SimulationError) as lsoda:
            solve_ivp(loop.rhs, (0.0, cfg.t_end), loop.initial_state(), method="LSODA",
                      rtol=cfg.integrator.rel_tol, atol=cfg.integrator.abs_tol)
        assert abs(lsoda.value.t - exc.t) < 1e-6


class TestToleranceConvergence:
    @pytest.mark.parametrize("fixture, t_end", [("case_lin", 3.0), ("case_hg", 0.5)])
    def test_error_budget_against_a_100x_tighter_run(self, request, fixture, t_end):
        # the shipped case study against rel_tol 1e-11 (abs_tol 1e-3 rel_tol,
        # the shipped ratio); measured sup |dy| 7.2e-12 (lin), 1.0e-15 (hg)
        # and sup |du| 3.3e-9 (lin), 2.3e-10 (hg); README states the budget
        run = request.getfixturevalue(fixture)
        tight = integrate(dataclasses.replace(
            run.cfg, t_end=t_end, integrator=IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14)))
        n = len(tight.t)
        assert np.array_equal(tight.t, run.traj.t[:n])
        assert np.max(np.abs(run.traj["y"][:n] - tight["y"])) <= 1e-10
        assert np.max(np.abs(run.traj["u"][:n] - tight["u"])) <= 1e-7

    def test_halving_rel_tol_converges(self):
        base = case_study_config("lin")
        short = ScenarioConfig(ref=base.ref, mode="lin", disturbance=base.disturbance,
                               t_end=1.5)
        tight = ScenarioConfig(ref=base.ref, mode="lin", disturbance=base.disturbance,
                               t_end=1.5, integrator=IntegratorConfig(rel_tol=5e-10))
        a = integrate(short)
        b = integrate(tight)
        diff = np.max(np.abs(a.data[-1, 1:5] - b.data[-1, 1:5]))
        assert diff <= 10 * 5e-10 * max(1.0, np.max(np.abs(a.data[-1, 1:5])))


class TestSweep:
    def test_disturbance_amplitude_sweep(self):
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.0)
        rows = run_sweep(cfg, "disturbance.amp1", 0.0, 0.2, 3, parallel=False)
        assert [r["value"] for r in rows] == [0.0, 0.1, 0.2]
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["funnel_invariant"] for r in rows)
        assert all(r["solver"]["naccept"] > 0 for r in rows)

    def test_parallel_matches_serial(self):
        # the disturbed hg case study, whose larger amplitudes stop at a
        # funnel wall; more points than workers: a worker reuses its
        # reference for its ok and its failed points
        cfg = dataclasses.replace(case_study_config("hg"), t_end=1.2)
        serial = run_sweep(cfg, "disturbance.amp1", 0.0, 3.0, 4, parallel=False)
        parallel = run_sweep(cfg, "disturbance.amp1", 0.0, 3.0, 4, parallel=True)
        assert [row["status"] for row in serial] == ["ok", "ok"] + ["FunnelViolation"] * 2
        assert [round(row["t"], 4) for row in serial[2:]] == [1.1010, 1.0585]
        assert json.dumps(serial) == json.dumps(parallel)

    # the CPUs this process may run on (None: a platform without
    # sched_getaffinity), and the machine's count
    @pytest.mark.parametrize("mask, cpus, workers", [
        pytest.param(None, 64, 2, id="64-2"), pytest.param(None, None, 1, id="None-1"),
        pytest.param(set(range(64)), 64, 2, id="mask-64-64-2"),
        pytest.param({3}, 64, 1, id="mask-1-64-1")])
    def test_pool_has_at_most_one_worker_per_point(self, monkeypatch, mask, cpus, workers):
        # under fork the pool starts every worker it may have at the first
        # submit, so a cap above the point count, or above the CPUs a
        # taskset or cpuset leaves the process, forks idle processes; the
        # recorder never starts more workers than the sweep has points
        requested = []

        class Recorder(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                requested.append(max_workers)
                super().__init__(min(max_workers or 1, 2), **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if mask is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=0.1)
        rows = run_sweep(cfg, "disturbance.amp1", 0.0, 0.1, 2)
        assert requested == [workers]
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_failed_point_is_a_status_row(self, monkeypatch):
        for exc, t, level in [
                (FunnelViolation("funnel boundary reached", t=0.5, level=1), 0.5, 1),
                (IntegrationError("step size underflow", t=0.25), 0.25, None),
                (DomainError("left the admissible region", t=0.75), 0.75, None)]:
            def fail(cfg):
                raise exc

            monkeypatch.setattr(sim, "integrate", fail)
            rows = run_sweep(ScenarioConfig(), "disturbance.amp1", 0.5, 0.5, 1, parallel=False)
            assert json.loads(json.dumps(rows)) == [
                {"value": 0.5, "status": type(exc).__name__, "detail": str(exc),
                 "t": t, "level": level}]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(ScenarioConfig(), "params.bogus", 0.0, 1.0, 2)

    def test_link_length_sweeps_on_its_own(self):
        assert ManipulatorParams(l=0.5).l == 0.5
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=0.3)
        rows = run_sweep(cfg, "params.l", 0.8, 1.2, 3, parallel=False)
        assert [r["value"] for r in rows] == [0.8, 1.0, 1.2]
        assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
        assert rows[0]["y_final"] != rows[1]["y_final"]

    def test_list_indexed_fields(self):
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), mode="hg", t_end=0.3)
        eps = run_sweep(cfg, "funnels.0.eps", 1e-3, 2e-3, 2, parallel=False)
        gains = run_sweep(cfg, "observer_gains.1", 1e5, 2e5, 2, parallel=False)
        for rows in (eps, gains):
            assert [r["status"] for r in rows] == ["ok", "ok"]
            assert rows[0]["y_final"] != rows[1]["y_final"]
        by_hand = (dataclasses.replace(cfg, funnels=(FunnelSpec(1.5, 0.8, 2e-3),
                                                     *cfg.funnels[1:])),
                   dataclasses.replace(cfg, observer_gains=(1e2, 2e5, 1e6)))
        for rows, point in zip((eps, gains), by_hand):
            expected = summarize(point, integrate(point))
            assert {k: rows[1][k] for k in expected} == expected

    @pytest.mark.parametrize("field", ["funnels.-1.a", "funnels.0", "observer_gains.3",
                                       "t_end.x", "mode"])
    def test_bad_path_rejected(self, field):
        with pytest.raises(ConfigError):
            run_sweep(ScenarioConfig(), field, 0.0, 1.0, 2, parallel=False)
