"""Closed-loop harness: configs, integration, CSV, guards, sweep."""
import dataclasses
import json
import math

import numpy as np
import pytest

from funneltrack import sim
from funneltrack.errors import ConfigError, DomainError, FunnelViolation, IntegrationError
from funneltrack.funnel import FunnelSpec, cascade, observer_rhs, phi_eval
from funneltrack.linid import psi, ynew_derivatives
from funneltrack.model import (DOMAIN_COS_LIMIT, ManipulatorParams, PlantState,
                               output, plant_rhs)
from funneltrack.reference import TransitionRef, yref_eval
from funneltrack.sim import (OBSERVER_COLUMNS, ClosedLoop, DisturbanceSpec,
                             IntegratorConfig, ScenarioConfig, case_study_config,
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

    def test_bad_tolerances_rejected(self):
        for tols in ({"rel_tol": 0.0}, {"abs_tol": -1e-12}):
            with pytest.raises(ConfigError):
                IntegratorConfig(**tols)

    def test_case_study_defaults(self):
        cfg = case_study_config("lin")
        assert cfg.ref == TransitionRef(0.0, math.pi / 4, 0.0, 3.0)
        assert cfg.funnels[2] == FunnelSpec(60.0, 0.2, 0.001)
        assert cfg.integrator.rel_tol == 1e-9
        assert cfg.integrator.abs_tol == 1e-12
        assert cfg.observer_gains == (1e2, 1e5, 1e6)


def composed(loop, t, state):
    """(rhs, row) of ``loop`` at (t, state), composed from the public layer
    functions on numpy scalars; the oracle for ``ClosedLoop.evaluate``."""
    cfg, lin = loop.cfg, loop.lin
    x = state[:4]
    if math.cos(x[1]) <= DOMAIN_COS_LIMIT:
        raise DomainError("outside", t=t, state=state.copy())
    if cfg.mode == "hg":
        y_new, y1, y2 = psi(lin, x), state[5], state[6]
    else:
        y_new, y1, y2 = ynew_derivatives(lin, x)
    out = cascade(cfg.funnels, t, y_new, y1, y2, *loop.new_ref.eval(t))
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


def raised(fn, *args):
    with pytest.raises((DomainError, FunnelViolation)) as exc:
        fn(*args)
    return exc.value


class TestClosedLoopRhs:
    def test_equilibrium_zero_scenario(self):
        # each mode on its own, with the observer (hg) at rest on y_new = 0
        for mode in ("lin", "hg"):
            loop = ClosedLoop(ScenarioConfig(mode=mode))
            state = loop.initial_state()
            deriv, out = loop.evaluate(0.0, state)
            assert out.u == 0.0 and out.y_new == 0.0
            assert deriv == [0.0] * len(state)

    def test_case_study_start_is_finite_and_moderate(self):
        cfg = case_study_config("lin")
        loop = ClosedLoop(cfg)
        _, out = loop.evaluate(0.0, loop.initial_state())
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
                want = loop_lin.evaluate(t, x)[1]
            except FunnelViolation:
                continue  # random state outside the funnels; not the point here
            assert loop_hg.evaluate(t, np.concatenate([x, zeta]))[1] == want

    def test_matches_layer_composition_bit_for_bit(self, case_lin, case_hg):
        for run in (case_lin, case_hg):
            loop = ClosedLoop(run.cfg)
            states = states_of(run.traj)
            for i in range(0, len(run.traj.t), 37):
                t, state = run.traj.t[i], states[i]
                want_rhs, want_row = composed(loop, t, state)
                assert np.array_equal(loop.rhs(t, state), want_rhs)
                assert np.array_equal(loop.row(t, state), want_row)
                assert np.array_equal(loop.row(t, state), run.traj.data[i])

    @pytest.mark.parametrize("mode, column, shift, level", [
        ("lin", 1, 1.5, None),    # cos(beta) < 2/3
        ("hg", 1, 1.5, None),
        ("lin", 0, 3.0, 0),       # y_new far from its reference
        ("hg", 0, 3.0, 0),
        ("hg", 5, 60.0, 1),       # observer's first derivative estimate
        ("hg", 6, 1e4, 2),        # observer's second derivative estimate
    ])
    def test_violations_match_layer_composition(self, case_lin, case_hg, mode, column,
                                                shift, level):
        run = case_lin if mode == "lin" else case_hg
        loop = ClosedLoop(run.cfg)
        i = 1500
        t = run.traj.t[i]
        state = states_of(run.traj)[i]
        state[column] += shift
        want = raised(composed, loop, t, state)
        for method in (loop.rhs, loop.row, loop.margins):
            got = raised(method, t, state)
            assert type(got) is type(want)
            assert got.t == want.t == t
            assert got.level == want.level == level
            assert (got.state is None and want.state is None
                    or np.array_equal(got.state, want.state))


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
            margins = run.traj.funnel_margins(run.cfg.funnels)
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


class TestGuardsAndFailures:
    def test_forced_funnel_violation_is_clean(self):
        # the one tier-1 run through integrate in which a guard exception
        # reaches min_step mid-run: funnel 0 is the one tightened, yet the
        # run leaves funnel 2 at t = 0.0471 after about 123 000 RHS calls;
        # rk45.solve re-raises the guard's FunnelViolation with the last
        # accepted state attached, so no IntegrationError is its cause
        base = case_study_config("lin")
        tight = (FunnelSpec(1.5, 100.0, 1e-4), base.funnels[1], base.funnels[2])
        cfg = ScenarioConfig(ref=base.ref, funnels=tight, mode="lin",
                             disturbance=base.disturbance, t_end=0.5,
                             integrator=IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9,
                                                         min_step=1e-10))
        with pytest.raises(FunnelViolation) as exc:
            integrate(cfg)
        assert exc.value.level == 2
        assert 0.04 < exc.value.t < 0.05
        assert exc.value.__cause__ is None
        assert exc.value.state is not None and np.all(np.isfinite(exc.value.state))

    def test_infeasible_start_raises_immediately(self):
        cfg = case_study_config("lin")
        hopeless = (FunnelSpec(0.001, 0.8, 0.001),) * 3  # boundary ~ 0.002
        cfg = ScenarioConfig(ref=cfg.ref, funnels=hopeless, mode="lin")
        with pytest.raises(FunnelViolation) as exc:
            integrate(cfg)
        assert exc.value.t == 0.0

    def test_domain_exit_reported(self):
        cfg = ScenarioConfig(x0=PlantState(beta=1.0))  # cos(1) < 2/3
        with pytest.raises(DomainError):
            integrate(cfg)

    def test_step_underflow_at_a_funnel_wall_is_a_violation(self):
        # the hg case study with amp1 = 12/7 rides funnel 2 until the step
        # size underflows; integrate reads the margins there and reports it
        base = case_study_config("hg")
        cfg = dataclasses.replace(
            base, disturbance=dataclasses.replace(base.disturbance, amp1=12 / 7))
        with pytest.raises(FunnelViolation) as exc:
            integrate(cfg)
        assert exc.value.level == 2
        assert 1.0 < exc.value.t < 1.2
        assert isinstance(exc.value.__cause__, IntegrationError)
        assert "pinned against funnel 2" in str(exc.value)

    def test_disturbed_hg_run_past_the_transition_leaves_funnel_2(self):
        # the present outcome of the case study extended to 12 s: funnel 2 at
        # t = 3.9405, reached as a step-size underflow (README, "Past 3 s")
        cfg = dataclasses.replace(case_study_config("hg"), t_end=12.0)
        with pytest.raises(FunnelViolation) as exc:
            integrate(cfg)
        assert exc.value.level == 2
        assert 3.93 < exc.value.t < 3.95
        assert isinstance(exc.value.__cause__, IntegrationError)


class TestToleranceConvergence:
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
        cfg = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=0.5)
        serial = run_sweep(cfg, "disturbance.amp1", 0.0, 0.1, 2, parallel=False)
        parallel = run_sweep(cfg, "disturbance.amp1", 0.0, 0.1, 2, parallel=True)
        assert json.dumps(serial) == json.dumps(parallel)

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
