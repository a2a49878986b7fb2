"""Adaptive Runge-Kutta pair: accuracy, dense output, guards."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import run_python
from funneltrack import rk45
from funneltrack.errors import ConfigError, DomainError, FunnelViolation, IntegrationError
from funneltrack.sim import SAMPLE_STEP, ClosedLoop, IntegratorConfig, case_study_config


def test_exact_on_smooth_scalar():
    res = rk45.solve(lambda t, y: np.array([math.cos(t)]), (0.0, 6.0),
                     np.array([0.0]), rel_tol=1e-10, abs_tol=1e-12)
    assert res.y[-1][0] == pytest.approx(math.sin(6.0), abs=1e-9)


def test_dense_output_accuracy():
    res = rk45.solve(lambda t, y: np.array([math.cos(t)]), (0.0, 3.0),
                     np.array([0.0]), rel_tol=1e-10, abs_tol=1e-12,
                     sample_step=1e-3)
    assert len(res.t) == 3001
    worst = max(abs(y[0] - math.sin(t)) for t, y in zip(res.t, res.y))
    assert worst < 1e-8


def test_sample_grid_is_uniform_and_complete():
    res = rk45.solve(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                     rel_tol=1e-8, abs_tol=1e-10, sample_step=1e-3)
    assert res.t[0] == 0.0
    assert res.t[-1] == 1.0
    assert np.allclose(np.diff(res.t), 1e-3, atol=1e-12)


def van_der_pol(mu):
    return lambda t, y: np.array([y[1], mu * (1 - y[0] ** 2) * y[1] - y[0]])


def van_der_pol_list(mu):
    """``van_der_pol`` returning a list of Python floats."""
    def f(t, y):
        y0, y1 = y.tolist()
        return [y1, mu * (1 - y0 ** 2) * y1 - y0]
    return f


def test_matches_scipy_on_nonlinear_system():
    f = van_der_pol(1.0)
    y0 = np.array([2.0, 0.0])
    mine = rk45.solve(f, (0.0, 10.0), y0, rel_tol=1e-10, abs_tol=1e-12)
    ref = solve_ivp(f, (0.0, 10.0), y0, method="RK45", rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(mine.y[-1] - ref.y[:, -1])) < 1e-7


def test_zero_vector_field_stays_zero():
    res = rk45.solve(lambda t, y: np.zeros(3), (0.0, 3.0), np.zeros(3),
                     rel_tol=1e-9, abs_tol=1e-12, max_step=0.05, sample_step=1e-3)
    assert np.all(res.y == 0.0)
    assert res.nreject == 0


def test_tolerance_convergence():
    def f(t, y):
        return np.array([y[1], -math.sin(y[0])])

    y0 = np.array([1.0, 0.0])
    coarse = rk45.solve(f, (0.0, 5.0), y0, rel_tol=1e-9, abs_tol=1e-12)
    fine = rk45.solve(f, (0.0, 5.0), y0, rel_tol=5e-10, abs_tol=1e-12)
    assert np.max(np.abs(coarse.y[-1] - fine.y[-1])) <= 10 * 5e-10 * 5


def test_determinism():
    def f(t, y):
        return np.array([math.sin(3 * t) - 0.5 * y[0]])

    a = rk45.solve(f, (0.0, 2.0), np.array([0.3]), rel_tol=1e-9, abs_tol=1e-12,
                   sample_step=1e-3)
    b = rk45.solve(f, (0.0, 2.0), np.array([0.3]), rel_tol=1e-9, abs_tol=1e-12,
                   sample_step=1e-3)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)


# bad integrator settings: rk45.check_settings rejects each for both of its
# callers, before any right-hand side evaluation
@pytest.mark.parametrize("settings", [
    *(pytest.param({"min_step": v}, id=str(v)) for v in (0.0, -1.0, math.nan, math.inf)),
    pytest.param({"min_step": 0.05, "max_step": 0.05}, id="min_step=max_step"),
    *(pytest.param({"max_step": v}, id=f"max_step={v}") for v in (0.0, -0.1, math.nan)),
    *(pytest.param({tol: v}, id=f"{tol}={v}") for tol in ("rel_tol", "abs_tol")
      for v in (0.0, -1.0, math.nan, math.inf)),
    pytest.param({"abs_tol": rk45.MIN_ABS_TOL / 2}, id="abs_tol=2**-513"),
])
def test_min_step_must_be_finite_and_positive(settings):
    calls = []

    def f(t, y):
        calls.append(t)
        raise FunnelViolation("wall", t=t)

    with pytest.raises(ConfigError):
        rk45.solve(f, (0.0, 1.0), np.array([0.0]), **settings, guards=(FunnelViolation,))
    with pytest.raises(ConfigError):
        IntegratorConfig(**settings)
    assert calls == []


@pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan), (math.nan, 1.0)])
def test_empty_or_reversed_span_is_rejected(t_span):
    calls = []

    def f(t, y):
        calls.append(t)
        return np.array([1.0])

    with pytest.raises(ValueError):
        rk45.solve(f, t_span, np.array([0.0]))
    assert calls == []


# each call once looped for ever: run it in a child process with a timeout,
# so that a regression fails instead of hanging the suite
@pytest.mark.parametrize("call, raised", [
    pytest.param("rk45.solve(lambda t, y: np.array([np.nan]), (0.0, 1.0), np.array([1.0]))",
                 "IntegrationError t=0.0 state=[1.0]", id="nan-field"),
    pytest.param("rk45.solve(lambda t, y: np.array([np.inf]), (0.0, 1.0), np.array([1.0]))",
                 "IntegrationError t=0.0 state=[1.0]", id="inf-field"),
    pytest.param("rk45.solve(lambda t, y: np.array([0.0, 1.0]), (0.0, 1.0), np.zeros(2),"
                 " abs_tol=0.0)", "ValueError", id="zero-abs-tol"),
    pytest.param("rk45.solve(lambda t, y: np.array([0.0, 1.0]), (0.0, 1.0), np.zeros(2),"
                 " rel_tol=0.0, abs_tol=0.0)", "ValueError", id="zero-tols"),
    pytest.param("rk45.solve(lambda t, y: -y, (0.0, np.inf), np.array([1.0]))",
                 "ValueError", id="infinite-end"),
    pytest.param("rk45.solve(lambda t, y: -y, (-np.inf, 1.0), np.array([1.0]))",
                 "ValueError", id="infinite-start"),
    pytest.param("rk45.solve(lambda t, y: np.array([1.0]), (0.0, 1.0), np.array([0.0]),"
                 " abs_tol=1e-300)", "ValueError", id="zero-initial-step"),
    *(pytest.param(f"rk45.solve(lambda t, y: -y, (0.0, 1.0), np.array([1.0]), sample_step={v})",
                   "ValueError", id=f"sample_step={v}")
      for v in ("0.0", "-0.1", "np.nan")),
])
def test_degenerate_solve_raises_instead_of_looping(call, raised):
    code = ("import numpy as np\n"
            "from funneltrack import rk45\n"
            "from funneltrack.errors import IntegrationError\n"
            "try:\n"
            f"    {call}\n"
            "except IntegrationError as exc:\n"
            "    print(f'IntegrationError t={exc.t} state={exc.state.tolist()}')\n"
            "except ValueError:\n"
            "    print('ValueError')\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == raised


# the smallest accepted abs_tol: the starting-step norms of the case study
# stay finite, so the solve stops on a too-short step, with no overflow;
# solve turns numpy's overflow warnings off, so the starting step is also
# taken on its own, where an overflow outside _rms's rescaling raises
@pytest.mark.parametrize("abs_tol", [rk45.MIN_ABS_TOL, 1e-154])
def test_smallest_abs_tol_underflows_without_overflow(abs_tol):
    loop = ClosedLoop(case_study_config("lin"))
    y0 = loop.initial_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="step size underflow"):
            rk45.solve(loop.rhs, (0.0, 3.0), y0, abs_tol=abs_tol, max_step=0.05)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h = rk45._initial_step(loop.rhs, 0.0, y0, np.array(loop.rhs(0.0, y0)), 3.0, 1e-9,
                               abs_tol, 0.05, ())
    assert 0 < h < math.inf


@pytest.mark.parametrize("t_end, max_step, h", [(1.0, math.inf, 1e-6), (1.0, 1e-9, 1e-9),
                                                (5e-9, math.inf, 5e-10)])
def test_initial_step_falls_back_when_the_probe_hits_a_guard(t_end, max_step, h):
    # f runs at t0 but raises a guard at the probe point t0 + h0
    def f(t, y):
        if t > 0.0:
            raise FunnelViolation("probe", t=t)
        return np.array([1.0])

    y0, f0 = np.array([0.0]), np.array([1.0])
    assert rk45._initial_step(f, 0.0, y0, f0, t_end, 1e-9, 1e-12, max_step,
                              (FunnelViolation,)) == h


class TestGuards:
    def test_guard_bisects_to_the_boundary(self):
        def f(t, y):
            if y[0] > 0.5:
                raise FunnelViolation("crossed", t=t)
            return np.array([1.0])

        with pytest.raises(FunnelViolation) as exc:
            rk45.solve(f, (0.0, 2.0), np.array([0.0]), rel_tol=1e-9, abs_tol=1e-12,
                       min_step=1e-12, guards=(FunnelViolation,))
        # the failing evaluation happens within one min_step of y = 0.5 at t = 0.5
        assert exc.value.t == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("min_step", [1e-12, 1e-8, 1e-6])
    def test_guarded_start_bisects_down_to_min_step(self, min_step):
        # the starting step's probe already crosses the wall at t = 1e-4;
        # solve bisects that first step like any guarded one, down to min_step
        with pytest.raises(FunnelViolation) as exc:
            rk45.solve(crossing_wall, (0.0, 1.0), np.array([0.4999]), min_step=min_step,
                       guards=(FunnelViolation,))
        assert abs(exc.value.t - 1e-4) <= min_step

    def test_guard_at_initial_point_propagates(self):
        def f(t, y):
            raise FunnelViolation("infeasible start", t=t)

        with pytest.raises(FunnelViolation):
            rk45.solve(f, (0.0, 1.0), np.array([0.0]), guards=(FunnelViolation,))

    def test_unlisted_exception_is_not_swallowed(self):
        def f(t, y):
            if t > 0.1:
                raise ValueError("boom")
            return np.array([1.0])

        with pytest.raises(ValueError):
            rk45.solve(f, (0.0, 1.0), np.array([0.0]), guards=(FunnelViolation,))

    def test_nan_forces_step_underflow(self):
        def f(t, y):
            return np.array([float("nan") if t > 0.5 else 1.0])

        with pytest.raises(IntegrationError) as exc:
            rk45.solve(f, (0.0, 1.0), np.array([0.0]), rel_tol=1e-9,
                       abs_tol=1e-12, min_step=1e-10)
        assert exc.value.t is not None


def test_accepted_steps_do_not_shrink_below_min_step():
    # y' = y^2 blows up at t = 1: the step size falls below min_step after
    # accepted steps alone, so the solve must stop there, not take 180 more
    with pytest.raises(IntegrationError) as exc:
        rk45.solve(lambda t, y: y * y, (0.0, 1 - 1e-7), [1.0], min_step=1e-6)
    assert exc.value.t == pytest.approx(0.99997, abs=1e-5)


def test_last_step_may_be_shorter_than_min_step():
    res = rk45.solve(lambda t, y: -y, (0.0, 1e-9), [1.0], min_step=1e-6)
    assert res.t.tolist() == [0.0, 1e-9]


# a span whose tenth underflows to 0, and one shorter than 1e-14 s
SHORT_SPANS = [(0.0, 5e-324), (0.0, 1e-15)]


@pytest.mark.parametrize("sample_step", [None, 1e-3])
@pytest.mark.parametrize("t_span", SHORT_SPANS, ids=lambda t_span: str(t_span[1]))
def test_shortest_span_keeps_its_end_sample(t_span, sample_step):
    res = rk45.solve(lambda t, y: -y, t_span, [1.0], sample_step=sample_step)
    assert res.t.tolist() == list(t_span) and res.naccept == 1
    assert res.y[-1, 0] == pytest.approx(math.exp(-t_span[1]), rel=1e-15)


def test_no_sample_step_records_every_accepted_step():
    res = rk45.solve(lambda t, y: np.array([y[1], -y[0]]), (0.0, 10.0),
                     np.array([1.0, 0.0]), rel_tol=1e-12, abs_tol=1e-14)
    assert len(res.t) == len(res.y) == res.naccept + 1
    assert res.t[0] == 0.0 and res.t[-1] == 10.0
    assert np.all(np.diff(res.t) > 0)
    assert np.max(np.abs(res.y[:, 0] - np.cos(res.t))) < 1e-9


def test_span_off_the_sample_grid_ends_with_the_final_state():
    # 1.0005 is not a multiple of sample_step: the grid stops at 1.0 and the
    # end of the span is appended with the last accepted state
    def f(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    sampled = rk45.solve(f, (0.0, 1.0005), y0, sample_step=1e-3)
    stepped = rk45.solve(f, (0.0, 1.0005), y0, sample_step=None)
    assert sampled.t[-3:].tolist() == pytest.approx([0.999, 1.0, 1.0005], abs=1e-15)
    assert np.array_equal(sampled.y[-1], stepped.y[-1])


def test_retry_after_rejection_starts_from_f_at_the_step_start():
    # stiff enough to reject 6 of 422 trial steps; a retry that started from f
    # at the rejected endpoint (first-same-as-last taken from the wrong step)
    # left an error of 1.4e-4 at t = 20
    f = van_der_pol(8.0)
    y0 = np.array([2.0, 0.0])
    mine = rk45.solve(f, (0.0, 20.0), y0, rel_tol=1e-6, abs_tol=1e-9)
    ref = solve_ivp(f, (0.0, 20.0), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    assert mine.nreject > 0
    assert np.max(np.abs(mine.y[-1] - ref.y[:, -1])) < 1e-5


def reference_error_norm(err, y0, y1, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def reference_solve(f, t_span, y0, *, rel_tol, abs_tol, max_step=math.inf,
                    min_step=rk45.MIN_STEP, sample_step=None, guards=()):
    """``rk45.solve`` as whole-array numpy expressions: the bitwise reference."""
    t0, t_end = t_span
    y = np.asarray(y0, dtype=float).copy()
    ts, ys = [t0], [y.copy()]
    next_k = 1
    f_curr = np.asarray(f(t0, y))
    h = rk45._initial_step(f, t0, y, f_curr, t_end, rel_tol, abs_tol, max_step, guards)
    stats = {"nfev": 2, "naccept": 0, "nreject": 0, "nguard": 0}
    t, err_prev = t0, 1e-4
    K = np.empty((7, y.size))
    while t < t_end:
        h = min(h, max_step, t_end - t)
        if h < min_step and h < t_end - t:
            raise IntegrationError("step size underflow", t=t, state=y.copy())
        K[0] = f_curr
        try:
            for i, a_row in enumerate(rk45._A):
                K[i + 1] = f(t + rk45._C[i + 1] * h, y + h * (a_row @ K[: i + 1]))
            y_new = y + h * (rk45._B @ K[:6])
            K[6] = f(t + h, y_new)
        except guards:
            stats["nfev"] += 1
            stats["nguard"] += 1
            h *= 0.5
            if h < min_step:
                raise
            continue
        stats["nfev"] += 6
        err = reference_error_norm(h * (rk45._E @ K), y, y_new, rel_tol, abs_tol)
        if math.isnan(err) or math.isinf(err):
            err = 2.0
        if err > 1.0:
            stats["nreject"] += 1
            h *= max(rk45._MIN_FACTOR, rk45._SAFETY * err ** -0.2)
            continue
        if sample_step is not None:
            t_target = t0 + next_k * sample_step
            Qd = K.T @ rk45._P
            while t_target <= t + h + 1e-14:
                t_emit = t_end if abs(t_target - t_end) < 1e-12 else t_target
                theta = min(1.0, (t_emit - t) / h)
                ts.append(t_emit)
                ys.append(y + h * (Qd @ np.array([theta, theta**2, theta**3, theta**4])))
                next_k += 1
                t_target = t0 + next_k * sample_step
        t += h
        y = y_new
        f_curr = K[6].copy()  # f(t, y) of the accepted step only
        stats["naccept"] += 1
        if sample_step is None:
            ts.append(t)
            ys.append(y)
        if err == 0.0:
            factor = rk45._MAX_FACTOR
        else:
            factor = min(rk45._MAX_FACTOR, max(rk45._MIN_FACTOR, rk45._SAFETY
                                               * err ** -rk45._ALPHA * err_prev ** rk45._BETA))
        err_prev = max(err, 1e-4)
        h *= factor
    if ts[-1] < t_end:
        ts.append(t_end)
        ys.append(y.copy())
    return np.array(ts), np.array(ys), stats


def logged(f, calls):
    """``f`` that appends the (t, y) of each call to ``calls``, y as an array."""
    def g(t, y):
        calls.append((float(t), np.array(rk45.formed(y))))
        return f(t, y)
    return g


def same_bits(a, b):
    """Two arrays of one shape hold the same bytes, -0.0 apart from 0.0; a
    call, so that a failing assert prints no diff of the bytes."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_calls(a, b):
    """Two logs of ``logged`` hold the same evaluations, bit for bit."""
    return len(a) == len(b) and all(ta == tb and same_bits(ya, yb)
                                    for (ta, ya), (tb, yb) in zip(a, b))


def crossing_wall(t, y):
    if y[0] > 0.5:
        raise FunnelViolation("crossed", t=t)
    return np.array([1.0])


def case_study(mode, t_end, **disturbance):
    cfg = case_study_config(mode)
    cfg = dataclasses.replace(cfg, disturbance=dataclasses.replace(cfg.disturbance, **disturbance))
    loop = ClosedLoop(cfg)
    return loop.rhs, (0.0, t_end), loop.initial_state(), dict(
        **dataclasses.asdict(cfg.integrator), sample_step=SAMPLE_STEP,
        guards=(FunnelViolation, DomainError))


# the problems that reference_solve and each of solve's stage forms step alike
BITWISE_PROBLEMS = [
    pytest.param(lambda: case_study("hg", 0.5), False, id="case-hg"),
    # 3001 samples at about 6.6 per step: eleven full dense-output batches
    # and a partial one at the end
    pytest.param(lambda: case_study("lin", 3.0), False, id="case-lin"),
    pytest.param(lambda: (van_der_pol(8.0), (0.0, 20.0), np.array([2.0, 0.0]),
                          dict(rel_tol=1e-6, abs_tol=1e-9, sample_step=0.01)),
                 True, id="van-der-pol-rejections"),
    # f may return any sequence of floats: here a list of Python floats
    pytest.param(lambda: (van_der_pol_list(8.0), (0.0, 20.0), np.array([2.0, 0.0]),
                          dict(rel_tol=1e-6, abs_tol=1e-9, sample_step=0.01)),
                 True, id="list-returning-f"),
    pytest.param(lambda: (lambda t, y: np.array([y[1], -y[0]]), (0.0, 10.0),
                          np.array([1.0, 0.0]), dict(rel_tol=1e-12, abs_tol=1e-14)),
                 False, id="no-sample-step"),
    # the summed step ends fall just short of grid times such as 0.1 and 2.1,
    # so (t_emit - t) / h rounds past 1 and min(1.0, theta) sets those samples
    pytest.param(lambda: (lambda t, y: -y, (0.0, 3.0), np.array([1.0]),
                          dict(rel_tol=1e-6, abs_tol=1e-9, max_step=0.01, sample_step=0.1)),
                 False, id="theta-rounds-past-one"),
    *(pytest.param(lambda t_span=t_span, step=step: (
        lambda t, y: np.array([y[1], -y[0]]), t_span, np.array([1.0, 0.0]),
        dict(rel_tol=1e-9, abs_tol=1e-12, sample_step=step)),
        False, id=f"span-{t_span[1]}-sample_step-{step}")
      for t_span in SHORT_SPANS for step in (None, 1e-3)),
]


def stopped(solver, f, raised, *args, **kwargs):
    """The ``raised`` exception that ``solver`` stops with on ``f``, and the
    calls it made, as ``logged`` logs them."""
    calls = []
    with pytest.raises(raised) as exc:
        solver(logged(f, calls), *args, **kwargs)
    return exc.value, calls


class TestBitwiseReference:
    """``rk45.solve`` does the reference's float operations in the same order."""

    @staticmethod
    def forms(f):
        """The (f, stage_parts) pairs to solve with."""
        return [(f, False)]

    @pytest.mark.parametrize("problem, rejects", BITWISE_PROBLEMS)
    def test_same_samples_statistics_and_evaluations(self, problem, rejects):
        f, t_span, y0, kwargs = problem()
        ref_calls = []
        ts, ys, stats = reference_solve(logged(f, ref_calls), t_span, y0, **kwargs)
        for g, stage_parts in self.forms(f):
            calls = []
            res = rk45.solve(logged(g, calls), t_span, y0, stage_parts=stage_parts, **kwargs)
            assert same_bits(res.t, ts) and same_bits(res.y, ys)
            assert {k: getattr(res, k) for k in stats} == stats
            assert len(calls) == res.nfev and same_calls(calls, ref_calls)
            assert (res.nreject > 0) == rejects

    def test_sampled_states_are_one_float64_array(self):
        f, t_span, y0, kwargs = case_study("lin", 0.3)
        for g, stage_parts in self.forms(f):
            res = rk45.solve(g, t_span, y0, stage_parts=stage_parts, **kwargs)
            assert type(res.y) is np.ndarray and res.y.dtype == np.float64
            assert res.y.shape == (301, y0.size) and res.y.flags.c_contiguous

    def test_same_guard_bisection(self):
        args = ((0.0, 2.0), np.array([0.0]))
        kwargs = dict(rel_tol=1e-9, abs_tol=1e-12, min_step=1e-12, guards=(FunnelViolation,))
        ref, ref_calls = stopped(reference_solve, crossing_wall, FunnelViolation, *args, **kwargs)
        assert ref_calls and ref.state is None
        for g, stage_parts in self.forms(crossing_wall):
            stop, calls = stopped(rk45.solve, g, FunnelViolation, *args,
                                  stage_parts=stage_parts, **kwargs)
            # the solver passes the guard's exception on as raised: no state added
            assert stop.t == ref.t and stop.state is None and same_calls(calls, ref_calls)

    # the hg case study with amp1 = 3.0 leaves its funnels at t = 1.0585, with
    # a dense-output batch pending: at its own tolerances the step size
    # underflows before any evaluation crosses a wall, and at rel_tol 1e-4 an
    # evaluation crosses and the guard bisects the step down to min_step; the
    # reference words the underflow without numbers, so each form's message
    # is compared with the default path's
    @pytest.mark.parametrize("tols, raised", [
        pytest.param({}, IntegrationError, id="step-underflow"),
        pytest.param({"rel_tol": 1e-4, "abs_tol": 1e-7}, FunnelViolation, id="guard-bisection"),
    ])
    def test_same_stop_on_a_violating_case_study(self, tols, raised):
        f, t_span, y0, kwargs = case_study("hg", 3.0, amp1=3.0)
        kwargs.update(tols)
        ref, ref_calls = stopped(reference_solve, f, raised, t_span, y0, **kwargs)
        plain, _ = stopped(rk45.solve, f, raised, t_span, y0, **kwargs)
        assert 1.0 < ref.t < 1.1 and ref.state.shape == (7,)
        for g, stage_parts in self.forms(f):
            stop, calls = stopped(rk45.solve, g, raised, t_span, y0,
                                  stage_parts=stage_parts, **kwargs)
            assert type(stop) is type(ref) and stop.t == ref.t and str(stop) == str(plain)
            assert same_bits(stop.state, ref.state) and same_calls(calls, ref_calls)


class TestStageParts(TestBitwiseReference):
    """``solve(..., stage_parts=True)`` takes the reference's steps too, bit
    for bit, and stops with the default path's message."""

    @staticmethod
    def forms(f):
        """Stage parts formed into arrays for f and, where f is
        ``ClosedLoop.rhs``, handed to f as they are."""
        forms = [(lambda t, y: f(t, rk45.formed(y)), True)]
        if isinstance(getattr(f, "__self__", None), ClosedLoop):
            forms.append((f, True))
        return forms


# dense output of steps collected as solve collects them: one stage array,
# overwritten by every step, whose copy each step keeps; the oracle takes each
# step's Qd = K.T @ _P while K still holds that step's stages, then each
# sample's y + h * Qd.dot(powers)
@pytest.mark.parametrize("dim", [1, 2, 4, 7])
@pytest.mark.parametrize("samples", [1, 255, 256, 257])
def test_dense_block_is_bitwise_the_per_step_product(dim, samples):
    rng = np.random.default_rng(1000 * dim + samples)
    K = np.empty((7, dim))
    steps, powers, expected = [], [], []
    while len(powers) < samples:
        K[...] = rng.standard_normal((7, dim)) * 10.0 ** rng.integers(-6, 4, (7, dim))
        h, y = float(10.0 ** rng.uniform(-8, -1)), rng.standard_normal(dim)
        count = min(int(rng.integers(1, 14)), samples - len(powers))
        Qd = K.T @ rk45._P
        for theta in np.sort(rng.uniform(0.0, 1.0, count)).tolist():
            p = (theta, theta**2, theta**3, theta**4)
            powers.append(p)
            expected.append(y + h * Qd.dot(p))
        steps.append((K.copy(), h, y, count))
    block = rk45._dense_block(steps, powers)
    assert block.shape == (samples, dim) and block.dtype == np.float64
    assert np.array_equal(block, np.array(expected))


def sequential_error_norm(err, y0, y1, rel_tol, abs_tol):
    """``reference_error_norm`` with the squares summed one after another."""
    total = 0.0
    for r in (err / (abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1)))).tolist():
        total += r * r
    return math.sqrt(total / err.size)


# the step norm sums the squares of h * err in sequence, for any dimension;
# below 8 entries numpy's pairwise sum is sequential too, so there it is also
# the np.mean formula bit for bit (the package integrates 4 or 7 states); past
# the solver's usual dimensions fewer draws keep the suite quick; the step
# sizes come from a generator of their own, so err, y0 and y1 are the draws
# of the norm without h
@pytest.mark.parametrize("dim", range(1, 301))
def test_error_norm_is_bitwise_the_mean_formula(dim):
    rng, h_rng = np.random.default_rng(dim), np.random.default_rng([dim, 1])
    for k in range(200 if dim < 10 else 24):
        err, y0, y1 = rng.standard_normal((3, dim)) * 10.0 ** rng.integers(-12, 3, (3, dim))
        if k % 4 == 1:
            err[rng.integers(dim)] = math.nan
        elif k % 4 == 2:
            err[rng.integers(dim)] = math.inf
        elif k % 4 == 3:
            y1[rng.integers(dim)] = math.nan
        h = float(10.0 ** h_rng.uniform(-9, 0))
        new = rk45._error_norm(err.tolist(), h, y0.tolist(), y1.tolist(), 1e-9, 1e-12)
        refs = [sequential_error_norm(err * h, y0, y1, 1e-9, 1e-12)]
        if dim < 8:
            refs.append(reference_error_norm(err * h, y0, y1, 1e-9, 1e-12))
        assert type(new) is float
        for ref in refs:
            assert new == ref or (math.isnan(new) and math.isnan(ref))
