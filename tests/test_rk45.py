"""Adaptive Runge-Kutta pair: accuracy, dense output, guards."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from funneltrack import rk45
from funneltrack.errors import FunnelViolation, IntegrationError


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


def test_matches_scipy_on_nonlinear_system():
    def f(t, y):
        return np.array([y[1], (1 - y[0] ** 2) * y[1] - y[0]])  # van der Pol

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


@pytest.mark.parametrize("limit, value", [
    *(pytest.param("min_step", v, id=str(v)) for v in (0.0, -1.0, math.nan, math.inf)),
    *(pytest.param("max_step", v, id=f"max_step={v}") for v in (0.0, -0.1, math.nan)),
])
def test_min_step_must_be_finite_and_positive(limit, value):
    calls = []

    def f(t, y):
        calls.append(t)
        raise FunnelViolation("wall", t=t)

    with pytest.raises(ValueError):
        rk45.solve(f, (0.0, 1.0), np.array([0.0]), **{limit: value},
                   guards=(FunnelViolation,))
    assert calls == []


@pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0)])
def test_empty_or_reversed_span_is_rejected(t_span):
    calls = []

    def f(t, y):
        calls.append(t)
        return np.array([1.0])

    with pytest.raises(ValueError):
        rk45.solve(f, t_span, np.array([0.0]))
    assert calls == []


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


def test_no_sample_step_records_every_accepted_step():
    res = rk45.solve(lambda t, y: np.array([y[1], -y[0]]), (0.0, 10.0),
                     np.array([1.0, 0.0]), rel_tol=1e-12, abs_tol=1e-14)
    assert len(res.t) == len(res.y) == res.naccept + 1
    assert res.t[0] == 0.0 and res.t[-1] == 10.0
    assert np.all(np.diff(res.t) > 0)
    assert np.max(np.abs(res.y[:, 0] - np.cos(res.t))) < 1e-9
