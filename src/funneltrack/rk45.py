"""Adaptive embedded Runge-Kutta 5(4) with dense output and state guards.

Dormand-Prince pair: the 5th-order solution is propagated, the embedded
4th-order difference drives a PI step controller, and the quartic
interpolant serves dense output on an arbitrary sampling grid.

Guards: exceptions listed in ``guards`` raised by the right-hand side
(funnel or domain violations) reject the trial step and bisect it; if the
step underflows ``min_step`` the guard exception propagates, so the caller
learns the first offending time and state.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# embedded error weights (difference of the two propagation formulas)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# quartic dense-output polynomial (Shampine's interpolant for this pair)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 4th-order error estimate
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


@dataclass
class SolveResult:
    """Dense samples and step statistics."""

    t: np.ndarray
    y: np.ndarray  # shape (len(t), dim)
    naccept: int = 0
    nreject: int = 0
    nguard: int = 0
    nfev: int = 0


def _error_norm(err, y0, y1, rel_tol, abs_tol):
    """RMS of ``err`` over the mixed scale: ``np.mean`` without its wrapper."""
    scale = np.abs(y0)
    np.maximum(scale, np.abs(y1), out=scale)
    scale *= rel_tol
    scale += abs_tol
    ratio = err / scale
    ratio *= ratio
    return math.sqrt(np.add.reduce(ratio) / ratio.size)


def check_tolerances(rel_tol, abs_tol, error=ValueError) -> None:
    """Raise ``error`` unless both tolerances are finite and > 0."""
    if not (0 < rel_tol < math.inf and 0 < abs_tol < math.inf):
        raise error(f"tolerances must be finite and > 0, got rel_tol={rel_tol}, abs_tol={abs_tol}")


def _initial_step(f, t0, y0, f0, t_end, rel_tol, abs_tol, max_step, guards):
    """Hairer-style starting step, conservative under guard exceptions."""
    span = t_end - t0
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span, max_step)
    try:
        f1 = f(t0 + h0, y0 + h0 * f0)
    except guards:
        return min(1e-8, max_step, span)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step, span)


def solve(f, t_span, y0, *, rel_tol=1e-9, abs_tol=1e-12, max_step=math.inf,
          min_step=1e-12, sample_step=None, guards=()) -> SolveResult:
    """Integrate y' = f(t, y) over a finite ``t_span`` with t0 < t_end, with dense sampling.

    ``sample_step`` > 0 emits interpolated states on the uniform grid
    t0 + k * sample_step (the endpoint is always included); ``None``
    records t0 and the end of every accepted step.  ``guards`` is a tuple
    of exception types treated as state-constraint violations (see module
    docstring); their bisection stops below ``min_step``, which must be
    finite and > 0.  No step is shorter than ``min_step`` except the last
    one, cut short to end at ``t_end``; a step size that falls below it
    anywhere else (the first, or after a rejected or an accepted step)
    raises IntegrationError.
    ``max_step`` must be > 0 (``inf`` means no limit),
    and both tolerances finite and > 0.  An initial step size that is not
    finite and > 0 (say, from an f that returns NaN, or from an abs_tol so
    small that the error scale overflows) raises IntegrationError.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t_end) and t0 < t_end):
        raise ValueError(f"need finite t0 < t_end, got {t_span}")
    if not (min_step > 0 and math.isfinite(min_step)):
        raise ValueError(f"need a finite min_step > 0, got {min_step}")
    if not max_step > 0:
        raise ValueError(f"need max_step > 0, got {max_step}")
    check_tolerances(rel_tol, abs_tol)
    guards = tuple(guards)
    y = np.asarray(y0, dtype=float).copy()

    sample_ts = [t0]
    sample_ys = [y.copy()]
    next_k = 1  # next sample index on the uniform grid

    K = np.empty((7, y.size))
    K[0] = f(t0, y)  # guard violation at the initial point propagates
    h = _initial_step(f, t0, y, K[0], t_end, rel_tol, abs_tol, max_step, guards)
    # later updates only scale or cap h by finite numbers > 0, so one check suffices
    if not 0 < h < math.inf:  # h = 0 would never advance t
        raise IntegrationError(f"initial step size {h} outside (0, inf) at t = {t0:.6f}",
                               t=t0, state=y.copy())
    nfev, naccept, nreject, nguard = 2, 0, 0, 0
    # per stage: node, tableau row, the stages it combines, the stage it fills
    stages = [(float(_C[i + 1]), a_row, K[: i + 1], K[i + 1]) for i, a_row in enumerate(_A)]
    K6 = K[:6]

    t = t0
    err_prev = 1e-4
    while t < t_end:
        h = min(h, max_step, t_end - t)
        if h < min_step and h < t_end - t:  # only the last step may be that short
            raise IntegrationError(
                f"step size underflow ({h:.3e} < {min_step:.3e}) at t = {t:.6f}",
                t=t, state=y.copy())
        # K[0] holds f(t, y): set from the last stage of an accepted step only,
        # so a retry after a rejection starts from the same first stage (FSAL)
        try:
            for c, a_row, K_prev, K_next in stages:
                v = a_row.dot(K_prev)
                v *= h
                v += y
                K_next[:] = f(t + c * h, v)
            y_new = _B.dot(K6)
            y_new *= h
            y_new += y
            K[6] = f(t + h, y_new)
        except guards as exc:
            nfev += 1  # at least the failing evaluation
            nguard += 1
            h *= 0.5
            if h < min_step:
                if getattr(exc, "state", None) is None and hasattr(exc, "state"):
                    exc.state = y.copy()  # last accepted state before the wall
                raise
            continue
        nfev += 6

        err_est = _E.dot(K)
        err_est *= h
        err = _error_norm(err_est, y, y_new, rel_tol, abs_tol)
        if not math.isfinite(err):
            err = 2.0  # treat as a rejected step
        if err > 1.0:
            nreject += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        # accepted: dense samples inside (t, t+h]
        if sample_step is not None:
            t_target = t0 + next_k * sample_step
            if t_target <= t + h + 1e-14:
                Qd = K.T @ _P  # (dim, 4)
                while t_target <= t + h + 1e-14:
                    t_emit = t_end if abs(t_target - t_end) < 1e-12 else t_target
                    theta = min(1.0, (t_emit - t) / h)
                    v = Qd.dot(np.array([theta, theta**2, theta**3, theta**4]))
                    v *= h
                    v += y
                    sample_ts.append(t_emit)
                    sample_ys.append(v)
                    next_k += 1
                    t_target = t0 + next_k * sample_step

        t += h
        y = y_new
        K[0] = K[6]
        naccept += 1
        if sample_step is None:
            sample_ts.append(t)
            sample_ys.append(y)
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA))
        err_prev = max(err, 1e-4)
        h *= factor

    if sample_ts[-1] < t_end - 1e-14:
        sample_ts.append(t_end)
        sample_ys.append(y.copy())
    return SolveResult(np.array(sample_ts), np.array(sample_ys), naccept=naccept,
                       nreject=nreject, nguard=nguard, nfev=nfev)
