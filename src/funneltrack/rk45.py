"""Adaptive embedded Runge-Kutta 5(4) with dense output and state guards.

Dormand-Prince pair: the 5th-order solution is propagated, the embedded
4th-order difference drives a PI step controller, and the quartic
interpolant serves dense output on an arbitrary sampling grid.

The per-step work off the right-hand side is done in the fewest calls that
keep every bit.  The stage sums are BLAS gemv calls.  ``formed`` makes a
stage's parts, its sum, the step size and the start state, into its state;
with ``stage_parts``, ``f`` gets the five intermediate stages' parts as they
are (see ``solve``).  The last stage is formed in place.  The error norm
runs on Python floats: it scales the estimate by the step size and sums its
squares in sequence, equal to the ``np.mean`` formula below 8 entries, which
covers every size this package integrates, and the accepted state's floats
serve the next step's norm.  Dense output is evaluated in batches of about
``_DENSE_BATCH`` samples across accepted steps, each of which keeps a copy
of its stages: one stacked ``np.matmul`` forms every step's ``Qd = K.T @
_P`` with the BLAS call that product makes alone, and a second makes one
gemv per sample, the call a per-sample ``Qd.dot`` makes; the interpolant is
linear in the stages, so batching moves no bit.

Guards: exceptions listed in ``guards`` raised by the right-hand side
(funnel or domain violations) reject the trial step and bisect it; if the
step underflows ``min_step`` the guard exception propagates as raised,
with whatever time and state ``f`` attached to it.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError

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


# samples per stacked evaluation of the dense output: enough to amortise the
# call, few enough to keep its temporaries in cache
_DENSE_BATCH = 256


def _error_norm(err, h, y0, y1, rel_tol, abs_tol) -> float:
    """RMS of ``h * err`` over the mixed scale, on Python floats, with the
    squares summed in sequence; ``err``, ``y0`` and ``y1`` are sequences of
    floats.  Below 8 entries, which covers every size this package integrates
    (4 or 7), that is bit for bit ``np.sqrt(np.mean((h * err / (abs_tol +
    rel_tol * np.maximum(abs(y0), abs(y1)))) ** 2))``: numpy's pairwise sum is
    sequential there, ``np.maximum`` passes a NaN of either side on, and float
    ``+ * /`` round as numpy's do (an overflow gives inf here without numpy's
    warning)."""
    total = 0.0
    for e, a, b in zip(err, y0, y1):
        e *= h
        a, b = abs(a), abs(b)
        r = e / ((a if a >= b or a != a else b) * rel_tol + abs_tol)
        total += r * r
    return math.sqrt(total / len(err))


def _dense_block(steps: list, powers: list) -> np.ndarray:
    """Interpolated states of the pending samples, one row each: ``steps``
    holds each step's ``(K, h, y, samples)``, ``powers`` each sample's
    theta**1..4.  One stacked matmul forms every step's ``Qd = K.T @ _P``
    with that product's own BLAS call, and a second one a gemv per sample;
    then ``*= h`` and ``+= y`` per row, as ``y + h * Qd.dot(powers)`` rounds."""
    Ks, hs, ys, counts = zip(*steps)
    Qds = np.matmul(np.array(Ks).transpose(0, 2, 1), _P)
    v = np.matmul(np.repeat(Qds, counts, axis=0), np.array(powers)[:, :, None])[:, :, 0]
    v *= np.repeat(hs, counts)[:, None]
    v += np.repeat(np.array(ys), counts, axis=0)
    return v


# 1/sqrt(float max): below it (f/abs_tol)**2 of a unit-size derivative
# overflows in _initial_step's norm
MIN_ABS_TOL = 2.0 ** -512
MIN_STEP = 1e-8  # default smallest step, a decade inside the case study's plateau


def check_settings(rel_tol, abs_tol, min_step, max_step, sample_step=None) -> None:
    """Raise ConfigError unless ``solve`` accepts these settings: both
    tolerances finite, rel_tol > 0 and abs_tol >= MIN_ABS_TOL;
    0 < min_step < max_step (``max_step`` may be ``inf``; min_step > 0 also
    ends guard bisection); ``sample_step`` None or finite and > 0."""
    if not (0 < rel_tol < math.inf and MIN_ABS_TOL <= abs_tol < math.inf):
        raise ConfigError(f"tolerances must be finite, rel_tol > 0 and abs_tol >= 2**-512, "
                          f"got rel_tol={rel_tol}, abs_tol={abs_tol}")
    if not 0 < min_step < max_step:
        raise ConfigError(f"need 0 < min_step < max_step, got {min_step}, {max_step}")
    if not (sample_step is None or 0 < sample_step < math.inf):
        raise ConfigError(f"sample_step must be None or finite and > 0, got {sample_step}")


def formed(state) -> np.ndarray:
    """The float64 array a stage state stands for: an array as it is, or for
    stage parts ``(increment, h, base)``, ``increment * h + base``, each
    entry rounded after the product and again after the sum."""
    if type(state) is not tuple:
        return state
    increment, h, base = state
    v = increment * h  # one temporary: the sum rounds in place
    v += base
    return v


def _rms(z) -> float:
    """RMS of ``z``; only where its squares overflow, that of z / max|z|, times max|z|."""
    with np.errstate(over="ignore"):
        d = float(np.sqrt(np.mean(z ** 2)))
    if d == math.inf and np.all(np.isfinite(z)):
        m = float(np.max(np.abs(z)))
        d = m * float(np.sqrt(np.mean((z / m) ** 2)))
    return d


def _initial_step(f, t0, y0, f0, t_end, rel_tol, abs_tol, max_step, guards):
    """Hairer-style starting step; a guarded probe hands its step to solve's bisection.
    On a span whose tenth underflows to 0 the probe's cap is the span itself."""
    span = t_end - t0
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span or span, max_step)
    if not h0 > 0:  # an infinite or NaN f0: solve raises at t0
        return h0
    try:
        f1 = np.asarray(f(t0 + h0, formed((f0, h0, y0))))
    except guards:
        return h0
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step, span)


# an overflow in a stage sum or the error estimate gives a non-finite norm,
# which rejects the step: numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def solve(f, t_span, y0, *, rel_tol=1e-9, abs_tol=1e-12, max_step=math.inf,
          min_step=MIN_STEP, sample_step=None, guards=(), stage_parts=False) -> SolveResult:
    """Integrate y' = f(t, y) over a finite ``t_span`` with t0 < t_end, with dense sampling.

    ``f(t, y)`` takes a float ``t`` and a float64 array ``y`` of ``dim``
    entries and returns any sequence of ``dim`` floats: a list, a tuple or
    an array, whose values the solver copies into its stage array.  With
    ``stage_parts`` the five intermediate stages of each step reach ``f`` as
    the tuple ``(increment, h, base)`` instead: ``increment`` the stage
    sum, a float64 array; ``h`` the step size, a float; ``base`` the step's
    start state, a list of floats.  They stand for the state ``formed(parts)``
    that the default path hands ``f``, which a per-entry ``q * h + b`` on
    floats gives too.  ``f`` must neither keep ``increment`` nor change
    ``base``, the solver's own list.  The first call, the initial-step probe
    and each step's last stage still pass an array, and the samples,
    statistics and calls are those of the default path, bit for bit.
    ``check_settings`` states which tolerances and step settings run; it
    raises ConfigError, a ValueError, before f is called.  ``sample_step``
    emits interpolated states on the uniform grid t0 + k * sample_step, a
    grid time within 1e-12 of t_end taken as t_end; ``None`` records t0 and
    the end of every accepted step.  Either way the samples end at t_end: a
    span that ends past the last grid time, however briefly, appends t_end
    with the last accepted state.  ``guards`` is a tuple of exception types
    treated as state-constraint violations (see module docstring); their
    bisection stops below ``min_step``.  No step is shorter than ``min_step`` except
    the last one, cut short to end at ``t_end``; a step size that falls
    below it anywhere else (the first, or after a rejected or an accepted
    step) raises IntegrationError, and so does an initial step size that
    is not finite and > 0 (say, from an f that returns NaN or inf).
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t_end) and t0 < t_end):
        raise ValueError(f"need finite t0 < t_end, got {t_span}")
    check_settings(rel_tol, abs_tol, min_step, max_step, sample_step)
    guards = tuple(guards)
    y = np.asarray(y0, dtype=float).copy()

    sample_ts = [t0]
    blocks = [y[None].copy()]  # the sampled states, in blocks of rows
    steps, powers = [], []  # dense samples not yet evaluated, see _dense_block
    next_k = 1  # next sample index on the uniform grid

    K = np.empty((7, y.size))
    K[0] = f(t0, y)  # guard violation at the initial point propagates
    h = _initial_step(f, t0, y, K[0], t_end, rel_tol, abs_tol, max_step, guards)
    # later updates only scale or cap h by finite numbers > 0, so one check suffices
    if not 0 < h < math.inf:  # h = 0 would never advance t
        raise IntegrationError(f"initial step size {h} outside (0, inf)", t=t0, state=y.copy())
    nfev, naccept, nreject, nguard = 2, 0, 0, 0
    # per stage: node, tableau row, the stages it combines, the stage it fills
    stages = [(float(_C[i + 1]), a_row, K[: i + 1], K[i + 1]) for i, a_row in enumerate(_A)]
    K6, K_first, K_last = K[:6], K[0], K[6]

    t = t0
    ys = y.tolist()  # y as floats, for the error norm
    err_prev = 1e-4
    while t < t_end:
        h = min(h, max_step, t_end - t)
        if h < min_step and h < t_end - t:  # only the last step may be that short
            raise IntegrationError(f"step size underflow ({h:.3e} < {min_step:.3e})",
                                   t=t, state=y.copy())
        # K[0] holds f(t, y): set from the last stage of an accepted step only,
        # so a retry after a rejection starts from the same first stage (FSAL)
        h_arr = np.array(h)  # a 0-d operand skips numpy's scalar discovery
        try:
            # the default path's parts hold h and y as arrays: the same bits, formed faster
            for c, a_row, K_prev, K_next in stages:
                q = a_row.dot(K_prev)
                K_next[...] = f(t + c * h, (q, h, ys) if stage_parts else formed((q, h_arr, y)))
            y_new = _B.dot(K6)
            y_new *= h_arr
            y_new += y
            K_last[...] = f(t + h, y_new)
        except guards:
            nfev += 1  # at least the failing evaluation
            nguard += 1
            h *= 0.5
            if h < min_step:
                raise
            continue
        nfev += 6

        ys_new = y_new.tolist()
        err = _error_norm(_E.dot(K).tolist(), h, ys, ys_new, rel_tol, abs_tol)
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
                count = 0
                while t_target <= t + h + 1e-14:
                    t_emit = t_end if abs(t_target - t_end) < 1e-12 else t_target
                    theta = min(1.0, (t_emit - t) / h)
                    powers.append((theta, theta**2, theta**3, theta**4))
                    sample_ts.append(t_emit)
                    count += 1
                    next_k += 1
                    t_target = t0 + next_k * sample_step
                steps.append((K.copy(), h, y, count))
                if len(powers) >= _DENSE_BATCH:
                    blocks.append(_dense_block(steps, powers))
                    steps, powers = [], []

        t += h
        y, ys = y_new, ys_new
        K_first[...] = K_last
        naccept += 1
        if sample_step is None:
            sample_ts.append(t)
            blocks.append(y[None])
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -_ALPHA * err_prev ** _BETA))
        err_prev = max(err, 1e-4)
        h *= factor

    if steps:
        blocks.append(_dense_block(steps, powers))
    if sample_ts[-1] < t_end:
        sample_ts.append(t_end)
        blocks.append(y[None])
    return SolveResult(np.array(sample_ts), np.concatenate(blocks), naccept=naccept,
                       nreject=nreject, nguard=nguard, nfev=nfev)
