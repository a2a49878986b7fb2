"""Reference trajectory and the bounded auxiliary reference signal.

``yref_eval`` is the 9th-degree transition polynomial, held constant
outside the transition window.  The auxiliary reference solves the scalar
unstable ODE

    xdot = lam2 * x + lam2 * p2 * y_ref(t),

where lam2 and p2 are the unstable eigenvalue and its modal coupling, read
from a ``linid.LinData``.  Its only bounded solution is the backward
convolution integral; forward integration amplifies roundoff by
exp(lam2 t), so ``checks`` uses it as a cross-check only.
``BoundedReference`` is the one route to that solution: closed forms
where y_ref is constant, and over the window a not-a-knot cubic spline on
the knots of ``_grid``, solved here (``_not_a_knot``): one knot array, one
coefficient array, one lookup.  Its value at 0 is the bounded initial
value.  The package needs numpy only.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite
from .linid import LinData, ladder
from .model import libm

# ascending coefficients of the transition polynomial in tau**5 .. tau**9,
# and of its derivative divided by tau**4
TRANSITION_COEFFS = (126.0, -420.0, 540.0, -315.0, 70.0)
SLOPE_COEFFS = tuple((k + 5) * c for k, c in enumerate(TRANSITION_COEFFS))
# knot spacing of the bounded reference's spline on windows of 1 s or more
_GRID_STEP = 1e-3
# most spline intervals a transition window may need: a build of this many
# takes about 0.5 s and 37 MiB on a 2-vCPU x86-64, linear in the count
MAX_INTERVALS = 100_000
# least knot gap (1000 gaps span 1 ns): closer knots repeat, or c3 ~ 1 / gap**2 overflows
_MIN_KNOT_GAP = 1e-12
# 10-point Gauss-Legendre nodes and weights on [-1, 1]: the floats of
# numpy.polynomial.legendre.leggauss(10), written out so that a build does not
# import numpy.polynomial (about 5 ms per process)
_GAUSS_NODES = (-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
                -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
                0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
                0.9739065285171717)
_GAUSS_WEIGHTS = (0.06667134430868814, 0.1494513491505804, 0.219086362515982,
                  0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
                  0.2692667193099965, 0.219086362515982, 0.1494513491505804,
                  0.06667134430868814)


@dataclass(frozen=True)
class TransitionRef:
    """Transition from y0 to yf over [t0, tf], held constant outside."""

    y0: float = 0.0
    yf: float = 0.0
    t0: float = 0.0
    tf: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.tf < self.t0:
            raise ConfigError(f"transition needs tf >= t0, got [{self.t0}, {self.tf}]")
        _grid(max(0.0, self.t0), self.tf)


def _grid(t_lo: float, tf: float) -> np.ndarray:
    """Knots of the bounded reference's spline on [t_lo, tf], empty if tf <= t_lo:
    one interval per _GRID_STEP, and at least 1000, since with fewer a short
    window's spline is off by up to 3e-5 p2 abs(yf - y0) midway between knots.
    A ConfigError past MAX_INTERVALS, or for knots under _MIN_KNOT_GAP apart."""
    if tf <= t_lo:
        return np.empty(0)
    n = max(1000.0, round((tf - t_lo) / _GRID_STEP, 0))  # a float: inf for too long a window
    if n > MAX_INTERVALS:
        raise ConfigError(f"transition window [{t_lo}, {tf}] needs more than "
                          f"{MAX_INTERVALS} spline intervals of {_GRID_STEP} s")
    ts = np.linspace(t_lo, tf, int(n) + 1)
    if (np.diff(ts) < _MIN_KNOT_GAP).any():
        raise ConfigError(f"transition window [{t_lo}, {tf}] puts knots under "
                          f"{_MIN_KNOT_GAP} s apart")
    return ts


def _horner(tau, coeffs):
    """sum(coeffs[k] tau**k) for a float or an array ``tau``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * tau + c
    return acc


def _rise(r: TransitionRef, tau, t5):
    """Transition value at tau in (0, 1), with t5 = tau**5 (float or array)."""
    return r.y0 + t5 * _horner(tau, TRANSITION_COEFFS) * (r.yf - r.y0)


def yref_eval(r: TransitionRef, t: float) -> tuple[float, float]:
    """Reference value and derivative at time t, a float or an array; a step
    (tf == t0) is yf from t0 on.  It holds y0 up to t0 and just past it, where
    tau = (t - t0) / (tf - t0) underflows to 0."""
    if isinstance(t, np.ndarray):
        rising = (r.t0 < t) & (t < r.tf)
        rising[rising] = (t[rising] - r.t0) / (r.tf - r.t0) != 0.0
        if not rising.all():  # the held samples here, the rising ones below
            y, ydot = np.where(t >= r.tf, r.yf, r.y0), np.zeros(t.shape)
            if rising.any():
                y[rising], ydot[rising] = yref_eval(r, t[rising])
            return y, ydot
    elif t >= r.tf:
        return r.yf, 0.0
    elif t <= r.t0 or (t - r.t0) / (r.tf - r.t0) == 0.0:
        return r.y0, 0.0
    T = r.tf - r.t0
    tau = (t - r.t0) / T
    t5 = libm(pow, tau, 5)
    return _rise(r, tau, t5), t5 / tau * _horner(tau, SLOPE_COEFFS) * (r.yf - r.y0) / T


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (c3, c2, c1, c0) of the not-a-knot cubic spline through
    (x, y), one column per interval; needs len(x) >= 4.

    Bit for bit ``scipy.interpolate.CubicSpline(x, y).c`` (scipy 1.17): the
    same expressions in the same order, with the
    tridiagonal system for the knot slopes solved as LAPACK ``dgtsv`` does
    when it swaps no rows.  On an increasing grid of near-equal steps h it
    never swaps: the first row compares d = h with the sub-diagonal h, the
    eliminated diagonal then settles near (2 + sqrt 3) h against a
    sub-diagonal h, and the last row compares about 3.7 h with 2 h.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the three diagonals and the right-hand side, rows 1 .. n-2
    d, du, dl, b = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot end rows
    w = x[2] - x[0]
    d[0], du[0] = dx[1], w
    b[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / w
    w = x[-1] - x[-3]
    d[-1], dl[-1] = dx[-2], w
    b[-1] = (dx[-1]**2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
    # dgtsv without interchanges: forward elimination, then back substitution
    d, du, dl, s = d.tolist(), du.tolist(), dl.tolist(), b.tolist()
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        s[i + 1] -= fact * s[i]
    s[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1]) / d[i]
    s = np.array(s)
    # Hermite form on each interval
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.array((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class BoundedReference:
    """Bounded auxiliary reference for t >= 0.

    From ``tf`` on it is -p2 yf.  On [max(0, t0), tf] grid values come from
    a backward one-interval recurrence (all exponentials decay in that
    direction) with Gauss-Legendre panels, wrapped in a not-a-knot cubic
    spline (``_not_a_knot``, on the knots of ``_grid``).  Before that it decays
    analytically from the first knot value, or from -p2 yf if there is no
    grid.  Derivatives are recovered through the ODE relations, so the
    first-derivative residual vanishes by construction.  The spline's tables
    are ``knots``, their spacing ``gap`` (None without a grid) and ``coeffs``,
    (c3, c2, c1, c0) in one column per interval.
    """

    # endpoints near the float limit overflow the quadrature and the spline's
    # solve; the NaN reference then stops the run at t = 0, so numpy need not warn
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __init__(self, lin: LinData, ref: TransitionRef):
        self.ref = ref
        self.lam2 = lin.lambda2
        self.p2 = lin.p2
        self.final_value = -lin.p2 * ref.yf
        self.t_lo = max(0.0, ref.t0)
        self.knots = ts = _grid(self.t_lo, ref.tf)
        self.gap, self.coeffs = None, np.empty((4, 0))  # no spline on an empty window
        if len(ts):
            n = len(ts) - 1
            self.gap = ts[1] - ts[0]
            gauss = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
            # a few hundred panels per array pass keep the temporaries small
            panels = np.concatenate([self._panels(ts[j:j + 257], *gauss)
                                     for j in range(0, n, 256)])
            panels = panels.tolist()
            decay = math.exp(-self.lam2 * self.gap)
            vals = np.empty(n + 1)
            vals[-1] = v = float(self.final_value)  # carried as a float, never read back
            for i in range(n - 1, -1, -1):
                vals[i] = v = panels[i] + decay * v
            self.coeffs = _not_a_knot(ts, vals)

    def _panels(self, ts: np.ndarray, gx: np.ndarray, gw: np.ndarray) -> np.ndarray:
        """Convolution integral over each interval of ``ts`` by Gauss-Legendre
        quadrature with nodes ``gx`` and weights ``gw`` on [-1, 1].  Every
        node lies inside the transition window."""
        ref, half = self.ref, 0.5 * self.gap
        sg = (0.5 * (ts[:-1] + ts[1:]))[:, None] + half * gx  # one row of nodes per interval
        tau = (sg - ref.t0) / (ref.tf - ref.t0)
        t5 = libm(pow, tau, 5)
        weighted = gw * np.exp(self.lam2 * (ts[:-1, None] - sg)) * _rise(ref, tau, t5)
        return -self.lam2 * self.p2 * half * np.sum(weighted, axis=1)

    def value(self, t: float) -> float:
        """Bounded solution at time t >= 0, a float or an array."""
        if not isinstance(t, np.ndarray):
            if t >= self.ref.tf:
                return self.final_value
            if t < self.t_lo:
                return self._before_grid(t)
            return self.value(np.array([t])).item()
        gridded = (self.t_lo <= t) & (t < self.ref.tf)
        if not gridded.all():  # the other samples here, the gridded ones below
            out = np.full(t.shape, self.final_value)
            early = (t < self.t_lo) & (t < self.ref.tf)
            out[early] = self._before_grid(t[early])
            if gridded.any():
                out[gridded] = self.value(t[gridded])
            return out
        i = np.minimum(len(self.knots) - 2, ((t - self.t_lo) / self.gap).astype(int))
        c3, c2, c1, c0 = self.coeffs[:, i]
        dt = t - self.knots[i]
        return ((c3 * dt + c2) * dt + c1) * dt + c0

    def _before_grid(self, t):
        """``value`` at t < max(0, t0), where y_ref is y0: decay from the first
        knot value, or from -p2 yf without a grid (a negative exponent, so stable)."""
        start = self.coeffs[3, 0].item() if self.coeffs.size else self.final_value
        decay = libm(math.exp, self.lam2 * (t - self.t_lo))
        return -self.p2 * self.ref.y0 * (1.0 - decay) + decay * start

    def eval(self, t: float) -> tuple[float, float, float]:
        """Value and first two derivatives of the reference at t, a float or an array."""
        if isinstance(t, np.ndarray):
            moving = t < self.ref.tf
            if not moving.all():  # the samples from tf on here, the others below
                out = np.zeros((3, t.size))
                out[0] = self.final_value
                if moving.any():
                    out[:, moving] = self.eval(t[moving])
                return tuple(out)
        elif t >= self.ref.tf:
            return self.final_value, 0.0, 0.0
        return ladder(self.lam2, self.p2, self.value(t), *yref_eval(self.ref, t))
