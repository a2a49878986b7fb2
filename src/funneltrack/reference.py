"""Reference trajectory and the bounded auxiliary reference signal.

``yref_eval`` is the 9th-degree transition polynomial, held constant
outside the transition window.  The auxiliary reference solves the scalar
unstable ODE

    xdot = lam2 * x + lam2 * p2 * y_ref(t),

whose only bounded solution is the backward convolution integral; forward
integration amplifies roundoff by exp(lam2 t) and is provided as a
cross-check only.  ``BoundedReference`` memoizes the bounded solution on a
uniform grid for cheap in-loop evaluation.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import ConfigError, require_finite

# ascending coefficients of the transition polynomial in tau**5 .. tau**9,
# and of its derivative divided by tau**4
_TRANSITION_COEFFS = (126.0, -420.0, 540.0, -315.0, 70.0)
_SLOPE_COEFFS = tuple((k + 5) * c for k, c in enumerate(_TRANSITION_COEFFS))


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


@dataclass(frozen=True)
class NewRefConfig:
    """Parameters of the auxiliary-reference ODE and its quadrature."""

    lambda2: float
    p2: float
    quadrature_abs_tol: float = 1e-10

    def __post_init__(self):
        require_finite(self)
        if self.lambda2 <= 0:
            raise ConfigError(f"lambda2 must be positive, got {self.lambda2}")
        if self.quadrature_abs_tol <= 0:
            raise ConfigError("quadrature_abs_tol must be positive")


def _horner(tau, coeffs):
    """sum(coeffs[k] tau**k) for a float or an array ``tau``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * tau + c
    return acc


def _rise(r: TransitionRef, tau, t5):
    """Transition value at tau in (0, 1), with t5 = tau**5 (float or array)."""
    return r.y0 + t5 * _horner(tau, _TRANSITION_COEFFS) * (r.yf - r.y0)


def yref_eval(r: TransitionRef, t: float) -> tuple[float, float]:
    """Reference value and derivative at time t."""
    if r.tf == r.t0:
        return (r.y0 if t < r.t0 else r.yf), 0.0
    if t <= r.t0:
        return r.y0, 0.0
    if t >= r.tf:
        return r.yf, 0.0
    T = r.tf - r.t0
    tau = (t - r.t0) / T
    t5 = tau**5
    return _rise(r, tau, t5), t5 / tau * _horner(tau, _SLOPE_COEFFS) * (r.yf - r.y0) / T


def _yref_values(r: TransitionRef, s: np.ndarray) -> np.ndarray:
    """``yref_eval(r, t)[0]`` for every t in ``s``, with the same arithmetic."""
    out = np.where(s < r.t0 if r.tf == r.t0 else s <= r.t0, r.y0, r.yf).astype(float)
    inside = (s > r.t0) & (s < r.tf)
    tau = (s[inside] - r.t0) / (r.tf - r.t0)
    # scalar pow: numpy's vectorised power may round differently
    t5 = np.fromiter((v**5 for v in tau.tolist()), float, tau.size)
    out[inside] = _rise(r, tau, t5)
    return out


def new_ref_ic(cfg: NewRefConfig, r: TransitionRef) -> float:
    """Initial value making the auxiliary-reference ODE solution bounded.

    Adaptive quadrature over the transition plus the analytic exponential
    tail -p2 * yf * exp(-lam2 * tf).
    """
    lam2, p2 = cfg.lambda2, cfg.p2
    hi = max(r.tf, 0.0)
    body = 0.0
    if hi > 0.0:
        pts = [r.t0] if 0.0 < r.t0 < hi else None
        body, _ = quad(lambda s: math.exp(-lam2 * s) * lam2 * p2 * yref_eval(r, s)[0],
                       0.0, hi, epsabs=cfg.quadrature_abs_tol, epsrel=1e-12,
                       limit=200, points=pts)
    tail = p2 * r.yf * math.exp(-lam2 * hi)
    return -(body + tail)


class BoundedReference:
    """Bounded auxiliary reference, memoized on a uniform grid.

    Grid values are produced by a backward one-interval recurrence (all
    exponentials decay in that direction) with Gauss-Legendre panels, then
    wrapped in a cubic spline.  Derivatives are recovered through the ODE
    relations, so the first-derivative residual vanishes by construction.
    """

    def __init__(self, cfg: NewRefConfig, ref: TransitionRef, grid_step: float = 1e-3):
        self.cfg = cfg
        self.ref = ref
        self.lam2 = cfg.lambda2
        self.p2 = cfg.p2
        self.final_value = -cfg.p2 * ref.yf
        self.t_lo = min(0.0, ref.t0)
        self._coeffs = None
        if ref.tf > self.t_lo:
            n = max(1, int(round((ref.tf - self.t_lo) / grid_step)))
            ts = np.linspace(self.t_lo, ref.tf, n + 1)
            self._h = ts[1] - ts[0]
            # a few hundred panels per array pass keep the temporaries small
            panels = np.concatenate([self._panels(ts[j:j + 257]) for j in range(0, n, 256)])
            panels = panels.tolist()
            decay = math.exp(-self.lam2 * self._h)
            vals = np.empty(n + 1)
            vals[-1] = self.final_value
            for i in range(n - 1, -1, -1):
                vals[i] = panels[i] + decay * vals[i + 1]
            self._knots = ts.tolist()
            self._vals = vals
            self._coeffs = np.ascontiguousarray(CubicSpline(ts, vals).c.T)  # (n, 4)

    def _panels(self, ts: np.ndarray) -> np.ndarray:
        """Convolution integral over each interval of ``ts`` (10-point Gauss-Legendre)."""
        gx, gw = np.polynomial.legendre.leggauss(10)
        half = 0.5 * self._h
        sg = (0.5 * (ts[:-1] + ts[1:]))[:, None] + half * gx  # one row of nodes per interval
        weighted = gw * np.exp(self.lam2 * (ts[:-1, None] - sg)) * _yref_values(self.ref, sg)
        return -self.lam2 * self.p2 * half * np.sum(weighted, axis=1)

    def value(self, t: float) -> float:
        """Bounded solution at time t."""
        ref = self.ref
        if t >= ref.tf or self._coeffs is None:
            return self.final_value
        if t < self.t_lo:
            # y_ref is constant y0 left of the grid; propagate analytically
            # (the exponent is negative, so this stays stable)
            decay = math.exp(self.lam2 * (t - self.t_lo))
            return -self.p2 * ref.y0 * (1.0 - decay) + decay * self._vals[0]
        i = min(len(self._knots) - 2, int((t - self.t_lo) / self._h))
        dt = t - self._knots[i]
        c3, c2, c1, c0 = self._coeffs[i].tolist()
        return float(((c3 * dt + c2) * dt + c1) * dt + c0)

    def eval(self, t: float) -> tuple[float, float, float]:
        """Value and first two derivatives of the auxiliary reference."""
        if t >= self.ref.tf:
            return self.final_value, 0.0, 0.0
        v = self.value(t)
        yr, yr_dot = yref_eval(self.ref, t)
        lam2p2 = self.lam2 * self.p2
        vd = self.lam2 * v + lam2p2 * yr
        vdd = self.lam2 * vd + lam2p2 * yr_dot
        return v, vd, vdd


def sylvester_ic(cfg: NewRefConfig, A_e: np.ndarray, C_e: np.ndarray, w0: np.ndarray) -> float:
    """Bounded initial value when y_ref is generated by an exosystem.

    For wdot = A_e w, y_ref = C_e w with the spectrum of A_e in the closed
    left half plane, the improper integral collapses to -X w0 where X
    solves the (here 1 x k) Sylvester equation lam2 X - X A_e = lam2 p2 C_e.
    Cross-validates the quadrature route for constants and sinusoids.
    """
    A_e = np.atleast_2d(np.asarray(A_e, dtype=float))
    C_e = np.atleast_2d(np.asarray(C_e, dtype=float))
    w0 = np.asarray(w0, dtype=float).reshape(-1)
    k = A_e.shape[0]
    if np.any(np.real(np.linalg.eigvals(A_e)) > 1e-12):
        raise ConfigError("exosystem must have its spectrum in the closed left half plane")
    X = np.linalg.solve((cfg.lambda2 * np.eye(k) - A_e).T, (cfg.lambda2 * cfg.p2 * C_e).T).T
    return -float(X.reshape(-1) @ w0)
