"""Linearized internal dynamics, stable/unstable split, auxiliary output.

Around the origin the internal dynamics reduce to etadot = Q eta + P ydot
with one stable and one unstable eigenvalue (hyperbolic for c > 0).  The
unstable modal coordinate recombined with the output,

    y_new = [0, 1] V^{-1} (eta1, eta2)^T - p2 * y,

has relative degree 3 with effective input gain lam2 * p2 * Gamma, and the
surrogate derivative ladder built from the scalar unstable mode replaces
the true time derivatives in the feedback law.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bif import phi_forward
from .errors import ConfigError
from .model import ManipulatorParams, output


def linearize(p: ManipulatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (Q, P) of the internal dynamics at the origin."""
    lm = p.l2m
    Q = np.array([[0.0, -12.0], [-p.c / lm, 12.0 * p.d / lm]])
    P = np.array([10.0, -10.0 * p.d / lm])
    return Q, P


@dataclass(frozen=True, eq=False)
class LinData:
    """Eigensplit of the linearized internal dynamics (immutable)."""

    Q: np.ndarray
    P: np.ndarray
    lambda1: float  # stable, < 0
    lambda2: float  # unstable, > 0
    V: np.ndarray  # columns: eigenvectors for lambda1, lambda2
    Vinv: np.ndarray
    p1: float
    p2: float  # > 0 by the sign convention below

    @functools.cached_property
    def unstable_row(self) -> tuple[float, float]:
        """Second row of V^{-1}: the unstable modal coordinate's weights."""
        return tuple(self.Vinv[1].tolist())


def eigensplit(p: ManipulatorParams) -> LinData:
    """Diagonalize Q and split the ydot coupling into modal components.

    Eigenvalues come from the closed-form characteristic roots.  The
    eigenvector of Q for lambda is (-12/lambda, 1); the unstable column is
    taken as (12/lam2, -1).  Then det V = 12 (lam2 - lam1) / (lam1 lam2) < 0
    and the modal input coupling p2 = (120 d / (lam1 l^2 m) - 10) / det V is
    positive for every c > 0, d >= 0, which makes the effective gain
    lam2 * p2 * Gamma of the auxiliary output negative on the admissible
    region and matches the positive feedback sign u = +k2 e2 of the cascade.

    Raises ConfigError unless, in floats, lambda1 < 0 < lambda2 and p2 > 0,
    all finite.  c = 0 fails this, and so do parameters at which the
    arithmetic overflows, underflows or cancels (say m = 1e-300 or c = 1e-320).
    """
    lambda1 = lambda2 = math.nan
    # numpy scalars: their ** is the C library's pow, as a float's is, but an
    # overflow gives inf where a float raises, and the test below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        lm = np.float64(p.l) ** 2 * p.m
        if lm > 0:  # l^2 m may underflow
            root = 2.0 * np.sqrt((3.0 * p.d / lm) ** 2 + 3.0 * p.c / lm)
            lambda1, lambda2 = float(6.0 * p.d / lm - root), float(6.0 * p.d / lm + root)
    if not -math.inf < lambda1 < 0.0 < lambda2 < math.inf:
        raise ConfigError(f"no hyperbolic split at {p}: lambda1 = {lambda1}, lambda2 = {lambda2}")

    Q, P = linearize(p)
    V = np.array([[-12.0 / lambda1, 12.0 / lambda2], [1.0, -1.0]])
    p1, p2 = np.linalg.solve(V, P).tolist()
    if not 0.0 < p2 < math.inf:
        raise ConfigError(f"no hyperbolic split at {p}: p2 = {p2}")
    return LinData(Q=Q, P=P, lambda1=lambda1, lambda2=lambda2, V=V,
                   Vinv=np.linalg.inv(V), p1=p1, p2=p2)


def psi(lin: LinData, x) -> float:
    """Auxiliary output y_new expressed in plant coordinates, of one state or
    of the states of many samples (``states.T``)."""
    y, _, eta1, eta2 = phi_forward(x)
    w0, w1 = lin.unstable_row
    return w0 * eta1 + w1 * eta2 - lin.p2 * y


def ladder(lam2: float, p2: float, v: float, u: float, u_dot: float) -> tuple[float, float, float]:
    """(v, v1, v2): v and its first two derivatives along the scalar unstable
    mode vdot = lam2 * v + lam2 * p2 * u, driven by u with derivative u_dot;
    floats, or arrays of samples."""
    v1 = lam2 * v + lam2 * p2 * u
    return v, v1, lam2 * v1 + lam2 * p2 * u_dot


def ynew_derivatives(lin: LinData, x) -> tuple[float, float, float]:
    """Auxiliary output and its surrogate derivative ladder.

    The ladder propagates the scalar unstable mode, so these are not the
    time derivatives of psi along the true flow; they satisfy
    y2 = lam2 * y1 + lam2 * p2 * ydot identically.  ``x`` is a state, or the
    states of many samples (``states.T``).
    """
    return ladder(lin.lambda2, lin.p2, psi(lin, x), *output(x))
