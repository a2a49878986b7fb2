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
from .model import ManipulatorParams


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
    D: float  # det V

    @functools.cached_property
    def unstable_row(self) -> tuple[float, float]:
        """Second row of V^{-1}: the unstable modal coordinate's weights."""
        return tuple(self.Vinv[1].tolist())


def eigensplit(p: ManipulatorParams) -> LinData:
    """Diagonalize Q and split the ydot coupling into modal components.

    Eigenvalues come from the closed-form characteristic roots.  The
    eigenvector of Q for lambda is (-12/lambda, 1); the unstable column's
    sign is flipped so that the modal input coupling p2 is positive, which
    makes the effective gain lam2 * p2 * Gamma of the auxiliary output
    negative on the admissible region and matches the positive feedback
    sign u = +k2 e2 of the cascade.
    """
    if p.c <= 0:
        raise ValueError(f"hyperbolic split requires c > 0, got c = {p.c}")
    lm = p.l2m
    root = 2.0 * math.sqrt((3.0 * p.d / lm) ** 2 + 3.0 * p.c / lm)
    lambda1 = 6.0 * p.d / lm - root
    lambda2 = 6.0 * p.d / lm + root

    Q, P = linearize(p)
    V = np.array([[-12.0 / lambda1, 12.0 / lambda2], [1.0, -1.0]])
    p1, p2 = np.linalg.solve(V, P)
    if p2 <= 0:  # cannot happen for c > 0, d >= 0; kept as a guard
        V = V * np.array([1.0, -1.0])
        p2 = -p2
    return LinData(Q=Q, P=P, lambda1=lambda1, lambda2=lambda2, V=V,
                   Vinv=np.linalg.inv(V), p1=float(p1), p2=float(p2),
                   D=float(np.linalg.det(V)))


def psi(p: ManipulatorParams, lin: LinData, x, cos_beta: float | None = None) -> float:
    """Auxiliary output y_new expressed in plant coordinates; ``cos_beta`` = cos(x[1]) if known."""
    y, _, eta1, eta2 = phi_forward(p, x, cos_beta)
    w0, w1 = lin.unstable_row
    return float(w0 * eta1 + w1 * eta2 - lin.p2 * y)


def ynew_derivatives(p: ManipulatorParams, lin: LinData, x,
                     cos_beta: float | None = None) -> tuple[float, float, float]:
    """Auxiliary output and its surrogate derivative ladder.

    The ladder propagates the scalar unstable mode, so these are not the
    time derivatives of psi along the true flow; they satisfy
    y2 = lam2 * y1 + lam2 * p2 * ydot identically.
    """
    y_new = psi(p, lin, x, cos_beta)
    lam2, p2 = lin.lambda2, lin.p2
    yq = x[0] + 0.5 * x[1]
    yq_dot = x[2] + 0.5 * x[3]
    y1 = lam2 * y_new + lam2 * p2 * yq
    y2 = lam2 * y1 + lam2 * p2 * yq_dot
    return y_new, y1, y2
