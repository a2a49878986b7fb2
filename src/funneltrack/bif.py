"""Normal-form coordinates and internal dynamics for end-effector tracking.

For s = l the output chain (y, ydot) is completed to a diffeomorphism by

    eta1 = beta,
    eta2 = (1/3 + cos(beta)/2) alpha_dot + beta_dot / 3,

whose gradients annihilate the input field, so the torque never enters the
(eta1, eta2) subsystem.  ``internal_rhs`` carries the closed-form internal
dynamics; ``internal_rhs_oracle`` recomputes them by the chain rule along
the plant vector field and is the source of truth the closed forms are
validated against.
"""
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import DOMAIN_COS_LIMIT, ManipulatorParams, plant_rhs


class BifCoords(NamedTuple):
    y: float
    y_dot: float
    eta1: float
    eta2: float


def _require_domain(cos_beta: float, label: str, value: float):
    if cos_beta <= DOMAIN_COS_LIMIT:
        raise DomainError(f"cos({label}) = {cos_beta:.6f} <= 2/3 at {label} = {value:.6f}")


def phi_forward(p: ManipulatorParams, x, cos_beta: float | None = None) -> BifCoords:
    """Transform plant coordinates to (y, ydot, eta1, eta2); ``cos_beta`` = cos(x[1]) if known."""
    x1, x2, x3, x4 = x[0], x[1], x[2], x[3]
    cb = math.cos(x2) if cos_beta is None else cos_beta
    _require_domain(cb, "beta", x2)
    w2 = 1.0 / 3.0 + 0.5 * cb
    return BifCoords(x1 + 0.5 * x2, x3 + 0.5 * x4, x2, w2 * x3 + x4 / 3.0)


def phi_inverse(p: ManipulatorParams, z) -> np.ndarray:
    """Invert ``phi_forward``; the velocity block is a 2x2 solve."""
    y, y_dot, eta1, eta2 = z[0], z[1], z[2], z[3]
    cb = math.cos(eta1)
    _require_domain(cb, "eta1", eta1)
    x1 = y - 0.5 * eta1
    # [[1, 1/2], [1/3 + cb/2, 1/3]] (x3, x4) = (y_dot, eta2)
    det = (2.0 - 3.0 * cb) / 12.0
    x3 = (y_dot / 3.0 - 0.5 * eta2) / det
    x4 = (eta2 - (1.0 / 3.0 + 0.5 * cb) * y_dot) / det
    return np.array([x1, eta1, x3, x4])


def grad_phi1(x) -> np.ndarray:
    """Gradient of eta1 = beta."""
    return np.array([0.0, 1.0, 0.0, 0.0])


def grad_phi2(x) -> np.ndarray:
    """Gradient of eta2; the beta entry carries -(sin beta / 2) alpha_dot."""
    x2, x3 = x[1], x[2]
    return np.array([0.0, -0.5 * math.sin(x2) * x3, 1.0 / 3.0 + 0.5 * math.cos(x2), 1.0 / 3.0])


def internal_rhs(p: ManipulatorParams, eta, y_dot: float) -> tuple[float, float]:
    """Internal dynamics (eta1_dot, eta2_dot) driven by the output velocity.

    Closed forms obtained by eliminating (alpha_dot, beta_dot) through the
    velocity map; validated pointwise against ``internal_rhs_oracle``.
    eta1_dot is affine and eta2_dot exactly quadratic in y_dot.
    """
    eta1, eta2 = eta[0], eta[1]
    cb = math.cos(eta1)
    _require_domain(cb, "eta1", eta1)
    sb = math.sin(eta1)
    den = 2.0 - 3.0 * cb
    den2 = den * den
    lm = p.l2m

    eta1_dot = (12.0 * eta2 - (4.0 + 6.0 * cb) * y_dot) / den

    g20 = 18.0 * sb * eta2 * eta2 / den2 - p.c * eta1 / lm - 12.0 * p.d * eta2 / (lm * den)
    g21 = -3.0 * sb * (4.0 + 6.0 * cb) * eta2 / den2 + p.d * (4.0 + 6.0 * cb) / (lm * den)
    g22 = 12.0 * sb * cb / den2
    return eta1_dot, g20 + g21 * y_dot + g22 * y_dot * y_dot


def internal_rhs_oracle(p: ManipulatorParams, x, u_d: float = 0.0) -> tuple[float, float]:
    """Chain-rule internal dynamics: grad(phi_i) . xdot along the plant.

    Independent of ``u_d`` because the phi_i gradients annihilate the
    input field; the argument is exposed so tests can assert that.
    """
    cb = math.cos(x[1])
    _require_domain(cb, "beta", x[1])
    xdot = plant_rhs(p, x, u_d)
    return float(grad_phi1(x) @ xdot), float(grad_phi2(x) @ xdot)
