"""Funnel functions, the gain/error cascade, and the high-gain observer.

The cascade stacks three funnel-gain stages around the auxiliary output
error: e1 = e0' + k0 e0, e2 = e1' + k1 e1, u = +k2 e2, each gain
k = 1/(1 - phi^2 e^2) blowing up as the error approaches its funnel
boundary 1/phi.  The positive feedback sign matches the negative
effective input gain of the auxiliary output on the admissible region.

The cascade takes the auxiliary output and two surrogate time
derivatives of it.  Two variants supply them: the modal derivative ladder
``linid.ynew_derivatives`` (``lin``), or ``observer_derivatives``, which
reads the last two of a high-gain observer's three states (``hg``).
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, FunnelViolation, require_finite
from .linid import LinData, psi


@dataclass(frozen=True)
class FunnelSpec:
    """Funnel function phi(t) = 1 / (a * exp(-b t) + eps)."""

    a: float
    b: float
    eps: float

    def __post_init__(self):
        require_finite(self)
        if self.a < 0 or self.b <= 0 or self.eps <= 0:
            raise ConfigError(f"funnel needs a >= 0, b > 0, eps > 0, got {self}")


def phi_eval(f: FunnelSpec, t: float) -> tuple[float, float]:
    """Funnel function and its derivative at time t >= 0."""
    decay = f.a * math.exp(-f.b * t)
    phi = 1.0 / (decay + f.eps)
    return phi, f.b * decay * phi * phi


class CascadeOutput(NamedTuple):
    """One controller evaluation: the CSV's controller columns, in order."""

    y_bar_ref: float
    y_new: float
    e0: float
    e1: float
    e2: float
    k0: float
    k1: float
    k2: float
    u: float


def gain(phi: float, e: float, *, t=None, level=None) -> float:
    """Funnel gain 1/(1 - phi^2 e^2); raises once the boundary is reached."""
    w = 1.0 - (phi * e) ** 2
    if w <= 0.0:
        raise FunnelViolation(
            f"funnel boundary reached at level {level}, t = {t}: phi*|e| = {phi * abs(e):.6f} >= 1",
            t=t, level=level)
    return 1.0 / w


def cascade(specs, t: float, y_new: float, y_new_1: float, y_new_2: float,
            y_bar_ref: float, y_bar_ref_dot: float, y_bar_ref_ddot: float) -> CascadeOutput:
    """Evaluate the three-stage funnel cascade and the input u = k2 e2."""
    phi0, phi0_dot = phi_eval(specs[0], t)
    phi1, _ = phi_eval(specs[1], t)
    phi2, _ = phi_eval(specs[2], t)

    e0 = y_new - y_bar_ref
    e0_1 = y_new_1 - y_bar_ref_dot
    e0_2 = y_new_2 - y_bar_ref_ddot

    k0 = gain(phi0, e0, t=t, level=0)
    # exact time derivative of k0 given (e0, e0_1)
    k0_1 = 2.0 * phi0 * e0 * k0 * k0 * (phi0_dot * e0 + phi0 * e0_1)
    e1 = e0_1 + k0 * e0
    k1 = gain(phi1, e1, t=t, level=1)
    e1_1 = e0_2 + k0 * e0_1 + k0_1 * e0
    e2 = e1_1 + k1 * e1
    k2 = gain(phi2, e2, t=t, level=2)
    return CascadeOutput(y_bar_ref, y_new, e0, e1, e2, k0, k1, k2, k2 * e2)


def observer_rhs(gains, zeta, y_new: float) -> tuple[float, float, float]:
    """High-gain observer dynamics; linear in (zeta, y_new)."""
    l1, l2, l3 = gains
    err = y_new - zeta[0]
    return l1 * err + zeta[1], l2 * err + zeta[2], l3 * err


def observer_derivatives(lin: LinData, x) -> tuple[float, float, float]:
    """``ynew_derivatives`` for the state x = (plant, observer): y_new and x[5:7]."""
    return psi(lin, x), x[5], x[6]
