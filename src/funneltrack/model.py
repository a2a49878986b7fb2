"""Two-link rotational manipulator with an elastic passive joint.

Two equal links of mass ``m`` and length ``l`` move in a plane; the first
link is driven by a torque, the second is attached through a passive
spring-damper joint (stiffness ``c``, damping ``d``).  The tracked point
is the end-effector, giving the output ``y = alpha + beta / 2``.

The state vector used throughout is ``x = (alpha, beta, alpha_dot,
beta_dot)``; the state functions take it whole, as an array or a list, and
read only its first four entries, so the closed-loop state with observer
entries appended can be passed as it is.  Each computes the ``cos(beta)``
and ``sin(beta)`` it needs.  All functions are pure; the admissible region
``cos(beta) > 2/3`` (where the high-frequency gain keeps a fixed sign) is
checked by ``bif._require_domain``, which ``psi`` reaches, not here.
"""
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite

# cos(beta) must exceed this for the input-output structure to be valid
DOMAIN_COS_LIMIT = 2.0 / 3.0

#: half-width of the admissible beta interval, arccos(2/3)
BETA_MAX = math.acos(DOMAIN_COS_LIMIT)


@dataclass(frozen=True)
class ManipulatorParams:
    """Physical constants of the manipulator (SI units)."""

    m: float = 1.0  # link mass, kg
    l: float = 1.0  # link length, m
    c: float = 1.0  # joint spring constant, N*m/rad
    d: float = 0.25  # joint damping, N*m*s/rad

    def __post_init__(self):
        require_finite(self)
        if not (self.m > 0 and self.l > 0):
            raise ConfigError(f"mass and length must be positive, got m={self.m}, l={self.l}")
        if self.c < 0 or self.d < 0:
            raise ConfigError(f"spring/damping must be nonnegative, got c={self.c}, d={self.d}")
        try:
            l2m = float(self.l2m)
        except OverflowError:  # float l**2, or float() of an int, past the float range
            l2m = math.inf
        if not 0.0 < l2m < math.inf:
            raise ConfigError(f"l^2 m must be finite and > 0 in floats, got {l2m} "
                              f"at m={self.m}, l={self.l}")

    @functools.cached_property
    def l2m(self) -> float:
        return self.l**2 * self.m


@dataclass(frozen=True)
class PlantState:
    """Named plant state (alpha, beta, alpha_dot, beta_dot)."""

    alpha: float = 0.0
    beta: float = 0.0
    alpha_dot: float = 0.0
    beta_dot: float = 0.0

    def __post_init__(self):
        require_finite(self)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.alpha_dot, self.beta_dot])


def libm(fn, x, *args):
    """``fn(x, *args)``, on each entry for an array ``x``.

    The layer functions on the output-row path take a float or an array of
    samples, and an array must give each sample's bits.  numpy's ``+ - * /``
    round as Python floats do, but its vectorised cos, exp and power need not
    match the C library that ``math`` and float ``**`` call; so those calls
    stay scalar, mapped over the entries here in one C-level pass: ``map``
    feeds the Python floats of ``x`` and the repeated ``args`` to ``fn``, and
    ``np.fromiter`` writes each result into the float64 array, with no list
    between.  Any other ``x`` is one direct call, so no caller tests for a
    float first.
    """
    if isinstance(x, np.ndarray):
        values = map(fn, x.ravel().tolist(), *map(itertools.repeat, args))
        return np.fromiter(values, float, x.size).reshape(x.shape)
    return fn(x, *args)


def mass_matrix(p: ManipulatorParams, beta: float) -> np.ndarray:
    """Symmetric 2x2 mass matrix M(beta)."""
    cb = math.cos(beta)
    return p.l2m * np.array([[5.0 / 3.0 + cb, 1.0 / 3.0 + 0.5 * cb],
                             [1.0 / 3.0 + 0.5 * cb, 1.0 / 3.0]])


def generalized_forces(p: ManipulatorParams, x) -> tuple[float, float]:
    """Coriolis/centrifugal, spring and damping torques (f1, f2)."""
    x2, x3, x4 = x[1], x[2], x[3]
    sb = math.sin(x2)
    f1 = 0.5 * p.l2m * x4 * (2.0 * x3 + x4) * sb
    f2 = -p.c * x2 - p.d * x4 - 0.5 * p.l2m * x3 * x3 * sb
    return f1, f2


def plant_rhs(p: ManipulatorParams, x, u_d: float) -> list:
    """First-order dynamics xdot = f(x) + g(x) u_d, as a list.

    ``u_d`` is the torque on the first link including any disturbance.
    """
    f1, f2 = generalized_forces(p, x)
    cb = math.cos(x[1])
    # M^{-1} in closed form; det M = (l^2 m)^2 (16 - 9 cos^2 beta) / 36 never vanishes
    k = 36.0 / (p.l2m * (16.0 - 9.0 * cb * cb))
    a12 = -1.0 / 3.0 - 0.5 * cb
    t1 = f1 + u_d
    return [x[2], x[3], k * (t1 / 3.0 + a12 * f2), k * (a12 * t1 + (5.0 / 3.0 + cb) * f2)]


def input_field(p: ManipulatorParams, x) -> np.ndarray:
    """Input vector field g(x) = (0, 0, M^{-1} e1) of the dynamics that run:
    ``plant_rhs`` is affine in ``u_d``, so its unit-torque difference is g up
    to rounding."""
    return np.subtract(plant_rhs(p, x, 1.0), plant_rhs(p, x, 0.0))


def output(x) -> tuple[float, float]:
    """End-effector output y = alpha + beta / 2 and its velocity, for a state
    or for the states of many samples (``states.T``, one array per entry)."""
    return x[0] + 0.5 * x[1], x[2] + 0.5 * x[3]


def gamma(p: ManipulatorParams, beta: float) -> float:
    """High-frequency gain [1, 1/2] M^{-1} e1.

    Strictly negative exactly on cos(beta) > 2/3.
    """
    cb = math.cos(beta)
    return 36.0 / (p.l2m * (16.0 - 9.0 * cb * cb)) * (1.0 / 3.0 - 0.5 * (1.0 / 3.0 + 0.5 * cb))


def mechanical_energy(p: ManipulatorParams, x) -> float:
    """Kinetic plus spring potential energy; conserved for u_d = 0, d = 0."""
    v = np.array([x[2], x[3]])
    return 0.5 * float(v @ mass_matrix(p, x[1]) @ v) + 0.5 * p.c * x[1] ** 2
