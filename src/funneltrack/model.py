"""Two-link rotational manipulator with an elastic passive joint.

Two equal links of mass ``m`` and length ``l`` move in a plane; the first
link is driven by a torque, the second is attached through a passive
spring-damper joint (stiffness ``c``, damping ``d``).  The tracked point
sits at offset ``s`` on the passive link, giving the output
``y = alpha + s/(s+l) * beta``.

The state vector used throughout is ``x = (alpha, beta, alpha_dot,
beta_dot)``.  All functions are pure; the admissible region
``cos(beta) > 2/3`` (where the high-frequency gain keeps a fixed sign) is
checked by callers, not here.
"""
import functools
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
    s: float = 1.0  # tracking-point offset on the passive link, m

    def __post_init__(self):
        require_finite(self)
        if not (self.m > 0 and self.l > 0):
            raise ConfigError(f"mass and length must be positive, got m={self.m}, l={self.l}")
        if self.c < 0 or self.d < 0:
            raise ConfigError(f"spring/damping must be nonnegative, got c={self.c}, d={self.d}")
        if not 0 <= self.s <= self.l:
            raise ConfigError(f"tracking offset must satisfy 0 <= s <= l, got s={self.s}")

    @property
    def inertia(self) -> float:
        """Link inertia l^2 m / 12 (homogeneous mass distribution)."""
        return self.l**2 * self.m / 12.0

    @functools.cached_property
    def l2m(self) -> float:
        return self.l**2 * self.m

    @property
    def output_weight(self) -> float:
        """Coefficient s/(s+l) of beta in the output map."""
        return self.s / (self.s + self.l)


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

    @classmethod
    def from_array(cls, x) -> "PlantState":
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


def in_domain(x) -> bool:
    """True iff cos(beta) > 2/3 (strict)."""
    return math.cos(x[1]) > DOMAIN_COS_LIMIT


def mass_matrix(p: ManipulatorParams, beta: float) -> np.ndarray:
    """Symmetric 2x2 mass matrix M(beta)."""
    cb = math.cos(beta)
    return p.l2m * np.array([[5.0 / 3.0 + cb, 1.0 / 3.0 + 0.5 * cb],
                             [1.0 / 3.0 + 0.5 * cb, 1.0 / 3.0]])


def mass_matrix_inverse(p: ManipulatorParams, beta: float) -> np.ndarray:
    """Closed-form inverse of the mass matrix.

    det M = (l^2 m)^2 (16 - 9 cos^2 beta) / 36 never vanishes, so the
    inverse exists for every beta.
    """
    cb = math.cos(beta)
    k = 36.0 / (p.l2m * (16.0 - 9.0 * cb * cb))
    return k * np.array([[1.0 / 3.0, -1.0 / 3.0 - 0.5 * cb],
                         [-1.0 / 3.0 - 0.5 * cb, 5.0 / 3.0 + cb]])


def _forces(p: ManipulatorParams, sb: float, x2: float, x3: float, x4: float) -> tuple:
    f1 = 0.5 * p.l2m * x4 * (2.0 * x3 + x4) * sb
    f2 = -p.c * x2 - p.d * x4 - 0.5 * p.l2m * x3 * x3 * sb
    return f1, f2


def generalized_forces(p: ManipulatorParams, x) -> tuple[float, float]:
    """Coriolis/centrifugal, spring and damping torques (f1, f2)."""
    return _forces(p, math.sin(x[1]), x[1], x[2], x[3])


def accelerations(p: ManipulatorParams, cb: float, sb: float, x2: float, x3: float,
                  x4: float, u_d: float) -> tuple[float, float]:
    """(alpha_ddot, beta_ddot) at beta = x2 with cb = cos(x2), sb = sin(x2).

    ``u_d`` is the torque on the first link including any disturbance.
    """
    f1, f2 = _forces(p, sb, x2, x3, x4)
    k = 36.0 / (p.l2m * (16.0 - 9.0 * cb * cb))
    a12 = -1.0 / 3.0 - 0.5 * cb
    t1 = f1 + u_d
    return k * (t1 / 3.0 + a12 * f2), k * (a12 * t1 + (5.0 / 3.0 + cb) * f2)


def plant_rhs(p: ManipulatorParams, x, u_d: float) -> np.ndarray:
    """First-order dynamics xdot = f(x) + g(x) u_d."""
    x2, x3, x4 = x[1], x[2], x[3]
    acc1, acc2 = accelerations(p, math.cos(x2), math.sin(x2), x2, x3, x4, u_d)
    return np.array([x3, x4, acc1, acc2])


def drift(p: ManipulatorParams, x) -> np.ndarray:
    """Drift vector field f(x) of the control-affine form."""
    return plant_rhs(p, x, 0.0)


def input_field(p: ManipulatorParams, x) -> np.ndarray:
    """Input vector field g(x) = (0, 0, M^{-1} e1)."""
    col = mass_matrix_inverse(p, x[1])[:, 0]
    return np.array([0.0, 0.0, col[0], col[1]])


def output(p: ManipulatorParams, x) -> tuple[float, float]:
    """Tracked output y = alpha + s/(s+l) beta and its velocity."""
    w = p.output_weight
    return x[0] + w * x[1], x[2] + w * x[3]


def gamma(p: ManipulatorParams, beta: float) -> float:
    """High-frequency gain [1, s/(s+l)] M^{-1} e1.

    Strictly negative exactly on cos(beta) > 2/3 when s = l.
    """
    cb = math.cos(beta)
    w = p.output_weight
    return 36.0 / (p.l2m * (16.0 - 9.0 * cb * cb)) * (1.0 / 3.0 - w * (1.0 / 3.0 + 0.5 * cb))


def mechanical_energy(p: ManipulatorParams, x) -> float:
    """Kinetic plus spring potential energy; conserved for u_d = 0, d = 0."""
    v = np.array([x[2], x[3]])
    return 0.5 * float(v @ mass_matrix(p, x[1]) @ v) + 0.5 * p.c * x[1] ** 2
