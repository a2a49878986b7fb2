"""Exception types shared across the package.

The simulator maps these onto process exit codes: config 1, funnel 2,
domain 3, integrator 4.
"""
import dataclasses
import math


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


def require_finite(cfg) -> None:
    """Raise ConfigError if a number in a field (or tuple field) of ``cfg`` is not finite."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, (int, float)) and not math.isfinite(v):
                raise ConfigError(f"{type(cfg).__name__}.{f.name} must be finite, got {value!r}")


class DomainError(ValueError):
    """State left the admissible region cos(beta) > 2/3.

    Carries the offending time (if known) and state for diagnostics.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class FunnelViolation(RuntimeError):
    """A cascaded error reached its funnel boundary (phi*|e| >= 1).

    This signals loss of the control guarantee; the simulator aborts
    rather than clamping.
    """

    def __init__(self, message, t=None, level=None, phi=None, error=None, state=None):
        super().__init__(message)
        self.t = t
        self.level = level
        self.phi = phi
        self.error = error
        self.state = state


class IntegrationError(RuntimeError):
    """Step-size underflow or other integrator failure."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state
