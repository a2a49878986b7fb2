"""Exception types shared across the package.

``cli.FAILURES`` maps each of them to its process exit code and stderr
label.
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


class SimulationError(RuntimeError):
    """A run stopped: the offending time, state and funnel level, where known."""

    def __init__(self, message, t=None, state=None, level=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.level = level


class DomainError(SimulationError, ValueError):
    """State left the admissible region cos(beta) > 2/3."""


class FunnelViolation(SimulationError):
    """A cascaded error reached its funnel boundary (phi*|e| >= 1).

    This signals loss of the control guarantee; the simulator aborts
    rather than clamping.
    """


class IntegrationError(SimulationError):
    """Step-size underflow or other integrator failure."""
