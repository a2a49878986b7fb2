"""Exception types shared across the package.

``cli.FAILURES`` maps each of them to its process exit code and stderr
label.
"""
import dataclasses
import math


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


def require_finite(cfg) -> None:
    """Raise ConfigError unless each ``float`` field of ``cfg``, and each entry
    of a ``tuple[float, ...]`` field, is a finite int or float (not a bool);
    an int outside the float range is not finite."""
    for f in dataclasses.fields(cfg):
        if f.type not in (float, tuple[float, ...]):
            continue
        value = getattr(cfg, f.name)
        for v in (value,) if f.type is float else value:
            try:
                finite = (not isinstance(v, bool) and isinstance(v, (int, float))
                          and math.isfinite(v))
            except OverflowError:  # an int outside the float range
                finite = False
            if not finite:
                raise ConfigError(
                    f"{type(cfg).__name__}.{f.name} must be a finite number, got {value!r}")


class SimulationError(RuntimeError):
    """A run stopped: the offending time, state and funnel level, where known.

    ``sim.ClosedLoop.evaluate`` attaches t and the state to every controller
    error, ``rk45.solve`` to its own; messages leave t to ``cli``."""

    def __init__(self, message, t=None, state=None, level=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.level = level


class DomainError(SimulationError, ValueError):
    """State left the admissible region cos(beta) > 2/3."""


class FunnelViolation(SimulationError):
    """A cascaded error reached its funnel boundary (not phi*|e| < 1).

    This signals loss of the control guarantee; the simulator aborts
    rather than clamping.
    """


class IntegrationError(SimulationError):
    """Step-size underflow or other integrator failure."""
