"""Funnel-based output tracking for a non-minimum-phase two-link manipulator.

Library layers: ``model`` (plant), ``bif`` (normal-form coordinates and
internal dynamics), ``linid`` (linearization, eigensplit, auxiliary
output), ``reference`` (transition polynomial and bounded auxiliary
reference), ``funnel`` (gain cascade, observer, control laws), ``sim``
(closed-loop integration, CSV, case study), plus the ``funneltrack`` CLI.
"""
from .bif import (BifCoords, internal_rhs, internal_rhs_oracle, phi_forward,
                  phi_inverse)
from .errors import (ConfigError, DomainError, FunnelViolation, IntegrationError,
                     SimulationError)
from .funnel import (CascadeOutput, FunnelSpec, cascade, control_law, gain,
                     observer_rhs, phi_eval)
from .linid import LinData, eigensplit, linearize, psi, ynew_derivatives
from .model import (ManipulatorParams, PlantState, accelerations, gamma,
                    generalized_forces, mass_matrix, mass_matrix_inverse,
                    mechanical_energy, output, plant_rhs)
from .reference import BoundedReference, TransitionRef, yref_eval
from .sim import (DisturbanceSpec, IntegratorConfig, ScenarioConfig,
                  Trajectory, disturbance, integrate, run_case_study,
                  run_sweep, case_study_config, summarize)

__version__ = "0.1.0"

__all__ = [
    "BifCoords", "BoundedReference", "CascadeOutput", "ConfigError",
    "DisturbanceSpec", "DomainError", "FunnelSpec", "FunnelViolation",
    "IntegratorConfig", "IntegrationError", "LinData", "ManipulatorParams",
    "PlantState", "ScenarioConfig", "SimulationError", "Trajectory",
    "TransitionRef", "accelerations", "cascade", "control_law",
    "disturbance", "eigensplit", "gain",
    "gamma", "generalized_forces", "integrate", "internal_rhs",
    "internal_rhs_oracle", "linearize", "mass_matrix", "mass_matrix_inverse",
    "mechanical_energy", "observer_rhs",
    "output", "phi_eval", "phi_forward", "phi_inverse", "plant_rhs", "psi",
    "run_case_study", "run_sweep", "case_study_config", "summarize",
    "ynew_derivatives", "yref_eval",
]
