"""Funnel-based output tracking for a non-minimum-phase two-link manipulator.

Library layers: ``model`` (plant), ``bif`` (normal-form coordinates and
internal dynamics), ``linid`` (linearization, eigensplit, auxiliary
output), ``reference`` (transition polynomial and bounded auxiliary
reference), ``funnel`` (gain cascade, high-gain observer), ``rk45``
(adaptive integrator with state guards), ``sim`` (closed-loop integration,
CSV, case study), ``errors`` (exception types), ``checks`` (independent-route
oracles), plus the ``funneltrack`` CLI.
"""
