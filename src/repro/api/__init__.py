"""High-level session API: the :class:`Macromodel` facade.

This package is the recommended entry point of the library::

    from repro.api import Macromodel, RunConfig

    report = (
        Macromodel.from_touchstone("device.s4p")
        .configure(num_threads=8)
        .fit(num_poles=40)
        .check_passivity()
        .passivity_report
    )

It re-exports the building blocks the facade is made of: the single
:class:`~repro.core.config.RunConfig` carrying every cross-cutting knob,
and the strategy table's names and resolver
(:func:`~repro.core.registry.available_strategies` /
:func:`~repro.core.registry.resolve_strategy`), which decides what a
config runs.
"""

from repro.api.session import Macromodel
from repro.core.config import ConfigError, RunConfig
from repro.core.options import SolverOptions
from repro.core.registry import BACKENDS, available_strategies, resolve_strategy

__all__ = [
    "BACKENDS",
    "ConfigError",
    "Macromodel",
    "RunConfig",
    "SolverOptions",
    "available_strategies",
    "resolve_strategy",
]
