"""repro — parallel Hamiltonian eigensolver for passivity characterization
and enforcement of large interconnect macromodels.

Reproduction of L. Gobbato, A. Chinea, S. Grivet-Talocia, DATE 2011
(DOI 10.1109/DATE.2011.5763011).

The recommended entry point is the :class:`Macromodel` session facade,
which drives the paper's whole workflow — fit, characterize, enforce,
export — as one fluent pipeline over a single :class:`RunConfig`::

    from repro import Macromodel, RunConfig

    session = (
        Macromodel.from_touchstone("device.s4p")
        .configure(num_threads=8)
        .fit(num_poles=40)
        .check_passivity()
    )
    if not session.is_passive:
        session.enforce().to_touchstone("device_passive.s4p")
    print(session.summary())
    payload = session.to_dict()          # JSON-serializable

Configuration can come from code, dictionaries, or the environment::

    config = RunConfig.from_env()        # REPRO_NUM_THREADS=8 repro check ...
    config = RunConfig.from_dict({"num_threads": 8, "strategy": "queue"})
    config = config.merged(representation="immittance")

Scheduling strategies are pluggable: ``bisection`` / ``queue`` /
``static`` / ``process`` ship registered in :mod:`repro.core.registry`,
and new backends join via :func:`register_strategy` without touching the
solver.
"""

from repro.api import (
    ConfigError,
    Macromodel,
    RunConfig,
    StrategySpec,
    available_strategies,
    register_strategy,
    resolve_strategy,
)
from repro.batch import BatchRunner, FleetReport, synth_fleet
from repro.core.options import SolverOptions
from repro.core.results import SolveResult
from repro.core.solver import solve
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import pole_residue_to_simo
from repro.macromodel.simo import SimoRealization
from repro.macromodel.statespace import StateSpace
from repro.passivity.characterization import PassivityReport
from repro.passivity.enforcement import EnforcementResult
from repro.passivity.hinf import HinfResult, hinf_norm
from repro.passivity.immittance import (
    ImmittancePassivityReport,
    characterize_immittance_passivity,
)
from repro.store import ResultStore
from repro.touchstone.reader import read_touchstone
from repro.touchstone.writer import write_touchstone
from repro.utils.logging import init_from_env as _logging_init_from_env

__version__ = "1.2.0"

# Honor REPRO_LOG_LEVEL / REPRO_LOG_FORMAT at import so every consumer
# — CLI, service, workers, plain scripts — gets the structured handler
# without calling enable_debug_logging() themselves.  Malformed values
# raise ConfigError naming the variable, like every other REPRO_* knob.
_logging_init_from_env()


__all__ = [
    "__version__",
    # Facade + configuration (the recommended API).
    "Macromodel",
    "RunConfig",
    "ConfigError",
    "SolverOptions",
    "solve",
    # Batch fleet execution.
    "BatchRunner",
    "FleetReport",
    "synth_fleet",
    # Content-addressed result store.
    "ResultStore",
    # Strategy registry.
    "StrategySpec",
    "available_strategies",
    "register_strategy",
    "resolve_strategy",
    # Model and result types.
    "SolveResult",
    "PoleResidueModel",
    "SimoRealization",
    "StateSpace",
    "pole_residue_to_simo",
    "PassivityReport",
    "EnforcementResult",
    "HinfResult",
    "hinf_norm",
    "ImmittancePassivityReport",
    "characterize_immittance_passivity",
    # File I/O.
    "read_touchstone",
    "write_touchstone",
]
