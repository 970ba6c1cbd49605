"""Public entry point of the Hamiltonian eigensolver.

:func:`solve` takes a :class:`~repro.core.config.RunConfig`, resolves the
scheduling strategy through the pluggable registry
(:mod:`repro.core.registry`), and returns a
:class:`~repro.core.results.SolveResult` whose ``omegas`` attribute holds
the complete set of non-negative crossing frequencies (the paper's
``Omega`` on the upper half axis).  It is the one entry point to the
solver: the :class:`~repro.api.Macromodel` facade and the passivity
stages all call it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import RunConfig
from repro.core.drivers import ModelInput
from repro.core.registry import resolve_strategy
from repro.core.results import SolveResult
from repro.obs import trace as _obs_trace
from repro.utils.guards import ensure_finite

__all__ = ["solve"]


def solve(
    model: ModelInput, config: Optional[RunConfig] = None, **overrides
) -> SolveResult:
    """Compute all purely imaginary eigenvalues of the model's Hamiltonian.

    This is the passivity characterization kernel of the paper: the
    returned crossing frequencies are exactly where singular values of
    ``H(j w)`` touch or cross 1 (scattering) or where ``H + H^H`` becomes
    singular (immittance).  An empty result certifies passivity under the
    strict asymptotic condition of eq. (4).

    Parameters
    ----------
    model:
        :class:`~repro.macromodel.rational.PoleResidueModel` or
        :class:`~repro.macromodel.simo.SimoRealization`.
    config:
        The run configuration; defaults apply when omitted.  Its
        ``omega_max=None`` estimates the upper band edge from the largest
        Hamiltonian eigenvalue magnitude (Sec. IV.A).
    **overrides:
        Per-call :meth:`RunConfig.merged` overrides, any
        :class:`~repro.core.config.RunConfig` field, e.g.
        ``solve(model, num_threads=8, strategy="queue")``.

    Returns
    -------
    SolveResult
        ``result.omegas`` — sorted crossing frequencies;
        ``result.shifts`` / ``result.work`` — per-shift provenance and
        work counters for performance studies.

    Examples
    --------
    >>> from repro.synth import random_macromodel
    >>> model = random_macromodel(order_per_column=6, num_ports=2, seed=0)
    >>> result = solve(model, num_threads=2)
    >>> result.omegas.shape[0] == result.num_crossings
    True
    """
    config = config if config is not None else RunConfig()
    if overrides:
        config = config.merged(**overrides)
    spec = resolve_strategy(
        config.strategy, config.num_threads, backend=config.backend
    )
    with _obs_trace.span(
        "solve.sweep",
        strategy=config.strategy,
        threads=config.num_threads,
    ):
        result = spec.driver(
            model,
            num_threads=config.num_threads,
            representation=config.representation,
            omega_min=config.omega_min,
            omega_max=config.omega_max,
            options=config.options,
        )
    # A NaN/Inf crossing frequency means the eigensolve itself broke
    # down (singular pencil, overflowed Hamiltonian) — surface it as a
    # structured diagnostic, never as a silently wrong passivity verdict.
    # Plugin drivers may return their own result type; only the standard
    # SolveResult shape is guarded.
    omegas = getattr(result, "omegas", None)
    if omegas is not None:
        ensure_finite(omegas, stage="solve", what="crossing frequencies")
    return result
