"""Workload ``sweep``: Table I substitutes through ``repro.solve``.

One caller solves Cases 1-3 of Table I (p = 20) under the three sweep
drivers side by side: ``serial`` (bisection, 1 thread), ``thread``
(dynamic queue, 2 threads) and ``process`` (2 worker processes).  Only
``core`` and ``hamiltonian`` work here: no service, store or fit.

Models are re-seeded from the workload seed with
``random_simo_macromodel`` and each case's ``sigma_target``/``q_range``,
at order scale :data:`SCALE` of the paper's n = 1000.  Solves use the
tightened eigenpair tolerance of ``tests/core/test_backends.py`` so the
three configurations can be held to its 1e-12 parity bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from perfbench.fold import exclusive_by_name
from perfbench.measured import Measured
from perfbench.metrics import CONFIGS
from perfbench.probes import CallTimer, wrapped
from perfbench.stats import median
from repro import RunConfig, solve
from repro.core.options import SolverOptions
from repro.hamiltonian.shift_invert import ShiftInvertOperator
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.obs import trace
from repro.reporting.projection import project_speedup
from repro.synth.generator import random_simo_macromodel
from repro.synth.workloads import TABLE1_CASES

#: Table I cases solved (all p = 20, n = 1000 in the paper).
CASES = TABLE1_CASES[:3]

#: Order scale: n = 150, so one pass (every model under every config)
#: takes about seven seconds and a run holds several passes.
SCALE = 0.15

#: Frequency samples that calibrate each model's peak singular value
#: (fewer than the generator's default of 300, to keep set-up short).
GRID_POINTS = 100

#: Eigenpair tolerance of the backend-parity tests.
TIGHT = SolverOptions(tol=1e-13)

#: Cross-config parity bound, relative to the band scale (test_backends).
PARITY_RTOL = 1e-12

#: Agreement with the dense O(n^3) oracle, relative to the band scale.
ORACLE_RTOL = 1e-7

CONFIG_OF = {
    "serial": RunConfig(strategy="bisection", num_threads=1, options=TIGHT),
    "thread": RunConfig(backend="thread", num_threads=2, options=TIGHT),
    "process": RunConfig(backend="process", num_threads=2, options=TIGHT),
}


def build_models(seed: int, scale: float = SCALE) -> list:
    """The workload's models, re-seeded from ``seed``."""
    return [
        random_simo_macromodel(
            max(spec.ports, int(round(spec.order * scale))),
            spec.ports,
            seed=seed * 1000 + spec.case_id,
            sigma_target=spec.sigma_target,
            q_range=spec.q_range,
            grid_points=GRID_POINTS,
        )
        for spec in CASES
    ]


def failed_configs(results: Dict[str, object], oracle: np.ndarray) -> int:
    """Configs whose crossings miss the oracle or the serial sweep."""
    reference = np.sort(np.asarray(results["serial"].omegas, dtype=float))
    scale = max(1.0, float(results["serial"].band[1]))
    failed = 0
    for cfg, result in results.items():
        found = np.sort(np.asarray(result.omegas, dtype=float))
        if found.size != oracle.size or found.size != reference.size:
            failed += 1
        elif found.size and (
            np.max(np.abs(found - oracle)) > ORACLE_RTOL * scale
            or np.max(np.abs(found - reference)) > PARITY_RTOL * scale
        ):
            failed += 1
    return failed


@dataclass
class Solve:
    cfg: str
    seconds: float
    result: object
    apply_s: float = 0.0
    dispatch_self_s: float = 0.0


class SweepWorkload:
    """Closed loop of one caller; one op is one solve."""

    name = "sweep"

    def __init__(self, seed: int, scale: float = SCALE):
        self.seed = seed
        self.scale = scale
        self.models: list = []
        self.oracles: list = []

    def setup(self) -> None:
        self.models = build_models(self.seed, self.scale)
        self.oracles = [imaginary_eigenvalues_dense(m) for m in self.models]

    def close(self) -> None:
        self.models, self.oracles = [], []

    def _solve(self, model, cfg: str, traced: bool) -> Solve:
        config = CONFIG_OF[cfg]
        if not traced:
            started = time.perf_counter()
            result = solve(model, config)
            return Solve(cfg, time.perf_counter() - started, result)
        if cfg == "serial":
            applies = CallTimer()
            with wrapped(ShiftInvertOperator, "matvec", applies):
                started = time.perf_counter()
                result = solve(model, config)
                seconds = time.perf_counter() - started
            return Solve(cfg, seconds, result, apply_s=applies.total())
        root = trace.TraceContext(trace_id=trace.new_trace_id(), span_id="bench")
        with trace.activate(root) as spans:
            started = time.perf_counter()
            result = solve(model, config)
            seconds = time.perf_counter() - started
        own = exclusive_by_name(spans).get("eigensweep.dispatch", 0.0)
        return Solve(cfg, seconds, result, dispatch_self_s=own)

    def run(self, seconds: float, traced: bool) -> Measured:
        """Whole passes until ``seconds`` have elapsed (at least one).

        A pass solves every model under every config; it is the
        ``wall_s`` unit, so ``wall_s`` weighs all three cases alike.
        """
        out = Measured()
        solves: List[Solve] = []
        speedups: List[float] = []
        deadline = time.perf_counter() + seconds
        while not out.pass_walls or time.perf_counter() < deadline:
            wall = 0.0
            for model, oracle in zip(self.models, self.oracles):
                done = {cfg: self._solve(model, cfg, traced) for cfg in CONFIGS}
                solves.extend(done.values())
                wall += sum(s.seconds for s in done.values())
                results = {cfg: s.result for cfg, s in done.items()}
                out.failed += failed_configs(results, oracle)
                if traced:
                    projection = project_speedup(
                        results["serial"], results["thread"], 16
                    )
                    speedups.append(projection.eta_makespan)
            out.pass_walls.append(wall)
        out.latencies = [s.seconds for s in solves]
        out.busy_s = sum(out.latencies)
        if traced:
            out.layers = layer_metrics(solves, speedups)
        return out


def layer_metrics(solves: List[Solve], speedups: List[float]) -> Dict[str, float]:
    """Per-layer values of a traced stretch."""
    values: Dict[str, float] = {}
    for cfg in CONFIGS:
        mine = [s for s in solves if s.cfg == cfg]
        work = [s.result.work for s in mine]
        values[f"core.solve_s.{cfg}"] = median([s.seconds for s in mine])
        for key in (
            "arnoldi_steps",
            "operator_applies",
            "shifts_processed",
            "shifts_eliminated",
        ):
            values[f"core.{key}.{cfg}"] = median([w[key] for w in work])
        values[f"core.steps_per_shift.{cfg}"] = median(
            [w["arnoldi_steps"] / max(1, w["shifts_processed"]) for w in work]
        )
    serial = [s for s in solves if s.cfg == "serial"]
    values["hamiltonian.apply_s.serial"] = median([s.apply_s for s in serial])
    values["hamiltonian.apply_share.serial"] = median(
        [s.apply_s / s.seconds for s in serial]
    )
    values["core.dispatch_self_s.process"] = median(
        [s.dispatch_self_s for s in solves if s.cfg == "process"]
    )
    values["reporting.projected_speedup_16"] = median(speedups)
    return values
