"""Batch job specifications: what one fleet entry runs on.

A job names one model source and knows how to open it as a
:class:`~repro.api.Macromodel` session inside a worker.  Three concrete
kinds cover the fleet inputs:

* :class:`TouchstoneJob` — a ``.sNp`` file on disk (built from explicit
  paths or shell-style globs);
* :class:`SynthJob` — a seeded synthetic macromodel (fully described by
  its generation parameters, so the job itself is a few bytes);
* :class:`ModelJob` — an in-memory :class:`PoleResidueModel` /
  :class:`SimoRealization` or a whole :class:`Macromodel` session.

All jobs are picklable, so they cross process boundaries as-is;
:func:`expand_jobs` normalizes the mixed user-facing inputs (paths,
globs, models, sessions, job objects) into a concrete job list.
"""

from __future__ import annotations

import glob as _glob
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.api.session import Macromodel, representation_for
from repro.core.config import RunConfig
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.simo import SimoRealization
from repro.touchstone.reader import read_parameter

__all__ = [
    "BatchJob",
    "TouchstoneJob",
    "SynthJob",
    "ModelJob",
    "VALID_TASKS",
    "task_settings",
    "expand_jobs",
    "synth_fleet",
]

#: The single source of truth for pipeline task names: task -> the
#: :class:`~repro.batch.runner.BatchRunner` keyword overrides that task
#: adds on top of the base fit -> characterize pipeline.  ``fit`` and
#: ``check`` run that base pipeline as-is (a fit is only trustworthy
#: with its characterization); ``enforce`` adds the enforcement stage,
#: ``hinf`` the H-infinity norm, ``simulate`` the transient energy
#: witness.  The HTTP service validates and dispatches through this
#: table, so adding a task here is the whole registration.
_TASK_SETTINGS = {
    "fit": {},
    "check": {},
    "enforce": {"enforce": True},
    "hinf": {"hinf": True},
    "simulate": {"simulate": True},
}

#: Pipeline variants a batch/service job may request.
VALID_TASKS = tuple(_TASK_SETTINGS)


def task_settings(task: str) -> dict:
    """Runner keyword overrides of one named task.

    Raises
    ------
    ValueError
        Naming every valid task, so callers (the HTTP 400 path) can
        surface the allowed list verbatim.
    """
    try:
        return dict(_TASK_SETTINGS[task])
    except KeyError:
        raise ValueError(
            f"unknown task {task!r}; valid tasks: {', '.join(VALID_TASKS)}"
        ) from None

ModelLike = Union[PoleResidueModel, SimoRealization]
JobSource = Union[
    "BatchJob", str, Path, PoleResidueModel, SimoRealization, Macromodel
]


@dataclass(frozen=True)
class BatchJob:
    """Base class: one named fleet entry.

    Attributes
    ----------
    name:
        Unique human-readable label used in the
        :class:`~repro.batch.runner.FleetReport`.
    """

    name: str

    def open_session(self, config: Optional[RunConfig]) -> Macromodel:
        """Open the model source as a session (runs inside the worker)."""
        raise NotImplementedError

    def source_config(self, config: RunConfig) -> RunConfig:
        """``config`` with the representation this job's source implies,
        layered the way ``repro check`` layers a file.  Only a Touchstone
        file implies one."""
        return config

    @property
    def needs_fit(self) -> bool:
        """True when the session starts from samples (fit stage required)."""
        return True

    def describe(self) -> dict:
        """JSON-serializable description of the job source."""
        return {"kind": type(self).__name__, "name": self.name}


@dataclass(frozen=True)
class TouchstoneJob(BatchJob):
    """A Touchstone file to fit and characterize."""

    path: str = ""

    def open_session(self, config: Optional[RunConfig]) -> Macromodel:
        return Macromodel.from_touchstone(self.path, config=config)

    def source_config(self, config: RunConfig) -> RunConfig:
        """The file's parameter type picks the representation (S:
        scattering, Y/Z: immittance)."""
        representation = representation_for(read_parameter(self.path))
        if representation == config.representation:
            return config
        return config.merged(representation=representation)

    def describe(self) -> dict:
        return {"kind": "touchstone", "name": self.name, "path": self.path}


@dataclass(frozen=True)
class SynthJob(BatchJob):
    """A seeded synthetic macromodel (no fitting stage).

    The job carries only the generation parameters of
    :func:`~repro.synth.generator.random_macromodel`; the model itself is
    built inside the worker, keeping the cross-process payload tiny.
    """

    order_per_column: int = 10
    num_ports: int = 2
    seed: int = 0
    sigma_target: Optional[float] = 1.05

    def open_session(self, config: Optional[RunConfig]) -> Macromodel:
        from repro.synth.generator import random_macromodel

        model = random_macromodel(
            self.order_per_column,
            self.num_ports,
            seed=self.seed,
            sigma_target=self.sigma_target,
        )
        return Macromodel.from_pole_residue(model, config=config)

    @property
    def needs_fit(self) -> bool:
        return False

    def describe(self) -> dict:
        return {
            "kind": "synth",
            "name": self.name,
            "order_per_column": self.order_per_column,
            "num_ports": self.num_ports,
            "seed": self.seed,
            "sigma_target": self.sigma_target,
        }


@dataclass(frozen=True)
class ModelJob(BatchJob):
    """An in-memory model or session.

    Ships the (picklable) model across the pool; prefer
    :class:`SynthJob` / :class:`TouchstoneJob` for large fleets.
    """

    model: Optional[ModelLike] = None
    session: Optional[Macromodel] = None

    def open_session(self, config: Optional[RunConfig]) -> Macromodel:
        if self.session is not None:
            if config is not None:
                self.session.configure(config)
            return self.session
        return Macromodel.from_pole_residue(self.model, config=config)

    @property
    def needs_fit(self) -> bool:
        # A session started from samples still needs its fit stage.
        return self.session is not None and self.session.model is None

    def describe(self) -> dict:
        target = self.session if self.session is not None else self.model
        return {
            "kind": "model",
            "name": self.name,
            "model": type(target).__name__,
        }


def synth_fleet(
    count: int,
    *,
    order_per_column: int = 10,
    num_ports: int = 2,
    base_seed: int = 0,
    sigma_target: Optional[float] = 1.05,
) -> List[SynthJob]:
    """Build ``count`` seeded synthetic jobs (seeds ``base_seed + k``)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [
        SynthJob(
            name=f"synth-{base_seed + k}",
            order_per_column=order_per_column,
            num_ports=num_ports,
            seed=base_seed + k,
            sigma_target=sigma_target,
        )
        for k in range(count)
    ]


def _unique_name(base: str, taken: set) -> str:
    name = base
    counter = 2
    while name in taken:
        name = f"{base}#{counter}"
        counter += 1
    taken.add(name)
    return name


def expand_jobs(sources: Union[JobSource, Iterable[JobSource]]) -> List[BatchJob]:
    """Normalize mixed job sources into a concrete job list.

    Accepts a single source or an iterable of sources, where each source
    may be a :class:`BatchJob`, a Touchstone path or shell-style glob
    pattern (strings/Paths), an in-memory model, or a
    :class:`~repro.api.Macromodel` session.  Glob patterns expand in
    sorted order; a pattern matching nothing raises so a typo cannot
    silently shrink the fleet.
    """
    if isinstance(sources, (str, Path)) or not isinstance(sources, Iterable):
        sources = [sources]
    jobs: List[BatchJob] = []
    taken: set = set()
    for source in sources:
        if isinstance(source, BatchJob):
            if source.name in taken:
                raise ValueError(
                    f"duplicate job name {source.name!r}; fleet report"
                    " rows are keyed by name"
                )
            jobs.append(source)
            taken.add(source.name)
        elif isinstance(source, (PoleResidueModel, SimoRealization)):
            name = _unique_name(f"model-{len(jobs)}", taken)
            jobs.append(ModelJob(name=name, model=source))
        elif isinstance(source, Macromodel):
            name = _unique_name(f"session-{len(jobs)}", taken)
            jobs.append(ModelJob(name=name, session=source))
        elif isinstance(source, (str, Path)):
            pattern = str(source)
            if _glob.has_magic(pattern):
                matches = sorted(_glob.glob(pattern))
                if not matches:
                    raise FileNotFoundError(
                        f"glob pattern {pattern!r} matched no files"
                    )
            else:
                matches = [pattern]
            for match in matches:
                name = _unique_name(Path(match).stem, taken)
                jobs.append(TouchstoneJob(name=name, path=match))
        else:
            raise TypeError(
                "job sources must be BatchJob, path/glob, model, or"
                f" Macromodel; got {type(source).__name__}"
            )
    if not jobs:
        raise ValueError("no jobs to run (empty source list)")
    return jobs
