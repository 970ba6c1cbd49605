"""Job specifications over the wire: parse, validate, key, resolve.

One parser serves both tiers of the service: the HTTP front-end calls
:func:`parse_spec` at submission time (turning malformed specs into
clean 400s and computing the content-addressed job key), and every
:mod:`repro.queue.worker` re-parses the stored spec at execution time.
:meth:`ParsedSpec.resolved_spec` is the bridge — the spec as enqueued
carries the *resolved* configuration (effective :class:`RunConfig`,
``num_poles``, ``margin``, ``name``), so a worker booted with any base
configuration executes exactly the computation the submitter keyed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.batch.jobs import (
    VALID_TASKS,
    BatchJob,
    ModelJob,
    SynthJob,
    TouchstoneJob,
    task_settings,
)
from repro.core.config import RunConfig
from repro.macromodel.rational import PoleResidueModel
from repro.store import content_key, file_digest, result_key
from repro.utils.validation import ensure_choice, ensure_positive_int

__all__ = [
    "JobError",
    "ParsedSpec",
    "SIMULATE_SPEC_KEYS",
    "VALID_KINDS",
    "VALID_TASKS",
    "job_from_spec",
    "input_digest",
    "parse_spec",
]

#: Keys a job spec's "simulate" object may carry (the kwargs of
#: Macromodel.simulate that make sense over the wire; waveform-keeping
#: is deliberately excluded — responses stay compact witnesses).
SIMULATE_SPEC_KEYS = (
    "stimulus",
    "dt",
    "num_steps",
    "integrator",
    "discretization",
    "termination",
    "tol",
)

#: Model sources a job may name.
VALID_KINDS = ("synth", "touchstone", "model")


class JobError(ValueError):
    """A job specification could not be parsed or validated (HTTP 400)."""


def job_from_spec(spec: Mapping[str, Any], name: str) -> BatchJob:
    """Build the :mod:`repro.batch.jobs` object a spec names."""
    kind = str(spec.get("kind", "synth")).lower()
    ensure_choice(kind, "job kind", VALID_KINDS)
    if kind == "synth":
        sigma_target = spec.get("sigma_target", 1.05)
        return SynthJob(
            name=name,
            order_per_column=ensure_positive_int(
                spec.get("order", 10), "order"
            ),
            num_ports=ensure_positive_int(spec.get("ports", 2), "ports"),
            seed=int(spec.get("seed", 0)),
            sigma_target=None if sigma_target is None else float(sigma_target),
        )
    if kind == "touchstone":
        path = spec.get("path")
        if not path or not isinstance(path, str):
            raise JobError("touchstone jobs require a 'path' string")
        if not Path(path).is_file():
            raise JobError(f"touchstone path not found: {path!r}")
        return TouchstoneJob(name=name, path=path)
    model_doc = spec.get("model")
    if not isinstance(model_doc, Mapping):
        raise JobError(
            "model jobs require a 'model' object"
            " (PoleResidueModel.to_dict() payload)"
        )
    try:
        model = PoleResidueModel.from_dict(dict(model_doc))
    except (KeyError, TypeError, ValueError) as exc:
        raise JobError(f"malformed model payload: {exc}") from exc
    return ModelJob(name=name, model=model)


def input_digest(job: BatchJob, spec: Mapping[str, Any]) -> str:
    """Content digest of the job's model source for the job-level key.

    Deliberately excludes the job *name*: it is a display label (and
    defaults to a fresh per-submission id), so two submissions of the
    same source under different names must share one cache entry.
    """
    if isinstance(job, TouchstoneJob):
        # Hash the file *content*, not the path: moving or editing the
        # file must change the key, renaming the same bytes must not.
        return file_digest(job.path)
    if isinstance(job, ModelJob) and job.model is not None:
        return content_key(job.model.to_dict())
    source = {k: v for k, v in job.describe().items() if k != "name"}
    return content_key(source)


def _simulate_params(spec: Mapping[str, Any], task: str) -> Optional[dict]:
    """Validate the optional ``"simulate"`` object of a job spec."""
    sim = spec.get("simulate")
    if sim is None:
        return None
    if task != "simulate":
        raise JobError("the 'simulate' object only applies to task 'simulate'")
    if not isinstance(sim, Mapping):
        raise JobError(
            "'simulate' must be an object of Macromodel.simulate parameters"
        )
    unknown = sorted(set(sim) - set(SIMULATE_SPEC_KEYS))
    if unknown:
        raise JobError(
            f"unknown simulate parameter(s) {', '.join(unknown)};"
            f" allowed: {', '.join(SIMULATE_SPEC_KEYS)}"
        )
    return dict(sim)


@dataclass(frozen=True)
class ParsedSpec:
    """A validated job specification, ready to enqueue or execute.

    Attributes
    ----------
    task, name, kind:
        The pipeline task, display label, and model-source kind.
    job:
        The concrete :class:`~repro.batch.jobs.BatchJob`.
    config:
        The *effective* :class:`RunConfig` (base merged with the spec's
        ``"config"`` object).
    task_overrides:
        The :class:`~repro.batch.BatchRunner` keyword overrides of the
        task (from :func:`~repro.batch.jobs.task_settings`).
    sim_params:
        Validated ``"simulate"`` object, or ``None``.
    num_poles, margin:
        Resolved pipeline parameters.
    key:
        Content-addressed job key, or ``None`` for unhashable sources.
    spec:
        The original mapping as submitted (never mutated).
    """

    task: str
    name: str
    kind: str
    job: BatchJob
    config: RunConfig
    task_overrides: dict
    sim_params: Optional[dict]
    num_poles: int
    margin: float
    key: Optional[str]
    spec: dict

    def resolved_spec(self) -> dict:
        """The spec to persist in the queue: resolution baked in.

        Embeds the effective config, ``num_poles``, ``margin``, and
        ``name`` so any worker — whatever its own base configuration —
        re-parses this document into the identical computation (and the
        identical cache key) the submitter saw.
        """
        doc = dict(self.spec)
        doc["name"] = self.name
        doc["config"] = self.config.to_dict()
        doc["num_poles"] = self.num_poles
        doc["margin"] = self.margin
        return doc

    def runner_kwargs(self) -> dict:
        """Keyword arguments of the ``BatchRunner`` executing this job
        (its config is resolved, representation included, so it wins)."""
        return dict(
            config=self.config,
            num_poles=self.num_poles,
            margin=self.margin,
            simulate_params=self.sim_params,
            **self.task_overrides,
        )


def parse_spec(
    spec: Mapping[str, Any],
    *,
    base_config: Optional[RunConfig] = None,
    num_poles: int = 30,
    margin: float = 0.002,
    job_id: str = "",
    file_representation: bool = False,
) -> ParsedSpec:
    """Validate one job spec against a base configuration.

    A representation the spec's ``config`` names wins.  Otherwise a
    given ``base_config``'s representation wins, unless
    ``file_representation`` (``repro serve`` without ``--representation``
    or ``REPRO_REPRESENTATION``); with no ``base_config``, or with
    ``file_representation``, a Touchstone job's file picks it (S:
    scattering, Y/Z: immittance), as ``repro check`` does.  The resolved
    representation is part of the job key and of
    :meth:`ParsedSpec.resolved_spec`.

    Raises
    ------
    JobError
        On any malformed field — the message is safe to surface verbatim
        in an HTTP 400 body.
    """
    if not isinstance(spec, Mapping):
        raise JobError("job spec must be a JSON object")
    file_representation = file_representation or base_config is None
    base_config = base_config if base_config is not None else RunConfig()
    task = str(spec.get("task", "check")).lower()
    try:
        # One registry (repro.batch.jobs) validates the task AND names
        # the runner settings it maps to; unknown tasks become a clean
        # 400 carrying the full allowed list.
        task_overrides = task_settings(task)
    except ValueError as exc:
        raise JobError(str(exc)) from None
    sim_params = _simulate_params(spec, task)
    kind = str(spec.get("kind", "synth")).lower()
    default_name = f"{task}-{job_id}" if job_id else task
    name = str(spec.get("name") or default_name)
    job = job_from_spec(spec, name)

    overrides = spec.get("config")
    if overrides is None:
        config = base_config
    else:
        if not isinstance(overrides, Mapping):
            raise JobError("'config' must be an object of RunConfig fields")
        try:
            config = base_config.merged(**dict(overrides))
        except (TypeError, ValueError) as exc:
            raise JobError(f"invalid config override: {exc}") from exc
    if file_representation and "representation" not in (overrides or {}):
        try:
            config = job.source_config(config)
        except (OSError, ValueError):
            # An unreadable file fails the job where it is opened.
            pass

    resolved_poles = ensure_positive_int(
        spec.get("num_poles", num_poles), "num_poles"
    )
    resolved_margin = float(spec.get("margin", margin))
    key: Optional[str] = None
    key_params = {
        "task": task,
        "num_poles": resolved_poles,
        "margin": resolved_margin,
    }
    if task == "simulate":
        # Folded into the key only for simulate jobs, so the keys of
        # every pre-existing task stay byte-identical.
        key_params["simulate"] = sim_params or {}
    try:
        key = result_key(
            stage="service-job",
            input_digest=input_digest(job, spec),
            config=config,
            params=key_params,
        )
    except (OSError, TypeError, ValueError):
        # Unhashable source (e.g. the file vanished between checks):
        # the job still runs, it just cannot short-circuit.
        key = None

    return ParsedSpec(
        task=task,
        name=name,
        kind=kind,
        job=job,
        config=config,
        task_overrides=task_overrides,
        sim_params=sim_params,
        num_poles=resolved_poles,
        margin=resolved_margin,
        key=key,
        spec=dict(spec),
    )
