"""The :class:`Macromodel` session facade.

One object drives the paper's whole workflow (Sec. IV): load frequency
data, identify a rational macromodel, characterize its passivity with the
parallel Hamiltonian eigensolver, enforce passivity when needed, and
export the repaired model — as a fluent pipeline::

    from repro.api import Macromodel, RunConfig

    session = (
        Macromodel.from_touchstone("device.s4p")
        .configure(num_threads=8)
        .fit(num_poles=40)
        .check_passivity()
    )
    if not session.is_passive:
        session.enforce().to_touchstone("device_passive.s4p")
    print(session.summary())

Every stage records its result object; :meth:`Macromodel.to_dict` returns
the whole session state as one JSON-serializable payload for machine
consumers.  All cross-cutting knobs come from a single frozen
:class:`~repro.core.config.RunConfig`, overridable per call
(``.check_passivity(num_threads=16)``).
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from dataclasses import asdict, is_dataclass

from repro.core.config import RunConfig, require_scattering
from repro.core.results import SolveResult
from repro.core.solver import solve
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.simo import SimoRealization
from repro.obs import trace as _obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.passivity.characterization import PassivityReport, characterize_passivity
from repro.passivity.enforcement import EnforcementResult, enforce_passivity
from repro.passivity.hinf import HinfResult, hinf_norm
from repro.store import (
    ResultStore,
    array_digest,
    content_key,
    decode_result,
    encode_result,
    result_key,
)
from repro.timedomain.energy import EnergyReport
from repro.timedomain.engine import SimulationResult
from repro.touchstone.reader import TouchstoneData, read_touchstone
from repro.touchstone.writer import write_touchstone
from repro.utils.serialization import to_jsonable
from repro.utils.validation import ensure_sorted_frequencies
from repro.vectfit.vector_fitting import FitResult, vector_fit

__all__ = ["Macromodel"]

ModelLike = Union[PoleResidueModel, SimoRealization]


def representation_for(parameter: str) -> str:
    """The passivity test a parameter type calls for: the scattering
    test for S-parameter data, the immittance test for anything else
    (Y/Z/hybrid)."""
    return "scattering" if parameter.upper() == "S" else "immittance"


def _config_for_parameter(
    parameter: str, config: Optional[RunConfig], source: str
) -> RunConfig:
    """Resolve the session config against the data's parameter type.

    The data picks the default (:func:`representation_for`).  An
    explicit config wins, with a warning when it contradicts the data.
    """
    data_rep = representation_for(parameter)
    if config is None:
        return RunConfig(representation=data_rep)
    if config.representation != data_rep:
        warnings.warn(
            f"{source} holds {parameter}-parameters (expected"
            f" representation {data_rep!r}) but the config requests"
            f" {config.representation!r}; the config wins — pass a"
            " matching representation to silence this",
            UserWarning,
            stacklevel=3,
        )
    return config


class Macromodel:
    """Fluent session over the fit → characterize → enforce → export flow.

    Instances are created through the ``from_*`` constructors; every
    pipeline stage mutates the session in place and returns ``self`` so
    stages chain.  Stage results stay accessible afterwards through the
    ``fit_result`` / ``passivity_report`` / ``enforcement_result`` /
    ``hinf_result`` / ``solve_result`` properties.
    """

    def __init__(
        self,
        *,
        model: Optional[ModelLike] = None,
        data: Optional[TouchstoneData] = None,
        config: Optional[RunConfig] = None,
        source: Optional[str] = None,
    ) -> None:
        self._config = config if config is not None else RunConfig()
        self._model: Optional[ModelLike] = model
        self._data = data
        self._source = source
        self._fit: Optional[FitResult] = None
        self._report: Optional[PassivityReport] = None
        self._report_model: Optional[ModelLike] = None
        self._report_config: Optional[RunConfig] = None
        self._enforcement: Optional[EnforcementResult] = None
        self._hinf: Optional[HinfResult] = None
        self._solve: Optional[SolveResult] = None
        self._simulation: Optional[SimulationResult] = None
        self._exports: list = []
        self._result_store: Optional[ResultStore] = None
        self._result_store_dir: Optional[str] = None
        self._metrics = MetricsRegistry()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_touchstone(
        cls,
        path: Union[str, Path],
        *,
        num_ports: Optional[int] = None,
        config: Optional[RunConfig] = None,
    ) -> "Macromodel":
        """Start a session from a Touchstone ``.sNp`` file.

        The file's parameter type picks the default representation:
        S-parameter files get the scattering (``sigma = 1``) test, Y/Z
        (and hybrid) files the immittance positive-realness test.  An
        explicit ``config`` wins, with a warning when it contradicts the
        file's parameter type.
        """
        data = read_touchstone(path, num_ports=num_ports)
        config = _config_for_parameter(data.parameter, config, str(path))
        return cls(data=data, config=config, source=str(path))

    @classmethod
    def from_samples(
        cls,
        freqs_rad,
        samples,
        *,
        parameter: str = "S",
        z0: float = 50.0,
        config: Optional[RunConfig] = None,
    ) -> "Macromodel":
        """Start a session from raw frequency samples.

        Parameters
        ----------
        freqs_rad:
            Strictly increasing sample frequencies in rad/s.
        samples:
            Transfer-matrix samples, shape ``(K, p, p)`` complex.
        parameter:
            Parameter-type letter the samples represent (``"S"`` default,
            ``"Y"``/``"Z"`` for immittance data).  Like
            :meth:`from_touchstone`, non-S data defaults the session to
            the immittance test, and exports carry the right option line.
        z0:
            Reference resistance recorded for exports.
        """
        freqs_rad = ensure_sorted_frequencies(freqs_rad, "freqs_rad")
        samples = np.asarray(samples, dtype=complex)
        data = TouchstoneData(
            freqs_hz=freqs_rad / (2.0 * np.pi),
            matrices=samples,
            parameter=parameter,
            z0=float(z0),
        )
        config = _config_for_parameter(parameter, config, "the sample set")
        return cls(data=data, config=config, source="<samples>")

    @classmethod
    def from_pole_residue(
        cls,
        model: ModelLike,
        *,
        config: Optional[RunConfig] = None,
    ) -> "Macromodel":
        """Start a session from an existing macromodel (skips fitting)."""
        if not isinstance(model, (PoleResidueModel, SimoRealization)):
            raise TypeError(
                "expected PoleResidueModel or SimoRealization,"
                f" got {type(model).__name__}"
            )
        return cls(model=model, config=config, source="<model>")

    @classmethod
    def map(
        cls,
        sources,
        *,
        config: Optional[RunConfig] = None,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        backend: str = "process",
        num_poles: int = 30,
        enforce: bool = False,
        margin: float = 0.002,
    ):
        """Run the pipeline over a whole fleet of models.

        The facade spelling of :class:`repro.batch.BatchRunner`:
        ``sources`` may mix Touchstone paths/globs, in-memory models or
        sessions, and :class:`repro.batch.BatchJob` specs; each job runs
        fit → check (→ enforce when ``enforce=True``) on a bounded
        worker pool with a per-job ``timeout``.  As in
        :meth:`from_touchstone`, an explicit ``config`` picks every job's
        representation (with a warning where a file disagrees); without
        one, each Touchstone file picks its own.

        Returns
        -------
        repro.batch.FleetReport
            Per-job structured results plus fleet aggregates.
        """
        from repro.batch import BatchRunner

        runner = BatchRunner(
            config=config,
            workers=workers,
            timeout=timeout,
            backend=backend,
            num_poles=num_poles,
            enforce=enforce,
            margin=margin,
        )
        return runner.run(sources)

    # -- configuration ------------------------------------------------------

    @property
    def config(self) -> RunConfig:
        """The session's run configuration."""
        return self._config

    def configure(
        self, config: Optional[RunConfig] = None, **overrides: Any
    ) -> "Macromodel":
        """Replace or override the session configuration (fluent)."""
        base = config if config is not None else self._config
        self._config = base.merged(**overrides) if overrides else base
        return self

    def _run_config(self, overrides: dict) -> RunConfig:
        return self._config.merged(**overrides) if overrides else self._config

    def _full_axis_config(self, overrides: dict) -> RunConfig:
        """Per-call config for stages whose verdict must cover the whole axis.

        Session-level ``omega_min`` / ``omega_max`` are a characterization
        knob and are dropped here; explicitly passing them as per-call
        overrides is left in place so the underlying function can reject
        them loudly.
        """
        config = self._run_config(overrides)
        if not ("omega_min" in overrides or "omega_max" in overrides):
            config = config.merged(omega_min=0.0, omega_max=None)
        return config

    # -- result-store plumbing ----------------------------------------------

    @property
    def cache_stats(self) -> dict:
        """This session's result-store traffic: hits, misses, writes.

        All zeros while ``config.cache == "off"`` (the default).  A hit
        means the stage skipped its computation entirely — the
        counters are how tests (and ``FleetReport``) verify that a
        repeated characterization never re-ran the eigensweep.
        """
        return {
            name: self._metrics.counter_value(f"cache.{name}")
            for name in ("hits", "misses", "writes")
        }

    @property
    def metrics(self) -> MetricsRegistry:
        """This session's private metrics registry.

        Every pipeline stage records its wall time into a
        ``stage.<name>`` histogram here (and mirrors it into the
        process registry, :func:`repro.obs.get_registry`), and the
        cache counters that :attr:`cache_stats` reads are ``cache.hits``
        / ``cache.misses`` / ``cache.writes``.  Read it with
        ``session.metrics.snapshot()``; the same snapshot rides along
        on :class:`~repro.batch.runner.JobResult.metrics` for fleet
        jobs.
        """
        return self._metrics

    def _timed_stage(self, stage: str, compute):
        """Run one stage's compute, recording its latency both locally
        (this session's registry) and process-wide, plus a
        ``stage.<name>`` trace span when a trace context is active."""
        with _obs_trace.timed(f"stage.{stage}", registry=self._metrics):
            return compute()

    def _store_for(self, config: RunConfig) -> Optional[ResultStore]:
        if config.cache == "off":
            return None
        if (
            self._result_store is None
            or self._result_store_dir != config.cache_dir
        ):
            self._result_store = ResultStore.from_config(config)
            self._result_store_dir = config.cache_dir
        return self._result_store

    def _model_digest(self) -> Optional[str]:
        """Content digest of the current model; None when uncacheable."""
        if isinstance(self._model, PoleResidueModel):
            return content_key(self._model.to_dict())
        return None

    def _data_digest(self) -> Optional[str]:
        """Content digest of the loaded sample data."""
        if self._data is None:
            return None
        return array_digest(
            self._data.freqs_hz,
            self._data.matrices,
            extra={
                "parameter": str(self._data.parameter),
                "z0": float(self._data.z0),
            },
        )

    def _cached_stage(
        self,
        *,
        stage: str,
        config: RunConfig,
        digest_fn,
        params: Optional[dict],
        key_config: Optional[RunConfig],
        compute,
    ):
        """Run ``compute`` through the result store when the config opts in.

        ``digest_fn`` is a thunk so the default ``cache="off"`` path
        never pays for hashing the model; it returning ``None`` marks an
        uncacheable input (a structured realization with no canonical
        serialization, non-canonical stage kwargs) and the stage simply
        computes.  ``key_config`` is what enters the cache key (``None``
        for config-independent stages like fitting); ``config`` still
        decides the store location and mode.
        """
        if config.cache == "off":
            return self._timed_stage(stage, compute)
        digest = digest_fn()
        store = self._store_for(config) if digest is not None else None
        if store is None:
            return self._timed_stage(stage, compute)
        try:
            key = result_key(
                stage=stage, input_digest=digest, config=key_config, params=params
            )
        except (TypeError, ValueError):
            # Non-canonical stage parameters: compute without the cache.
            return self._timed_stage(stage, compute)
        payload = store.get(key)
        if payload is not None:
            try:
                result = decode_result(stage, payload)
            except (KeyError, TypeError, ValueError):
                # Semantically unusable payload: fall through to a miss.
                result = None
            if result is not None:
                self._metrics.count("cache.hits")
                return result
        self._metrics.count("cache.misses")
        result = self._timed_stage(stage, compute)
        if config.cache == "readwrite" and store.put(
            key, encode_result(stage, result), stage=stage
        ):
            self._metrics.count("cache.writes")
        return result

    # -- pipeline stages ----------------------------------------------------

    def fit(self, num_poles: int = 30, **fit_kwargs: Any) -> "Macromodel":
        """Identify a rational macromodel from the loaded samples.

        Extra keyword arguments are forwarded to
        :func:`~repro.vectfit.vector_fitting.vector_fit` (e.g.
        ``options=VectorFittingOptions(...)``).
        """
        if self._data is None:
            raise RuntimeError(
                "no sample data loaded; start the session with"
                " from_touchstone()/from_samples(), or use"
                " from_pole_residue() to skip fitting"
            )
        # Fitting ignores the solver RunConfig, so the cache key holds
        # only the data digest and the fit parameters; unknown extra
        # kwargs make the call uncacheable rather than silently aliased.
        cacheable = set(fit_kwargs) <= {"options"}
        params = None
        if cacheable:
            options = fit_kwargs.get("options")
            params = {
                "num_poles": int(num_poles),
                "options": asdict(options)
                if is_dataclass(options) and not isinstance(options, type)
                else None,
            }
        self._fit = self._cached_stage(
            stage="fit",
            config=self._config,
            digest_fn=self._data_digest if cacheable else lambda: None,
            params=params,
            key_config=None,
            compute=lambda: vector_fit(
                self._data.freqs_rad,
                self._data.matrices,
                num_poles=num_poles,
                **fit_kwargs,
            ),
        )
        self._model = self._fit.model
        # Any stage results computed for a previous model are stale now.
        self._report = None
        self._report_model = None
        self._report_config = None
        self._enforcement = None
        self._solve = None
        self._hinf = None
        self._simulation = None
        return self

    def check_passivity(self, **overrides: Any) -> "Macromodel":
        """Run the Hamiltonian passivity characterization (Sec. II).

        ``config.representation`` picks the test: the scattering
        (``sigma = 1``) test by default, the immittance
        (positive-realness) test when the config says so.
        """
        config = self._run_config(overrides)
        model = self._require_model()
        self._report = self._cached_stage(
            stage="check",
            config=config,
            digest_fn=self._model_digest,
            params=None,
            key_config=config,
            compute=lambda: characterize_passivity(model, config=config),
        )
        self._report_model = model
        self._report_config = config
        return self

    def enforce(
        self,
        *,
        margin: float = 0.002,
        max_iterations: int = 25,
        d_max_sigma: float = 0.999,
        **overrides: Any,
    ) -> "Macromodel":
        """Perturb residues until the Hamiltonian test certifies passivity.

        Replaces the session model with the enforced one; the final
        characterization becomes the session's passivity report.  A
        scattering report from an immediately preceding
        :meth:`check_passivity` on the same model seeds the loop's first
        iteration, so the recommended ``check → enforce`` pipeline does
        not pay for the initial eigensweep twice.  Like :meth:`hinf`,
        session-level ``omega_min`` / ``omega_max`` are dropped (the
        enforcement verdict must certify the whole axis); passing them as
        per-call overrides is an error.
        """
        model = self._require_model()
        if isinstance(model, SimoRealization):
            raise TypeError(
                "enforcement perturbs pole/residue models; this session"
                " holds a structured realization — start from a"
                " PoleResidueModel (e.g. via fit())"
            )
        config = self._full_axis_config(overrides)
        # Seed iteration 0 with the prior check only when that check was a
        # full-axis scattering sweep of the very model being enforced.
        initial_report = None
        if (
            self._report_model is model
            and self._report.representation == "scattering"
            and self._report_config is not None
            and not self._report_config.is_band_limited
        ):
            initial_report = self._report
        # The cache key cannot see the seed report, so only cache runs
        # whose outcome is independent of it: unseeded runs, and runs
        # seeded by a check under this exact config (where iteration 0
        # would recompute the identical report anyway).  A seed from a
        # *different* solver config could steer a different trajectory —
        # those runs compute uncached rather than alias.
        seed_is_neutral = initial_report is None or self._report_config == config
        self._enforcement = self._cached_stage(
            stage="enforce",
            config=config,
            digest_fn=self._model_digest if seed_is_neutral else (lambda: None),
            params={
                "margin": float(margin),
                "max_iterations": int(max_iterations),
                "d_max_sigma": float(d_max_sigma),
            },
            key_config=config,
            compute=lambda: enforce_passivity(
                model,
                margin=margin,
                max_iterations=max_iterations,
                d_max_sigma=d_max_sigma,
                config=config,
                initial_report=initial_report,
            ),
        )
        self._model = self._enforcement.model
        if self._enforcement.reports:
            self._report = self._enforcement.reports[-1]
            self._report_model = self._model
            self._report_config = config
        # Sweep/norm/transient results of the pre-enforcement model no
        # longer describe the session model; drop them so to_dict() stays
        # self-consistent (re-run find_crossings()/hinf()/simulate()).
        self._solve = None
        self._hinf = None
        self._simulation = None
        return self

    def hinf(self, *, rtol: float = 1e-6, **overrides: Any) -> "Macromodel":
        """Compute the H-infinity norm by Hamiltonian gamma-bisection.

        The session's ``omega_min`` / ``omega_max`` are a characterization
        knob and do not apply here (the norm is a supremum over the whole
        axis; the sweep band is chosen per gamma internally), so this
        stage drops them rather than failing a pipeline that band-limits
        its :meth:`check_passivity`.  Passing them as per-call overrides
        is still an error.
        """
        config = self._full_axis_config(overrides)
        model = self._require_model()
        self._hinf = self._cached_stage(
            stage="hinf",
            config=config,
            digest_fn=self._model_digest,
            params={"rtol": float(rtol)},
            key_config=config,
            compute=lambda: hinf_norm(model, rtol=rtol, config=config),
        )
        return self

    def find_crossings(self, **overrides: Any) -> "Macromodel":
        """Run the raw eigensolver sweep (no band classification)."""
        config = self._run_config(overrides)
        model = self._require_model()
        self._solve = self._cached_stage(
            stage="solve",
            config=config,
            digest_fn=self._model_digest,
            params=None,
            key_config=config,
            compute=lambda: solve(model, config),
        )
        return self

    def simulate(
        self,
        stimulus: Any = "prbs",
        *,
        dt: Optional[float] = None,
        num_steps: int = 4096,
        integrator: str = "recursive",
        discretization: str = "tustin",
        termination: Any = None,
        tol: float = 1e-8,
        keep_waveforms: bool = False,
        **overrides: Any,
    ) -> "Macromodel":
        """Transient-simulate the session model and meter its port energy.

        The time-domain acceptance check of the frequency-domain
        verdict: a non-passive model driven near its violation peak
        returns more energy than it receives
        (``energy_report.energy_gain > 1``), an enforced model never
        does.  See :func:`repro.timedomain.simulate` for the engine
        parameters; on top of those this stage accepts the stimulus
        shorthand ``"worst-tone"`` — a tone aligned with the top
        singular vector at the worst violation peak of the session's
        passivity report (requires a prior :meth:`check_passivity` that
        found violations).  The port-energy witness is defined on
        scattering waves, so an immittance config is rejected.

        Results are kept compact by default (``keep_waveforms=False``),
        which also makes this stage cacheable through the result store;
        keeping the waveform arrays marks the run uncacheable.
        """
        from repro.timedomain import engine as _engine
        from repro.timedomain.stimulus import worst_tone
        from repro.timedomain.terminations import Termination

        config = self._run_config(overrides)
        require_scattering(config, "the transient energy witness")
        model = self._require_model()
        if stimulus == "worst-tone":
            report = self._report
            if report is None or not getattr(report, "bands", ()):
                raise RuntimeError(
                    "stimulus 'worst-tone' needs a prior check_passivity()"
                    " whose report found violation bands"
                )
            band = max(report.bands, key=lambda b: b.severity)
            stimulus = worst_tone(model, band.peak_freq)
        stim = _engine._as_stimulus(stimulus)
        if termination is None:
            term = Termination.matched()
        elif isinstance(termination, dict):
            term = Termination.from_dict(termination)
        else:
            term = termination
        if isinstance(model, SimoRealization) and integrator == "recursive":
            # Structured realizations have no pole/residue form; fall
            # through to the dense integrator rather than failing.
            integrator = "statespace"
        if dt is None:
            dt = _engine.default_timestep(
                model, freq=stim.freq if stim.kind == "tone" else None
            )
        params = {
            "stimulus": stim.to_dict(),
            "termination": term.to_dict(),
            "dt": float(dt),
            "num_steps": int(num_steps),
            "integrator": str(integrator),
            # The recursive path never reads the discretization rule, so
            # normalize it out of the key — otherwise identical results
            # would split across distinct store entries.
            "discretization": (
                str(discretization) if integrator == "statespace" else None
            ),
            "tol": float(tol),
        }
        self._simulation = self._cached_stage(
            stage="simulate",
            config=config,
            # Waveform-carrying results are not stored (the payloads
            # would dwarf every other stage); such runs just compute.
            digest_fn=self._model_digest if not keep_waveforms else lambda: None,
            params=params,
            key_config=None,
            compute=lambda: _engine.simulate(
                model,
                stim,
                dt=dt,
                num_steps=num_steps,
                integrator=integrator,
                discretization=discretization,
                termination=term,
                tol=tol,
                keep_waveforms=keep_waveforms,
            ),
        )
        return self

    def to_touchstone(
        self,
        path: Union[str, Path],
        *,
        freqs_hz=None,
        num_points: int = 400,
        fmt: str = "RI",
        z0: Optional[float] = None,
        parameter: Optional[str] = None,
        comment: Optional[str] = None,
    ) -> "Macromodel":
        """Export the current model's frequency response to a ``.sNp`` file.

        Parameters
        ----------
        path:
            Output file path.
        freqs_hz:
            Export grid in Hz; defaults to the input grid when the session
            started from samples, else to a linear grid of ``num_points``
            spanning the characterized (or pole-derived) band.
        parameter:
            Parameter-type letter for the Touchstone option line; defaults
            to the input file's type (so a Y-parameter session exports
            Y-parameters), or ``"S"`` for model-only sessions.
        """
        model = self._require_model()
        if freqs_hz is None:
            if self._data is not None:
                freqs_hz = self._data.freqs_hz
            else:
                freqs_hz = self._default_grid_hz(model, num_points)
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        response = model.frequency_response(2.0 * np.pi * freqs_hz)
        if z0 is None:
            z0 = self._data.z0 if self._data is not None else 50.0
        if parameter is None:
            parameter = self._data.parameter if self._data is not None else "S"
        if comment is None:
            comment = f"macromodel exported by repro (source: {self._source or 'n/a'})"
        write_touchstone(
            path, freqs_hz, response, parameter=parameter, fmt=fmt, z0=z0,
            comment=comment,
        )
        self._exports.append(str(path))
        return self

    def _default_grid_hz(self, model: ModelLike, num_points: int) -> np.ndarray:
        if self._report is not None and self._report.solve is not None:
            top_rad = self._report.solve.band[1]
        elif self._solve is not None:
            top_rad = self._solve.band[1]
        else:
            poles = (
                model.poles if isinstance(model, PoleResidueModel) else model.poles()
            )
            top_rad = 1.5 * float(np.abs(poles).max()) if np.size(poles) else 1.0
        top_hz = max(top_rad, 1e-9) / (2.0 * np.pi)
        return np.linspace(top_hz / num_points, top_hz, num_points)

    # -- accessors ----------------------------------------------------------

    def _require_model(self) -> ModelLike:
        if self._model is None:
            raise RuntimeError(
                "no model available yet; call fit() first (sessions started"
                " from from_pole_residue() already have one)"
            )
        return self._model

    @property
    def model(self) -> Optional[ModelLike]:
        """The current macromodel (fitted, then possibly enforced)."""
        return self._model

    @property
    def data(self) -> Optional[TouchstoneData]:
        """The loaded sample data, when the session started from data."""
        return self._data

    @property
    def fit_result(self) -> Optional[FitResult]:
        """Vector Fitting outcome of the last :meth:`fit`."""
        return self._fit

    @property
    def passivity_report(self) -> Optional[PassivityReport]:
        """Most recent passivity characterization (its ``representation``
        names the test that ran)."""
        return self._report

    # Short alias used throughout the docs.
    report = passivity_report

    @property
    def enforcement_result(self) -> Optional[EnforcementResult]:
        """Outcome of the last :meth:`enforce`."""
        return self._enforcement

    @property
    def hinf_result(self) -> Optional[HinfResult]:
        """Outcome of the last :meth:`hinf`."""
        return self._hinf

    @property
    def solve_result(self) -> Optional[SolveResult]:
        """Outcome of the last :meth:`find_crossings`."""
        return self._solve

    @property
    def simulation_result(self) -> Optional[SimulationResult]:
        """Outcome of the last :meth:`simulate`."""
        return self._simulation

    @property
    def energy_report(self) -> Optional[EnergyReport]:
        """Energy witness of the last :meth:`simulate` (None before)."""
        if self._simulation is None:
            return None
        return self._simulation.energy

    @property
    def is_passive(self) -> Optional[bool]:
        """Passivity verdict; ``None`` before any characterization."""
        if self._report is None:
            return None
        return self._report.passive

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable summary of the session state."""
        lines = [f"Macromodel session (source: {self._source or 'n/a'})"]
        lines.append(
            f"  config: threads={self._config.num_threads}"
            f" strategy={self._config.strategy!r}"
            f" representation={self._config.representation!r}"
        )
        if self._data is not None:
            lines.append(
                f"  data: {self._data.num_ports} ports,"
                f" {self._data.freqs_hz.size} samples,"
                f" band {self._data.freqs_hz[0]:.6g}..{self._data.freqs_hz[-1]:.6g} Hz"
            )
        if self._fit is not None:
            lines.append(
                f"  fit: {self._fit.model.num_poles} poles,"
                f" rms error {self._fit.rms_error:.3e},"
                f" max error {self._fit.max_error:.3e}"
            )
        if self._model is not None:
            lines.append(f"  model: {self._model!r}")
        if self._enforcement is not None:
            verdict = "passive" if self._enforcement.passive else "NOT passive"
            lines.append(
                f"  enforcement: {verdict} after"
                f" {self._enforcement.iterations} iteration(s),"
                f" perturbation norm {self._enforcement.perturbation_norm:.3e}"
            )
        if self._report is not None:
            lines.append(f"  passivity: {self._report.summary()}")
        if self._hinf is not None:
            lines.append(
                f"  hinf: {self._hinf.norm:.8f}"
                f" (bracket [{self._hinf.lower:.8f}, {self._hinf.upper:.8f}])"
            )
        if self._solve is not None:
            lines.append(f"  sweep: {self._solve.summary()}")
        if self._simulation is not None:
            lines.append(f"  transient: {self._simulation.energy.summary()}")
        for path in self._exports:
            lines.append(f"  exported: {path}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the whole session."""
        payload: dict = {
            "source": self._source,
            "config": self._config.to_dict(),
            "is_passive": self.is_passive,
            "exports": list(self._exports),
        }
        if self._model is not None and isinstance(self._model, PoleResidueModel):
            payload["model"] = self._model.to_dict()
        if self._fit is not None:
            payload["fit"] = self._fit.to_dict(include_model=False)
        if self._report is not None:
            payload["passivity"] = self._report.to_dict()
        if self._enforcement is not None:
            payload["enforcement"] = self._enforcement.to_dict(include_model=False)
        if self._hinf is not None:
            payload["hinf"] = self._hinf.to_dict()
        if self._solve is not None:
            payload["solve"] = self._solve.to_dict(include_shifts=False)
        if self._simulation is not None:
            payload["simulation"] = self._simulation.to_dict()
        cache = self.cache_stats
        if any(cache.values()):
            payload["cache"] = cache
        return to_jsonable(payload)

    def __repr__(self) -> str:
        stages = []
        if self._fit is not None:
            stages.append("fit")
        if self._report is not None:
            stages.append("checked")
        if self._enforcement is not None:
            stages.append("enforced")
        state = "+".join(stages) if stages else "new"
        return f"Macromodel(source={self._source!r}, state={state})"
