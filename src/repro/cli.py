"""Command-line interface: passivity tools for Touchstone files.

Usage (after ``pip install -e .``)::

    repro info       device.s4p
    repro check      device.s4p --poles 40 --threads 8
    repro enforce    device.s4p --poles 40 --out passive.s4p
    repro hinf       device.s4p --poles 40
    repro simulate   device.s4p --stimulus prbs --steps 8192 --json
    repro simulate   --synth --seed 7 --stimulus worst-tone --enforce
    repro batch      'devices/*.s4p' --workers 4 --timeout 120
    repro batch      --synth 10 --seed 7 --backend process --json
    repro cache      stats --json
    repro serve      --port 8080 --workers 4 --cache readwrite
    repro worker     --backend process --timeout 120
    repro jobs       list --state failed --json
    repro strategies
    repro --version

(``python -m repro ...`` works identically.)  ``check`` fits a rational
macromodel to the file and runs the Hamiltonian passivity
characterization; ``enforce`` additionally repairs the model and writes
the resampled passive response; ``hinf`` computes the H-infinity norm by
Hamiltonian bisection; ``simulate`` transient-simulates the model
against a stimulus/termination scenario and reports the port-energy
passivity witness (gain > 1 exposes a non-passive model in the time
domain); ``batch`` runs the fit → check (→ enforce → simulate)
pipeline over a whole fleet of models on a bounded worker pool;
``cache`` inspects and manages the content-addressed result store;
``serve`` runs the persistent HTTP job service (see
:mod:`repro.service`); ``worker`` attaches one queue-draining worker
process to the service's durable queue (run N of them to scale out;
SIGTERM drains gracefully); ``jobs`` administers that queue (list /
show / retry / purge); ``info`` summarizes the file; ``strategies``
lists the scheduling strategies.

The CLI is a thin shell over the :class:`~repro.api.Macromodel` facade.
The fitting commands (``check`` / ``enforce`` / ``hinf``) accept
``--threads`` / ``--strategy`` / ``--backend`` / ``--representation``
plus the result-store axis (``--cache`` / ``--cache-dir``), honour the
``REPRO_*`` environment variables through
:meth:`~repro.core.config.RunConfig.from_env`, and support ``--json``
to print the session's machine-readable
:meth:`~repro.api.Macromodel.to_dict` payload; ``info`` and
``strategies`` are plain inspection commands with no solver knobs.
Every machine-readable mode (``--json``, ``serve --print-config``)
keeps stdout a single parseable JSON document — progress lines move to
stderr.  Configuration layers lowest-to-highest: the file's parameter
type (S → scattering, Y/Z → immittance), then ``REPRO_*``, then typed
flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.api import Macromodel, available_strategies
from repro.core.config import CACHE_MODES, ENV_PREFIX, RunConfig
from repro.core.registry import AUTO_DESCRIPTION, BACKENDS, STRATEGIES
from repro.hamiltonian.operator import REPRESENTATIONS

__all__ = ["main", "build_parser", "version_string"]


def version_string() -> str:
    """The installed package version (metadata first, source fallback)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


class _TrackedStore(argparse.Action):
    """Store action that records which flags the user actually passed.

    Parser defaults keep their documented values (so ``args.threads`` is
    1 when omitted), while ``args._explicit`` lets the config layer give
    explicitly-typed flags precedence over ``REPRO_*`` environment
    variables — including ``--threads 1`` / ``--strategy auto``.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if not hasattr(namespace, "_explicit"):
            namespace._explicit = set()
        namespace._explicit.add(self.dest)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hamiltonian passivity tools for interconnect macromodels",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {version_string()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarize a Touchstone file")
    info.add_argument("path", help="input .sNp file")

    def add_fit_args(p):
        p.add_argument("path", help="input .sNp file")
        p.add_argument("--poles", type=int, default=30, help="model order")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            action=_TrackedStore,
            help="solver threads",
        )
        p.add_argument(
            "--strategy",
            default="auto",
            choices=available_strategies(),
            action=_TrackedStore,
            help="scheduling strategy (default: auto)",
        )
        p.add_argument(
            "--backend",
            default="auto",
            choices=BACKENDS,
            action=_TrackedStore,
            help="execution backend: serial, thread, or process"
            " (default: auto — follow the strategy)",
        )
        p.add_argument(
            "--representation",
            default="scattering",
            choices=REPRESENTATIONS,
            action=_TrackedStore,
            help=(
                "transfer representation (default: from the file's"
                " parameter type — S: scattering, Y/Z: immittance)"
            ),
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable session payload",
        )
        add_cache_args(p)

    def add_fleet_representation_arg(p):
        p.add_argument(
            "--representation",
            default=None,
            choices=REPRESENTATIONS,
            action=_TrackedStore,
            help=(
                "transfer representation of every job (default: from each"
                " Touchstone file's parameter type — S: scattering, Y/Z:"
                " immittance; scattering for other sources)"
            ),
        )

    def add_cache_args(p):
        p.add_argument(
            "--cache",
            default="off",
            choices=CACHE_MODES,
            action=_TrackedStore,
            help="result-store mode (default: off; see also REPRO_CACHE)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            action=_TrackedStore,
            help="result-store directory (default: REPRO_CACHE_DIR or"
            " ~/.cache/repro)",
        )

    def add_queue_path_args(p):
        p.add_argument(
            "--queue",
            default=None,
            action=_TrackedStore,
            help="queue database file (default: REPRO_QUEUE_PATH or"
            " queue.sqlite3 next to the result store)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            action=_TrackedStore,
            help="result-store directory, which the default queue path"
            " resolves against (default: REPRO_CACHE_DIR or ~/.cache/repro)",
        )

    def add_queue_knob_args(p):
        p.add_argument(
            "--lease",
            type=float,
            default=None,
            action=_TrackedStore,
            metavar="SECONDS",
            help="job lease; a worker silent this long is presumed dead"
            " (default: REPRO_QUEUE_LEASE or 60)",
        )
        p.add_argument(
            "--heartbeat",
            type=float,
            default=None,
            action=_TrackedStore,
            metavar="SECONDS",
            help="lease-renewal interval of a busy worker (default:"
            " REPRO_QUEUE_HEARTBEAT or 15; must stay below the lease)",
        )
        p.add_argument(
            "--poll",
            type=float,
            default=None,
            action=_TrackedStore,
            metavar="SECONDS",
            help="longest idle wait before re-checking the queue: how soon a"
            " worker notices work from another process or an expired lease"
            " (default: REPRO_QUEUE_POLL or 0.2)",
        )
        p.add_argument(
            "--max-attempts",
            type=int,
            default=None,
            action=_TrackedStore,
            help="claim attempts before a job is marked failed (default:"
            " REPRO_QUEUE_MAX_ATTEMPTS or 3)",
        )

    check = sub.add_parser("check", help="fit a macromodel and test passivity")
    add_fit_args(check)
    check.add_argument(
        "--plot", action="store_true", help="ASCII plot of the sigma sweep"
    )

    enforce = sub.add_parser("enforce", help="fit, enforce passivity, export")
    add_fit_args(enforce)
    enforce.add_argument("--out", required=True, help="output .sNp path")
    enforce.add_argument(
        "--margin", type=float, default=0.002, help="enforcement margin below 1"
    )

    hinf = sub.add_parser("hinf", help="H-infinity norm via Hamiltonian bisection")
    add_fit_args(hinf)
    hinf.add_argument("--rtol", type=float, default=1e-6, help="bracket tolerance")

    from repro.timedomain import DISCRETIZATIONS, INTEGRATORS, STIMULUS_KINDS

    simulate = sub.add_parser(
        "simulate",
        help="transient-simulate a macromodel and report its energy balance",
    )
    simulate.add_argument(
        "path", nargs="?", help="input .sNp file (omit with --synth)"
    )
    simulate.add_argument(
        "--poles", type=int, default=30, help="fit model order (file inputs)"
    )
    simulate.add_argument(
        "--synth",
        action="store_true",
        help="simulate a seeded synthetic macromodel instead of a file",
    )
    simulate.add_argument(
        "--synth-order", type=int, default=10, help="synthetic poles per column"
    )
    simulate.add_argument(
        "--synth-ports", type=int, default=2, help="synthetic port count"
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="synthetic model seed"
    )
    simulate.add_argument(
        "--sigma-target",
        type=float,
        default=1.05,
        help="peak singular value of the synthetic model (>1 = violating)",
    )
    simulate.add_argument(
        "--stimulus",
        default="prbs",
        choices=STIMULUS_KINDS + ("worst-tone",),
        help="excitation ('worst-tone' drives the worst violation peak;"
        " implies a passivity check first)",
    )
    simulate.add_argument(
        "--steps", type=int, default=4096, help="simulation window in samples"
    )
    simulate.add_argument(
        "--dt",
        type=float,
        default=None,
        help="timestep in seconds (default: resolve the fastest pole)",
    )
    simulate.add_argument(
        "--amplitude", type=float, default=1.0, help="stimulus amplitude"
    )
    simulate.add_argument(
        "--bit-steps", type=int, default=8, help="PRBS samples per bit"
    )
    simulate.add_argument(
        "--stim-seed", type=int, default=0, help="PRBS pattern seed"
    )
    simulate.add_argument(
        "--tone-freq",
        type=float,
        default=None,
        help="tone frequency in rad/s (required for --stimulus tone)",
    )
    simulate.add_argument(
        "--integrator",
        default="recursive",
        choices=INTEGRATORS,
        help="transient integrator (default: recursive convolution)",
    )
    simulate.add_argument(
        "--discretization",
        default="tustin",
        choices=DISCRETIZATIONS,
        help="state-space discretization rule",
    )
    simulate.add_argument(
        "--resistance",
        type=float,
        default=None,
        help="terminate every port with this resistance in ohm"
        " (default: matched, no reflections)",
    )
    simulate.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="energy-gain slack of the passivity verdict",
    )
    simulate.add_argument(
        "--enforce",
        action="store_true",
        help="enforce passivity first and simulate the repaired model",
    )
    simulate.add_argument(
        "--threads",
        type=int,
        default=1,
        action=_TrackedStore,
        help="solver threads (for the check/enforce stages)",
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable session payload",
    )
    add_cache_args(simulate)

    batch = sub.add_parser(
        "batch", help="run fit+check (+enforce) over a fleet of models"
    )
    batch.add_argument(
        "inputs",
        nargs="*",
        help="Touchstone files or glob patterns (quote globs to keep the"
        " shell from expanding them)",
    )
    batch.add_argument(
        "--synth",
        type=int,
        default=0,
        metavar="N",
        help="append N seeded synthetic models to the fleet",
    )
    batch.add_argument(
        "--synth-order", type=int, default=10, help="synthetic poles per column"
    )
    batch.add_argument(
        "--synth-ports", type=int, default=2, help="synthetic port count"
    )
    batch.add_argument(
        "--seed", type=int, default=0, help="base seed of the synthetic fleet"
    )
    batch.add_argument(
        "--sigma-target",
        type=float,
        default=1.05,
        help="peak singular value targeted by the synthetic models",
    )
    batch.add_argument("--poles", type=int, default=30, help="fit model order")
    batch.add_argument(
        "--workers", type=int, default=None, help="max concurrent jobs"
    )
    batch.add_argument(
        "--timeout", type=float, default=None, help="per-job budget in seconds"
    )
    batch.add_argument(
        "--backend",
        default="process",
        choices=("process", "thread", "serial"),
        help="fleet execution backend (default: process)",
    )
    batch.add_argument(
        "--enforce",
        action="store_true",
        help="also enforce passivity on violating models",
    )
    batch.add_argument(
        "--simulate",
        action="store_true",
        help="also run the transient energy witness on each final model",
    )
    batch.add_argument(
        "--margin", type=float, default=0.002, help="enforcement margin"
    )
    batch.add_argument(
        "--out", default=None, help="write the fleet report JSON to this path"
    )
    batch.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable fleet report",
    )
    add_fleet_representation_arg(batch)
    add_cache_args(batch)

    cache = sub.add_parser(
        "cache", help="inspect and manage the content-addressed result store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "show entry count, size, and traffic counters"),
        ("clear", "delete every cached entry"),
        ("prune", "evict least-recently-used entries down to the size cap"),
    ):
        cp = cache_sub.add_parser(name, help=help_text)
        cp.add_argument(
            "--cache-dir",
            default=None,
            help="store directory (default: REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        cp.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable summary",
        )
        if name == "prune":
            cp.add_argument(
                "--max-bytes",
                type=int,
                default=None,
                help="prune down to this many bytes (default: the store cap,"
                " REPRO_CACHE_MAX_BYTES)",
            )

    serve = sub.add_parser(
        "serve", help="run the persistent HTTP macromodel job service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="embedded queue workers (0 = pure front-end; drain the"
        " queue with external 'repro worker' processes)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, help="per-job budget in seconds"
    )
    serve.add_argument(
        "--backend",
        default="process",
        choices=("process", "thread", "serial"),
        help="job execution backend (default: process)",
    )
    serve.add_argument(
        "--poles", type=int, default=30, help="default fit model order"
    )
    serve.add_argument(
        "--margin", type=float, default=0.002, help="default enforcement margin"
    )
    serve.add_argument(
        "--cache",
        default="readwrite",
        choices=CACHE_MODES,
        action=_TrackedStore,
        help="result-store mode (default: readwrite — the service exists"
        " to absorb repeated traffic)",
    )
    add_fleet_representation_arg(serve)
    add_queue_path_args(serve)
    add_queue_knob_args(serve)
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        action=_TrackedStore,
        help="per-client job submissions per second (0 = unlimited;"
        " default: REPRO_QUEUE_RATE or off)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=None,
        action=_TrackedStore,
        help="per-client submission burst size (token bucket)",
    )
    serve.add_argument(
        "--print-config",
        action="store_true",
        help="print the resolved service configuration as JSON and exit"
        " (pure JSON on stdout; nothing is served)",
    )

    worker = sub.add_parser(
        "worker",
        help="drain the service's durable job queue (run N for a fleet)",
    )
    add_queue_path_args(worker)
    add_queue_knob_args(worker)
    worker.add_argument(
        "--backend",
        default="process",
        choices=("process", "thread", "serial"),
        help="job execution backend (default: process)",
    )
    worker.add_argument(
        "--timeout", type=float, default=None, help="per-job budget in seconds"
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: host-pid-random)",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after completing this many jobs",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit once the queue has been empty this long"
        " (default: wait forever)",
    )

    jobs = sub.add_parser(
        "jobs", help="administer the durable job queue (list/show/retry/purge)"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def add_jobs_common(p):
        add_queue_path_args(p)
        p.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable payload",
        )

    jobs_list = jobs_sub.add_parser("list", help="list queued/finished jobs")
    add_jobs_common(jobs_list)
    jobs_list.add_argument(
        "--state",
        default=None,
        choices=("queued", "running", "done", "error", "timeout", "failed"),
        help="only jobs in this state",
    )
    jobs_list.add_argument("--task", default=None, help="only jobs of this task")
    jobs_list.add_argument(
        "--limit", type=int, default=50, help="newest N jobs (default: 50)"
    )

    jobs_show = jobs_sub.add_parser("show", help="show one job in full")
    add_jobs_common(jobs_show)
    jobs_show.add_argument("id", help="job id")

    jobs_retry = jobs_sub.add_parser(
        "retry", help="requeue a finished/failed job"
    )
    add_jobs_common(jobs_retry)
    jobs_retry.add_argument("id", help="job id")

    jobs_purge = jobs_sub.add_parser(
        "purge", help="delete all jobs in one terminal state"
    )
    add_jobs_common(jobs_purge)
    jobs_purge.add_argument(
        "--state",
        required=True,
        choices=("done", "error", "timeout", "failed"),
        help="terminal state to purge",
    )

    trace = sub.add_parser(
        "trace",
        help="render one job's distributed trace as an ASCII waterfall",
    )
    add_queue_path_args(trace)
    trace.add_argument("id", help="job id")
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the span tree as machine-readable JSON",
    )
    trace.add_argument(
        "--width",
        type=int,
        default=40,
        help="waterfall bar width in characters (default: 40)",
    )

    faults = sub.add_parser(
        "faults", help="inspect the fault-injection framework"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_list = faults_sub.add_parser(
        "list", help="enumerate registered injection points"
    )
    faults_list.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable registry",
    )

    sub.add_parser("strategies", help="list the scheduling strategies")

    bench = sub.add_parser(
        "bench",
        help="time (and optionally profile) the named bench stages",
    )
    bench.add_argument(
        "stages",
        nargs="*",
        metavar="STAGE",
        help="stages to run (default: the serial tier; see repro.obs.benchstage)",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="model-order scale factor of the seeded models, in (0, 1]",
    )
    bench.add_argument(
        "--threads",
        type=int,
        default=2,
        help="solver threads (or workers) per stage, at least 1",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="run each stage under cProfile and attach its top-N hot"
        " functions to the JSON output",
    )
    bench.add_argument(
        "--profile-sort",
        default="cumtime",
        choices=("cumtime", "tottime", "ncalls"),
        help="hot-function ranking order (default: cumtime)",
    )
    bench.add_argument(
        "--profile-top",
        type=int,
        default=20,
        help="number of hot functions reported per stage (default: 20)",
    )
    bench.add_argument(
        "--output",
        default=None,
        help="also write the JSON document to this path",
    )

    profile = sub.add_parser(
        "profile",
        help="run any repro subcommand under cProfile (ad-hoc profiling)",
    )
    profile.add_argument(
        "--sort",
        default="cumtime",
        choices=("cumtime", "tottime", "ncalls"),
        help="hot-function ranking order (default: cumtime)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=20,
        help="number of hot functions reported (default: 20)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="print the profile report as JSON on stdout (after the"
        " wrapped command's own output)",
    )
    profile.add_argument(
        "--output",
        default=None,
        help="write the JSON profile report to this path",
    )
    profile.add_argument(
        "argv",
        nargs=argparse.REMAINDER,
        metavar="SUBCOMMAND...",
        help="the repro subcommand to profile, e.g."
        " `repro profile check dev.s2p`",
    )
    return parser


def _session_config(args, base: Optional[RunConfig] = None) -> RunConfig:
    """Layer the config: ``base`` < ``REPRO_*`` environment < typed flags.

    Flags the user did not type do not override the environment, so
    ``REPRO_NUM_THREADS=8 repro check dev.s2p`` uses 8 threads while
    ``repro check dev.s2p --threads 1`` always forces a serial run.
    """
    config = RunConfig.from_env(base=base)
    explicit = getattr(args, "_explicit", set())
    overrides = {}
    if "threads" in explicit:
        overrides["num_threads"] = args.threads
    if "strategy" in explicit:
        overrides["strategy"] = args.strategy
    if "backend" in explicit:
        overrides["backend"] = args.backend
    if "representation" in explicit:
        overrides["representation"] = args.representation
    if "cache" in explicit:
        overrides["cache"] = args.cache
    if "cache_dir" in explicit:
        overrides["cache_dir"] = args.cache_dir
    return config.merged(**overrides) if overrides else config


def _representation_named(args) -> bool:
    """True when a flag or ``REPRO_REPRESENTATION`` names the
    representation, which then wins over a Touchstone file's parameter
    type; otherwise each file picks it, as in :func:`_fit_session`."""
    return "representation" in getattr(args, "_explicit", set()) or bool(
        os.environ.get(ENV_PREFIX + "REPRESENTATION", "").strip()
    )


def _fit_session(args, *, scattering_only: bool = False) -> Macromodel:
    # Opening the file first lets its parameter type (S vs Y/Z) choose
    # the default representation; env vars and flags layer on top.
    session = Macromodel.from_touchstone(args.path)
    session.configure(_session_config(args, base=session.config))
    if scattering_only and session.config.representation != "scattering":
        # Fail before paying for the fit.
        raise ValueError(
            f"the {args.command} command works on the scattering-domain"
            f" sigma but this session resolved to"
            f" {session.config.representation!r} (the file holds"
            f" {session.data.parameter}-parameters); pass"
            " --representation scattering to override"
        )
    session.fit(num_poles=args.poles)
    fit = session.fit_result
    _say(
        args,
        f"fit: {args.poles} poles, rms error {fit.rms_error:.3e},"
        f" max error {fit.max_error:.3e}",
    )
    return session


def _say(args, message: str) -> None:
    """Human-readable progress line.

    Under ``--json`` these go to stderr so stdout stays a single
    parseable JSON document; otherwise they go to stdout as usual.
    """
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(message, file=stream)


def _maybe_json(args, session: Macromodel) -> None:
    if getattr(args, "json", False):
        print(json.dumps(session.to_dict(), indent=2, sort_keys=True))


def _cmd_info(args) -> int:
    session = Macromodel.from_touchstone(args.path)
    data = session.data
    sv = np.linalg.svd(data.matrices, compute_uv=False)
    print(f"file:       {args.path}")
    print(f"ports:      {data.num_ports}")
    print(f"parameter:  {data.parameter} (z0 = {data.z0:g} ohm)")
    print(
        f"band:       {data.freqs_hz[0]:.6g} .. {data.freqs_hz[-1]:.6g} Hz"
        f" ({data.freqs_hz.size} points)"
    )
    print(f"max sigma:  {sv.max():.6f} (sampled; > 1 suggests non-passive data)")
    return 0


def _cmd_check(args) -> int:
    session = _fit_session(args).check_passivity()
    report = session.passivity_report
    _say(args, report.summary())
    solve = report.solve
    sweep = (
        ""
        if solve.strategy == "dense"
        else f", {solve.shifts_processed} shifts,"
        f" {solve.work['operator_applies']} operator applies"
    )
    _say(args, f"eigensolver: {solve.strategy}{sweep}, {solve.elapsed:.3f}s")
    if getattr(args, "plot", False):
        # The ASCII plot draws sigma against the unit threshold — a
        # scattering-domain picture that would contradict an immittance
        # verdict, so it is skipped for immittance sessions.
        if session.config.representation != "scattering":
            _say(args, "(--plot shows the scattering sigma sweep; skipped"
                       " for the immittance test)")
        else:
            from repro.reporting.ascii_plot import sigma_plot

            top = max(solve.band[1], float(session.data.freqs_rad[-1]))
            grid = np.linspace(float(session.data.freqs_rad[0]), top, 300)
            _say(args, "")
            _say(
                args,
                sigma_plot(
                    session.model,
                    grid,
                    mark_bands=[(b.lo, b.hi) for b in report.bands],
                ),
            )
    _maybe_json(args, session)
    return 0 if report.passive else 2


def _cmd_enforce(args) -> int:
    session = _fit_session(args, scattering_only=True).enforce(margin=args.margin)
    result = session.enforcement_result
    if not result.passive:
        _say(args, "enforcement FAILED to reach passivity within the iteration cap")
        _maybe_json(args, session)
        return 3
    _say(
        args,
        f"enforced in {result.iterations} iteration(s),"
        f" perturbation norm {result.perturbation_norm:.3e}",
    )
    session.to_touchstone(
        args.out,
        comment=f"passive macromodel exported by repro (from {args.path})",
    )
    _say(args, f"wrote {args.out}")
    _maybe_json(args, session)
    return 0


def _cmd_hinf(args) -> int:
    session = _fit_session(args, scattering_only=True).hinf(rtol=args.rtol)
    result = session.hinf_result
    _say(
        args,
        f"||H||_inf = {result.norm:.8f}"
        f"   (bracket [{result.lower:.8f}, {result.upper:.8f}],"
        f" {result.bisections} Hamiltonian sweeps)",
    )
    _say(args, f"attained near w = {result.peak_freq:.6g} rad/s")
    _maybe_json(args, session)
    return 0


def _cmd_simulate(args) -> int:
    from repro.timedomain import Stimulus, Termination

    if args.synth:
        from repro.synth import random_macromodel

        model = random_macromodel(
            args.synth_order,
            args.synth_ports,
            seed=args.seed,
            sigma_target=args.sigma_target,
        )
        session = Macromodel.from_pole_residue(model)
        session.configure(_session_config(args, base=session.config))
        _say(
            args,
            f"synthetic model: {args.synth_ports} ports,"
            f" {model.num_poles} poles, seed {args.seed},"
            f" sigma target {args.sigma_target:g}",
        )
    else:
        if not args.path:
            raise ValueError(
                "nothing to simulate: give a Touchstone path or --synth"
            )
        session = _fit_session(args, scattering_only=True)

    needs_check = args.enforce or args.stimulus == "worst-tone"
    if needs_check:
        session.check_passivity()
        _say(args, session.passivity_report.summary())

    # Resolve the worst-tone target from the *pre-enforcement* report:
    # the point of the scenario is to hit the repaired model with the
    # very stimulus that exposed the original violation.
    if args.stimulus == "worst-tone":
        from repro.timedomain import worst_tone

        bands = getattr(session.passivity_report, "bands", ())
        if not bands:
            _say(
                args,
                "no violation bands to target; falling back to the PRBS"
                " stimulus",
            )
            stimulus = Stimulus.prbs(
                amplitude=args.amplitude,
                bit_steps=args.bit_steps,
                seed=args.stim_seed,
            )
        else:
            band = max(bands, key=lambda b: b.severity)
            stimulus = worst_tone(
                session.model, band.peak_freq, amplitude=args.amplitude
            )
    elif args.stimulus == "prbs":
        stimulus = Stimulus.prbs(
            amplitude=args.amplitude,
            bit_steps=args.bit_steps,
            seed=args.stim_seed,
        )
    elif args.stimulus == "tone":
        if args.tone_freq is None:
            raise ValueError("--stimulus tone requires --tone-freq (rad/s)")
        stimulus = Stimulus.tone(args.tone_freq, amplitude=args.amplitude)
    else:
        stimulus = Stimulus(kind=args.stimulus, amplitude=args.amplitude)

    if args.enforce and not session.is_passive:
        session.enforce()
        result = session.enforcement_result
        _say(
            args,
            f"enforced in {result.iterations} iteration(s),"
            f" perturbation norm {result.perturbation_norm:.3e}",
        )

    termination = None
    if args.resistance is not None:
        termination = Termination(resistances=args.resistance)
    session.simulate(
        stimulus,
        dt=args.dt,
        num_steps=args.steps,
        integrator=args.integrator,
        discretization=args.discretization,
        termination=termination,
        tol=args.tol,
    )
    result = session.simulation_result
    _say(args, result.summary())
    for port, (e_in, e_out) in enumerate(
        zip(result.energy.port_input, result.energy.port_output)
    ):
        _say(args, f"  port {port}: in {e_in:.6g}, out {e_out:.6g}")
    _maybe_json(args, session)
    return 0 if result.energy.passive else 2


def _cmd_batch(args) -> int:
    from repro.batch import BatchRunner, synth_fleet

    sources = list(args.inputs)
    if args.synth > 0:
        sources.extend(
            synth_fleet(
                args.synth,
                order_per_column=args.synth_order,
                num_ports=args.synth_ports,
                base_seed=args.seed,
                sigma_target=args.sigma_target,
            )
        )
    if not sources:
        raise ValueError(
            "nothing to run: give Touchstone paths/globs and/or --synth N"
        )
    runner = BatchRunner(
        config=_session_config(args),
        file_representation=not _representation_named(args),
        workers=args.workers,
        timeout=args.timeout,
        backend=args.backend,
        num_poles=args.poles,
        enforce=args.enforce,
        margin=args.margin,
        simulate=args.simulate,
    )
    report = runner.run(sources)
    _say(args, report.summary())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        _say(args, f"wrote {args.out}")
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.all_ok else 4


def _cmd_cache(args) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.cache_command == "stats":
        payload = store.stats()
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"store:      {payload['root']} (schema {payload['schema']})")
        print(f"entries:    {payload['entries']}")
        cap = payload["max_bytes"]
        print(
            f"size:       {payload['total_bytes']} bytes"
            f" (cap: {cap if cap is not None else 'unlimited'})"
        )
        for stage, count in sorted(payload["stages"].items()):
            print(f"  stage {stage:<18} {count}")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        payload = {"root": str(store.root), "removed": removed}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"removed {removed} entries from {store.root}")
        return 0
    summary = store.prune(args.max_bytes)
    summary["root"] = str(store.root)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"pruned {summary['removed']} entries from {store.root};"
            f" {summary['entries']} left ({summary['total_bytes']} bytes)"
        )
    return 0


def _queue_config(args):
    """Layer the queue knobs: defaults < ``REPRO_QUEUE_*`` < typed flags."""
    from repro.queue import QueueConfig

    config = QueueConfig.from_env()
    explicit = getattr(args, "_explicit", set())
    overrides = {}
    if "queue" in explicit:
        overrides["path"] = args.queue
    if "lease" in explicit:
        overrides["lease_seconds"] = args.lease
    if "heartbeat" in explicit:
        overrides["heartbeat_seconds"] = args.heartbeat
    if "poll" in explicit:
        overrides["poll_seconds"] = args.poll
    if "max_attempts" in explicit:
        overrides["max_attempts"] = args.max_attempts
    if "rate" in explicit:
        overrides["rate"] = args.rate
    if "burst" in explicit:
        overrides["burst"] = args.burst
    return config.merged(**overrides) if overrides else config


def _cmd_serve(args) -> int:
    from repro.service import ReproServer

    # Layering mirrors the fitting commands, except the *service* default
    # is cache="readwrite": REPRO_* overrides it, typed flags win.
    config = RunConfig.from_env(base=RunConfig(cache="readwrite"))
    explicit = getattr(args, "_explicit", set())
    overrides = {}
    if "cache" in explicit:
        overrides["cache"] = args.cache
    if "cache_dir" in explicit:
        overrides["cache_dir"] = args.cache_dir
    if "representation" in explicit:
        overrides["representation"] = args.representation
    if overrides:
        config = config.merged(**overrides)
    file_representation = not _representation_named(args)
    queue_config = _queue_config(args)
    if args.print_config:
        # Describing the configuration needs no socket: it must work
        # (and print the same JSON) while a server holds the port.
        from repro.service import JobManager
        from repro.service.server import describe_manager

        manager = JobManager(
            config=config,
            file_representation=file_representation,
            workers=args.workers,
            timeout=args.timeout,
            backend=args.backend,
            num_poles=args.poles,
            margin=args.margin,
            queue_config=queue_config,
        )
        try:
            payload = describe_manager(manager, args.host, args.port)
            print(json.dumps(payload, indent=2, sort_keys=True))
        finally:
            manager.shutdown()
        return 0

    server = ReproServer.create(
        host=args.host,
        port=args.port,
        config=config,
        file_representation=file_representation,
        workers=args.workers,
        timeout=args.timeout,
        backend=args.backend,
        num_poles=args.poles,
        margin=args.margin,
        queue_config=queue_config,
    )
    try:
        print(f"serving on {server.url} (ctrl-c to stop)", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        return 0
    finally:
        server.server_close()
        server.manager.shutdown()


def _cmd_worker(args) -> int:
    import signal

    from repro.queue import QueueWorker
    from repro.utils.logging import get_logger, structured_logging_active

    log = get_logger("cli.worker")

    def say(message: str) -> None:
        # Under REPRO_LOG_FORMAT=json every stderr line must be one
        # structured record, so the human one-liners route through the
        # logger instead of a bare print.
        if structured_logging_active():
            log.info(message)
        else:
            print(message, file=sys.stderr)

    queue_config = _queue_config(args)
    queue_path = queue_config.resolve_path(args.cache_dir)
    worker = QueueWorker(
        queue_path,
        queue_config=queue_config,
        worker_id=args.worker_id,
        backend=args.backend,
        timeout=args.timeout,
        max_jobs=args.max_jobs,
        idle_seconds=args.idle_exit,
    )

    def drain(signum, frame):
        # Graceful drain: finish (and ack) the leased job, then exit 0.
        say("drain requested; finishing the current job")
        worker.request_stop()

    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    say(
        f"worker {worker.worker_id} draining {queue_path}"
        f" ({args.backend} backend; ctrl-c or SIGTERM to drain)"
    )
    completed = worker.run()
    say(f"worker exiting after {completed} job(s)")
    return 0


def _open_queue(args):
    """The existing queue database a read or admin subcommand opens.

    Only the path is resolved: ``--queue``, else ``REPRO_QUEUE_PATH``,
    else ``queue.sqlite3`` in the ``--cache-dir`` store.  The lease, poll
    and rate knobs are for ``serve`` and ``worker``, so a malformed one
    must not fail a read.
    """
    from repro.queue import QUEUE_ENV_PREFIX, JobQueue, QueueConfig

    path = args.queue or os.environ.get(QUEUE_ENV_PREFIX + "PATH", "").strip()
    queue_path = QueueConfig(path=path or None).resolve_path(args.cache_dir)
    if not queue_path.is_file():
        raise ValueError(
            f"no queue database at {queue_path} (start 'repro serve' or"
            " point --queue/REPRO_QUEUE_PATH at one)"
        )
    return JobQueue(queue_path)


def _cmd_jobs(args) -> int:
    queue = _open_queue(args)
    try:
        if args.jobs_command == "list":
            rows = queue.list(
                state=args.state, task=args.task, limit=args.limit
            )
            if args.json:
                print(
                    json.dumps(
                        [row.to_dict() for row in rows],
                        indent=2,
                        sort_keys=True,
                    )
                )
                return 0
            if not rows:
                print("no jobs match")
                return 0
            print(
                f"{'id':<14} {'state':<8} {'task':<9} {'att':>3}"
                f" {'worker':<24} name"
            )
            for row in rows:
                print(
                    f"{row.id:<14} {row.state:<8} {row.task:<9}"
                    f" {row.attempts:>3} {(row.worker or '-'):<24} {row.name}"
                )
            return 0
        if args.jobs_command == "show":
            row = queue.get(args.id)
            if row is None:
                raise ValueError(f"unknown job id {args.id!r}")
            payload = dict(row.to_dict(), spec=row.spec)
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            for field in (
                "id",
                "name",
                "task",
                "kind",
                "status",
                "attempts",
                "worker",
                "key",
                "error",
            ):
                print(f"{field + ':':<10} {payload[field]}")
            return 0
        if args.jobs_command == "retry":
            if not queue.retry(args.id):
                row = queue.get(args.id)
                if row is None:
                    raise ValueError(f"unknown job id {args.id!r}")
                raise ValueError(
                    f"job {args.id} is {row.state}; only finished jobs"
                    " (done/error/timeout/failed) can be retried"
                )
            payload = {"id": args.id, "status": "queued"}
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(f"requeued job {args.id}")
            return 0
        removed = queue.purge(args.state)
        payload = {"state": args.state, "removed": removed}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"purged {removed} {args.state} job(s)")
        return 0
    finally:
        queue.close()


def _cmd_trace(args) -> int:
    """``repro trace <job-id>`` — the job's span tree as a waterfall.

    Reads the job's trace out of the queue database, so it works from
    any process that can see the queue file — no running service
    required.
    """
    from repro.obs.trace import render_waterfall

    queue = _open_queue(args)
    try:
        document = queue.trace(args.id)
    finally:
        queue.close()
    if document is None:
        raise ValueError(f"unknown job id {args.id!r}")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if not document["spans"]:
        print(
            f"no spans recorded for job {args.id} (state:"
            f" {document['status']}; a job's trace is written when it"
            " finishes, and REPRO_TRACE=off disables it)"
        )
        return 0
    print(
        f"job {args.id}  trace {document['trace_id']}"
        f"  state {document['status']}"
    )
    print(render_waterfall(document["spans"], width=args.width))
    return 0


def _cmd_faults(args) -> int:
    """``repro faults list`` — the registry, and any active plan.

    This is the anti-drift mirror of the docs: the output is generated
    from :data:`~repro.faults.INJECTION_POINTS`, so documentation and
    tests can be checked against the single source of truth.
    """
    from repro.faults import INJECTION_POINTS, FaultPlan

    plan = FaultPlan.from_env()  # ConfigError on a malformed REPRO_FAULTS
    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "points": [
                        point.to_dict()
                        for point in INJECTION_POINTS.values()
                    ],
                    "plan": plan.to_dict() if plan is not None else None,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"registered injection points ({len(INJECTION_POINTS)}):")
    width = max(len(name) for name in INJECTION_POINTS)
    for name, point in sorted(INJECTION_POINTS.items()):
        kinds = ", ".join(point.kinds)
        print(f"  {name:<{width}}  [{kinds}]")
        print(f"  {'':<{width}}    {point.description}")
    if plan is None:
        print("active plan: none (REPRO_FAULTS is unset)")
    else:
        print(f"active plan (REPRO_FAULTS): {plan.describe()}")
    return 0


def _cmd_strategies(args) -> int:
    for name in available_strategies(include_auto=False):
        row = STRATEGIES[name]
        threads = "1 thread" if row.sequential else "any thread count"
        backends = "/".join(row.backends)
        print(f"{name:<12} [{threads}; {backends}] {row.description}")
    print(f"{'auto':<12} [resolves] {AUTO_DESCRIPTION}")
    print(f"representations: {', '.join(REPRESENTATIONS)}")
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.benchstage import StageCheckError, run_bench_stages

    try:
        payload = run_bench_stages(
            args.stages,
            scale=args.scale,
            threads=args.threads,
            profile=args.profile,
            profile_sort=args.profile_sort,
            profile_top=args.profile_top,
        )
    except StageCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for record in payload["stages"]:
        line = f"{record['name']:<20} {record['seconds']:.4f}s"
        if args.profile and record.get("profile"):
            hottest = record["profile"]["top"][0]
            line += (
                f"  hottest: {hottest['function']}"
                f" ({hottest[args.profile_sort]:.4f}s {args.profile_sort})"
            )
        print(line, file=sys.stderr)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_profile(args) -> int:
    import cProfile

    from repro.obs.profiler import profile_to_dict

    argv = list(args.argv)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        print(
            "error: profile needs a subcommand to run,"
            " e.g. `repro profile check dev.s2p`",
            file=sys.stderr,
        )
        return 1
    if argv[0] == "profile":
        print("error: refusing to profile `repro profile`", file=sys.stderr)
        return 1
    profiler = cProfile.Profile()
    code = profiler.runcall(main, argv)
    report = profile_to_dict(profiler, top_n=args.top, sort=args.sort)
    report["command"] = argv
    report["exit_code"] = int(code)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"profile of `repro {' '.join(argv)}` — top {args.top}"
            f" by {args.sort}:",
            file=sys.stderr,
        )
        for row in report["top"]:
            location = f"{row['file']}:{row['line']}"
            print(
                f"  {row['cumtime']:9.4f}s cum  {row['tottime']:9.4f}s tot"
                f"  {row['ncalls']:>8}x  {row['function']}  ({location})",
                file=sys.stderr,
            )
    return code


_COMMANDS = {
    "info": _cmd_info,
    "check": _cmd_check,
    "enforce": _cmd_enforce,
    "hinf": _cmd_hinf,
    "simulate": _cmd_simulate,
    "batch": _cmd_batch,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "jobs": _cmd_jobs,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "strategies": _cmd_strategies,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
