"""The single run configuration shared by every entry point.

Before this module existed, ``num_threads`` / ``representation`` /
``strategy`` / ``omega_min`` / ``omega_max`` / ``options`` were re-plumbed
as loose keyword arguments through roughly ten modules, and each layer
re-validated them ad hoc.  :class:`RunConfig` consolidates all of the
cross-cutting knobs into one frozen, validated value object that flows
unchanged from the CLI / environment / facade down to the drivers:

* ``RunConfig()`` — sensible defaults (serial, scattering, auto strategy);
* ``RunConfig.from_dict({...})`` — machine-readable construction (JSON);
* ``RunConfig.from_env()`` — ``REPRO_*`` environment overrides;
* ``config.merged(num_threads=8)`` — functional per-call overrides;
* ``config.to_dict()`` — JSON-serializable round-trip.

Validation happens here, centrally, with a single error message per
mistake: unknown strings list the valid choices, and the strategy,
backend and thread count go through
:func:`~repro.core.registry.resolve_strategy` when the config is built,
so a contradictory combination such as ``strategy="bisection",
num_threads=4`` fails where it is written, not at solve time.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.core.options import SolverOptions
from repro.core.registry import resolve_strategy
from repro.hamiltonian.operator import REPRESENTATIONS
from repro.utils.validation import (
    ensure_choice,
    ensure_nonnegative_float,
    ensure_positive_float,
    ensure_positive_int,
)

__all__ = [
    "CACHE_MODES",
    "ConfigError",
    "RunConfig",
    "ensure_representation",
    "require_scattering",
    "require_full_axis",
]

#: Environment prefix recognized by :meth:`RunConfig.from_env`.
ENV_PREFIX = "REPRO_"

#: Result-store participation modes: ``"off"`` (never touch the store),
#: ``"read"`` (serve hits, never write), ``"readwrite"`` (serve hits and
#: persist fresh results).
CACHE_MODES = ("off", "read", "readwrite")


class ConfigError(ValueError):
    """A configuration value could not be parsed or validated.

    Every environment parse failure in :meth:`RunConfig.from_env` raises
    this single type with a message naming the offending ``REPRO_*``
    variable — previously a malformed integer could surface as a bare
    ``ValueError: invalid literal for int()`` (or, through layers that
    caught ``ValueError`` for flow control, be silently ignored).
    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working.
    """


def ensure_representation(name: str) -> str:
    """Centralized validation of a representation string."""
    return ensure_choice(name, "representation", REPRESENTATIONS)


def require_scattering(config: "RunConfig", stage: str, *, hint: str = "") -> None:
    """Reject configs whose representation a scattering-only stage can't honor."""
    if config.representation != "scattering":
        message = (
            f"{stage} is defined on the scattering-domain sigma;"
            f" config.representation {config.representation!r} is not"
            " supported"
        )
        if hint:
            message += f" — {hint}"
        raise ValueError(message)


def require_full_axis(config: "RunConfig", stage: str) -> None:
    """Reject band-limited configs for stages whose verdict spans the axis.

    A band-limited sweep could miss violations outside the band, making
    the stage's whole-axis claim (a passivity certificate, a norm
    supremum) unsound.
    """
    if config.is_band_limited:
        raise ValueError(
            f"{stage} requires a full-axis sweep; a band-limited config"
            " (omega_min/omega_max) could miss behavior outside the band"
            " — leave both at their defaults"
        )


def _parse_optional_float(text: str) -> Optional[float]:
    text = text.strip()
    if not text or text.lower() in ("none", "auto"):
        return None
    return float(text)


def _checked_fields(mapping: Mapping[str, Any]) -> dict:
    """Reject unknown RunConfig field names with one canonical message."""
    valid = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(mapping) - valid)
    if unknown:
        raise ValueError(
            f"unknown RunConfig field(s) {unknown};"
            f" valid fields: {sorted(valid)}"
        )
    return dict(mapping)


@dataclass(frozen=True)
class RunConfig:
    """Frozen bundle of the cross-cutting solver knobs.

    Parameters
    ----------
    num_threads:
        Worker threads; 1 selects a serial driver.
    representation:
        ``"scattering"`` (default) or ``"immittance"``.
    strategy:
        A name in :data:`~repro.core.registry.STRATEGIES` or ``"auto"``:
        the ``dense`` eigensolution for a model below
        :data:`~repro.core.registry.DENSE_MAX_ORDER` with one thread and
        ``backend="auto"``, else bisection when serial and the dynamic
        queue scheduler otherwise.  A combination the resolver rejects
        (``strategy="bisection", num_threads=4``) raises
        :class:`ValueError` here.
    backend:
        Execution backend: ``"serial"`` (one worker, calling thread),
        ``"thread"`` (thread pool), ``"process"`` (multiprocessing pool
        with true multi-core scaling), or ``"auto"`` (default — defer to
        the strategy resolution, preserving the historical behavior).
    omega_min, omega_max:
        Search band on the frequency axis; ``omega_max=None`` triggers the
        automatic spectral-bound estimation of Sec. IV.A.
    options:
        :class:`~repro.core.options.SolverOptions` tuning knobs.
    cache:
        Result-store participation: ``"off"`` (default — bit-identical
        to the pre-store behavior), ``"read"`` (serve cached results,
        never write), or ``"readwrite"`` (serve hits and persist fresh
        results).  Cached payloads are the stages' own ``to_dict()``
        forms, keyed content-addressed on (input, config, stage); see
        :mod:`repro.store`.
    cache_dir:
        Store directory; ``None`` uses ``REPRO_CACHE_DIR`` or the
        platform cache location (``~/.cache/repro``).  Neither cache
        field enters the cache key — whether a run consults the store
        must not change what it computes.
    """

    num_threads: int = 1
    representation: str = "scattering"
    strategy: str = "auto"
    backend: str = "auto"
    omega_min: float = 0.0
    omega_max: Optional[float] = None
    options: SolverOptions = field(default_factory=SolverOptions)
    cache: str = "off"
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # Store the validators' coerced values so the frozen config holds
        # plain Python ints/floats even when constructed from numpy
        # scalars or other numeric types (strings are rejected).
        object.__setattr__(
            self, "num_threads", ensure_positive_int(self.num_threads, "num_threads")
        )
        ensure_representation(self.representation)
        resolve_strategy(self.strategy, self.num_threads, backend=self.backend)
        object.__setattr__(
            self, "omega_min", ensure_nonnegative_float(self.omega_min, "omega_min")
        )
        if self.omega_max is not None:
            omega_max = ensure_positive_float(self.omega_max, "omega_max")
            if omega_max <= self.omega_min:
                raise ValueError(
                    f"empty band: omega_max ({omega_max}) must exceed"
                    f" omega_min ({self.omega_min})"
                )
            object.__setattr__(self, "omega_max", omega_max)
        if not isinstance(self.options, SolverOptions):
            raise TypeError(
                "options must be a SolverOptions,"
                f" got {type(self.options).__name__}"
            )
        ensure_choice(self.cache, "cache", CACHE_MODES)
        if self.cache_dir is not None:
            if isinstance(self.cache_dir, os.PathLike):
                object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))
            elif not isinstance(self.cache_dir, str):
                raise TypeError(
                    "cache_dir must be a path string or None,"
                    f" got {type(self.cache_dir).__name__}"
                )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "RunConfig":
        """Build a config from a plain mapping (e.g. parsed JSON).

        The ``options`` entry may be a :class:`SolverOptions` or a nested
        mapping of its fields.  Unknown keys raise, listing the valid ones.
        """
        if not isinstance(mapping, Mapping):
            raise TypeError(
                f"expected a mapping, got {type(mapping).__name__}"
            )
        kwargs = _checked_fields(mapping)
        options = kwargs.get("options")
        if isinstance(options, Mapping):
            kwargs["options"] = SolverOptions(**options)
        return cls(**kwargs)

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        *,
        base: Optional["RunConfig"] = None,
        prefix: str = ENV_PREFIX,
    ) -> "RunConfig":
        """Build a config from ``REPRO_*`` environment variables.

        Recognized variables (all optional; unset ones keep the ``base``
        value): ``REPRO_NUM_THREADS``, ``REPRO_REPRESENTATION``,
        ``REPRO_STRATEGY``, ``REPRO_BACKEND``, ``REPRO_OMEGA_MIN``,
        ``REPRO_OMEGA_MAX`` (``"none"``/``"auto"``/empty mean automatic),
        ``REPRO_CACHE`` (off/read/readwrite), ``REPRO_CACHE_DIR``,
        and ``REPRO_SEED`` (forwarded into ``options``).

        Raises
        ------
        ConfigError
            On any unparseable value, naming the offending variable.
        """
        environ = os.environ if environ is None else environ
        base = base if base is not None else cls()
        overrides: dict = {}

        def get(key: str) -> Optional[str]:
            value = environ.get(prefix + key)
            return None if value is None or value.strip() == "" else value

        def parse(key: str, raw: str, caster):
            # Uniform failure type naming the offending variable: a bare
            # int('four') error is useless to someone with several
            # REPRO_* variables set, and heterogeneous error types let
            # malformed values slip through layers that catch narrowly.
            try:
                return caster(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"invalid {prefix + key}={raw!r}: {exc}"
                ) from exc

        if (raw := get("NUM_THREADS")) is not None:
            overrides["num_threads"] = parse("NUM_THREADS", raw, int)
        if (raw := get("REPRESENTATION")) is not None:
            overrides["representation"] = raw.strip().lower()
        if (raw := get("STRATEGY")) is not None:
            overrides["strategy"] = raw.strip().lower()
        if (raw := get("BACKEND")) is not None:
            overrides["backend"] = raw.strip().lower()
        if (raw := get("OMEGA_MIN")) is not None:
            overrides["omega_min"] = parse("OMEGA_MIN", raw, float)
        if (raw := get("CACHE")) is not None:
            overrides["cache"] = raw.strip().lower()
        if (raw := get("CACHE_DIR")) is not None:
            overrides["cache_dir"] = raw.strip()
        # OMEGA_MAX checks raw presence: an empty value is the documented
        # way to clear a base band limit back to automatic (None).
        if (raw := environ.get(prefix + "OMEGA_MAX")) is not None:
            overrides["omega_max"] = parse("OMEGA_MAX", raw, _parse_optional_float)
        if (raw := get("SEED")) is not None:
            seed = (
                None
                if raw.strip().lower() == "none"
                else parse("SEED", raw, int)
            )
            overrides["options"] = base.options.with_(seed=seed)
        try:
            return base.merged(**overrides) if overrides else base
        except ConfigError:
            raise
        except ValueError as exc:
            # Re-raise semantic rejections (unknown strategy/backend, bad
            # band, non-positive threads) under the same uniform type so
            # callers can catch one exception for "the environment is
            # misconfigured" without also swallowing programming errors.
            raise ConfigError(str(exc)) from exc

    def merged(self, **overrides: Any) -> "RunConfig":
        """Return a copy with the given fields replaced (and re-validated).

        ``options`` may be given as a :class:`SolverOptions` or a mapping
        of field overrides applied on top of the current options.
        """
        if not overrides:
            return self
        overrides = _checked_fields(overrides)
        options = overrides.get("options")
        if isinstance(options, Mapping):
            overrides["options"] = self.options.with_(**options)
        elif options is None and "options" in overrides:
            overrides["options"] = SolverOptions()
        return replace(self, **overrides)

    # -- introspection ------------------------------------------------------

    @property
    def is_band_limited(self) -> bool:
        """True when the sweep band is user-restricted (not the full axis).

        The single definition shared by the passivity reports'
        ``band_limited`` flag, :func:`require_full_axis`, and the
        facade's full-axis stages.
        """
        return self.omega_min > 0.0 or self.omega_max is not None

    def to_dict(self) -> dict:
        """JSON-serializable dictionary round-tripping via :meth:`from_dict`."""
        return {
            "num_threads": self.num_threads,
            "representation": self.representation,
            "strategy": self.strategy,
            "backend": self.backend,
            "omega_min": self.omega_min,
            "omega_max": self.omega_max,
            "options": asdict(self.options),
            "cache": self.cache,
            "cache_dir": self.cache_dir,
        }
