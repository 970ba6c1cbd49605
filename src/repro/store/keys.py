"""Content-addressed cache keys: canonical serialization + SHA-256.

Every cache entry is addressed by the SHA-256 of a *canonical* JSON
serialization of everything that determines the computation's outcome:

* the input — a :class:`~repro.macromodel.rational.PoleResidueModel`
  ``to_dict()`` payload, or the raw sample arrays of a fitting run (both
  reduced to a digest first so the key document stays tiny);
* the frozen :class:`~repro.core.config.RunConfig` (minus the cache
  control fields themselves — whether a run reads the cache must not
  change what it computes);
* the stage name and its stage-specific parameters (enforcement margin,
  H-infinity tolerance, fit order, ...);
* the store schema version, so a payload-format change can never be
  misread as a valid entry — old keys simply become unreachable.

Canonical means ``sort_keys=True`` with compact separators and no NaN
literals (non-finite floats are already ``None`` after
:func:`~repro.utils.serialization.to_jsonable`), so logically equal
inputs hash identically across processes and platforms.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "content_key",
    "array_digest",
    "file_digest",
    "result_key",
]

#: Bumped whenever the stored payload format (or key document layout)
#: changes incompatibly, or a key starts to mean a different computation.
#: Part of every key *and* every entry envelope: entries written under
#: another schema are treated as misses.  Version 2: ``"strategy":
#: "auto"`` solves small single-thread models with the ``dense``
#: strategy, so no sweep result cached under version 1 is served for it.
STORE_SCHEMA_VERSION = 2

#: RunConfig fields that control cache behavior rather than the
#: computation itself; excluded from the key document.
_CACHE_CONTROL_FIELDS = ("cache", "cache_dir")


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to canonical JSON (sorted keys, compact, no NaN)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_key(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON serialization of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def array_digest(*arrays: Any, extra: Optional[Mapping[str, Any]] = None) -> str:
    """SHA-256 hex digest of numpy arrays (dtype + shape + raw bytes).

    Used to reduce bulky numeric inputs (frequency grids, sample
    matrices) to a fixed-size token before they enter the key document.
    ``extra`` folds scalar context (parameter type, reference impedance)
    into the same digest.
    """
    hasher = hashlib.sha256()
    for array in arrays:
        arr = np.ascontiguousarray(np.asarray(array))
        hasher.update(str(arr.dtype).encode("utf-8"))
        hasher.update(str(arr.shape).encode("utf-8"))
        hasher.update(arr.tobytes())
    if extra:
        hasher.update(canonical_json({str(k): v for k, v in extra.items()}).encode())
    return hasher.hexdigest()


def file_digest(path: Union[str, Path], *, chunk_size: int = 1 << 20) -> str:
    """SHA-256 hex digest of a file's raw bytes (e.g. a Touchstone file)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(chunk_size):
            hasher.update(chunk)
    return hasher.hexdigest()


def result_key(
    *,
    stage: str,
    input_digest: str,
    config: Optional[Any] = None,
    params: Optional[Mapping[str, Any]] = None,
    schema: int = STORE_SCHEMA_VERSION,
) -> str:
    """Build the cache key for one (input, config, stage) computation.

    Parameters
    ----------
    stage:
        Stage name (``"fit"``, ``"check"``, ``"enforce"``, ``"hinf"``,
        ``"solve"``, ``"simulate"``, ``"service-job"``, ...).  Stages
        whose outcome is independent of the solver config (fitting, the
        transient ``simulate`` stage) pass ``config=None`` and carry
        everything that matters in ``params`` — e.g. the stimulus and
        termination ``to_dict()`` payloads.
    input_digest:
        Digest of the stage input (:func:`content_key` of a model dict,
        :func:`array_digest` of sample arrays, :func:`file_digest` of
        Touchstone bytes).
    config:
        The :class:`~repro.core.config.RunConfig` in effect (its
        ``to_dict()`` minus the cache control fields enters the key), or
        ``None`` for config-independent entries.
    params:
        Stage-specific parameters (must already be JSON-serializable).
    """
    config_doc = None
    if config is not None:
        config_doc = {
            k: v
            for k, v in config.to_dict().items()
            if k not in _CACHE_CONTROL_FIELDS
        }
    return content_key(
        {
            "schema": int(schema),
            "stage": str(stage),
            "input": str(input_digest),
            "config": config_doc,
            "params": dict(params) if params else {},
        }
    )
