"""Stage codecs: result object <-> stored ``to_dict()`` payload.

One registry maps each cacheable pipeline stage to the richest
``to_dict()`` form (so nothing is lost across the cache boundary) and
the matching ``from_dict`` reconstructor.  The invariant the property
tests pin down: for every stage,
``encode(decode(encode(result))) == encode(result)`` and the decoded
object's plain ``to_dict()`` equals the fresh result's plain
``to_dict()`` — a cache hit is indistinguishable from a recomputation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.core.results import SolveResult
from repro.passivity.characterization import PassivityReport
from repro.passivity.enforcement import EnforcementResult
from repro.passivity.hinf import HinfResult
from repro.timedomain.engine import SimulationResult
from repro.vectfit.vector_fitting import FitResult

__all__ = ["STAGES", "encode_result", "decode_result"]

#: stage name -> (encoder, decoder).  Encoders embed the full provenance
#: (solve records, final models) so decoding restores a complete object.
STAGES: Dict[str, Tuple[Callable[[Any], dict], Callable[[dict], Any]]] = {
    "fit": (
        lambda result: result.to_dict(include_model=True),
        FitResult.from_dict,
    ),
    "check": (
        lambda result: result.to_dict(include_solve=True),
        PassivityReport.from_dict,
    ),
    "enforce": (
        lambda result: result.to_dict(include_model=True, include_solve=True),
        EnforcementResult.from_dict,
    ),
    "hinf": (
        lambda result: result.to_dict(),
        HinfResult.from_dict,
    ),
    "solve": (
        lambda result: result.to_dict(include_shifts=True),
        SolveResult.from_dict,
    ),
    # Waveform arrays are deliberately NOT stored: cacheable simulate
    # runs are the compact (keep_waveforms=False) ones, so the stored
    # witness payload is a few hundred bytes regardless of step count.
    "simulate": (
        lambda result: result.to_dict(),
        SimulationResult.from_dict,
    ),
}


def encode_result(stage: str, result: Any) -> dict:
    """Serialize ``result`` to the payload stored for ``stage``."""
    try:
        encoder, _decoder = STAGES[stage]
    except KeyError:
        raise ValueError(
            f"unknown cacheable stage {stage!r}; known: {sorted(STAGES)}"
        ) from None
    return encoder(result)


def decode_result(stage: str, payload: dict) -> Any:
    """Rebuild the result object a ``stage`` payload describes."""
    try:
        _encoder, decoder = STAGES[stage]
    except KeyError:
        raise ValueError(
            f"unknown cacheable stage {stage!r}; known: {sorted(STAGES)}"
        ) from None
    return decoder(payload)
