"""Full algebraic passivity characterization.

Pipeline (Sec. II of the paper): run the Hamiltonian eigensolver to get
the crossing frequencies ``Omega``; the crossings partition the frequency
axis into segments on which the number of singular values above the unit
threshold is constant; sampling one interior point per segment classifies
it, yielding the violation bands.  The asymptotic segment (beyond the
largest crossing) is always passive thanks to ``sigma(D) < 1`` (eq. 4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import RunConfig, require_scattering
from repro.core.results import SolveResult
from repro.core.solver import solve
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import pole_residue_to_simo
from repro.macromodel.simo import SimoRealization
from repro.obs.metrics import get_registry as _obs_metrics
from repro.passivity.metrics import refine_peak, sigma_max_many
from repro.utils.serialization import float_array_from_jsonable, to_jsonable

__all__ = [
    "ViolationBand",
    "PassivityReport",
    "violation_bands_from_crossings",
    "characterize_passivity",
]

ModelLike = Union[PoleResidueModel, SimoRealization]


@dataclass(frozen=True)
class ViolationBand:
    """A frequency band where at least one singular value exceeds 1.

    Attributes
    ----------
    lo, hi:
        Band edges (crossing frequencies; ``lo`` may be 0.0 when the
        violation starts at DC).
    peak_freq:
        Frequency of the largest singular value inside the band.
    peak_sigma:
        The singular-value maximum attained at ``peak_freq``.
    """

    lo: float
    hi: float
    peak_freq: float
    peak_sigma: float

    @property
    def width(self) -> float:
        """Band width in rad/s."""
        return self.hi - self.lo

    @property
    def severity(self) -> float:
        """How far the peak exceeds the threshold (``peak_sigma - 1``)."""
        return self.peak_sigma - 1.0

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of this violation band."""
        return {
            "lo": float(self.lo),
            "hi": float(self.hi),
            "peak_freq": float(self.peak_freq),
            "peak_sigma": float(self.peak_sigma),
            "width": float(self.width),
            "severity": float(self.severity),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ViolationBand":
        """Rebuild a band from a :meth:`to_dict` payload (derived fields
        like ``width``/``severity`` are recomputed, not read back)."""
        return cls(
            lo=float(payload["lo"]),
            hi=float(payload["hi"]),
            peak_freq=float(payload["peak_freq"]),
            peak_sigma=float(payload["peak_sigma"]),
        )


@dataclass(frozen=True)
class PassivityReport:
    """Outcome of the full characterization.

    Attributes
    ----------
    passive:
        True when no violation band exists *within the swept band*
        (Omega empty, or crossings of even-order touching only —
        resolved by segment sampling).  For a full-axis sweep (the
        default) this is the paper's passivity certificate; when the
        sweep was band-limited (``band_limited``), it only speaks for
        the swept interval.
    crossings:
        Sorted non-negative crossing frequencies (the set Omega).
    bands:
        The violation bands (empty when passive).
    asymptotic_margin:
        ``1 - sigma_max(D)`` — must be positive for the test to apply.
    solve:
        The underlying eigensolver result (work counters, shifts, ...),
        or None when crossings were supplied externally.
    band_limited:
        True when the characterization swept a user-restricted band
        (``omega_min > 0`` or an explicit ``omega_max``), so ``passive``
        is an in-band statement, not a whole-axis certificate.
    """

    passive: bool
    crossings: np.ndarray
    bands: Tuple[ViolationBand, ...]
    asymptotic_margin: float
    solve: Optional[SolveResult]
    band_limited: bool = False

    @property
    def worst_violation(self) -> float:
        """Largest ``sigma_max - 1`` over all bands (0.0 when passive)."""
        if not self.bands:
            return 0.0
        return max(band.severity for band in self.bands)

    def to_dict(self, *, include_solve: bool = False) -> dict:
        """JSON-serializable dictionary of the characterization outcome.

        Parameters
        ----------
        include_solve:
            Also embed the full eigensolver provenance (``solve``); the
            aggregate work counters are always present when available.
        """
        payload = {
            "passive": bool(self.passive),
            "band_limited": bool(self.band_limited),
            "crossings": to_jsonable(self.crossings),
            "bands": [band.to_dict() for band in self.bands],
            "asymptotic_margin": float(self.asymptotic_margin),
            "worst_violation": float(self.worst_violation),
        }
        if self.solve is not None:
            payload["work"] = {str(k): int(v) for k, v in self.solve.work.items()}
            if include_solve:
                payload["solve"] = self.solve.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PassivityReport":
        """Rebuild a report from a :meth:`to_dict` payload.

        Payloads written with ``include_solve=True`` rebuild the full
        eigensolver provenance; without it, ``solve`` is ``None`` (the
        same state as a report built from externally supplied crossings).
        The result store persists the ``include_solve=True`` form so a
        cache hit is indistinguishable from a fresh characterization.
        """
        solve = payload.get("solve")
        return cls(
            passive=bool(payload["passive"]),
            crossings=float_array_from_jsonable(payload["crossings"]),
            bands=tuple(
                ViolationBand.from_dict(band) for band in payload.get("bands", [])
            ),
            asymptotic_margin=float(payload["asymptotic_margin"]),
            solve=SolveResult.from_dict(solve) if solve is not None else None,
            band_limited=bool(payload.get("band_limited", False)),
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        scope = ""
        if self.band_limited and self.solve is not None:
            scope = (
                f" in band [{self.solve.band[0]:.4g},"
                f" {self.solve.band[1]:.4g}] only"
            )
        elif self.band_limited:
            scope = " in the swept band only"
        if self.passive:
            return (
                f"PASSIVE{scope} (no unit-threshold crossings;"
                f" asymptotic margin {self.asymptotic_margin:.4f})"
            )
        spans = ", ".join(
            f"[{b.lo:.4g}, {b.hi:.4g}] peak {b.peak_sigma:.4f}" for b in self.bands
        )
        return f"NOT passive{scope}: {len(self.bands)} violation band(s): {spans}"


def _as_simo(model: ModelLike) -> SimoRealization:
    if isinstance(model, PoleResidueModel):
        return pole_residue_to_simo(model)
    if isinstance(model, SimoRealization):
        return model
    raise TypeError(
        f"expected PoleResidueModel or SimoRealization, got {type(model).__name__}"
    )


def violation_bands_from_crossings(
    model: ModelLike,
    crossings: Sequence[float],
    *,
    omega_min: float = 0.0,
    omega_max: Optional[float] = None,
    threshold: float = 1.0,
) -> List[ViolationBand]:
    """Classify the segments between crossings and extract violation bands.

    Parameters
    ----------
    model:
        The macromodel (used for singular-value sampling).
    crossings:
        Sorted non-negative crossing frequencies.
    omega_min:
        Lower edge of the swept band; segments below it were not swept
        and are never classified (0.0 for the standard full sweep).
    omega_max:
        Upper edge for the last finite segment; defaults to
        ``1.5 * max(crossings)`` (the asymptotic tail is passive by eq. 4
        and never classified as violating).
    threshold:
        Singular-value threshold (1.0 for scattering passivity).

    Returns
    -------
    list of ViolationBand
        Bands where the sampled midpoint exceeds the threshold, each with
        its refined interior peak.
    """
    simo = _as_simo(model)
    crossings = np.sort(np.asarray(list(crossings), dtype=float))
    if crossings.size == 0:
        return []
    omega_min = float(omega_min)
    edges = [omega_min] if crossings[0] > omega_min else []
    edges.extend(crossings.tolist())
    top = omega_max if omega_max is not None else 1.5 * float(crossings[-1])
    if top > edges[-1]:
        edges.append(top)

    bands: List[ViolationBand] = []
    # One batched sigma sweep classifies every segment midpoint at once.
    segments = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    mid_sigmas = sigma_max_many(simo, [0.5 * (lo + hi) for lo, hi in segments])
    current_lo: Optional[float] = None
    for (lo, hi), sigma_mid in zip(segments, mid_sigmas):
        if sigma_mid > threshold:
            if current_lo is None:
                current_lo = lo
        else:
            if current_lo is not None:
                bands.append(_make_band(simo, current_lo, lo))
                current_lo = None
    if current_lo is not None:
        bands.append(_make_band(simo, current_lo, edges[-1]))
    return bands


def _make_band(simo: SimoRealization, lo: float, hi: float) -> ViolationBand:
    peak_freq, peak_sigma = refine_peak(simo, lo, hi)
    return ViolationBand(
        lo=float(lo), hi=float(hi), peak_freq=peak_freq, peak_sigma=peak_sigma
    )


def characterize_passivity(
    model: ModelLike, config: Optional[RunConfig] = None, **overrides
) -> PassivityReport:
    """Run the complete Hamiltonian-based passivity characterization.

    Parameters
    ----------
    model:
        Pole/residue model or structured realization (scattering
        representation).
    config:
        The eigensolver's :class:`~repro.core.config.RunConfig`; defaults
        apply when omitted.  This function is the scattering-domain
        (``sigma = 1``) test: a config requesting the immittance
        representation is rejected — use
        :func:`~repro.passivity.immittance.characterize_immittance_passivity`
        (the :class:`~repro.api.Macromodel` facade dispatches on the
        representation automatically).
    **overrides:
        Per-call :class:`~repro.core.config.RunConfig` field overrides,
        as in :func:`~repro.core.solver.solve`, e.g. ``num_threads=4``.

    Returns
    -------
    PassivityReport

    Examples
    --------
    >>> from repro.synth import random_macromodel
    >>> model = random_macromodel(8, 2, seed=3, sigma_target=0.9)
    >>> characterize_passivity(model).passive
    True
    """
    config = (config if config is not None else RunConfig()).merged(**overrides)
    require_scattering(
        config,
        "characterize_passivity",
        hint="use characterize_immittance_passivity for immittance models",
    )
    simo = _as_simo(model)
    _obs_metrics().count("eigensweep.runs")
    started = time.perf_counter()
    try:
        result = solve(simo, config)
    finally:
        _obs_metrics().observe("eigensweep.solve", time.perf_counter() - started)
    margin = 1.0 - float(np.linalg.norm(simo.d, 2)) if simo.d.size else 1.0
    bands = violation_bands_from_crossings(
        simo,
        result.omegas,
        omega_min=result.band[0],
        omega_max=result.band[1],
    )
    return PassivityReport(
        passive=len(bands) == 0,
        crossings=result.omegas,
        bands=tuple(bands),
        asymptotic_margin=margin,
        solve=result,
        band_limited=config.is_band_limited,
    )
