"""Full algebraic passivity characterization.

Pipeline (Sec. II of the paper): run the Hamiltonian eigensolver to get
the crossing frequencies ``Omega``; the crossings partition the frequency
axis into segments on which the passivity verdict is constant; sampling
one interior point per segment classifies it, yielding the violation
bands.  The asymptotic segment (beyond the largest crossing) is always
passive thanks to the strict asymptotic condition (eq. 4).

Sec. II notes that "the same derivations can be performed for the
impedance, admittance, and hybrid cases", and one pipeline serves both
representations that ``config.representation`` names.  The scattering
test flags ``sigma_max(H(j w)) > 1``; the immittance (positive-realness)
test flags ``-lambda_min(H(j w) + H(j w)^H) > 0``.  Everything that
differs between the two lives in one table, :data:`_TESTS`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import RunConfig, ensure_representation
from repro.core.results import SolveResult
from repro.core.solver import solve
from repro.hamiltonian.dense import asymptotic_singular_margin
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import as_simo
from repro.macromodel.simo import SimoRealization
from repro.obs.metrics import get_registry as _obs_metrics
from repro.passivity.metrics import hermitian_min_eig, refine_peak, sigma_max
from repro.utils.serialization import float_array_from_jsonable, to_jsonable

__all__ = [
    "ViolationBand",
    "PassivityReport",
    "violation_bands_from_crossings",
    "characterize_passivity",
]

ModelLike = Union[PoleResidueModel, SimoRealization]


class _Test(NamedTuple):
    """What the scattering and the immittance test do not share."""

    #: The violation metric of ``H(j w)`` (one matrix or a stack of them);
    #: passivity fails exactly where it exceeds ``threshold``.
    metric: Callable[[np.ndarray], np.ndarray]
    threshold: float
    #: Maps ``D`` to the report's asymptotic margin (None: reports carry none).
    margin: Optional[Callable[[np.ndarray], float]]
    #: Payload names of a band's lo, hi, peak frequency, peak value,
    #: width and severity (None: not serialized), and the sign from the
    #: metric's peak to the value stored under the fourth name.
    band_keys: Tuple[Optional[str], ...]
    sign: float
    #: Summary wording: the passive verdict, the violating verdict, one band.
    passive: str
    violating: str
    band: str


_TESTS = {
    "scattering": _Test(
        metric=sigma_max,
        threshold=1.0,
        margin=asymptotic_singular_margin,
        band_keys=("lo", "hi", "peak_freq", "peak_sigma", "width", "severity"),
        sign=1.0,
        passive="PASSIVE{scope} (no unit-threshold crossings;"
        " asymptotic margin {margin:.4f})",
        violating="NOT passive{scope}: {count} violation band(s): {bands}",
        band="[{lo:.4g}, {hi:.4g}] peak {peak:.4f}",
    ),
    "immittance": _Test(
        metric=lambda h: -hermitian_min_eig(h),
        threshold=0.0,
        margin=None,
        band_keys=("lo", "hi", "trough_freq", "min_eig", None, "severity"),
        sign=-1.0,
        passive="PASSIVE{scope} (H + H^H positive semidefinite on the band)",
        violating="NOT passive (immittance){scope}: {count} band(s): {bands}",
        band="[{lo:.4g}, {hi:.4g}] min eig {peak:.4g}",
    ),
}


@dataclass(frozen=True)
class ViolationBand:
    """A frequency band where the passivity test's metric exceeds its threshold.

    Attributes
    ----------
    lo, hi:
        Band edges (crossing frequencies; ``lo`` may be 0.0 when the
        violation starts at DC).
    peak_freq:
        Frequency of the worst violation inside the band.
    peak:
        The metric's maximum, attained at ``peak_freq``: ``sigma_max``
        for the scattering test, ``-lambda_min(H + H^H)`` for the
        immittance test.
    representation:
        The test that found the band.
    """

    lo: float
    hi: float
    peak_freq: float
    peak: float
    representation: str = "scattering"

    @property
    def width(self) -> float:
        """Band width in rad/s."""
        return self.hi - self.lo

    @property
    def severity(self) -> float:
        """How far the peak exceeds the threshold (``sigma_max - 1`` or
        ``-lambda_min``)."""
        return self.peak - _TESTS[self.representation].threshold

    def to_dict(self) -> dict:
        """JSON-serializable dictionary, under the representation's names."""
        test = _TESTS[self.representation]
        values = (
            self.lo,
            self.hi,
            self.peak_freq,
            test.sign * self.peak,
            self.width,
            self.severity,
        )
        return {key: float(v) for key, v in zip(test.band_keys, values) if key}

    @classmethod
    def from_dict(
        cls, payload: dict, representation: str = "scattering"
    ) -> "ViolationBand":
        """Rebuild a band from a :meth:`to_dict` payload (derived fields
        like ``width``/``severity`` are recomputed, not read back)."""
        test = _TESTS[representation]
        lo, hi, freq, peak = (float(payload[key]) for key in test.band_keys[:4])
        return cls(lo, hi, freq, test.sign * peak, representation)


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
        ``1 - sigma_max(D)`` for the scattering test — must be positive
        for the test to apply; None for the immittance test.
    solve:
        The underlying eigensolver result (work counters, shifts, ...),
        or None when crossings were supplied externally.
    band_limited:
        True when the characterization swept a user-restricted band
        (``omega_min > 0`` or an explicit ``omega_max``), so ``passive``
        is an in-band statement, not a whole-axis certificate.
    representation:
        The test that ran: ``"scattering"`` or ``"immittance"``.
    """

    passive: bool
    crossings: np.ndarray
    bands: Tuple[ViolationBand, ...]
    asymptotic_margin: Optional[float]
    solve: Optional[SolveResult]
    band_limited: bool = False
    representation: str = "scattering"

    @property
    def worst_violation(self) -> float:
        """Largest band severity (0.0 when passive)."""
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
            "representation": self.representation,
            "passive": bool(self.passive),
            "band_limited": bool(self.band_limited),
            "crossings": to_jsonable(self.crossings),
            "bands": [band.to_dict() for band in self.bands],
        }
        if self.asymptotic_margin is not None:
            payload["asymptotic_margin"] = float(self.asymptotic_margin)
        payload["worst_violation"] = float(self.worst_violation)
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
        A payload without a ``representation`` key is a scattering report.
        """
        representation = payload.get("representation", "scattering")
        solve = payload.get("solve")
        return cls(
            passive=bool(payload["passive"]),
            crossings=float_array_from_jsonable(payload["crossings"]),
            bands=tuple(
                ViolationBand.from_dict(band, representation)
                for band in payload.get("bands", [])
            ),
            asymptotic_margin=(
                float(payload["asymptotic_margin"])
                if _TESTS[representation].margin
                else None
            ),
            solve=SolveResult.from_dict(solve) if solve is not None else None,
            band_limited=bool(payload.get("band_limited", False)),
            representation=representation,
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        test = _TESTS[self.representation]
        scope = ""
        if self.band_limited and self.solve is not None:
            scope = (
                f" in band [{self.solve.band[0]:.4g},"
                f" {self.solve.band[1]:.4g}] only"
            )
        elif self.band_limited:
            scope = " in the swept band only"
        if self.passive:
            return test.passive.format(scope=scope, margin=self.asymptotic_margin)
        bands = ", ".join(
            test.band.format(lo=b.lo, hi=b.hi, peak=test.sign * b.peak)
            for b in self.bands
        )
        return test.violating.format(scope=scope, count=len(self.bands), bands=bands)


def violation_bands_from_crossings(
    model: ModelLike,
    crossings: Sequence[float],
    *,
    omega_min: float = 0.0,
    omega_max: Optional[float] = None,
    representation: str = "scattering",
) -> List[ViolationBand]:
    """Classify the segments between crossings and extract violation bands.

    Parameters
    ----------
    model:
        The macromodel (used for metric sampling).
    crossings:
        Sorted non-negative crossing frequencies.
    omega_min:
        Lower edge of the swept band; segments below it were not swept
        and are never classified (0.0 for the standard full sweep).
    omega_max:
        Upper edge for the last finite segment; defaults to
        ``1.5 * max(crossings)`` (the asymptotic tail is passive by eq. 4
        and never classified as violating).
    representation:
        The test whose metric classifies the segments (``"scattering"``
        or ``"immittance"``).

    Returns
    -------
    list of ViolationBand
        Bands where the sampled midpoint violates, each with its refined
        interior peak.
    """
    simo = as_simo(model)
    test = _TESTS[ensure_representation(representation)]
    crossings = np.sort(np.asarray(list(crossings), dtype=float))
    if crossings.size == 0:
        return []
    omega_min = float(omega_min)
    edges = [omega_min] if crossings[0] > omega_min else []
    edges.extend(crossings.tolist())
    top = omega_max if omega_max is not None else 1.5 * float(crossings[-1])
    if top > edges[-1]:
        edges.append(top)

    segments = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    if not segments:
        return []
    # One batched metric sweep classifies every segment midpoint at once.
    mids = test.metric(
        simo.frequency_response([0.5 * (lo + hi) for lo, hi in segments])
    )
    bands: List[ViolationBand] = []
    current_lo: Optional[float] = None
    for (lo, hi), value in zip(segments, mids):
        if value > test.threshold:
            if current_lo is None:
                current_lo = lo
        else:
            if current_lo is not None:
                bands.append(_make_band(simo, current_lo, lo, representation))
                current_lo = None
    if current_lo is not None:
        bands.append(_make_band(simo, current_lo, edges[-1], representation))
    return bands


def _make_band(
    simo: SimoRealization, lo: float, hi: float, representation: str
) -> ViolationBand:
    peak_freq, peak = refine_peak(
        simo, lo, hi, metric=_TESTS[representation].metric
    )
    return ViolationBand(float(lo), float(hi), peak_freq, peak, representation)


def characterize_passivity(
    model: ModelLike, config: Optional[RunConfig] = None, **overrides
) -> PassivityReport:
    """Run the complete Hamiltonian-based passivity characterization.

    Parameters
    ----------
    model:
        Pole/residue model or structured realization.
    config:
        The eigensolver's :class:`~repro.core.config.RunConfig`; defaults
        apply when omitted.  Its ``representation`` picks the test: the
        scattering (``sigma = 1``) test by default, or the immittance
        (positive-realness) test, which needs ``D + D^T`` positive
        definite (the asymptotic condition playing the role of eq. 4).
    **overrides:
        Per-call :class:`~repro.core.config.RunConfig` field overrides,
        as in :func:`~repro.core.solver.solve`, e.g. ``num_threads=4`` or
        ``representation="immittance"``.

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
    simo = as_simo(model)
    _obs_metrics().count("eigensweep.runs")
    started = time.perf_counter()
    try:
        result = solve(simo, config)
    finally:
        _obs_metrics().observe("eigensweep.solve", time.perf_counter() - started)
    bands = violation_bands_from_crossings(
        simo,
        result.omegas,
        omega_min=result.band[0],
        omega_max=result.band[1],
        representation=config.representation,
    )
    margin = _TESTS[config.representation].margin
    return PassivityReport(
        passive=len(bands) == 0,
        crossings=result.omegas,
        bands=tuple(bands),
        asymptotic_margin=margin(simo.d) if margin else None,
        solve=result,
        band_limited=config.is_band_limited,
        representation=config.representation,
    )
