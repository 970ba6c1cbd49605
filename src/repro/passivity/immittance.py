"""Passivity characterization for immittance (Y/Z/hybrid) representations.

Sec. II of the paper notes that "the same derivations can be performed for
the impedance, admittance, and hybrid cases".  For an immittance transfer
matrix, passivity (positive-realness) requires the Hermitian part
``G(j w) = H(j w) + H(j w)^H`` to be positive semidefinite at every
frequency; the purely imaginary eigenvalues of the immittance Hamiltonian
mark exactly the frequencies where an eigenvalue of ``G`` crosses zero.
This module turns those crossings into violation bands, mirroring the
scattering pipeline of :mod:`repro.passivity.characterization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import RunConfig
from repro.core.results import SolveResult
from repro.core.solver import solve
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import pole_residue_to_simo
from repro.macromodel.simo import SimoRealization
from repro.utils.serialization import float_array_from_jsonable, to_jsonable

__all__ = [
    "ImmittanceViolationBand",
    "ImmittancePassivityReport",
    "characterize_immittance_passivity",
    "hermitian_min_eig",
    "hermitian_min_eig_many",
]

ModelLike = Union[PoleResidueModel, SimoRealization]


def hermitian_min_eig(model: ModelLike, omega: float) -> float:
    """Smallest eigenvalue of ``H(j w) + H(j w)^H`` at one frequency."""
    h = model.transfer(1j * float(omega))
    return float(np.linalg.eigvalsh(h + h.conj().T).min())


def hermitian_min_eig_many(model: ModelLike, omegas) -> np.ndarray:
    """Smallest eigenvalue of ``H(j w) + H(j w)^H`` at each frequency.

    One batched ``transfer_many`` evaluation plus one stacked
    ``numpy.linalg.eigvalsh`` over the ``(K, p, p)`` Hermitian parts —
    the multi-point companion of :func:`hermitian_min_eig` (frequencies
    need not be sorted).
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if omegas.size == 0:
        return np.empty(0, dtype=float)
    h = model.transfer_many(1j * omegas)
    hermitian = h + np.conj(np.swapaxes(h, -1, -2))
    return np.linalg.eigvalsh(hermitian)[:, 0]


@dataclass(frozen=True)
class ImmittanceViolationBand:
    """A band where the Hermitian part of ``H(j w)`` is indefinite.

    Attributes
    ----------
    lo, hi:
        Band edges (zero-crossing frequencies of ``eig(H + H^H)``).
    trough_freq:
        Frequency of the most negative eigenvalue inside the band.
    min_eig:
        The (negative) eigenvalue minimum attained there.
    """

    lo: float
    hi: float
    trough_freq: float
    min_eig: float

    @property
    def severity(self) -> float:
        """Violation depth: ``-min_eig`` (positive for true violations)."""
        return -self.min_eig

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of this violation band."""
        return {
            "lo": float(self.lo),
            "hi": float(self.hi),
            "trough_freq": float(self.trough_freq),
            "min_eig": float(self.min_eig),
            "severity": float(self.severity),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ImmittanceViolationBand":
        """Rebuild a band from a :meth:`to_dict` payload."""
        return cls(
            lo=float(payload["lo"]),
            hi=float(payload["hi"]),
            trough_freq=float(payload["trough_freq"]),
            min_eig=float(payload["min_eig"]),
        )


@dataclass(frozen=True)
class ImmittancePassivityReport:
    """Outcome of the immittance characterization.

    Attributes
    ----------
    passive:
        True when ``H + H^H`` stays positive semidefinite *on the swept
        band* — a whole-axis certificate only for the default full sweep
        (see ``band_limited``).
    crossings:
        Zero-crossing frequencies (the immittance Omega set).
    bands:
        Violation bands (empty when passive).
    solve:
        The underlying eigensolver result.
    band_limited:
        True when the sweep was user-restricted (``omega_min > 0`` or an
        explicit ``omega_max``), so ``passive`` is an in-band statement.
    """

    passive: bool
    crossings: np.ndarray
    bands: Tuple[ImmittanceViolationBand, ...]
    solve: Optional[SolveResult]
    band_limited: bool = False

    @property
    def worst_violation(self) -> float:
        """Deepest negative excursion (0.0 when passive)."""
        if not self.bands:
            return 0.0
        return max(band.severity for band in self.bands)

    def to_dict(self, *, include_solve: bool = False) -> dict:
        """JSON-serializable dictionary of the characterization outcome."""
        payload = {
            "passive": bool(self.passive),
            "band_limited": bool(self.band_limited),
            "crossings": to_jsonable(self.crossings),
            "bands": [band.to_dict() for band in self.bands],
            "worst_violation": float(self.worst_violation),
        }
        if self.solve is not None:
            payload["work"] = {str(k): int(v) for k, v in self.solve.work.items()}
            if include_solve:
                payload["solve"] = self.solve.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ImmittancePassivityReport":
        """Rebuild a report from a :meth:`to_dict` payload (the inverse
        used by the result store; see
        :meth:`repro.passivity.characterization.PassivityReport.from_dict`)."""
        solve = payload.get("solve")
        return cls(
            passive=bool(payload["passive"]),
            crossings=float_array_from_jsonable(payload["crossings"]),
            bands=tuple(
                ImmittanceViolationBand.from_dict(band)
                for band in payload.get("bands", [])
            ),
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
            return f"PASSIVE{scope} (H + H^H positive semidefinite on the band)"
        spans = ", ".join(
            f"[{b.lo:.4g}, {b.hi:.4g}] min eig {b.min_eig:.4g}" for b in self.bands
        )
        return f"NOT passive (immittance){scope}: {len(self.bands)} band(s): {spans}"


def _as_simo(model: ModelLike) -> SimoRealization:
    if isinstance(model, PoleResidueModel):
        return pole_residue_to_simo(model)
    if isinstance(model, SimoRealization):
        return model
    raise TypeError(
        f"expected PoleResidueModel or SimoRealization, got {type(model).__name__}"
    )


def _refine_trough(
    simo: SimoRealization, lo: float, hi: float, *, points: int = 33
) -> Tuple[float, float]:
    """Locate the minimum of ``eig_min(H + H^H)`` inside ``[lo, hi]``.

    The coarse scan is one batched eigenvalue sweep; only the golden-section
    polish evaluates points one at a time (it is inherently sequential).
    """
    grid = np.linspace(lo, hi, max(3, points))
    values = hermitian_min_eig_many(simo, grid)
    best = int(np.argmin(values))
    a = grid[max(0, best - 1)]
    b = grid[min(len(grid) - 1, best + 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = (float(v) for v in hermitian_min_eig_many(simo, [c, d]))
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = hermitian_min_eig(simo, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = hermitian_min_eig(simo, d)
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
    w_best = c if fc < fd else d
    f_best = min(fc, fd)
    if values[best] < f_best:
        return float(grid[best]), float(values[best])
    return float(w_best), float(f_best)


def characterize_immittance_passivity(
    model: ModelLike, config: Optional[RunConfig] = None, **overrides
) -> ImmittancePassivityReport:
    """Full algebraic positive-realness characterization.

    Parameters
    ----------
    model:
        Immittance macromodel; ``D + D^T`` must be positive definite (the
        asymptotic condition playing the role of eq. 4).
    config:
        The eigensolver's :class:`~repro.core.config.RunConfig`; defaults
        apply when omitted.  The representation is forced to
        ``"immittance"``.
    **overrides:
        Per-call :class:`~repro.core.config.RunConfig` field overrides,
        as in :func:`~repro.core.solver.solve`, e.g. ``num_threads=4``.

    Returns
    -------
    ImmittancePassivityReport
    """
    config = (config if config is not None else RunConfig()).merged(**overrides)
    config = config.merged(representation="immittance")
    simo = _as_simo(model)
    result = solve(simo, config)
    crossings = result.omegas
    bands: List[ImmittanceViolationBand] = []
    if crossings.size:
        # Segments below the swept band's lower edge were not swept and
        # are never classified (mirrors violation_bands_from_crossings).
        omega_lo = result.band[0]
        edges = ([omega_lo] if crossings[0] > omega_lo else []) + list(crossings)
        top = result.band[1]
        if top > edges[-1]:
            edges.append(top)
        # Classify all segments with one batched midpoint sweep.
        segments = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
        mid_eigs = hermitian_min_eig_many(
            simo, [0.5 * (lo + hi) for lo, hi in segments]
        )
        current_lo: Optional[float] = None
        for (lo, hi), mid_eig in zip(segments, mid_eigs):
            if mid_eig < 0.0:
                if current_lo is None:
                    current_lo = lo
            else:
                if current_lo is not None:
                    trough_w, trough_v = _refine_trough(simo, current_lo, lo)
                    bands.append(
                        ImmittanceViolationBand(current_lo, lo, trough_w, trough_v)
                    )
                    current_lo = None
        if current_lo is not None:
            trough_w, trough_v = _refine_trough(simo, current_lo, edges[-1])
            bands.append(
                ImmittanceViolationBand(current_lo, edges[-1], trough_w, trough_v)
            )
    return ImmittancePassivityReport(
        passive=len(bands) == 0,
        crossings=crossings,
        bands=tuple(bands),
        solve=result,
        band_limited=config.is_band_limited,
    )
