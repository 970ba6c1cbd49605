"""H-infinity norm computation via Hamiltonian bisection (ref. [7]).

The paper's passivity test descends from Boyd, Balakrishnan & Kabamba's
bisection method for the H-infinity norm: ``||H||_inf < gamma`` holds iff
the Hamiltonian matrix built from the model scaled by ``1/gamma`` has no
purely imaginary eigenvalues.  With the fast multi-shift eigensolver as
the oracle, the bisection needs only a handful of sweeps.

Scaling trick: dividing all residues and the direct term by ``gamma``
turns the "sigma crosses gamma" test into the library's native
"sigma crosses 1" test, so no new Hamiltonian variant is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import RunConfig, require_full_axis, require_scattering
from repro.core.solver import solve
from repro.macromodel.realization import as_simo
from repro.macromodel.simo import SimoColumn, SimoRealization
from repro.passivity.characterization import ModelLike
from repro.utils.validation import ensure_positive_float

__all__ = ["HinfResult", "hinf_norm"]


@dataclass(frozen=True)
class HinfResult:
    """Outcome of the H-infinity bisection.

    Attributes
    ----------
    norm:
        The computed norm estimate (midpoint of the final bracket).
    lower, upper:
        Final certified bracket: ``||H||_inf`` lies in ``[lower, upper]``.
    peak_freq:
        A frequency attaining (approximately) the norm, from the last
        failing gamma's crossing information; NaN when the norm is
        attained only at DC/infinity.
    bisections:
        Number of Hamiltonian sweeps performed.
    """

    norm: float
    lower: float
    upper: float
    peak_freq: float
    bisections: int

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the bisection outcome."""
        peak = float(self.peak_freq)
        return {
            "norm": float(self.norm),
            "lower": float(self.lower),
            "upper": float(self.upper),
            "peak_freq": peak if np.isfinite(peak) else None,
            "bisections": int(self.bisections),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HinfResult":
        """Rebuild a bisection outcome from a :meth:`to_dict` payload
        (``peak_freq: null`` restores the NaN sentinel)."""
        peak = payload.get("peak_freq")
        return cls(
            norm=float(payload["norm"]),
            lower=float(payload["lower"]),
            upper=float(payload["upper"]),
            peak_freq=float("nan") if peak is None else float(peak),
            bisections=int(payload["bisections"]),
        )


def _scaled_simo(simo: SimoRealization, gamma: float) -> SimoRealization:
    """Return the realization of ``H / gamma``."""
    columns = [
        SimoColumn(
            col.real_poles,
            col.real_residues / gamma,
            col.pair_poles,
            col.pair_residues / gamma,
        )
        for col in simo.columns
    ]
    return SimoRealization(columns, simo.d / gamma)


def hinf_norm(
    model: ModelLike,
    config: Optional[RunConfig] = None,
    *,
    rtol: float = 1e-6,
    max_bisections: int = 60,
    grid_points: int = 128,
    **overrides,
) -> HinfResult:
    """Compute ``||H||_inf`` by gamma-bisection with the Hamiltonian oracle.

    Parameters
    ----------
    model:
        Strictly stable macromodel.
    config:
        The :class:`~repro.core.config.RunConfig` of the embedded sweeps;
        defaults apply when omitted.  The ``strategy`` is honored
        (``"auto"`` resolves per thread count and model order as usual);
        explicit ``omega_min`` / ``omega_max`` are rejected — the norm is
        a supremum over the whole axis.
    rtol:
        Relative width of the final bracket.
    max_bisections:
        Safety cap on oracle calls.
    grid_points:
        Size of the coarse grid used for the initial lower bound.
    **overrides:
        Per-call :class:`~repro.core.config.RunConfig` field overrides,
        as in :func:`~repro.core.solver.solve`, e.g. ``num_threads=4``.

    Returns
    -------
    HinfResult

    Notes
    -----
    The lower bound starts from a coarse grid peak (a valid lower bound:
    the norm is a supremum).  The upper bound starts from the grid peak
    inflated stepwise until the oracle certifies no crossings.  Each
    bisection step sharpens the bracket by the classical dichotomy:
    crossings exist at level ``gamma`` iff ``||H||_inf > gamma``.
    """
    ensure_positive_float(rtol, "rtol")
    config = (config if config is not None else RunConfig()).merged(**overrides)
    require_scattering(config, "the H-infinity norm")
    require_full_axis(config, "the H-infinity norm (a supremum)")
    simo = as_simo(model)
    if not simo.is_stable():
        raise ValueError("H-infinity norm via Hamiltonian test requires a stable model")

    # Coarse grid lower bound (always valid) including resonance points.
    resonant = simo.poles()
    resonant = resonant[resonant.imag > 0]
    top = max(simo.spectral_radius_bound(), 1e-6)
    grid = np.unique(
        np.concatenate(
            [np.linspace(0.0, 1.3 * top, grid_points), resonant.imag]
        )
    )
    sigmas = np.linalg.svd(simo.frequency_response(grid), compute_uv=False)[:, 0]
    lower = float(sigmas.max())
    d_norm = float(np.linalg.norm(simo.d, 2)) if simo.d.size else 0.0
    lower = max(lower, d_norm, 1e-300)
    peak_freq = float(grid[int(np.argmax(sigmas))])

    def has_crossings(gamma: float):
        scaled = _scaled_simo(simo, gamma)
        result = solve(scaled, config)
        return result.num_crossings > 0, result

    bisections = 0
    # Establish an upper bound: inflate until the oracle certifies.
    upper = lower * 1.05 + 1e-12
    while bisections < max_bisections:
        bisections += 1
        crossing, _ = has_crossings(upper)
        if not crossing:
            break
        lower = upper
        upper *= 2.0
    else:
        raise RuntimeError("could not establish an H-infinity upper bound")

    # Bisection proper.
    while upper - lower > rtol * upper and bisections < max_bisections:
        bisections += 1
        gamma = float(np.sqrt(lower * upper))
        crossing, result = has_crossings(gamma)
        if crossing:
            lower = gamma
            if result.omegas.size:
                peak_freq = float(result.omegas[int(result.omegas.size // 2)])
        else:
            upper = gamma

    return HinfResult(
        norm=0.5 * (lower + upper),
        lower=float(lower),
        upper=float(upper),
        peak_freq=peak_freq,
        bisections=bisections,
    )
