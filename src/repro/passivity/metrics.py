"""Sampling-based passivity metrics.

These are the slow-but-simple checks the Hamiltonian method replaces:
evaluate singular values on a frequency grid and compare against the unit
threshold.  They remain useful as cross-validation in tests and as the
peak-refinement primitive inside violation bands.

The two violation metrics, :func:`sigma_max` (scattering) and
:func:`hermitian_min_eig` (immittance), act on one response matrix or on
a ``(K, p, p)`` stack of them.  All grid sweeps here are *batched*: one
multi-shift ``transfer_many`` evaluation followed by one stacked
decomposition of the response array — O(K n p + K p^3) with no per-point
Python loop.
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

import numpy as np

from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.simo import SimoRealization
from repro.utils.validation import ensure_sorted_frequencies

__all__ = [
    "sigma_max",
    "hermitian_min_eig",
    "sigma_max_many",
    "singular_values_on_grid",
    "peak_singular_value_on_grid",
    "grid_passivity_margin",
    "refine_peak",
]

ModelLike = Union[PoleResidueModel, SimoRealization]


def sigma_max(h: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in ``h`` (shape ``(..., p, p)``)."""
    return np.linalg.svd(h, compute_uv=False)[..., 0]


def hermitian_min_eig(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``h + h^H`` for each matrix in ``h``."""
    return np.linalg.eigvalsh(h + np.conj(np.swapaxes(h, -1, -2)))[..., 0]


def sigma_max_many(model: ModelLike, omegas) -> np.ndarray:
    """Largest singular value of ``H(j w)`` at each frequency (any order).

    Unlike :func:`singular_values_on_grid` the frequencies need not be
    sorted — this is the workhorse for adaptive refinement, where candidate
    points arrive in generational waves rather than as a monotone grid.
    Returns a float array matching ``omegas``'s length.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if omegas.size == 0:
        return np.empty(0, dtype=float)
    return sigma_max(model.transfer_many(1j * omegas))


def singular_values_on_grid(model: ModelLike, freqs_rad) -> np.ndarray:
    """Singular values of ``H(j w)`` on a grid; shape ``(K, p)`` descending."""
    freqs_rad = ensure_sorted_frequencies(freqs_rad, "freqs_rad")
    responses = model.frequency_response(freqs_rad)
    return np.linalg.svd(responses, compute_uv=False)


def peak_singular_value_on_grid(model: ModelLike, freqs_rad) -> Tuple[float, float]:
    """Largest singular value over the grid and the frequency attaining it."""
    sv = singular_values_on_grid(model, freqs_rad)
    freqs_rad = np.asarray(freqs_rad, dtype=float)
    idx = int(np.argmax(sv[:, 0]))
    return float(sv[idx, 0]), float(freqs_rad[idx])


def grid_passivity_margin(model: ModelLike, freqs_rad) -> float:
    """``1 - max sigma`` over the grid; negative means sampled violation."""
    peak, _ = peak_singular_value_on_grid(model, freqs_rad)
    return 1.0 - peak


def refine_peak(
    model: ModelLike,
    lo: float,
    hi: float,
    *,
    metric: Callable[[np.ndarray], np.ndarray] = sigma_max,
    coarse_points: int = 33,
    iterations: int = 40,
) -> Tuple[float, float]:
    """Locate the maximum of ``metric(H(j w))`` inside ``[lo, hi]``.

    ``metric`` maps one response matrix, or a stack of them, to the
    quantity to maximize: :func:`sigma_max` by default, the negated
    :func:`hermitian_min_eig` for the immittance test.  Batched coarse
    grid scan (one stacked decomposition) followed by golden-section
    refinement around the best sample.  Returns ``(omega_peak,
    metric_peak)``.
    """
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")

    def at(w: float) -> float:
        return float(metric(model.transfer(1j * w)))

    grid = np.linspace(lo, hi, max(3, coarse_points))
    values = metric(model.transfer_many(1j * grid))
    best = int(np.argmax(values))
    a = grid[max(0, best - 1)]
    b = grid[min(len(grid) - 1, best + 1)]
    if b <= a:
        return float(grid[best]), float(values[best])

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = (float(v) for v in metric(model.transfer_many(1j * np.array([c, d]))))
    for _ in range(iterations):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = at(d)
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
    w_peak = c if fc > fd else d
    s_peak = max(fc, fd)
    # The coarse best may still dominate (plateaus/multiple local maxima).
    if values[best] > s_peak:
        return float(grid[best]), float(values[best])
    return float(w_peak), float(s_peak)
