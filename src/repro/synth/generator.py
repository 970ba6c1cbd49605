"""Random near-passive macromodel generation.

Models are built the way rational fitting would produce them: strictly
stable pole sets (a few real poles plus resonant complex pairs spread over
a frequency band), random residue matrices, and a small direct term with
``sigma(D) < 1``.  The overall response is then rescaled so that the peak
singular value over a dense frequency grid hits a prescribed target —
slightly below 1 for passive cases, slightly above for violating cases —
which controls whether and roughly how many unit-threshold crossings (and
hence imaginary Hamiltonian eigenvalues) the model has.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.simo import SimoColumn, SimoRealization
from repro.utils.rng import as_generator
from repro.utils.validation import (
    ensure_in_range,
    ensure_positive_float,
    ensure_positive_int,
)

__all__ = [
    "random_pole_set",
    "random_macromodel",
    "random_simo_macromodel",
    "scale_to_sigma_target",
    "peak_singular_value",
]


def random_pole_set(
    num_poles: int,
    rng,
    *,
    band: Tuple[float, float] = (0.5, 10.0),
    real_fraction: float = 0.15,
    q_range: Tuple[float, float] = (5.0, 80.0),
) -> np.ndarray:
    """Draw a strictly stable, conjugate-complete pole set.

    Parameters
    ----------
    num_poles:
        Total pole count (real poles + both members of each pair).
    rng:
        ``numpy.random.Generator`` or seed-like.
    band:
        Frequency band ``(w_lo, w_hi)`` for the resonant frequencies of
        complex pairs (and the magnitude range of real poles).
    real_fraction:
        Approximate fraction of poles that are real.
    q_range:
        Quality-factor range; the damping of a pair at ``w0`` is
        ``w0 / (2 Q)``, so high Q means sharp resonances.

    Returns
    -------
    numpy.ndarray
        Complex pole array: real poles first, then ``(p, conj(p))`` pairs.
    """
    num_poles = ensure_positive_int(num_poles, "num_poles")
    rng = as_generator(rng)
    w_lo, w_hi = band
    if not 0.0 < w_lo < w_hi:
        raise ValueError(f"band must satisfy 0 < w_lo < w_hi, got {band}")
    num_real = int(round(real_fraction * num_poles))
    # Pairs need an even remainder; move one pole to the real set if not.
    if (num_poles - num_real) % 2:
        num_real += 1
    num_pairs = (num_poles - num_real) // 2

    real_poles = -np.exp(
        rng.uniform(np.log(w_lo), np.log(w_hi), size=num_real)
    )
    w0 = np.exp(rng.uniform(np.log(w_lo), np.log(w_hi), size=num_pairs))
    q = rng.uniform(q_range[0], q_range[1], size=num_pairs)
    damping = w0 / (2.0 * q)
    pairs = -damping + 1j * w0

    poles = np.empty(num_real + 2 * num_pairs, dtype=complex)
    poles[:num_real] = real_poles
    poles[num_real::2] = pairs
    poles[num_real + 1 :: 2] = np.conj(pairs)
    return poles


def _random_residues(rng, poles: np.ndarray, p: int) -> np.ndarray:
    """Random conjugate-symmetric residue matrices, one per pole."""
    m = poles.size
    residues = np.zeros((m, p, p), dtype=complex)
    handled = np.zeros(m, dtype=bool)
    for i in range(m):
        if handled[i]:
            continue
        pole = poles[i]
        if abs(pole.imag) <= 1e-12 * max(1.0, abs(pole)):
            residues[i] = rng.standard_normal((p, p))
            handled[i] = True
            continue
        # Locate the conjugate partner.
        j = int(np.argmin(np.where(handled, np.inf, np.abs(poles - np.conj(pole)))))
        r = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        residues[i] = r
        residues[j] = np.conj(r)
        handled[i] = handled[j] = True
    # Normalize magnitude so the response scale is O(1) before retargeting.
    residues /= np.sqrt(m)
    return residues


def _random_direct_term(rng, p: int, d_norm: float) -> np.ndarray:
    """Random direct term with ``sigma_max(D) == d_norm`` exactly."""
    d = rng.standard_normal((p, p))
    norm = np.linalg.norm(d, 2)
    if norm == 0.0:
        return np.zeros((p, p))
    return d * (d_norm / norm)


def peak_singular_value(
    responses: np.ndarray,
) -> float:
    """Max singular value over a stack of transfer samples ``(K, p, p)``."""
    responses = np.asarray(responses)
    if responses.size == 0:
        return 0.0
    return float(np.linalg.svd(responses, compute_uv=False).max())


def scale_to_sigma_target(
    d: np.ndarray,
    responses: np.ndarray,
    target: float,
    *,
    iterations: int = 40,
) -> float:
    """Find a residue scale ``s`` with ``max sigma(D + s (H_k - D)) ~ target``.

    ``responses`` are grid samples of the unscaled model; scaling residues
    by ``s`` turns each sample into ``D + s Delta_k`` with
    ``Delta_k = H_k - D``.  The peak singular value is monotone
    non-decreasing in ``s`` over the relevant range, so a log-bisection
    converges quickly.

    Each step of the bisection only asks whether ``peak(s) >= target``,
    and Weyl's inequality
    ``|sigma_max(D + s Delta_k) - s sigma_max(Delta_k)| <= sigma_max(D)``
    settles most of those questions without an SVD.  The norms
    ``sigma_max(Delta_k)`` are computed once, ``M`` being their maximum, so
    ``peak(s)`` lies in ``[s M - sigma(D), s M + sigma(D)]``:

    * when both bounds lie on one side of the target, they decide the step;
    * otherwise only the samples whose upper bound
      ``s sigma_max(Delta_k) + sigma(D)`` reaches the lower bound
      ``s M - sigma(D)`` go through the SVD.  Every other sample is smaller
      than the one attaining ``M`` and cannot hold the maximum.

    Every bound carries a slack of ``1e-9 (s M + sigma(D))``, far above the
    rounding of a computed singular value, so no rounding can flip a
    decision or exclude the maximum.  The kept samples are the same
    matrices going through the same LAPACK call, so every decision, and
    hence the returned scale, is bit-identical to an SVD of every sample
    at every step.

    Returns
    -------
    float
        The scale factor to apply to all residues.
    """
    target = ensure_positive_float(target, "target")
    d = np.asarray(d, dtype=float)
    deltas = np.asarray(responses) - d[None]
    d_norm = float(np.linalg.norm(d, 2)) if d.size else 0.0
    if target <= d_norm:
        raise ValueError(
            f"sigma target ({target}) must exceed sigma(D) ({d_norm:.3f})"
        )
    norms = np.linalg.svd(deltas, compute_uv=False).max(axis=-1, initial=0.0)
    top = float(norms.max(initial=0.0))

    def reaches(s: float) -> bool:
        """Whether ``peak_singular_value(d + s * deltas) >= target``."""
        slack = 1e-9 * (s * top + d_norm)
        lower = s * top - d_norm - slack
        if lower >= target:
            return True
        if s * top + d_norm + slack < target:
            return False
        kept = s * norms + d_norm + slack >= lower
        return peak_singular_value(d[None] + s * deltas[kept]) >= target

    lo, hi = 1e-6, 1.0
    # Expand the bracket until peak(hi) >= target.
    for _ in range(60):
        if reaches(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the sigma target")
    for _ in range(iterations):
        mid = np.sqrt(lo * hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(lo * hi))


def _scaling_grid(
    poles: np.ndarray, band: Tuple[float, float], points: int
) -> np.ndarray:
    """Frequency grid for peak-singular-value scaling.

    A uniform sweep alone misses high-Q resonances (peak width ``~ w0/Q``
    can be far below the grid spacing), so the grid is the union of a
    coarse linear sweep and a cluster of samples around every resonant
    frequency: ``w0 + k * damping`` for small ``k``.
    """
    w_lo, w_hi = band
    base = np.linspace(0.0, 1.3 * w_hi, points)
    poles = np.asarray(poles, dtype=complex)
    resonant = poles[poles.imag > 0]
    clusters = []
    if resonant.size:
        w0 = resonant.imag
        damping = np.abs(resonant.real)
        for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            clusters.append(w0 + k * damping)
    grid = np.concatenate([base] + clusters) if clusters else base
    grid = np.unique(grid[grid >= 0.0])
    return grid


def random_macromodel(
    order_per_column: int,
    num_ports: int,
    *,
    seed=None,
    band: Tuple[float, float] = (0.5, 10.0),
    real_fraction: float = 0.15,
    q_range: Tuple[float, float] = (5.0, 80.0),
    d_norm: float = 0.1,
    sigma_target: Optional[float] = 1.05,
    grid_points: int = 300,
) -> PoleResidueModel:
    """Random common-pole macromodel (the Vector-Fitting-shaped case).

    Parameters
    ----------
    order_per_column:
        Number of poles ``M`` shared by all columns; the realization order
        is ``num_ports * M``.
    num_ports:
        Port count ``p``.
    seed:
        Seed-like for reproducibility.
    band, real_fraction, q_range:
        Pole-set parameters (see :func:`random_pole_set`).
    d_norm:
        Exact ``sigma_max`` of the direct term (must be < 1 and below
        ``sigma_target``).
    sigma_target:
        Peak singular value over the sampling grid after rescaling;
        ``< 1`` gives a (sampled-)passive model, ``> 1`` a violating one.
        ``None`` skips rescaling.
    grid_points:
        Sampling-grid density for the rescaling step.

    Returns
    -------
    PoleResidueModel
    """
    order_per_column = ensure_positive_int(order_per_column, "order_per_column")
    num_ports = ensure_positive_int(num_ports, "num_ports")
    ensure_in_range(d_norm, "d_norm", 0.0, 0.999)
    rng = as_generator(seed)
    poles = random_pole_set(
        order_per_column, rng, band=band, real_fraction=real_fraction, q_range=q_range
    )
    residues = _random_residues(rng, poles, num_ports)
    d = _random_direct_term(rng, num_ports, d_norm)
    model = PoleResidueModel(poles, residues, d)
    if sigma_target is not None:
        grid = _scaling_grid(poles, band, grid_points)
        responses = model.frequency_response(grid)
        s = scale_to_sigma_target(d, responses, sigma_target)
        model = PoleResidueModel(poles, residues * s, d)
    return model


def random_simo_macromodel(
    order: int,
    num_ports: int,
    *,
    seed=None,
    band: Tuple[float, float] = (0.5, 10.0),
    real_fraction: float = 0.15,
    q_range: Tuple[float, float] = (5.0, 80.0),
    d_norm: float = 0.1,
    sigma_target: Optional[float] = 1.05,
    grid_points: int = 300,
) -> SimoRealization:
    """Random structured macromodel with an *exact* total order ``n``.

    Unlike :func:`random_macromodel`, each column draws its own pole set
    (the general multi-SIMO structure of eq. 2); the per-column order is
    ``n // p`` with the remainder spread over the leading columns, so any
    ``(n, p)`` combination from Table I is realizable exactly.

    Returns
    -------
    SimoRealization
    """
    order = ensure_positive_int(order, "order")
    num_ports = ensure_positive_int(num_ports, "num_ports")
    if order < num_ports:
        raise ValueError(f"order ({order}) must be >= num_ports ({num_ports})")
    ensure_in_range(d_norm, "d_norm", 0.0, 0.999)
    rng = as_generator(seed)

    base = order // num_ports
    remainder = order - base * num_ports
    columns = []
    for k in range(num_ports):
        mk = base + (1 if k < remainder else 0)
        # A column order of 1 forces one real pole; random_pole_set handles
        # parity by moving odd leftovers to the real set.
        poles = random_pole_set(
            mk,
            rng,
            band=band,
            real_fraction=real_fraction,
            q_range=q_range,
        )
        # random_pole_set preserves the requested count exactly.
        res = _random_residues(rng, poles, num_ports)
        real_mask = np.abs(poles.imag) <= 1e-12 * np.maximum(np.abs(poles), 1.0)
        real_poles = poles[real_mask].real
        # Per-column residue *vectors*: column k of each residue matrix.
        real_residues = res[real_mask][:, :, k].real
        pair_mask_upper = (~real_mask) & (poles.imag > 0)
        pair_poles = poles[pair_mask_upper]
        pair_residues = res[pair_mask_upper][:, :, k]
        columns.append(
            SimoColumn(real_poles, real_residues, pair_poles, pair_residues)
        )
    d = _random_direct_term(rng, num_ports, d_norm)
    simo = SimoRealization(columns, d)
    if simo.order != order:
        raise AssertionError(
            f"internal error: built order {simo.order}, expected {order}"
        )

    if sigma_target is not None:
        grid = _scaling_grid(simo.poles(), band, grid_points)
        responses = simo.frequency_response(grid)
        s = scale_to_sigma_target(d, responses, sigma_target)
        scaled_columns = [
            SimoColumn(
                col.real_poles,
                s * col.real_residues,
                col.pair_poles,
                s * col.pair_residues,
            )
            for col in simo.columns
        ]
        simo = SimoRealization(scaled_columns, d)
    return simo
