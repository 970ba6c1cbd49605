"""Plumbing around the eigensolves of :mod:`repro.core.sweep` and
:mod:`repro.core.dense`.

Before the solve: normalize the model, build the instrumented operator,
and resolve the search band.  After it: deduplicate eigenvalues found by
overlapping disks, keep the purely imaginary ones in the band, and
snapshot the work counters into a :class:`~repro.core.results.SolveResult`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.options import SolverOptions
from repro.core.results import ShiftRecord, SolveResult
from repro.core.single_shift import estimate_spectral_bound
from repro.hamiltonian.operator import HamiltonianOperator
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import as_simo
from repro.macromodel.simo import SimoRealization
from repro.utils.rng import RandomStream
from repro.utils.timing import WorkCounter

__all__ = [
    "ModelInput",
    "prepare_operator",
    "resolve_band",
    "dedup_eigenvalues",
    "collect_result",
]

ModelInput = Union[PoleResidueModel, SimoRealization]


def prepare_operator(
    model: ModelInput, representation: str
) -> Tuple[SimoRealization, HamiltonianOperator, WorkCounter]:
    """Normalize the model input and build the instrumented operator."""
    simo = as_simo(model)
    if simo.order == 0:
        raise ValueError("cannot characterize a zero-order model")
    if not simo.is_stable():
        raise ValueError(
            "model must be strictly stable (all poles in the open left half"
            " plane) for the Hamiltonian passivity test"
        )
    work = WorkCounter()
    op = HamiltonianOperator(simo, representation=representation, work=work)
    return simo, op, work


def resolve_band(
    op: HamiltonianOperator,
    omega_min: float,
    omega_max: Optional[float],
    options: SolverOptions,
    stream: Optional[RandomStream] = None,
    *,
    spectrum: Optional[np.ndarray] = None,
) -> Tuple[float, float]:
    """Determine the search band, estimating the upper edge if needed.

    Per Sec. IV.A the upper bound defaults to (a margin above) the
    magnitude of the largest Hamiltonian eigenvalue, obtained with a
    shift-free Arnoldi run from ``stream``.  A dense solve passes the
    full ``spectrum`` instead, whose largest magnitude is the exact value
    that run estimates.
    """
    omega_min = float(omega_min)
    if omega_min < 0.0:
        raise ValueError(f"omega_min must be >= 0, got {omega_min}")
    if omega_max is None:
        if spectrum is None:
            estimate = estimate_spectral_bound(
                op, stream=stream, margin=options.omega_margin
            )
        else:
            estimate = options.omega_margin * float(np.max(np.abs(spectrum)))
        floor = max(1e-6, 1e-3 * op.simo.spectral_radius_bound())
        omega_max = max(estimate, floor)
    omega_max = float(omega_max)
    if omega_max <= omega_min:
        raise ValueError(
            f"empty band: omega_max ({omega_max}) <= omega_min ({omega_min})"
        )
    return omega_min, omega_max


def dedup_eigenvalues(eigenvalues: np.ndarray, tol: float) -> np.ndarray:
    """Merge duplicate eigenvalues reported by overlapping disks.

    Greedy clustering on the sorted-by-imaginary-part list; two values are
    duplicates when within ``tol`` of each other.
    """
    if eigenvalues.size == 0:
        return eigenvalues
    order = np.lexsort((eigenvalues.real, eigenvalues.imag))
    sorted_vals = eigenvalues[order]
    kept: List[complex] = []
    for lam in sorted_vals:
        if kept and abs(lam - kept[-1]) <= tol:
            continue
        # Check against all recent cluster representatives with close
        # imaginary parts (real parts may interleave after lexsort).
        duplicate = False
        for known in reversed(kept):
            if lam.imag - known.imag > tol:
                break
            if abs(lam - known) <= tol:
                duplicate = True
                break
        if not duplicate:
            kept.append(complex(lam))
    return np.asarray(kept, dtype=complex)


def collect_result(
    op: HamiltonianOperator,
    band: Tuple[float, float],
    records: List[ShiftRecord],
    options: SolverOptions,
    elapsed: float,
    *,
    num_threads: int,
    strategy: str,
    eliminated: int = 0,
) -> SolveResult:
    """Assemble the final :class:`SolveResult` from per-shift records.

    ``eliminated`` counts the tentative shifts a completed disk covered
    (eq. 24).
    """
    work = op.work
    if work is not None:
        work.add(shifts_processed=len(records), shifts_eliminated=eliminated)
    omega_min, omega_max = band
    scale = max(1.0, op.simo.spectral_radius_bound())

    all_eigs = (
        np.concatenate([rec.result.eigenvalues for rec in records])
        if records
        else np.empty(0, dtype=complex)
    )
    tol = options.dedup_rtol * max(scale, omega_max)
    distinct = dedup_eigenvalues(all_eigs, tol)

    imag_tol = (
        options.imag_rtol * np.maximum(scale, np.abs(distinct))
        if distinct.size
        else None
    )
    if distinct.size:
        mask = np.abs(distinct.real) <= imag_tol
        omegas = distinct[mask].imag
        slack = options.imag_rtol * scale
        in_band = (omegas >= omega_min - slack) & (omegas <= omega_max + slack)
        omegas = np.sort(omegas[in_band])
        omegas = omegas[omegas >= 0.0] if omega_min == 0.0 else omegas
    else:
        omegas = np.empty(0, dtype=float)

    return SolveResult(
        omegas=omegas,
        eigenvalues=distinct,
        band=band,
        shifts=list(records),
        work=work.snapshot() if work is not None else {},
        elapsed=float(elapsed),
        num_threads=int(num_threads),
        strategy=strategy,
    )
