"""The ``dense`` strategy: one O(n^3) eigensolution of the Hamiltonian.

Sec. III of the paper rejects the full eigensolution because its cost
grows with the cube of the order; the multi-shift sweep exists for large
models.  Below the crossover order
:data:`~repro.core.registry.DENSE_MAX_ORDER` the dense route is the
faster one on one core, so ``strategy="auto"`` picks it there (see
:func:`~repro.core.registry.resolve_strategy`).

The driver builds the ``2n x 2n`` Hamiltonian of eq. (5) (or its
immittance form), takes all of its eigenvalues with LAPACK, and returns
an ordinary :class:`~repro.core.results.SolveResult` whose crossings are
classified exactly as a sweep's are.  Its provenance is one certified
disk: centred mid-band, with a radius enclosing the band and every
eigenvalue.  The disk lists the eigenvalues with ``Im >= 0``; the others
are their conjugates, since the Hamiltonian is real.  A full eigensolve
lists every eigenvalue, so the certificate holds, and coverage checks,
serialization and the store need no special case.  The work dict counts
that one shift and no Arnoldi steps or operator applies.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.drivers import (
    ModelInput,
    collect_result,
    prepare_operator,
    resolve_band,
)
from repro.core.options import SolverOptions
from repro.core.results import ShiftRecord, SingleShiftResult, SolveResult
from repro.hamiltonian.spectral import full_hamiltonian_spectrum

__all__ = ["dense"]


def dense(
    model: ModelInput,
    *,
    num_threads: int,
    representation: str,
    omega_min: float,
    omega_max: Optional[float],
    options: SolverOptions,
) -> SolveResult:
    """Find all imaginary Hamiltonian eigenvalues with a dense eigensolve.

    Takes the arguments of :func:`~repro.core.sweep.sweep` but
    ``strategy``.  The input is validated as for a sweep, so zero-order,
    unstable and ``sigma(D) >= 1`` models raise the same errors.  With
    ``omega_max=None`` the upper band edge is ``omega_margin *
    max|lambda|``, the value Sec. IV.A's Arnoldi run estimates.
    """
    simo, op, _ = prepare_operator(model, representation)
    started = time.perf_counter()
    spectrum = full_hamiltonian_spectrum(simo, representation)
    band = resolve_band(op, omega_min, omega_max, options, spectrum=spectrum)
    center = 0.5 * (band[0] + band[1])
    radius = max(
        0.5 * (band[1] - band[0]), float(np.max(np.abs(spectrum - 1j * center)))
    )
    elapsed = time.perf_counter() - started
    record = ShiftRecord(
        index=0,
        center=center,
        interval=band,
        result=SingleShiftResult(
            shift=1j * center,
            radius=radius,
            eigenvalues=spectrum[spectrum.imag >= 0.0],
            restarts=0,
            converged=True,
            applies=0,
        ),
        worker=0,
        elapsed=elapsed,
    )
    return collect_result(
        op,
        band,
        [record],
        options,
        elapsed,
        num_threads=num_threads,
        strategy="dense",
    )
