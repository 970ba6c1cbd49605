"""Dense full Hamiltonian eigensolution — the O(n^3) baseline of Sec. III.

The paper dismisses this route for large models ("a standard full
eigensolution scales as the third power of the problem size") but it remains
the ground truth for validating the fast solver on small and medium sizes,
and the baseline for the complexity-ablation benchmark.  Below the measured
crossover order (:data:`repro.core.registry.DENSE_MAX_ORDER`)
:func:`full_hamiltonian_spectrum` also backs the solver itself:
``strategy="auto"`` picks the ``dense`` strategy of :mod:`repro.core.dense`
there, which classifies the spectrum like a sweep does.  :func:`imaginary_eigenvalues_dense`
stays the independent oracle the tests compare against.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.linalg

from repro.hamiltonian.dense import dense_hamiltonian
from repro.macromodel.simo import SimoRealization
from repro.macromodel.statespace import StateSpace

__all__ = [
    "full_hamiltonian_spectrum",
    "select_imaginary",
    "imaginary_eigenvalues_dense",
]

ModelLike = Union[StateSpace, SimoRealization]


def full_hamiltonian_spectrum(
    model: ModelLike, representation: str = "scattering"
) -> np.ndarray:
    """All ``2n`` eigenvalues of the dense Hamiltonian (O(n^3))."""
    m = dense_hamiltonian(model, representation)
    if m.shape[0] == 0:
        return np.empty(0, dtype=complex)
    return scipy.linalg.eigvals(m)


def select_imaginary(
    eigenvalues: np.ndarray, *, scale: float = 1.0, rtol: float = 1e-8
) -> np.ndarray:
    """Filter (numerically) purely imaginary eigenvalues.

    An eigenvalue ``lam`` is accepted when ``|Re lam| <= rtol * max(scale,
    |lam|)``.  For a real Hamiltonian the imaginary eigenvalues come in
    ``+/- j w`` pairs; this function returns the **non-negative** imaginary
    parts ``w``, sorted ascending, one entry per pair (the ``w = 0`` case
    appears once).

    Parameters
    ----------
    eigenvalues:
        Arbitrary complex eigenvalue array.
    scale:
        Problem scale (e.g. an estimate of ``||M||``) guarding the test for
        eigenvalues near the origin.
    rtol:
        Relative tolerance on the real part.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    if lam.size == 0:
        return np.empty(0, dtype=float)
    tol = rtol * np.maximum(float(scale), np.abs(lam))
    mask = np.abs(lam.real) <= tol
    omegas = lam[mask].imag
    nonneg = np.sort(omegas[omegas >= 0.0])
    # Collapse near-duplicates produced by the +/- pairing of w ~ 0 entries.
    if nonneg.size >= 2:
        keep = np.ones(nonneg.size, dtype=bool)
        gap_tol = rtol * max(float(scale), float(nonneg[-1]))
        for i in range(1, nonneg.size):
            if nonneg[i] - nonneg[i - 1] <= gap_tol and nonneg[i] <= gap_tol:
                keep[i] = False
        nonneg = nonneg[keep]
    return nonneg


def imaginary_eigenvalues_dense(
    model: ModelLike,
    representation: str = "scattering",
    *,
    rtol: float = 1e-8,
) -> np.ndarray:
    """Ground-truth crossing frequencies via the dense eigensolver.

    Returns the sorted non-negative imaginary parts ``w`` of the purely
    imaginary Hamiltonian eigenvalues — the set the paper calls ``Omega``
    restricted to the upper half axis.
    """
    m = dense_hamiltonian(model, representation)
    if m.shape[0] == 0:
        return np.empty(0, dtype=float)
    lam = scipy.linalg.eigvals(m)
    scale = float(np.linalg.norm(m, ord=np.inf))
    return select_imaginary(lam, scale=max(scale, 1.0), rtol=rtol)
