"""Concurrency stress tests for the thread-slot sweep.

The OpenBLAS/scipy thread-safety hazards found during development (see the
comments in ``repro.hamiltonian.operator``) motivate an explicit stress
suite: many repeated multi-thread sweeps, varying thread counts, on the
same and on distinct operators, asserting result stability throughout.
"""

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.solver import solve
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.realization import pole_residue_to_simo
from repro.synth import random_macromodel


@pytest.fixture(scope="module")
def simo():
    return pole_residue_to_simo(random_macromodel(10, 3, seed=301, sigma_target=1.08))


@pytest.fixture(scope="module")
def truth(simo):
    return imaginary_eigenvalues_dense(simo)


class TestRepeatedSweeps:
    def test_many_repeats_same_result(self, simo, truth):
        """20 parallel sweeps with different seeds all agree with dense."""
        for rep in range(20):
            options = SolverOptions(seed=900 + rep)
            result = solve(simo, num_threads=4, options=options)
            assert result.num_crossings == truth.size, f"repeat {rep}"
            np.testing.assert_allclose(
                np.sort(result.omegas), truth, atol=1e-5
            )

    def test_thread_count_sweep(self, simo, truth):
        for threads in (2, 3, 4, 6, 8):
            result = solve(simo, num_threads=threads)
            assert result.num_crossings == truth.size, f"T={threads}"

    def test_seeded_determinism_of_eigenvalues(self, simo):
        """Same seed => same eigenvalue set (schedule may differ)."""
        options = SolverOptions(seed=1234)
        a = solve(simo, num_threads=4, options=options)
        b = solve(simo, num_threads=4, options=options)
        np.testing.assert_allclose(
            np.sort(a.omegas), np.sort(b.omegas), atol=1e-8
        )

    def test_more_threads_than_work(self, simo, truth):
        """Thread count far above the shift count must not deadlock."""
        result = solve(simo, num_threads=16)
        assert result.num_crossings == truth.size

    def test_work_accounting_consistent(self, simo):
        """Per-shift applies sum to no more than the global counter."""
        result = solve(simo, num_threads=4)
        per_shift = sum(rec.result.applies for rec in result.shifts)
        assert per_shift <= result.work["operator_applies"]
        # The global counter additionally includes band-estimation applies.
        assert result.work["operator_applies"] <= per_shift + 200
