"""Unit tests for the thread-slot sweep (``queue`` and ``static``)."""

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.solver import solve
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.realization import pole_residue_to_simo
from repro.synth import random_macromodel


@pytest.fixture(scope="module")
def violating_simo():
    return pole_residue_to_simo(random_macromodel(12, 3, seed=31, sigma_target=1.1))


class TestCorrectness:
    @pytest.mark.parametrize("num_threads", [2, 3, 5])
    def test_matches_dense(self, violating_simo, num_threads):
        truth = imaginary_eigenvalues_dense(violating_simo)
        result = solve(violating_simo, num_threads=num_threads)
        assert result.num_crossings == truth.size
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_matches_serial(self, violating_simo):
        serial = solve(violating_simo, strategy="bisection")
        parallel = solve(violating_simo, num_threads=4)
        np.testing.assert_allclose(
            np.sort(parallel.omegas), np.sort(serial.omegas), atol=1e-6
        )

    def test_band_covered(self, violating_simo):
        result = solve(violating_simo, num_threads=3)
        assert result.coverage_gaps() == []

    def test_passive_model(self):
        simo = pole_residue_to_simo(
            random_macromodel(10, 2, seed=32, sigma_target=0.9)
        )
        result = solve(simo, num_threads=3)
        assert result.is_passive_candidate


class TestProvenance:
    def test_thread_count_recorded(self, violating_simo):
        result = solve(violating_simo, num_threads=3)
        assert result.num_threads == 3
        assert result.strategy == "queue"

    def test_workers_distributed(self, violating_simo):
        """With several threads and enough shifts, more than one worker
        should actually process work (not guaranteed, but overwhelmingly
        likely for this model; the test accepts a single worker only when
        the shift count is tiny)."""
        result = solve(violating_simo, num_threads=4)
        workers = {rec.worker for rec in result.shifts}
        assert len(workers) >= (2 if result.shifts_processed >= 6 else 1)

    def test_static_strategy_recorded(self, violating_simo):
        result = solve(violating_simo, num_threads=2, strategy="static")
        assert result.strategy == "static"

    def test_static_does_at_least_as_many_shifts(self, violating_simo):
        opts = SolverOptions(seed=5)
        dyn = solve(violating_simo, num_threads=4, options=opts)
        stat = solve(violating_simo, num_threads=4, options=opts, strategy="static")
        assert stat.shifts_processed >= dyn.shifts_processed
        assert stat.work["shifts_eliminated"] == 0

    def test_per_shift_applies_recorded(self, violating_simo):
        result = solve(violating_simo, num_threads=2)
        assert all(rec.result.applies > 0 for rec in result.shifts)


class TestValidation:
    def test_zero_threads_rejected(self, violating_simo):
        with pytest.raises(ValueError):
            solve(violating_simo, num_threads=0)

    def test_worker_errors_propagate(self, violating_simo, monkeypatch):
        from repro.core import sweep

        def boom(*args, **kwargs):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(sweep, "run_segment", boom)
        with pytest.raises(RuntimeError, match="injected"):
            solve(violating_simo, num_threads=3)
