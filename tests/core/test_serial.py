"""Unit tests for the one-slot sweeps (bisection of Fig. 2 and queue)."""

import numpy as np
import pytest

from repro.core.solver import solve
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.realization import pole_residue_to_simo
from repro.synth import random_macromodel


@pytest.fixture(scope="module")
def violating_simo():
    return pole_residue_to_simo(random_macromodel(10, 3, seed=21, sigma_target=1.08))


@pytest.fixture(scope="module")
def passive_simo():
    return pole_residue_to_simo(random_macromodel(10, 3, seed=22, sigma_target=0.9))


class TestBisection:
    def test_matches_dense(self, violating_simo):
        truth = imaginary_eigenvalues_dense(violating_simo)
        result = solve(violating_simo, strategy="bisection")
        assert result.num_crossings == truth.size
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_band_covered(self, violating_simo):
        result = solve(violating_simo, strategy="bisection")
        assert result.coverage_gaps() == []

    def test_passive_model(self, passive_simo):
        result = solve(passive_simo, strategy="bisection")
        assert result.is_passive_candidate

    def test_strategy_recorded(self, passive_simo):
        result = solve(passive_simo, strategy="bisection")
        assert result.strategy == "bisection"
        assert result.num_threads == 1

    def test_work_counters_populated(self, violating_simo):
        result = solve(violating_simo, strategy="bisection")
        assert result.work["operator_applies"] > 0
        assert result.work["shifts_processed"] == result.shifts_processed


class TestQueue:
    def test_matches_dense(self, violating_simo):
        truth = imaginary_eigenvalues_dense(violating_simo)
        result = solve(violating_simo, strategy="queue")
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_band_covered(self, violating_simo):
        result = solve(violating_simo, strategy="queue")
        assert result.coverage_gaps() == []


class TestValidation:
    def test_unknown_strategy(self, passive_simo):
        with pytest.raises(ValueError, match="strategy"):
            solve(passive_simo, strategy="magic")

    def test_unstable_model_rejected(self):
        from repro.macromodel.rational import PoleResidueModel

        model = PoleResidueModel(
            np.array([0.5 + 0j]), 0.1 * np.ones((1, 1, 1)), np.zeros((1, 1))
        )
        with pytest.raises(ValueError, match="stable"):
            solve(model)

    def test_explicit_band(self, violating_simo):
        truth = imaginary_eigenvalues_dense(violating_simo)
        top = float(truth.max()) * 1.2 if truth.size else 5.0
        result = solve(violating_simo, omega_max=top)
        assert result.band == (0.0, top)

    def test_empty_band_rejected(self, passive_simo):
        with pytest.raises(ValueError, match="empty band"):
            solve(passive_simo, omega_min=5.0, omega_max=4.0)

    def test_pole_residue_input_accepted(self):
        model = random_macromodel(8, 2, seed=23, sigma_target=0.9)
        result = solve(model)
        assert result.is_passive_candidate
