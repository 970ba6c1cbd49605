"""Unit tests for the public solve API."""

import numpy as np
import pytest

from repro.core import registry
from repro.core.solver import solve
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.realization import pole_residue_to_simo
from repro.synth import random_macromodel


@pytest.fixture(scope="module")
def model():
    return random_macromodel(10, 3, seed=41, sigma_target=1.07)


@pytest.fixture(scope="module")
def truth(model):
    return imaginary_eigenvalues_dense(pole_residue_to_simo(model))


class TestStrategies:
    def test_auto_serial_uses_bisection(self, model, monkeypatch):
        # At or above the dense crossover, auto on one thread runs the
        # classical bisection sweep; lower the crossover to this model's
        # order so the small fixture takes that path.
        monkeypatch.setattr(registry, "DENSE_MAX_ORDER", model.order)
        result = solve(model, num_threads=1)
        assert result.strategy == "bisection"

    def test_auto_serial_small_model_uses_dense(self, model):
        result = solve(model, num_threads=1)
        assert result.strategy == "dense"

    def test_auto_parallel_uses_queue(self, model):
        result = solve(model, num_threads=2)
        assert result.strategy == "queue"

    def test_queue_single_thread(self, model):
        result = solve(model, num_threads=1, strategy="queue")
        assert result.strategy == "queue"
        assert result.num_threads == 1

    def test_static(self, model, truth):
        result = solve(model, num_threads=2, strategy="static")
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_bisection_multithread_rejected(self, model):
        with pytest.raises(ValueError, match="sequential"):
            solve(model, num_threads=4, strategy="bisection")

    def test_unknown_strategy_rejected(self, model):
        with pytest.raises(ValueError, match="unknown strategy"):
            solve(model, strategy="bogus")

    @pytest.mark.parametrize("strategy,threads", [
        ("bisection", 1),
        ("queue", 1),
        ("queue", 3),
        ("static", 3),
    ])
    def test_all_strategies_agree_with_dense(self, model, truth, strategy, threads):
        result = solve(model, num_threads=threads, strategy=strategy)
        assert result.num_crossings == truth.size
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)


class TestInputs:
    def test_simo_input(self, model, truth):
        simo = pole_residue_to_simo(model)
        result = solve(simo)
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            solve(np.eye(4))

    def test_crossings_match_unit_singular_values(self, model):
        simo = pole_residue_to_simo(model)
        result = solve(model, num_threads=2)
        for w in result.omegas:
            sv = np.linalg.svd(simo.transfer(1j * w), compute_uv=False)
            assert np.min(np.abs(sv - 1.0)) < 1e-5
