"""Integration tests: the full macromodeling flow across subsystems.

These exercise the pipeline the paper's introduction describes: tabulated
scattering data -> rational fitting (Vector Fitting) -> structured
realization -> Hamiltonian passivity characterization -> perturbation
enforcement -> re-verification, plus the file-format layer.
"""

import numpy as np
import pytest

from repro import pole_residue_to_simo, read_touchstone, solve, write_touchstone
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.passivity.characterization import characterize_passivity
from repro.passivity.enforcement import enforce_passivity
from repro.passivity.metrics import grid_passivity_margin
from repro.synth import random_macromodel
from repro.vectfit.vector_fitting import vector_fit


@pytest.fixture(scope="module")
def ground_truth():
    """A mildly non-passive 'device' serving as the measurement source."""
    return random_macromodel(12, 3, seed=91, sigma_target=1.04)


@pytest.fixture(scope="module")
def tabulated(ground_truth):
    freqs = np.linspace(0.01, 16.0, 300)
    return freqs, ground_truth.frequency_response(freqs)


class TestFitCharacterizeEnforce:
    def test_full_flow(self, ground_truth, tabulated):
        freqs, samples = tabulated
        # 1. Identify a rational macromodel from the tabulated data.
        fit = vector_fit(freqs, samples, num_poles=ground_truth.num_poles)
        assert fit.rms_error < 1e-8

        # 2. Characterize passivity via the Hamiltonian eigensolver.
        report = characterize_passivity(fit.model, num_threads=2)
        assert not report.passive  # the device violates by construction

        # 3. Enforce.
        enforced = enforce_passivity(fit.model, num_threads=2)
        assert enforced.passive

        # 4. Independent verification: dense Hamiltonian + dense grid.
        simo = pole_residue_to_simo(enforced.model)
        assert imaginary_eigenvalues_dense(simo).size == 0
        grid = np.linspace(0.0, 24.0, 2000)
        assert grid_passivity_margin(enforced.model, grid) > 0.0

        # 5. The enforced model still fits the data well away from the
        # violation bands (accuracy preservation).
        fitted = enforced.model.frequency_response(freqs)
        rel_err = np.linalg.norm(fitted - samples) / np.linalg.norm(samples)
        assert rel_err < 0.05

    def test_fit_then_hamiltonian_matches_source(self, ground_truth, tabulated):
        """Crossings of the fitted model match the source model's."""
        freqs, samples = tabulated
        fit = vector_fit(freqs, samples, num_poles=ground_truth.num_poles)
        src = solve(ground_truth, num_threads=2)
        fitted = solve(fit.model, num_threads=2)
        assert src.num_crossings == fitted.num_crossings
        np.testing.assert_allclose(
            np.sort(src.omegas), np.sort(fitted.omegas), rtol=1e-4, atol=1e-6
        )


class TestTouchstoneFlow:
    def test_roundtrip_through_file(self, ground_truth, tmp_path):
        freqs_rad = np.linspace(0.01, 16.0, 200)
        samples = ground_truth.frequency_response(freqs_rad)
        # Angular rad/s -> Hz for the file format.
        path = write_touchstone(
            tmp_path / "device.s3p", freqs_rad / (2 * np.pi), samples
        )
        data = read_touchstone(path)
        fit = vector_fit(data.freqs_rad, data.matrices, num_poles=12)
        assert fit.rms_error < 1e-7
        report = characterize_passivity(fit.model)
        assert not report.passive


class TestSolverConsistency:
    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_all_strategies_and_dense_agree(self, seed):
        model = random_macromodel(10, 3, seed=seed, sigma_target=1.07)
        simo = pole_residue_to_simo(model)
        truth = imaginary_eigenvalues_dense(simo)
        for strategy, threads in [("bisection", 1), ("queue", 2), ("static", 2)]:
            result = solve(simo, num_threads=threads, strategy=strategy)
            assert result.num_crossings == truth.size, (strategy, threads)
            if truth.size:
                np.testing.assert_allclose(
                    np.sort(result.omegas), truth, atol=1e-5
                )

    def test_immittance_representation_end_to_end(self):
        model = random_macromodel(8, 2, seed=104, sigma_target=None)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        simo = pole_residue_to_simo(shifted)
        truth = imaginary_eigenvalues_dense(simo, representation="immittance")
        result = solve(simo, num_threads=2, representation="immittance")
        assert result.num_crossings == truth.size
        if truth.size:
            np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)
