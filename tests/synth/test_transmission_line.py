"""Unit tests for the transmission-line workload generator."""

import numpy as np
import pytest

from repro.macromodel.analysis import resonances
from repro.synth.transmission_line import transmission_line_model


class TestStructure:
    def test_order(self):
        model = transmission_line_model(10, 3, seed=1, sigma_target=None)
        assert model.num_poles == 20
        assert model.num_ports == 3

    def test_stable_and_real(self):
        model = transmission_line_model(12, 2, seed=2, sigma_target=None)
        assert model.is_stable()
        assert model.is_real_model()

    def test_resonance_comb_spacing(self):
        delay = 4.0
        model = transmission_line_model(
            15, 2, seed=3, delay=delay, jitter=0.0, sigma_target=None
        )
        freqs = np.array([r.frequency for r in resonances(model)])
        spacing = np.diff(np.sort(freqs))
        np.testing.assert_allclose(spacing, np.pi / delay, rtol=1e-9)

    def test_jitter_perturbs_comb(self):
        a = transmission_line_model(10, 2, seed=4, jitter=0.0, sigma_target=None)
        b = transmission_line_model(10, 2, seed=4, jitter=0.05, sigma_target=None)
        fa = sorted(r.frequency for r in resonances(a))
        fb = sorted(r.frequency for r in resonances(b))
        assert not np.allclose(fa, fb)

    def test_reproducible(self):
        a = transmission_line_model(8, 2, seed=5)
        b = transmission_line_model(8, 2, seed=5)
        np.testing.assert_array_equal(a.residues, b.residues)

    def test_loss_grows_with_frequency(self):
        model = transmission_line_model(
            20, 2, seed=6, jitter=0.0, sigma_target=None
        )
        infos = resonances(model)
        rel_loss = [r.damping / r.frequency for r in infos]
        assert rel_loss[-1] > rel_loss[0]


class TestSolverInteraction:
    def test_characterization_finds_comb_violations(self):
        """A near-threshold comb produces several distinct narrow bands —
        the even-coverage stress case for the dynamic scheduler."""
        from repro.passivity import characterize_passivity

        model = transmission_line_model(16, 3, seed=7, sigma_target=1.08)
        report = characterize_passivity(model, num_threads=3)
        assert not report.passive
        assert len(report.bands) >= 2
        # Bands are narrow relative to the comb span.
        span = report.crossings.max() - report.crossings.min()
        for band in report.bands:
            assert band.width < 0.2 * span

    def test_matches_dense_truth(self):
        from repro.core.solver import solve
        from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
        from repro.macromodel import pole_residue_to_simo

        model = transmission_line_model(8, 2, seed=8, sigma_target=1.04)
        simo = pole_residue_to_simo(model)
        truth = imaginary_eigenvalues_dense(simo)
        result = solve(simo, num_threads=2)
        assert result.num_crossings == truth.size
        if truth.size:
            np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            transmission_line_model(0, 2)
        with pytest.raises(ValueError):
            transmission_line_model(4, 2, delay=-1.0)
