"""Failure-injection and degenerate-input tests.

A production library must fail loudly and informatively on bad inputs and
survive degenerate-but-legal ones.  These tests poke every layer with the
pathological cases DESIGN.md calls out: unstable poles, singular direct
terms, empty/degenerate bands, trivial models, and corrupted data.
"""

import numpy as np
import pytest

from repro.core.options import SolverOptions
from repro.core.solver import solve
from repro.macromodel.rational import PoleResidueModel
from repro.passivity.characterization import characterize_passivity
from repro.passivity.enforcement import enforce_passivity
from repro.synth import random_macromodel
from repro.vectfit.vector_fitting import vector_fit


def tiny_model(pole=-1.0, residue=0.3, d=0.1):
    return PoleResidueModel(
        np.array([pole], dtype=complex),
        np.array([[[residue]]], dtype=complex),
        np.array([[d]]),
    )


class TestDegenerateModels:
    def test_single_pole_single_port(self):
        """The smallest possible model sweeps cleanly."""
        result = solve(tiny_model())
        assert result.coverage_gaps() == []

    def test_single_pole_with_crossing(self):
        """|H(0)| = d + r/|p| > 1: crossings must exist and be found."""
        model = tiny_model(residue=1.5)
        result = solve(model)
        assert result.num_crossings >= 1
        for w in result.omegas:
            h = model.transfer(1j * w)
            assert abs(abs(h[0, 0]) - 1.0) < 1e-6

    def test_marginally_stable_pole_rejected(self):
        model = PoleResidueModel(
            np.array([2j, -2j]),
            np.array([[[0.1 + 0j]], [[0.1 - 0j]]]),
            np.zeros((1, 1)),
        )
        with pytest.raises(ValueError, match="stable"):
            solve(model)

    def test_sigma_d_equal_one_rejected(self):
        model = tiny_model(d=1.0)
        with pytest.raises(ValueError, match="asymptotic"):
            solve(model)

    def test_sigma_d_above_one_rejected_with_hint(self):
        model = tiny_model(d=1.3)
        with pytest.raises(ValueError, match="asymptotic"):
            characterize_passivity(model)

    def test_enforcement_clips_bad_d_and_proceeds(self):
        model = tiny_model(d=1.3, residue=0.05)
        result = enforce_passivity(model)
        assert np.linalg.svd(result.model.d, compute_uv=False).max() < 1.0

    def test_pure_real_pole_model(self):
        """No complex pairs at all (RC-like network)."""
        model = PoleResidueModel(
            np.array([-1.0, -2.0, -5.0], dtype=complex),
            0.2 * np.ones((3, 1, 1), dtype=complex),
            np.array([[0.05]]),
        )
        result = solve(model)
        assert result.coverage_gaps() == []

    def test_zero_residue_model_is_passive(self):
        model = PoleResidueModel(
            np.array([-1.0 + 0j]),
            np.zeros((1, 1, 1), dtype=complex),
            np.array([[0.2]]),
        )
        report = characterize_passivity(model)
        assert report.passive


class TestDegenerateBands:
    def test_explicit_narrow_band(self):
        model = random_macromodel(8, 2, seed=201, sigma_target=0.9)
        result = solve(model, omega_min=1.0, omega_max=1.001)
        assert result.band == (1.0, 1.001)
        assert result.coverage_gaps() == []

    def test_band_away_from_dc(self):
        model = random_macromodel(8, 2, seed=202, sigma_target=1.08)
        full = solve(model)
        if full.num_crossings == 0:
            pytest.skip("model has no crossings")
        w = full.omegas[0]
        window = solve(model, omega_min=max(0.0, w - 0.5), omega_max=w + 0.5)
        assert any(abs(x - w) < 1e-5 for x in window.omegas)

    def test_inverted_band_rejected(self):
        model = random_macromodel(8, 2, seed=203, sigma_target=0.9)
        with pytest.raises(ValueError, match="empty band"):
            solve(model, omega_min=2.0, omega_max=1.0)


class TestCorruptedFittingData:
    def test_nan_samples_rejected(self):
        freqs = np.linspace(0.1, 10.0, 50)
        samples = np.ones((50, 1, 1), dtype=complex)
        samples[7] = np.nan
        with pytest.raises(ValueError):
            vector_fit(freqs, samples, num_poles=4)

    def test_unsorted_frequencies_rejected(self):
        freqs = np.array([1.0, 0.5, 2.0])
        samples = np.ones((3, 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="increasing"):
            vector_fit(freqs, samples, num_poles=1)

    def test_fit_of_constant_data(self):
        """Pure direct-term data: residues should be ~0."""
        freqs = np.linspace(0.1, 10.0, 60)
        samples = np.full((60, 2, 2), 0.3 + 0j)
        samples[:, 0, 1] = samples[:, 1, 0] = 0.0
        fit = vector_fit(freqs, samples, num_poles=2)
        assert fit.rms_error < 1e-8
        assert np.max(np.abs(fit.model.residues)) < 1e-6


class TestSolverRobustness:
    def test_shift_landing_on_eigenvalue(self):
        """Force a band edge exactly onto a crossing frequency."""
        model = random_macromodel(8, 2, seed=204, sigma_target=1.06)
        full = solve(model)
        if full.num_crossings == 0:
            pytest.skip("model has no crossings")
        w = float(full.omegas[0])
        # omega_max exactly at the crossing: edge shift sits on it.
        result = solve(model, omega_max=w)
        assert any(abs(x - w) < 1e-5 for x in result.omegas)

    def test_tight_options_still_correct(self):
        model = random_macromodel(8, 2, seed=205, sigma_target=1.06)
        tight = SolverOptions(krylov_dim=24, num_wanted=2, max_restarts=40)
        loose = solve(model)
        constrained = solve(model, options=tight)
        assert constrained.num_crossings == loose.num_crossings

    def test_large_kappa(self):
        model = random_macromodel(8, 2, seed=206, sigma_target=1.05)
        result = solve(
            model, num_threads=2, strategy="queue",
            options=SolverOptions(kappa=6),
        )
        assert result.coverage_gaps() == []
