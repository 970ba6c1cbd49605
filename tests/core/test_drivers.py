"""Unit tests for the shared driver plumbing (repro.core.drivers)."""

import numpy as np
import pytest

from repro.core.drivers import (
    dedup_eigenvalues,
    prepare_operator,
    resolve_band,
)
from repro.core.options import SolverOptions
from repro.macromodel.realization import pole_residue_to_simo
from repro.synth import random_macromodel
from repro.utils.rng import RandomStream


class TestDedupEigenvalues:
    def test_empty(self):
        out = dedup_eigenvalues(np.empty(0, complex), 1e-6)
        assert out.size == 0

    def test_exact_duplicates_merged(self):
        eigs = np.array([1j, 1j, 2j])
        assert dedup_eigenvalues(eigs, 1e-9).size == 2

    def test_near_duplicates_merged(self):
        eigs = np.array([1j, 1j + 1e-10, 2j])
        assert dedup_eigenvalues(eigs, 1e-8).size == 2

    def test_distinct_kept(self):
        eigs = np.array([1j, 1.1j, -0.5 + 1j, 0.5 + 1j])
        assert dedup_eigenvalues(eigs, 1e-6).size == 4

    def test_interleaved_real_parts(self):
        """Duplicates with identical imag but scattered real parts merge."""
        eigs = np.array([0.3 + 1j, -0.3 + 1j, 0.3 + 1j + 1e-12])
        out = dedup_eigenvalues(eigs, 1e-9)
        assert out.size == 2

    def test_cluster_chain_not_overmerged(self):
        """A chain of points each within tol of the next but spanning more
        than tol overall keeps at least its endpoints distinct."""
        eigs = np.array([1j, 1j + 4e-7, 1j + 8e-7])
        out = dedup_eigenvalues(eigs, 5e-7)
        assert out.size >= 2


class TestPrepareOperator:
    def test_pole_residue_accepted(self, small_model):
        simo, op, work = prepare_operator(small_model, "scattering")
        assert op.order == small_model.order
        assert work is op.work

    def test_simo_accepted(self, small_simo):
        simo, op, _ = prepare_operator(small_simo, "scattering")
        assert simo is small_simo

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            prepare_operator(np.eye(2), "scattering")

    @pytest.mark.parametrize("strategy", ["auto", "bisection"])
    def test_one_wrong_type_message_across_entry_points(self, strategy):
        """solve, characterize_passivity and hinf_norm share one normalizer."""
        from repro import characterize_passivity, hinf_norm, solve

        messages = set()
        for entry in (solve, characterize_passivity, hinf_norm):
            with pytest.raises(TypeError) as info:
                entry(np.eye(2), strategy=strategy)
            messages.add(str(info.value))
        assert messages == {
            "expected PoleResidueModel or SimoRealization, got ndarray"
        }

    def test_unstable_rejected(self):
        from repro.macromodel.rational import PoleResidueModel

        bad = PoleResidueModel(
            np.array([1.0 + 0j]), 0.1 * np.ones((1, 1, 1)), np.zeros((1, 1))
        )
        with pytest.raises(ValueError, match="stable"):
            prepare_operator(bad, "scattering")


class TestResolveBand:
    def test_explicit_band_passthrough(self, small_simo):
        _, op, _ = prepare_operator(small_simo, "scattering")
        band = resolve_band(op, 1.0, 5.0, SolverOptions(), RandomStream(0))
        assert band == (1.0, 5.0)

    def test_automatic_upper_edge_covers_spectrum(self):
        model = random_macromodel(8, 2, seed=77, sigma_target=1.05)
        simo = pole_residue_to_simo(model)
        _, op, _ = prepare_operator(simo, "scattering")
        lo, hi = resolve_band(op, 0.0, None, SolverOptions(), RandomStream(0))
        assert lo == 0.0
        # The band must cover every crossing frequency.
        from repro.hamiltonian.spectral import imaginary_eigenvalues_dense

        truth = imaginary_eigenvalues_dense(simo)
        if truth.size:
            assert hi >= truth.max()

    def test_negative_omega_min_rejected(self, small_simo):
        _, op, _ = prepare_operator(small_simo, "scattering")
        with pytest.raises(ValueError):
            resolve_band(op, -1.0, 5.0, SolverOptions(), RandomStream(0))

    def test_empty_band_rejected(self, small_simo):
        _, op, _ = prepare_operator(small_simo, "scattering")
        with pytest.raises(ValueError, match="empty band"):
            resolve_band(op, 5.0, 5.0, SolverOptions(), RandomStream(0))
