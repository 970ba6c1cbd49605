"""Unit tests for generic state-space -> pole/residue conversion."""

import numpy as np
import pytest

from repro.macromodel import pole_residue_to_simo
from repro.macromodel.conversion import (
    statespace_to_pole_residue,
    statespace_to_simo,
)
from repro.macromodel.statespace import StateSpace
from repro.synth import random_macromodel
from tests.conftest import make_pole_residue


@pytest.fixture
def dense_ss(small_simo):
    return small_simo.to_statespace()


class TestConversion:
    def test_transfer_preserved(self, dense_ss):
        pr = statespace_to_pole_residue(dense_ss)
        for s in (0.3j, 2.0j, 0.5 + 4.0j):
            np.testing.assert_allclose(
                pr.transfer(s), dense_ss.transfer(s), atol=1e-10
            )

    def test_result_is_real_model(self, dense_ss):
        pr = statespace_to_pole_residue(dense_ss)
        assert pr.is_real_model()

    def test_poles_are_a_eigenvalues(self, dense_ss):
        pr = statespace_to_pole_residue(dense_ss)
        np.testing.assert_allclose(
            np.sort(np.abs(pr.poles)), np.sort(np.abs(dense_ss.poles())), atol=1e-9
        )

    def test_simo_shortcut(self, dense_ss):
        simo = statespace_to_simo(dense_ss)
        np.testing.assert_allclose(
            simo.transfer(1.7j), dense_ss.transfer(1.7j), atol=1e-9
        )

    def test_random_rotated_realization(self, rng):
        """A similarity-rotated realization converts back faithfully."""
        model = make_pole_residue(seed=17, num_ports=2)
        ss = pole_residue_to_simo(model).to_statespace()
        t = rng.standard_normal((ss.order, ss.order)) + 3 * np.eye(ss.order)
        rotated = ss.similarity(t)
        pr = statespace_to_pole_residue(rotated)
        np.testing.assert_allclose(
            pr.transfer(2.2j), model.transfer(2.2j), atol=1e-7
        )

    def test_defective_a_rejected(self):
        # Jordan block: defective, eigenvector matrix singular.
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        ss = StateSpace(a, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="defective"):
            statespace_to_pole_residue(ss)

    def test_zero_order_rejected(self):
        ss = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1))
        )
        with pytest.raises(ValueError, match="zero-order"):
            statespace_to_pole_residue(ss)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            statespace_to_pole_residue(np.eye(3))

    def test_eigensolver_works_on_converted_model(self):
        """End-to-end: dense SS input -> conversion -> crossings."""
        from repro.core.solver import solve
        from repro.hamiltonian.spectral import imaginary_eigenvalues_dense

        model = random_macromodel(8, 2, seed=55, sigma_target=1.06)
        ss = pole_residue_to_simo(model).to_statespace()
        converted = statespace_to_simo(ss)
        result = solve(converted, num_threads=2)
        truth = imaginary_eigenvalues_dense(pole_residue_to_simo(model))
        assert result.num_crossings == truth.size
        if truth.size:
            np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-4)
