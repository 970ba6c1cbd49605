"""Unit tests for the immittance (positive-realness) characterization."""

import numpy as np
import pytest

from repro.macromodel import pole_residue_to_simo
from repro.obs import get_registry
from repro.passivity.characterization import characterize_passivity
from repro.passivity.metrics import hermitian_min_eig
from repro.synth import random_macromodel


def characterize(model, **overrides):
    return characterize_passivity(model, representation="immittance", **overrides)


def min_eig(simo, w):
    return float(hermitian_min_eig(simo.transfer(1j * w)))


def immittance_model(seed, shift):
    """Random model with D + D^T positive definite (shifted diagonal)."""
    base = random_macromodel(10, 3, seed=seed, sigma_target=None)
    return base.with_d(base.d + shift * np.eye(3))


@pytest.fixture(scope="module")
def violating():
    return immittance_model(seed=44, shift=1.2)


@pytest.fixture(scope="module")
def passive():
    # A large diagonal shift dominates: H + H^H stays positive definite.
    return immittance_model(seed=44, shift=60.0)


class TestHermitianMinEig:
    def test_matches_direct_computation(self, violating):
        simo = pole_residue_to_simo(violating)
        w = 2.5
        h = simo.transfer(1j * w)
        expected = np.linalg.eigvalsh(h + h.conj().T).min()
        assert min_eig(simo, w) == pytest.approx(expected)

    def test_batched_matches_pointwise(self, violating):
        simo = pole_residue_to_simo(violating)
        omegas = np.array([0.3, 2.5, 7.0])
        batched = hermitian_min_eig(simo.frequency_response(omegas))
        np.testing.assert_allclose(
            batched, [min_eig(simo, w) for w in omegas], rtol=1e-12, atol=1e-12
        )


class TestCharacterization:
    def test_violating_detected(self, violating):
        report = characterize(violating, num_threads=2)
        assert report.representation == "immittance"
        assert not report.passive
        assert len(report.bands) >= 1
        assert report.worst_violation > 0.0

    def test_band_interiors_indefinite(self, violating):
        simo = pole_residue_to_simo(violating)
        report = characterize(violating)
        for band in report.bands:
            mid = 0.5 * (band.lo + band.hi)
            assert min_eig(simo, mid) < 0.0
            # The band's peak is -lambda_min at its deepest point.
            assert band.peak > 0.0
            assert band.severity == band.peak
            assert band.lo <= band.peak_freq <= band.hi
            assert band.peak == pytest.approx(-min_eig(simo, band.peak_freq))

    def test_outside_bands_definite(self, violating):
        simo = pole_residue_to_simo(violating)
        report = characterize(violating)
        top = report.crossings.max() * 2.0
        assert min_eig(simo, top) > 0.0

    def test_passive_certified(self, passive):
        report = characterize(passive)
        assert report.passive
        assert report.bands == ()
        assert report.worst_violation == 0.0

    def test_crossings_on_singular_hermitian_part(self, violating):
        """At each crossing, H + H^H has a (near-)zero eigenvalue."""
        simo = pole_residue_to_simo(violating)
        report = characterize(violating)
        for w in report.crossings:
            h = simo.transfer(1j * w)
            eigs = np.linalg.eigvalsh(h + h.conj().T)
            assert np.min(np.abs(eigs)) < 1e-5 * max(1.0, np.abs(eigs).max())

    def test_serial_parallel_agree(self, violating):
        a = characterize(violating, num_threads=1)
        b = characterize(violating, num_threads=3)
        assert a.passive == b.passive
        assert len(a.bands) == len(b.bands)

    def test_summary(self, violating, passive):
        assert "NOT passive (immittance)" in characterize(violating).summary()
        assert "H + H^H" in characterize(passive).summary()

    def test_indefinite_d_rejected(self):
        model = random_macromodel(8, 2, seed=45, sigma_target=None)
        with pytest.raises(ValueError, match="positive definite"):
            characterize(model)

    def test_payload_names(self, violating):
        payload = characterize(violating).to_dict()
        assert payload["representation"] == "immittance"
        assert "asymptotic_margin" not in payload
        band = payload["bands"][0]
        assert list(band) == ["lo", "hi", "trough_freq", "min_eig", "severity"]
        assert band["min_eig"] == -band["severity"]

    def test_solver_metrics_recorded(self, violating):
        registry = get_registry()
        runs = registry.counter_value("eigensweep.runs")
        solves = registry.histogram("eigensweep.solve").count
        characterize(violating)
        assert registry.counter_value("eigensweep.runs") == runs + 1
        assert registry.histogram("eigensweep.solve").count == solves + 1
