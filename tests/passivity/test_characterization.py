"""Unit tests for the full passivity characterization."""

import numpy as np
import pytest

from repro.macromodel.realization import pole_residue_to_simo
from repro.passivity.characterization import (
    characterize_passivity,
    violation_bands_from_crossings,
)
from repro.synth import random_macromodel


@pytest.fixture(scope="module")
def violating():
    return random_macromodel(12, 3, seed=61, sigma_target=1.08)


@pytest.fixture(scope="module")
def passive():
    return random_macromodel(12, 3, seed=62, sigma_target=0.9)


class TestCharacterize:
    def test_violating_detected(self, violating):
        report = characterize_passivity(violating)
        assert not report.passive
        assert len(report.bands) >= 1
        assert report.worst_violation > 0.0

    def test_passive_certified(self, passive):
        report = characterize_passivity(passive)
        assert report.passive
        assert report.bands == ()
        assert report.worst_violation == 0.0

    def test_crossings_pair_with_band_edges(self, violating):
        report = characterize_passivity(violating)
        edges = set()
        for band in report.bands:
            edges.add(round(band.lo, 6))
            edges.add(round(band.hi, 6))
        crossing_set = {round(w, 6) for w in report.crossings}
        # Every band edge is a crossing (or the DC/omega_max boundary).
        for edge in edges:
            assert edge in crossing_set or edge == 0.0 or edge >= max(crossing_set)

    def test_band_peaks_above_one(self, violating):
        report = characterize_passivity(violating)
        for band in report.bands:
            assert band.peak > 1.0
            assert band.lo <= band.peak_freq <= band.hi
            assert band.severity == pytest.approx(band.peak - 1.0)

    def test_interior_of_band_violates(self, violating):
        simo = pole_residue_to_simo(violating)
        report = characterize_passivity(violating)
        for band in report.bands:
            mid = 0.5 * (band.lo + band.hi)
            sv = np.linalg.svd(simo.transfer(1j * mid), compute_uv=False)[0]
            assert sv > 1.0

    def test_outside_bands_passive(self, violating):
        simo = pole_residue_to_simo(violating)
        report = characterize_passivity(violating)
        # Sample a point beyond the last crossing: must be below 1.
        top = report.crossings.max() * 2.0
        sv = np.linalg.svd(simo.transfer(1j * top), compute_uv=False)[0]
        assert sv < 1.0

    def test_parallel_matches_serial(self, violating):
        serial = characterize_passivity(violating, num_threads=1)
        parallel = characterize_passivity(violating, num_threads=3)
        assert serial.passive == parallel.passive
        assert len(serial.bands) == len(parallel.bands)

    def test_summary_strings(self, violating, passive):
        assert "NOT passive" in characterize_passivity(violating).summary()
        assert "PASSIVE" in characterize_passivity(passive).summary()

    def test_simo_input(self, violating):
        simo = pole_residue_to_simo(violating)
        report = characterize_passivity(simo)
        assert not report.passive

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            characterize_passivity(np.eye(2))


class TestViolationBandsFromCrossings:
    def test_no_crossings_no_bands(self, passive):
        assert violation_bands_from_crossings(passive, []) == []

    def test_synthetic_crossings(self, violating):
        report = characterize_passivity(violating)
        bands = violation_bands_from_crossings(violating, report.crossings)
        assert len(bands) == len(report.bands)

    def test_unknown_representation_rejected(self, violating):
        with pytest.raises(ValueError, match="representation"):
            violation_bands_from_crossings(
                violating, [1.0], representation="hybrid"
            )
