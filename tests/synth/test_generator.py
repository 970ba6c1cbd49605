"""Unit tests for the synthetic macromodel generator."""

import numpy as np
import pytest

from repro.macromodel.poles import conjugate_pairs_complete, is_stable
from repro.passivity.metrics import peak_singular_value_on_grid
from repro.synth import generator, transmission_line
from repro.synth.generator import (
    _scaling_grid,
    peak_singular_value,
    random_macromodel,
    random_pole_set,
    random_simo_macromodel,
    scale_to_sigma_target,
)
from repro.synth.transmission_line import transmission_line_model


class TestRandomPoleSet:
    def test_count_exact(self, rng):
        for n in (1, 2, 5, 10, 17):
            assert random_pole_set(n, rng).size == n

    def test_stable(self, rng):
        assert is_stable(random_pole_set(20, rng))

    def test_conjugate_complete(self, rng):
        assert conjugate_pairs_complete(random_pole_set(15, rng))

    def test_band_respected(self, rng):
        poles = random_pole_set(30, rng, band=(1.0, 5.0))
        w0 = poles.imag[poles.imag > 0]
        assert np.all(w0 >= 1.0 - 1e-9)
        assert np.all(w0 <= 5.0 + 1e-9)

    def test_invalid_band_rejected(self, rng):
        with pytest.raises(ValueError, match="band"):
            random_pole_set(4, rng, band=(5.0, 1.0))


class TestRandomMacromodel:
    def test_shapes(self):
        model = random_macromodel(8, 3, seed=1)
        assert model.num_poles == 8
        assert model.num_ports == 3

    def test_reproducible(self):
        a = random_macromodel(8, 2, seed=5)
        b = random_macromodel(8, 2, seed=5)
        np.testing.assert_array_equal(a.poles, b.poles)
        np.testing.assert_array_equal(a.residues, b.residues)

    def test_real_and_stable(self):
        model = random_macromodel(10, 2, seed=2)
        assert model.is_stable()
        assert model.is_real_model()

    def test_sigma_target_violating(self):
        model = random_macromodel(10, 3, seed=3, sigma_target=1.1)
        # High-Q violations are narrower than a uniform grid spacing;
        # sample around each resonance explicitly.
        resonances = model.poles[model.poles.imag > 0]
        clusters = np.array(
            [r.imag + k * abs(r.real) for r in resonances for k in (-1, 0, 1)]
        )
        grid = np.unique(np.concatenate([np.linspace(0, 15, 800), clusters]))
        peak, _ = peak_singular_value_on_grid(model, grid)
        assert peak > 1.0

    def test_sigma_target_passive(self):
        model = random_macromodel(10, 3, seed=3, sigma_target=0.9)
        grid = np.linspace(0, 15, 800)
        peak, _ = peak_singular_value_on_grid(model, grid)
        assert peak < 1.0

    def test_no_target_skips_scaling(self):
        model = random_macromodel(6, 2, seed=4, sigma_target=None)
        assert model.num_poles == 6

    def test_d_norm_exact(self):
        model = random_macromodel(6, 2, seed=4, d_norm=0.25)
        assert np.linalg.norm(model.d, 2) == pytest.approx(0.25)


class TestRandomSimoMacromodel:
    @pytest.mark.parametrize("order,ports", [(20, 4), (23, 5), (50, 7), (13, 13)])
    def test_exact_order(self, order, ports):
        simo = random_simo_macromodel(order, ports, seed=6, sigma_target=None)
        assert simo.order == order
        assert simo.num_ports == ports

    def test_order_below_ports_rejected(self):
        with pytest.raises(ValueError):
            random_simo_macromodel(3, 5, seed=0)

    def test_stable(self):
        simo = random_simo_macromodel(30, 4, seed=7, sigma_target=None)
        assert simo.is_stable()

    def test_sigma_target_respected(self):
        simo = random_simo_macromodel(40, 4, seed=8, sigma_target=1.06)
        grid = np.linspace(0, 15, 800)
        peak, _ = peak_singular_value_on_grid(simo, grid)
        assert peak > 1.0


class TestScaleToSigmaTarget:
    def test_target_hit(self, rng):
        model = random_macromodel(8, 2, seed=9, sigma_target=None)
        grid = np.linspace(0, 15, 500)
        responses = model.frequency_response(grid)
        s = scale_to_sigma_target(model.d, responses, 1.05)
        scaled = model.d[None] + s * (responses - model.d[None])
        peak = np.linalg.svd(scaled, compute_uv=False).max()
        assert peak == pytest.approx(1.05, rel=1e-4)

    def test_target_below_d_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            scale_to_sigma_target(0.5 * np.eye(2), np.zeros((3, 2, 2)), 0.3)


def _exhaustive_scale(d, responses, target, *, iterations=40):
    """The calibration without pruning: an SVD of every sample at every step."""
    d = np.asarray(d, dtype=float)
    deltas = np.asarray(responses) - d[None]
    d_norm = float(np.linalg.norm(d, 2)) if d.size else 0.0
    if target <= d_norm:
        raise ValueError(
            f"sigma target ({target}) must exceed sigma(D) ({d_norm:.3f})"
        )

    def peak(s):
        return peak_singular_value(d[None] + s * deltas)

    lo, hi = 1e-6, 1.0
    for _ in range(60):
        if peak(hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the sigma target")
    for _ in range(iterations):
        mid = np.sqrt(lo * hi)
        if peak(mid) >= target:
            hi = mid
        else:
            lo = mid
    return float(np.sqrt(lo * hi))


class TestWeylPrunedCalibration:
    """The Weyl-pruned bisection returns the exhaustive scale, bit for bit."""

    @pytest.fixture
    def calibrations(self, monkeypatch):
        """Record ``(pruned, exhaustive)`` for every calibration a builder runs."""
        seen = []

        def both(d, responses, target, **kwargs):
            s = scale_to_sigma_target(d, responses, target, **kwargs)
            seen.append((s, _exhaustive_scale(d, responses, target, **kwargs)))
            return s

        monkeypatch.setattr(generator, "scale_to_sigma_target", both)
        monkeypatch.setattr(transmission_line, "scale_to_sigma_target", both)
        return seen

    @pytest.mark.parametrize("seed", [0, 1])
    def test_builders_match_exhaustive(self, calibrations, seed):
        for target in (0.9, 1.1):
            random_macromodel(8, 2, seed=seed, sigma_target=target)
        for target in (0.95, 1.3):
            random_macromodel(12, 4, seed=seed, sigma_target=target)
        random_simo_macromodel(40, 4, seed=seed, sigma_target=1.06)
        random_simo_macromodel(
            60, 20, seed=100 + seed, sigma_target=1.02, grid_points=60
        )
        transmission_line_model(12, 4, seed=seed)
        assert len(calibrations) == 7
        for pruned, exhaustive in calibrations:
            assert pruned == exhaustive

    @pytest.mark.parametrize(
        "ports,resonances,target", [(56, 3, 1.05), (56, 3, 0.97), (83, 1, 1.12)]
    )
    def test_many_ports_match_exhaustive(self, ports, resonances, target):
        """Table I's p = 56 and 83 on short grids around a few resonances."""
        simo = random_simo_macromodel(2 * ports, ports, seed=ports, sigma_target=None)
        poles = simo.poles()
        grid = _scaling_grid(poles[poles.imag > 0][:resonances], (0.5, 10.0), 8)
        responses = simo.frequency_response(grid)
        pruned = scale_to_sigma_target(simo.d, responses, target)
        assert pruned == _exhaustive_scale(simo.d, responses, target)

    def test_peak_held_by_a_smaller_delta(self):
        """The peak sample need not have the largest ``sigma_max(Delta_k)``.

        ``D`` adds to the first sample's ``Delta`` and subtracts from the
        larger second one, so near the answer the first sample holds the
        peak although ``s sigma_max(Delta_0)`` lies below ``s M - sigma(D)``
        and only the ``+ sigma(D)`` of its upper bound keeps it.
        """
        d = np.diag([0.1, 0.0])
        responses = d[None] + np.array([np.diag([1.0, 0.0]), np.diag([-1.15, 0.0])])
        s = scale_to_sigma_target(d, responses, 1.08)
        assert s == _exhaustive_scale(d, responses, 1.08)
        assert s == pytest.approx(0.98, rel=1e-9)

    def test_prunes_most_sample_svds(self, monkeypatch):
        simo = random_simo_macromodel(150, 20, seed=101, sigma_target=None)
        grid = _scaling_grid(simo.poles(), (0.5, 10.0), 300)
        responses = simo.frequency_response(grid)
        samples = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            samples.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        scale_to_sigma_target(simo.d, responses, 1.02)
        # One norm pass plus a few kept samples per step; the exhaustive
        # search takes about 43 passes over every sample.
        assert sum(samples) < 2 * len(responses)

    @pytest.mark.parametrize("calibrate", [scale_to_sigma_target, _exhaustive_scale])
    def test_target_at_or_below_d_rejected(self, calibrate):
        for target in (0.3, 0.5):
            with pytest.raises(ValueError, match="exceed"):
                calibrate(0.5 * np.eye(2), np.zeros((3, 2, 2)), target)

    @pytest.mark.parametrize("calibrate", [scale_to_sigma_target, _exhaustive_scale])
    @pytest.mark.parametrize("samples", [0, 3])
    def test_unreachable_target_fails_to_bracket(self, calibrate, samples):
        """An empty grid, or samples all equal to D, never reach the target."""
        d = 0.1 * np.eye(2)
        responses = np.broadcast_to(d, (samples, 2, 2))
        with pytest.raises(RuntimeError, match="bracket"):
            calibrate(d, responses, 1.05)
