"""One QR per weight column: every fit stays bit-identical.

The reference below is the per-element formulation both fitting stages
used before the factor was shared: one batched QR over all ``p^2``
weighted blocks, one factor per element.  Fits must equal it with ``==``.
"""

import numpy as np
import pytest

from repro.synth import random_macromodel
from repro.vectfit import vector_fitting as vf
from repro.vectfit.options import VectorFittingOptions


def _reference_relocate(freqs_rad, flat, weights, poles, options):
    phi, real_poles, pair_poles = vf._basis(freqs_rad, poles)
    k_samples = phi.shape[0]
    const = (
        np.ones((k_samples, 1)) if options.fit_direct_term else np.zeros((k_samples, 0))
    )
    basis = np.concatenate([phi, const.astype(complex)], axis=1)
    weights = np.broadcast_to(weights, flat.shape)  # one column per element
    w3 = weights.T[:, :, None]
    a_blocks = vf._stack_real(basis[None, :, :] * w3, axis=1)
    b_blocks = vf._stack_real(-(flat.T[:, :, None] * phi[None, :, :]) * w3, axis=1)
    rhs = vf._stack_real((flat * weights).T[:, :, None], axis=1)
    q, _ = np.linalg.qr(a_blocks)
    qt = np.swapaxes(q, 1, 2)
    b_proj = b_blocks - q @ (qt @ b_blocks)
    r_proj = rhs - q @ (qt @ rhs)
    sigma, *_ = np.linalg.lstsq(
        b_proj.reshape(-1, b_proj.shape[2]), r_proj.reshape(-1), rcond=None
    )
    zeros = vf._sigma_realization(real_poles, pair_poles, sigma)
    if options.enforce_stability:
        zeros = vf.make_stable(
            zeros, min_real=1e-12 * max(1.0, float(np.abs(zeros).max()))
        )
    return vf._symmetrize(zeros)


def _reference_residues(freqs_rad, flat, weights, poles, p, options):
    phi, real_poles, pair_poles = vf._basis(freqs_rad, poles)
    k_samples = phi.shape[0]
    const = (
        np.ones((k_samples, 1)) if options.fit_direct_term else np.zeros((k_samples, 0))
    )
    basis = np.concatenate([phi, const.astype(complex)], axis=1)
    weights = np.broadcast_to(weights, flat.shape)  # one column per element
    w3 = weights.T[:, :, None]
    a_blocks = vf._stack_real(basis[None, :, :] * w3, axis=1)
    rhs = vf._stack_real((flat * weights).T[:, :, None], axis=1)
    q, r = np.linalg.qr(a_blocks)
    coeffs = np.linalg.solve(r, np.swapaxes(q, 1, 2) @ rhs)[:, :, 0].T
    num_real, num_pairs = real_poles.size, pair_poles.size
    residues = np.zeros((num_real + 2 * num_pairs, p, p), dtype=complex)
    ordered = np.empty(num_real + 2 * num_pairs, dtype=complex)
    ordered[:num_real] = real_poles
    residues[:num_real] = coeffs[:num_real].reshape(num_real, p, p)
    if num_pairs:
        rows = coeffs[num_real : num_real + 2 * num_pairs]
        blocks = (rows[0::2] + 1j * rows[1::2]).reshape(num_pairs, p, p)
        ordered[num_real::2] = pair_poles
        ordered[num_real + 1 :: 2] = np.conj(pair_poles)
        residues[num_real::2] = blocks
        residues[num_real + 1 :: 2] = np.conj(blocks)
    d = coeffs[-1].reshape(p, p) if options.fit_direct_term else np.zeros((p, p))
    return vf.PoleResidueModel(ordered, residues, d)


def _fit_pair(monkeypatch, p, seed, real_fraction, weighting):
    truth = random_macromodel(4, p, seed=seed, sigma_target=None)
    freqs = np.linspace(0.02, 12.0, 90)
    responses = truth.frequency_response(freqs)
    # Noise keeps the LS problems generic (an exact fit hides round-off).
    rng = np.random.default_rng(seed)
    responses = responses + 1e-3 * (
        rng.standard_normal(responses.shape) + 1j * rng.standard_normal(responses.shape)
    )
    options = VectorFittingOptions(
        iterations=4, weighting=weighting, real_pole_fraction=real_fraction
    )
    fit = vf.vector_fit(freqs, responses, 10, options=options)
    with monkeypatch.context() as patch:
        patch.setattr(vf, "_relocate_poles", _reference_relocate)
        patch.setattr(vf, "_identify_residues", _reference_residues)
        reference = vf.vector_fit(freqs, responses, 10, options=options)
    return fit, reference


@pytest.mark.parametrize("weighting", ["uniform", "inverse_magnitude"])
@pytest.mark.parametrize("real_fraction", [0.0, 0.5])
@pytest.mark.parametrize("p", range(1, 9))
def test_fit_equals_per_element_reference(monkeypatch, p, real_fraction, weighting):
    for seed in (p, 100 + p):
        fit, reference = _fit_pair(monkeypatch, p, seed, real_fraction, weighting)
        assert np.array_equal(fit.model.poles, reference.model.poles)
        assert np.array_equal(fit.model.residues, reference.model.residues)
        assert np.array_equal(fit.model.d, reference.model.d)
        assert fit.rms_error == reference.rms_error
        assert fit.iterations == reference.iterations
        for ours, theirs in zip(fit.pole_history, reference.pole_history):
            assert np.array_equal(ours, theirs)


def test_uniform_weighting_factors_once_per_stage(monkeypatch):
    """Uniform weights are one distinct column: one QR of one block."""
    shapes = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    truth = random_macromodel(4, 3, seed=5, sigma_target=None)
    freqs = np.linspace(0.02, 12.0, 90)
    monkeypatch.setattr(vf.np.linalg, "qr", counting_qr)
    fit = vf.vector_fit(
        freqs, truth.frequency_response(freqs), 8,
        options=VectorFittingOptions(iterations=3),
    )
    assert len(shapes) == fit.iterations + 1
    assert all(shape[0] == 1 for shape in shapes)

