"""Property-based tests of the library's core invariants (hypothesis).

Each property is an algebraic fact the paper's method rests on:

1. Hamiltonian spectra are symmetric w.r.t. both axes.
2. The SMW shift-invert is an exact inverse of ``M - theta I``.
3. The solver's crossing frequencies are exactly where a singular value
   of ``H(j w)`` touches 1.
4. The eigensolver agrees with the dense baseline on random models.
5. Coverage: the union of certified disks contains the whole band.
6. Enforcement never leaves the model less passive than it started.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.solver import solve
from repro.hamiltonian.operator import HamiltonianOperator
from repro.hamiltonian.spectral import (
    full_hamiltonian_spectrum,
    imaginary_eigenvalues_dense,
)
from repro.macromodel.realization import pole_residue_to_simo
from repro.synth import random_macromodel

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def model_from(seed: int, target: float):
    return random_macromodel(8, 2, seed=seed, sigma_target=target)


@SLOW
@given(seed=st.integers(0, 10_000))
def test_hamiltonian_quadruple_symmetry(seed):
    """Spectrum closed under lam -> -lam and lam -> conj(lam)."""
    simo = pole_residue_to_simo(model_from(seed, 1.05))
    lam = full_hamiltonian_spectrum(simo)
    scale = max(1.0, np.abs(lam).max())
    for transform in (lambda z: -z, np.conj):
        remaining = list(transform(lam))
        for value in lam:
            dist = [abs(value - other) for other in remaining]
            j = int(np.argmin(dist))
            assert dist[j] < 1e-7 * scale
            remaining.pop(j)


@SLOW
@given(
    seed=st.integers(0, 10_000),
    omega=st.floats(0.0, 25.0, allow_nan=False),
)
def test_smw_inverse_property(seed, omega):
    """(M - theta I) applied after the SMW operator is the identity."""
    simo = pole_residue_to_simo(model_from(seed, 1.05))
    op = HamiltonianOperator(simo)
    try:
        si = op.shift_invert(1j * omega)
    except (ZeroDivisionError, np.linalg.LinAlgError):
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    y = si.matvec(x)
    back = op.matvec(y) - si.shift * y
    assert np.linalg.norm(back - x) <= 1e-6 * np.linalg.norm(x)


@SLOW
@given(seed=st.integers(0, 10_000), violating=st.booleans())
def test_solver_matches_dense_property(seed, violating):
    """Fast solver == dense baseline for random models, both polarities."""
    target = 1.08 if violating else 0.92
    simo = pole_residue_to_simo(model_from(seed, target))
    truth = imaginary_eigenvalues_dense(simo)
    result = solve(simo, num_threads=2, strategy="queue")
    assert result.num_crossings == truth.size
    if truth.size:
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)


@SLOW
@given(seed=st.integers(0, 10_000))
def test_crossings_sit_on_unit_singular_values(seed):
    simo = pole_residue_to_simo(model_from(seed, 1.1))
    result = solve(simo, num_threads=2, strategy="queue")
    for w in result.omegas:
        sv = np.linalg.svd(simo.transfer(1j * w), compute_uv=False)
        assert np.min(np.abs(sv - 1.0)) < 1e-5


@SLOW
@given(seed=st.integers(0, 10_000), threads=st.integers(1, 4))
def test_band_coverage_property(seed, threads):
    """The certified disks always cover the swept band completely."""
    simo = pole_residue_to_simo(model_from(seed, 1.05))
    result = solve(simo, num_threads=threads, strategy="queue")
    assert result.coverage_gaps() == []


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2_000))
def test_enforcement_never_worsens(seed):
    """Worst violation after enforcement <= before (usually zero)."""
    from repro.passivity.enforcement import enforce_passivity

    model = model_from(seed, 1.04)
    result = enforce_passivity(model, max_iterations=12)
    assert result.history[-1] <= result.history[0] + 1e-12
