"""Unit tests for the SMW shift-and-invert operator (eq. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian.operator import HamiltonianOperator
from repro.hamiltonian.shift_invert import ShiftInvertOperator
from repro.macromodel.realization import pole_residue_to_simo
from repro.macromodel.simo import SimoRealization, segment_sum
from repro.synth.generator import random_simo_macromodel
from repro.utils.timing import WorkCounter
from tests.conftest import make_pole_residue


@pytest.fixture
def op(small_simo):
    return HamiltonianOperator(small_simo)


class TestConstruction:
    def test_factory(self, op):
        si = op.shift_invert(1.5j)
        assert isinstance(si, ShiftInvertOperator)
        assert si.shift == 1.5j

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            ShiftInvertOperator("not an operator", 1j)

    def test_shift_on_pole_raises(self, op):
        pole = complex(op.simo.poles()[0])
        with pytest.raises(ZeroDivisionError):
            op.shift_invert(pole)

    @pytest.mark.parametrize("kind", ["real", "pair"])
    def test_shift_on_mirrored_pole_raises(self, op, kind):
        """-lambda is a pole of -A^T, the singular point of K's lower half."""
        simo = op.simo
        if kind == "real":
            pole = complex(simo.real_val[0])
        else:
            pole = complex(simo.pair_alpha[0], simo.pair_beta[0])
        with pytest.raises(ZeroDivisionError):
            ShiftInvertOperator(op, -pole)

    def test_small_solve_counted(self, small_simo):
        work = WorkCounter()
        op = HamiltonianOperator(small_simo, work=work)
        op.shift_invert(2.0j)
        assert work.small_solves == 1


class TestApply:
    @pytest.mark.parametrize("shift", [0.0j, 0.9j, 3.1j, 0.2 + 5.0j, -1.0 + 0.5j])
    def test_inverse_property(self, op, rng, shift):
        si = op.shift_invert(shift)
        m = op.dense()
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        y = si.matvec(x)
        residual = (m - si.shift * np.eye(op.dimension)) @ y - x
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(x)

    def test_wrong_length_rejected(self, op):
        si = op.shift_invert(1j)
        with pytest.raises(ValueError, match="length"):
            si.matvec(np.zeros(5))

    def test_callable_alias(self, op, rng):
        si = op.shift_invert(1j)
        x = rng.standard_normal(op.dimension) + 0j
        np.testing.assert_array_equal(si(x), si.matvec(x))

    def test_apply_counted(self, small_simo, rng):
        work = WorkCounter()
        op = HamiltonianOperator(small_simo, work=work)
        si = op.shift_invert(1j)
        before = work.operator_applies
        si.matvec(rng.standard_normal(op.dimension) + 0j)
        assert work.operator_applies == before + 1

    def test_roundtrip_with_matvec(self, op, rng):
        """op.matvec(si.matvec(x)) - shift*si.matvec(x) == x."""
        si = op.shift_invert(2.2j)
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        y = si.matvec(x)
        np.testing.assert_allclose(
            op.matvec(y) - si.shift * y, x, atol=1e-8 * np.linalg.norm(x)
        )

    def test_immittance_inverse(self, rng):
        model = make_pole_residue(seed=2)
        model = model.with_d(model.d + 2.0 * np.eye(model.num_ports))
        simo = pole_residue_to_simo(model)
        op = HamiltonianOperator(simo, representation="immittance")
        si = op.shift_invert(1.3j)
        m = op.dense()
        x = rng.standard_normal(op.dimension) + 0j
        y = si.matvec(x)
        residual = (m - 1.3j * np.eye(op.dimension)) @ y - x
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(x)

    def test_repr(self, op):
        assert "ShiftInvertOperator" in repr(op.shift_invert(1j))


def _reference_banded(bands, x):
    """``Tridiagonal.apply`` with its bands sliced on every call."""
    lower, diag, upper = bands if x.ndim == 1 else bands[:, :, None]
    out = diag * x
    out[:-1] += upper[:-1] * x[1:]
    out[1:] += lower[1:] * x[:-1]
    return out


def _reference_matvec(si, x):
    """The SMW apply with C cast, B^T segmented and v, u concatenated per call."""
    simo = si.hamiltonian.simo
    n, p = simo.order, simo.num_ports
    bands = si._k_inv.bands
    w = _reference_banded(bands, x)
    bx = simo.b * w[n:] if x.ndim == 1 else simo.b[:, None] * w[n:]
    v = np.concatenate([simo.c @ w[:n], segment_sum(bx, simo.col_starts)])
    t = si._zcore_inv @ v
    u = np.concatenate([simo.apply_b(t[:p]), simo.c.T @ t[p:]])
    return w - _reference_banded(bands, u)


@pytest.mark.parametrize(
    "order,ports,representation",
    [
        (None, None, "scattering"),
        (60, 4, "scattering"),
        (150, 20, "scattering"),
        (150, 20, "immittance"),
    ],
)
def test_apply_bit_identical_to_reference(
    small_simo, rng, order, ports, representation
):
    """Hoisting the per-apply constants changes no bit of the result."""
    if order is None:
        simo = small_simo
    else:
        simo = random_simo_macromodel(order, ports, seed=order, sigma_target=None)
        if representation == "immittance":
            simo = SimoRealization(simo.columns, simo.d + 2.0 * np.eye(ports))
    op = HamiltonianOperator(simo, representation=representation)
    dim = op.dimension
    for shift in (0.0j, 0.5j, 3.1j, 0.2 + 5.0j):
        si = op.shift_invert(shift)
        for shape in ((dim,), (dim, 3)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(si.matvec(x), _reference_matvec(si, x))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 3_000),
    omega=st.floats(0.0, 20.0, allow_nan=False),
)
def test_smw_equals_dense_inverse_property(seed, omega):
    """SMW apply == dense solve at random shifts on random models."""
    model = make_pole_residue(seed=seed, num_ports=2, num_real=1, num_pairs=2)
    simo = pole_residue_to_simo(model)
    op = HamiltonianOperator(simo)
    try:
        si = op.shift_invert(1j * omega)
    except (ZeroDivisionError, np.linalg.LinAlgError):
        return  # shift collided with a pole/eigenvalue — allowed to refuse
    m = op.dense()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    y = si.matvec(x)
    residual = (m - si.shift * np.eye(op.dimension)) @ y - x
    # Conditioning near eigenvalues degrades the bound; stay lenient.
    assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(x)
