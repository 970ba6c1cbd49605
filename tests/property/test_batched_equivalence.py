"""Batched/scalar equivalence of the frequency-domain kernel layer.

Every batched kernel introduced by the multi-shift refactor must agree
with the historical one-point-at-a-time path to near machine precision
(<= 1e-12), including the degenerate realizations (empty columns,
real-only poles, pairs-only poles) where the broadcast layouts are most
likely to go wrong.
"""

import numpy as np
import pytest

from repro.hamiltonian.operator import HamiltonianOperator
from repro.macromodel.realization import pole_residue_to_simo, simo_from_columns
from repro.macromodel.simo import SimoColumn
from repro.passivity.sampling import sampled_violations
from repro.synth import random_macromodel
from repro.vectfit.vector_fitting import _basis
from tests.conftest import make_pole_residue

TOL = 1e-12


def _empty_column() -> SimoColumn:
    return SimoColumn(
        np.empty(0),
        np.empty((0, 0)),
        np.empty(0, dtype=complex),
        np.empty((0, 0), dtype=complex),
    )


def _real_only_column(p: int, seed: int) -> SimoColumn:
    rng = np.random.default_rng(seed)
    return SimoColumn(
        -rng.uniform(0.5, 2.0, 3),
        0.4 * rng.standard_normal((3, p)),
        np.empty(0, dtype=complex),
        np.empty((0, p), dtype=complex),
    )


def _pairs_only_column(p: int, seed: int) -> SimoColumn:
    rng = np.random.default_rng(seed)
    return SimoColumn(
        np.empty(0),
        np.empty((0, p)),
        -rng.uniform(0.1, 0.5, 2) + 1j * rng.uniform(1.0, 8.0, 2),
        0.4
        * (rng.standard_normal((2, p)) + 1j * rng.standard_normal((2, p))),
    )


def _mixed_simo():
    return pole_residue_to_simo(make_pole_residue(seed=3))


def _realizations():
    """Realization zoo: mixed, real-only, pairs-only, with-empty-column."""
    p = 2
    rng = np.random.default_rng(9)
    d = 0.05 * rng.standard_normal((p, p))
    return {
        "mixed": _mixed_simo(),
        "real_only": simo_from_columns(
            [_real_only_column(p, 1), _real_only_column(p, 2)], d
        ),
        "pairs_only": simo_from_columns(
            [_pairs_only_column(p, 3), _pairs_only_column(p, 4)], d
        ),
        "empty_column": simo_from_columns(
            [_empty_column(), _pairs_only_column(p, 5)], d
        ),
    }


@pytest.fixture(params=["mixed", "real_only", "pairs_only", "empty_column"])
def simo(request):
    return _realizations()[request.param]


@pytest.fixture
def shifts():
    return 0.02 + 1j * np.linspace(0.3, 11.0, 23)


class TestSimoBatched:
    def test_transfer_many_matches_loop(self, simo, shifts):
        batch = simo.transfer_many(shifts)
        loop = np.stack([simo.transfer(s) for s in shifts])
        assert batch.shape == (shifts.size, simo.num_ports, simo.num_ports)
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)

    def test_gamma_many_matches_loop(self, simo, shifts):
        batch = simo.gamma_many(shifts)
        loop = np.stack([simo.gamma(s) for s in shifts])
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)

    def test_solve_shifted_many_vector_rhs(self, simo, shifts, rng):
        if simo.order == 0:
            pytest.skip("order-0 realization has no states to solve")
        rhs = rng.standard_normal(simo.order)
        batch = simo.solve_shifted_many(shifts, rhs)
        loop = np.stack([simo.solve_shifted(s, rhs) for s in shifts])
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)

    def test_solve_shifted_many_block_rhs(self, simo, shifts, rng):
        rhs = rng.standard_normal((simo.order, 4))
        batch = simo.solve_shifted_many(shifts, rhs)
        loop = np.stack([simo.solve_shifted(s, rhs) for s in shifts])
        assert batch.shape == (shifts.size, simo.order, 4)
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)

    def test_solve_shifted_many_transpose(self, simo, shifts, rng):
        rhs = rng.standard_normal((simo.order, 3))
        batch = simo.solve_shifted_many(shifts, rhs, transpose=True)
        loop = np.stack(
            [simo.solve_shifted(s, rhs, transpose=True) for s in shifts]
        )
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)

    def test_solve_shifted_many_pole_collision_raises(self, simo):
        if simo.poles().size == 0:
            pytest.skip("no poles to collide with")
        pole = simo.poles()[0]
        with pytest.raises(ZeroDivisionError):
            simo.solve_shifted_many(
                [complex(pole), 1j * 2.0], np.ones(simo.order)
            )

    def test_frequency_response_matches_loop(self, simo):
        freqs = np.linspace(0.0, 9.0, 17)
        batch = simo.frequency_response(freqs)
        loop = np.stack([simo.transfer(1j * w) for w in freqs])
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)


class TestShiftInvertLayouts:
    """The per-shift factor of ``K^{-1}`` holds on every realization layout.

    ``M - theta I`` is at most ~1e3-conditioned at these shifts and the
    observed normwise error is ~1e-14, so a 1e-11 relative bound is safe.
    """

    @pytest.mark.parametrize("theta", [2.7j, 0.3 + 5.1j])
    def test_matvec_matches_dense_inverse(self, simo, rng, theta):
        op = HamiltonianOperator(simo)
        si = op.shift_invert(theta)
        shifted = op.dense() - theta * np.eye(op.dimension)
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        block = rng.standard_normal((op.dimension, 3)) + 1j * rng.standard_normal(
            (op.dimension, 3)
        )
        for rhs in (x, block):
            expected = np.linalg.solve(shifted, rhs)
            error = np.linalg.norm(si.matvec(rhs) - expected)
            assert error <= 1e-11 * np.linalg.norm(expected)


class TestStateSpaceBatched:
    def test_transfer_many_matches_loop(self):
        ss = _mixed_simo().to_statespace()
        pts = 0.01 + 1j * np.linspace(0.2, 10.0, 29)
        batch = ss.transfer_many(pts)
        loop = np.stack([ss.transfer(s) for s in pts])
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)

    def test_chunked_path_matches_single_chunk(self):
        ss = _mixed_simo().to_statespace()
        pts = 1j * np.linspace(0.1, 5.0, 13)
        # A tiny byte budget forces one-point chunks.
        chunked = ss.transfer_many(pts, max_chunk_bytes=1)
        whole = ss.transfer_many(pts)
        np.testing.assert_allclose(chunked, whole, atol=TOL, rtol=0.0)

    def test_order_zero(self):
        from repro.macromodel.statespace import StateSpace

        ss = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), 0.3 * np.eye(2)
        )
        out = ss.transfer_many(1j * np.linspace(0.0, 1.0, 5))
        assert out.shape == (5, 2, 2)
        np.testing.assert_allclose(out, np.broadcast_to(0.3 * np.eye(2), (5, 2, 2)))


class TestPoleResidueBatched:
    def test_transfer_many_matches_loop(self):
        model = make_pole_residue(seed=11)
        pts = 0.05 + 1j * np.linspace(0.4, 12.0, 31)
        batch = model.transfer_many(pts)
        loop = np.stack([model.transfer(s) for s in pts])
        np.testing.assert_allclose(batch, loop, atol=TOL, rtol=0.0)


class TestBlockedOperatorApplies:
    @pytest.fixture
    def op(self):
        return HamiltonianOperator(_mixed_simo())

    def test_blocked_matvec_matches_columns(self, op, rng):
        block = rng.standard_normal((op.dimension, 5)) + 1j * rng.standard_normal(
            (op.dimension, 5)
        )
        blocked = op.matvec(block)
        columns = np.stack([op.matvec(block[:, j]) for j in range(5)], axis=1)
        np.testing.assert_allclose(blocked, columns, atol=TOL, rtol=0.0)

    def test_blocked_shift_invert_matches_columns(self, op, rng):
        si = op.shift_invert(1j * 2.7)
        block = rng.standard_normal((op.dimension, 4)) + 1j * rng.standard_normal(
            (op.dimension, 4)
        )
        blocked = si.matvec(block)
        columns = np.stack([si.matvec(block[:, j]) for j in range(4)], axis=1)
        np.testing.assert_allclose(blocked, columns, atol=TOL, rtol=0.0)

    def test_blocked_apply_counts_column_work(self):
        from repro.utils.timing import WorkCounter

        work = WorkCounter()
        op = HamiltonianOperator(_mixed_simo(), work=work)
        op.matvec(np.ones((op.dimension, 6)))
        assert work.operator_applies == 6
        op.matvec(np.ones(op.dimension))
        assert work.operator_applies == 7

    def test_bad_shapes_rejected(self, op):
        with pytest.raises(ValueError):
            op.matvec(np.zeros(3))
        with pytest.raises(ValueError):
            op.matvec(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            op.matvec(np.zeros((op.dimension, 2, 2)))


def _reference_sampled_violations(
    model,
    omega_max,
    *,
    threshold=1.0,
    initial_points=64,
    variation_tol=0.05,
    min_interval=1e-6,
    seed_resonances=True,
):
    """The historical scalar recursion (pre-wave), without a budget.

    Kept verbatim as the ground truth the wave-based implementation must
    reproduce whenever the evaluation budget is not binding.
    """
    from repro.macromodel.simo import SimoRealization

    width_floor = min_interval * omega_max

    def sigma_at(w):
        return float(
            np.linalg.svd(model.transfer(1j * w), compute_uv=False)[0]
        )

    grid = np.linspace(0.0, omega_max, initial_points)
    if seed_resonances:
        poles = (
            model.poles() if isinstance(model, SimoRealization) else model.poles
        )
        resonant = poles[poles.imag > 0]
        if resonant.size:
            w0 = resonant.imag
            damping = np.abs(resonant.real)
            clusters = np.concatenate([w0 + k * damping for k in (-1.0, 0.0, 1.0)])
            clusters = clusters[(clusters >= 0.0) & (clusters <= omega_max)]
            grid = np.union1d(grid, clusters)
    grid = list(grid)
    values = [sigma_at(w) for w in grid]
    stack = [
        (grid[i], grid[i + 1], values[i], values[i + 1])
        for i in range(len(grid) - 1)
    ]
    samples = list(zip(grid, values))
    while stack:
        lo, hi, s_lo, s_hi = stack.pop()
        if hi - lo <= width_floor:
            continue
        needs_refine = (
            abs(s_hi - s_lo) > variation_tol
            or (s_lo - threshold) * (s_hi - threshold) < 0.0
            or max(s_lo, s_hi) > threshold - variation_tol
        )
        if not needs_refine:
            continue
        mid = 0.5 * (lo + hi)
        s_mid = sigma_at(mid)
        samples.append((mid, s_mid))
        stack.append((lo, mid, s_lo, s_mid))
        stack.append((mid, hi, s_mid, s_hi))
    samples.sort()
    freqs = np.array([w for w, _ in samples])
    sigmas = np.array([s for _, s in samples])
    violating = sigmas > threshold
    intervals = []
    start = None
    for i, flag in enumerate(violating):
        if flag and start is None:
            start = freqs[i]
        elif not flag and start is not None:
            intervals.append((float(start), float(freqs[i])))
            start = None
    if start is not None:
        intervals.append((float(start), float(freqs[-1])))
    return {
        "intervals": intervals,
        "evaluations": len(samples),
        "max_sigma": float(sigmas.max()),
    }


class TestWaveSamplingEquivalence:
    @pytest.fixture(scope="class")
    def violating(self):
        return random_macromodel(10, 3, seed=5, sigma_target=1.06)

    @pytest.mark.parametrize("seed_resonances", [True, False])
    def test_matches_scalar_recursion(self, violating, seed_resonances):
        """With a non-binding budget the wave refinement visits exactly the
        sample set of the scalar recursion (refine decisions are local to
        each interval), so every report field must agree."""
        ref = _reference_sampled_violations(
            violating, 15.0, seed_resonances=seed_resonances
        )
        wave = sampled_violations(
            violating, 15.0, seed_resonances=seed_resonances
        )
        assert wave.evaluations == ref["evaluations"]
        assert abs(wave.max_sigma - ref["max_sigma"]) <= TOL
        assert len(wave.violations) == len(ref["intervals"])
        for (lo_w, hi_w), (lo_r, hi_r) in zip(wave.violations, ref["intervals"]):
            assert abs(lo_w - lo_r) <= TOL
            assert abs(hi_w - hi_r) <= TOL

    def test_budget_cap_enforced_during_seeding(self, violating):
        """Regression for the seeding budget leak: an oversized initial grid
        must not overrun max_evaluations."""
        report = sampled_violations(
            violating, 15.0, initial_points=500, max_evaluations=100
        )
        assert report.evaluations <= 100

    def test_budget_cap_enforced_during_refinement(self, violating):
        report = sampled_violations(violating, 15.0, max_evaluations=200)
        assert report.evaluations <= 200


class TestVectfitBasisBatched:
    def test_basis_matches_naive_loop(self):
        rng = np.random.default_rng(17)
        freqs = np.linspace(0.1, 10.0, 40)
        real_poles = -rng.uniform(0.5, 2.0, 3)
        pair_upper = -0.1 * rng.uniform(0.5, 2.0, 4) + 1j * rng.uniform(
            1.0, 9.0, 4
        )
        poles = np.empty(3 + 8, dtype=complex)
        poles[:3] = real_poles
        poles[3::2] = pair_upper
        poles[4::2] = np.conj(pair_upper)
        phi, rp, pp = _basis(freqs, poles)
        s = 1j * freqs
        columns = [1.0 / (s - r) for r in rp]
        for q in pp:
            inv_up = 1.0 / (s - q)
            inv_dn = 1.0 / (s - np.conj(q))
            columns.append(inv_up + inv_dn)
            columns.append(1j * (inv_up - inv_dn))
        np.testing.assert_allclose(
            phi, np.stack(columns, axis=1), atol=TOL, rtol=0.0
        )
