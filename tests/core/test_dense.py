"""The ``dense`` strategy and the ``auto`` rule that picks it.

``auto`` solves a model below ``DENSE_MAX_ORDER`` on one thread with one
dense eigensolution; everything else keeps the paper's sweep drivers.
The dense result must agree with the sweep and with the independent
oracle, and carry a true one-disk certificate so that coverage checks,
serialization and the store treat it like any sweep result.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import RunConfig
from repro.core.options import SolverOptions
from repro.core.registry import DENSE_MAX_ORDER, resolve_strategy
from repro.core.results import SolveResult
from repro.core.solver import solve
from repro.hamiltonian.dense import dense_hamiltonian
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import pole_residue_to_simo
from repro.obs import trace
from repro.synth import random_macromodel, random_simo_macromodel
from repro.synth.workloads import TABLE1_CASES
from repro.utils.timing import WorkCounter

#: The parity bound of tests/core/test_backends.py, relative to the band.
PARITY_RTOL = 1e-12

TIGHT = SolverOptions(tol=1e-13)


class TestResolution:
    def test_auto_below_crossover_is_dense(self):
        assert resolve_strategy("auto", 1, order=DENSE_MAX_ORDER - 1) == "dense"

    def test_auto_at_crossover_sweeps(self):
        assert resolve_strategy("auto", 1, order=DENSE_MAX_ORDER) == "bisection"

    @pytest.mark.parametrize("threads", [2, 4])
    def test_never_dense_with_threads(self, threads):
        assert resolve_strategy("auto", threads, order=10) == "queue"

    @pytest.mark.parametrize(
        "backend,expected",
        [("serial", "bisection"), ("thread", "queue"), ("process", "process")],
    )
    def test_never_dense_with_explicit_backend(self, backend, expected):
        assert resolve_strategy("auto", 1, backend=backend, order=10) == expected

    @pytest.mark.parametrize("name", ["bisection", "queue", "process"])
    def test_never_dense_with_explicit_strategy(self, name):
        assert resolve_strategy(name, 1, order=10) == name

    def test_explicit_dense_is_single_threaded(self):
        assert resolve_strategy("dense", 1, backend="serial") == "dense"
        with pytest.raises(ValueError, match="sequential"):
            resolve_strategy("dense", 2)
        with pytest.raises(ValueError, match="backend"):
            resolve_strategy("dense", 1, backend="thread")


@pytest.fixture(scope="module")
def model():
    return random_macromodel(10, 2, seed=3, sigma_target=1.06)


class TestCertificate:
    def test_default_solve_of_small_model_is_dense(self, model):
        assert solve(model).strategy == "dense"
        assert solve(pole_residue_to_simo(model)).strategy == "dense"

    def test_one_disk_covers_band_and_spectrum(self, model):
        result = solve(model)
        (record,) = result.shifts
        lo, hi = result.band
        disk = record.result
        assert record.index == 0
        assert record.interval == result.band
        assert record.center == pytest.approx(0.5 * (lo + hi))
        assert disk.shift == 1j * record.center
        assert (disk.restarts, disk.converged, disk.applies) == (0, True, 0)
        spectrum = np.linalg.eigvals(dense_hamiltonian(pole_residue_to_simo(model)))
        assert np.all(np.abs(spectrum - disk.shift) <= disk.radius)
        assert disk.radius >= 0.5 * (hi - lo)
        assert result.coverage_gaps() == []
        # The disk lists the closed upper half plane; the rest are conjugates.
        assert np.all(disk.eigenvalues.imag >= 0.0)
        assert disk.eigenvalues.size == np.count_nonzero(spectrum.imag >= 0.0)

    def test_work_dict_counts_one_shift_and_no_arnoldi(self, model):
        work = solve(model).work
        assert set(work) == set(WorkCounter().snapshot())
        assert work["arnoldi_steps"] == 0
        assert work["operator_applies"] == 0
        assert work["shifts_processed"] == 1

    def test_round_trips_like_a_sweep_result(self, model):
        result = solve(model)
        back = SolveResult.from_dict(result.to_dict())
        assert back.strategy == "dense"
        assert back.shifts_processed == 1
        assert back.coverage_gaps() == []
        np.testing.assert_array_equal(back.omegas, result.omegas)

    def test_automatic_upper_edge_is_the_exact_spectral_bound(self, model):
        result = solve(model)
        spectrum = np.linalg.eigvals(dense_hamiltonian(pole_residue_to_simo(model)))
        expected = SolverOptions().omega_margin * np.max(np.abs(spectrum))
        assert result.band[0] == 0.0
        assert result.band[1] == pytest.approx(expected, rel=1e-9)

    def test_explicit_band_filters_crossings(self, model):
        full = solve(model)
        assert full.num_crossings >= 2
        lo = 0.5 * (full.omegas[0] + full.omegas[1])
        window = solve(model, omega_min=lo, omega_max=2.0 * full.omegas[-1])
        assert window.band == (lo, 2.0 * full.omegas[-1])
        np.testing.assert_allclose(window.omegas, full.omegas[1:])
        assert window.coverage_gaps() == []

    @pytest.mark.parametrize(
        "pole,d,match", [(1.0, 0.0, "stable"), (-1.0, 1.0, "asymptotic")]
    )
    def test_invalid_models_raise_the_sweep_errors(self, pole, d, match):
        bad = PoleResidueModel(
            np.array([pole + 0j]), 0.1 * np.ones((1, 1, 1)), np.array([[d]])
        )
        with pytest.raises(ValueError, match=match):
            solve(bad, strategy="dense")


def _assert_parity(dense, sweep, oracle=None):
    scale = max(1.0, sweep.band[1])
    assert dense.num_crossings == sweep.num_crossings
    np.testing.assert_allclose(
        dense.omegas, sweep.omegas, rtol=0.0, atol=PARITY_RTOL * scale
    )
    if oracle is not None:
        np.testing.assert_allclose(dense.omegas, oracle, rtol=0.0, atol=1e-9 * scale)


class TestParity:
    """Dense and bisection find the same crossings at ``tol=1e-13``."""

    @pytest.mark.parametrize("seed", [3, 10, 17, 156, 327])
    def test_scattering(self, seed):
        model = random_macromodel(10, 2, seed=seed, sigma_target=1.06)
        dense = solve(model, strategy="dense", options=TIGHT)
        sweep = solve(model, strategy="bisection", options=TIGHT)
        oracle = imaginary_eigenvalues_dense(pole_residue_to_simo(model))
        _assert_parity(dense, sweep, oracle)

    @pytest.mark.parametrize("seed", [102, 110])
    def test_immittance(self, seed):
        model = random_macromodel(8, 2, seed=seed, sigma_target=None)
        simo = pole_residue_to_simo(model.with_d(model.d + 0.5 * np.eye(2)))
        config = RunConfig(representation="immittance", options=TIGHT)
        dense = solve(simo, config, strategy="dense")
        sweep = solve(simo, config, strategy="bisection")
        assert dense.num_crossings > 0
        _assert_parity(
            dense, sweep, imaginary_eigenvalues_dense(simo, representation="immittance")
        )

    def test_band_limited(self):
        model = random_macromodel(10, 2, seed=10, sigma_target=1.06)
        config = RunConfig(omega_min=0.5, omega_max=6.0, options=TIGHT)
        dense = solve(model, config, strategy="dense")
        sweep = solve(model, config, strategy="bisection")
        assert dense.band == sweep.band == (0.5, 6.0)
        _assert_parity(dense, sweep)


@pytest.fixture(scope="module")
def close_pair_model():
    """The n = 300 Case 1 substitute whose close pair the queue misses."""
    case = TABLE1_CASES[0]
    return random_simo_macromodel(
        300,
        20,
        seed=1001,
        grid_points=100,
        sigma_target=case.sigma_target,
        q_range=case.q_range,
    )


_ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the first shift certifies a disk past the"
    " close pair at 0.506i, so this driver finds no crossing",
)


def test_close_crossing_pair_reproducer(close_pair_model):
    result = solve(close_pair_model)
    assert result.strategy == "dense"
    np.testing.assert_allclose(result.omegas, [0.50618, 0.50751], atol=5e-6)


@pytest.mark.parametrize(
    "strategy,threads,backend",
    [
        ("bisection", 1, "auto"),
        pytest.param("queue", 1, "auto", marks=_ITEM_1),
        pytest.param("queue", 2, "thread", marks=_ITEM_1),
        pytest.param("static", 2, "thread", marks=_ITEM_1),
        pytest.param("process", 2, "auto", marks=_ITEM_1),
    ],
)
def test_close_crossing_pair_on_every_driver(
    close_pair_model, strategy, threads, backend
):
    """Every sweep driver, at the default options, finds both crossings."""
    result = solve(
        close_pair_model, strategy=strategy, num_threads=threads, backend=backend
    )
    assert result.strategy == strategy
    np.testing.assert_allclose(result.omegas, [0.50618, 0.50751], atol=5e-6)


def test_sweep_span_names_what_ran(model):
    root = trace.TraceContext(trace_id=trace.new_trace_id(), span_id="caller")
    with trace.activate(root) as spans:
        solve(model)
        solve(model, strategy="bisection")
    attributes = [s["attributes"] for s in spans if s["name"] == "solve.sweep"]
    assert [(a["strategy"], a["order"]) for a in attributes] == [
        ("dense", model.order),
        ("bisection", model.order),
    ]


def test_cli_check_names_the_strategy(tmp_path, capsys):
    from repro.touchstone import write_touchstone

    path = tmp_path / "device.s2p"
    device = random_macromodel(10, 2, seed=33, sigma_target=1.04)
    freqs = np.linspace(0.05, 14.0, 250)
    write_touchstone(path, freqs / (2 * np.pi), device.frequency_response(freqs))
    assert main(["check", str(path), "--poles", "10"]) == 2
    (line,) = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("eigensolver:")
    ]
    assert line.startswith("eigensolver: dense, ") and "shifts" not in line
