"""Backend parity: serial, thread, and process sweeps agree exactly.

The acceptance bar of the process backend: on seeded synthetic models,
all three execution backends must report the *same* crossing set — same
count, values within 1e-12 of each other (relative to the band scale) —
including the small-model path where ``backend="process"`` falls back to
threads.  The solver tolerance is tightened below its default so that
converged Ritz values are pinned to near machine precision and the
comparison is meaningful.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.options import SolverOptions
from repro.core.registry import resolve_strategy
from repro.core.solver import solve
from repro.core.sweep import ENV_MIN_ORDER
from repro.synth import random_macromodel

#: Tight eigenpair tolerance so cross-backend deviations are round-off,
#: not truncation (see tests/core/test_process.py for default-tol runs).
TIGHT = SolverOptions(tol=1e-13)

#: Acceptance bound: 1e-12 relative to the band scale.
PARITY_RTOL = 1e-12


def _crossings(model, *, backend: str, num_threads: int):
    config = RunConfig(
        num_threads=num_threads, backend=backend, options=TIGHT
    )
    return solve(model, config)


def _assert_parity(results: dict) -> None:
    names = list(results)
    reference = results[names[0]]
    scale = max(1.0, reference.band[1])
    for name in names[1:]:
        other = results[name]
        assert other.num_crossings == reference.num_crossings, (
            f"{name} found {other.num_crossings} crossings,"
            f" {names[0]} found {reference.num_crossings}"
        )
        if reference.num_crossings:
            np.testing.assert_allclose(
                np.sort(other.omegas),
                np.sort(reference.omegas),
                rtol=0.0,
                atol=PARITY_RTOL * scale,
                err_msg=f"{name} vs {names[0]}",
            )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_backend_parity_property(seed, _force_pool_env):
    """All three backends return identical crossing sets (≤1e-12)."""
    model = random_macromodel(10, 2, seed=seed, sigma_target=1.06)
    results = {
        "serial": _crossings(model, backend="serial", num_threads=1),
        "thread": _crossings(model, backend="thread", num_threads=4),
        "process": _crossings(model, backend="process", num_threads=4),
    }
    assert results["process"].strategy == "process"
    _assert_parity(results)


@pytest.fixture(scope="module")
def _force_pool_env():
    # hypothesis forbids function-scoped fixtures; a module-scoped env
    # flip keeps every property example on the true pool path.
    import os

    old = os.environ.get(ENV_MIN_ORDER)
    os.environ[ENV_MIN_ORDER] = "1"
    yield
    if old is None:
        os.environ.pop(ENV_MIN_ORDER, None)
    else:
        os.environ[ENV_MIN_ORDER] = old


@pytest.mark.parametrize("seed", [3, 17])
def test_backend_parity_with_thread_fallback(seed, monkeypatch):
    """Small models: backend='process' silently rides the thread pool
    and must still match the serial sweep."""
    # Pin the threshold far above the model order: the module-scoped
    # force-pool fixture may still be active from the property test.
    monkeypatch.setenv(ENV_MIN_ORDER, "1000000")
    model = random_macromodel(8, 2, seed=seed, sigma_target=1.05)
    serial = _crossings(model, backend="serial", num_threads=1)
    process = _crossings(model, backend="process", num_threads=4)
    assert process.strategy == "queue"  # the documented fallback
    _assert_parity({"serial": serial, "process-fallback": process})


@pytest.mark.parametrize("seed", [5, 23])
def test_backend_parity_passive_model(seed, _force_pool_env):
    """Passive models: every backend certifies the empty crossing set."""
    model = random_macromodel(9, 2, seed=seed, sigma_target=0.92)
    for backend, threads in (("serial", 1), ("thread", 3), ("process", 3)):
        result = _crossings(model, backend=backend, num_threads=threads)
        assert result.is_passive_candidate, backend


class TestBackendResolution:
    def test_auto_backend_preserves_historical_behavior(self):
        assert RunConfig().resolved_strategy() == "bisection"
        assert RunConfig(num_threads=4).resolved_strategy() == "queue"

    def test_explicit_backends(self):
        assert RunConfig(backend="serial").resolved_strategy() == "bisection"
        assert RunConfig(backend="thread").resolved_strategy() == "queue"
        assert (
            RunConfig(backend="thread", num_threads=8).resolved_strategy()
            == "queue"
        )
        assert (
            RunConfig(backend="process", num_threads=4).resolved_strategy()
            == "process"
        )

    def test_serial_backend_requires_one_thread(self):
        with pytest.raises(ValueError, match="num_threads == 1"):
            resolve_strategy("auto", 4, backend="serial")

    def test_contradictory_strategy_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_strategy("bisection", 1, backend="process")
        with pytest.raises(ValueError, match="backend"):
            resolve_strategy("static", 4, backend="process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig(backend="gpu")

    def test_process_strategy_any_backend_auto(self):
        spec = resolve_strategy("process", 4)
        assert spec.name == "process"
