"""Unit tests for the strategy table and its resolver."""

import pytest

from repro.core import sweep
from repro.core.registry import (
    STRATEGIES,
    available_strategies,
    ensure_strategy,
    resolve_strategy,
)
from repro.core.solver import solve
from repro.synth import random_macromodel


class TestBuiltins:
    def test_builtins_registered(self):
        names = available_strategies()
        assert names[0] == "auto"
        assert {"bisection", "queue", "static"} <= set(names)

    def test_auto_resolution_serial(self):
        assert resolve_strategy("auto", 1) == "bisection"

    def test_auto_resolution_parallel(self):
        assert resolve_strategy("auto", 4) == "queue"

    def test_explicit_resolution(self):
        assert resolve_strategy("static", 3) == "static"

    def test_bisection_multithread_rejected(self):
        with pytest.raises(ValueError, match="sequential"):
            resolve_strategy("bisection", 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_strategy("bogus", 1)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="bisection"):
            ensure_strategy("bogus")

    def test_spec_metadata(self):
        row = STRATEGIES["bisection"]
        assert row.sequential
        assert row.backends == ("serial",)
        assert not STRATEGIES["queue"].sequential


SERIAL = "num_threads == 1"
SEQUENTIAL = "inherently sequential"
MISMATCH = r"runs on backend\(s\)"

#: What a solve of a model below DENSE_MAX_ORDER runs, per (strategy,
#: backend, threads): the ``SolveResult.strategy``, the message of the
#: error raised, or a pair (below PROCESS_MIN_ORDER, at or above it).
RESOLUTION = {
    ("auto", "auto", 1): "dense",
    ("auto", "auto", 2): "queue",
    ("auto", "serial", 1): "bisection",
    ("auto", "serial", 2): SERIAL,
    ("auto", "thread", 1): "queue",
    ("auto", "thread", 2): "queue",
    ("auto", "process", 1): "process",
    ("auto", "process", 2): ("queue", "process"),
    ("bisection", "auto", 1): "bisection",
    ("bisection", "auto", 2): SEQUENTIAL,
    ("bisection", "serial", 1): "bisection",
    ("bisection", "serial", 2): SERIAL,
    ("bisection", "thread", 1): MISMATCH,
    ("bisection", "thread", 2): MISMATCH,
    ("bisection", "process", 1): MISMATCH,
    ("bisection", "process", 2): MISMATCH,
    ("queue", "auto", 1): "queue",
    ("queue", "auto", 2): "queue",
    ("queue", "serial", 1): "queue",
    ("queue", "serial", 2): SERIAL,
    ("queue", "thread", 1): "queue",
    ("queue", "thread", 2): "queue",
    ("queue", "process", 1): MISMATCH,
    ("queue", "process", 2): MISMATCH,
    ("static", "auto", 1): "static",
    ("static", "auto", 2): "static",
    ("static", "serial", 1): MISMATCH,
    ("static", "serial", 2): SERIAL,
    ("static", "thread", 1): "static",
    ("static", "thread", 2): "static",
    ("static", "process", 1): MISMATCH,
    ("static", "process", 2): MISMATCH,
    ("process", "auto", 1): "process",
    ("process", "auto", 2): ("queue", "process"),
    ("process", "serial", 1): MISMATCH,
    ("process", "serial", 2): SERIAL,
    ("process", "thread", 1): MISMATCH,
    ("process", "thread", 2): MISMATCH,
    ("process", "process", 1): "process",
    ("process", "process", 2): ("queue", "process"),
    ("dense", "auto", 1): "dense",
    ("dense", "auto", 2): SEQUENTIAL,
    ("dense", "serial", 1): "dense",
    ("dense", "serial", 2): SERIAL,
    ("dense", "thread", 1): MISMATCH,
    ("dense", "thread", 2): MISMATCH,
    ("dense", "process", 1): MISMATCH,
    ("dense", "process", 2): MISMATCH,
}


@pytest.fixture(scope="module")
def tiny_model():
    return random_macromodel(6, 2, seed=0)


def test_resolution_table_is_complete():
    assert set(RESOLUTION) == {
        (strategy, backend, threads)
        for strategy in available_strategies()
        for backend in ("auto", "serial", "thread", "process")
        for threads in (1, 2)
    }


@pytest.mark.parametrize("pool_order", [False, True], ids=["small", "pool"])
@pytest.mark.parametrize(
    "key", sorted(RESOLUTION), ids=lambda key: "-".join(map(str, key))
)
def test_resolution_table(key, pool_order, tiny_model, monkeypatch):
    """Every request runs the pinned strategy or raises the pinned error,
    below PROCESS_MIN_ORDER and with it patched below the model's order."""
    strategy, backend, threads = key
    if pool_order:
        monkeypatch.setattr(sweep, "PROCESS_MIN_ORDER", 1)
    expected = RESOLUTION[key]
    if isinstance(expected, tuple):
        expected = expected[pool_order]
    request = dict(strategy=strategy, backend=backend, num_threads=threads)
    if expected in (SERIAL, SEQUENTIAL, MISMATCH):
        with pytest.raises(ValueError, match=expected):
            solve(tiny_model, **request)
    else:
        result = solve(tiny_model, **request)
        assert result.strategy == expected
        assert result.num_threads == threads
