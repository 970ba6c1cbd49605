"""Scheduler stress benchmark: transmission-line resonance combs.

The paper's industrial cases are electrically long packaging
interconnects; their rational models carry regularly spaced resonance
combs, which produce *many evenly distributed* imaginary eigenvalues —
the stress case for band-coverage scheduling (every interval contains
work; elimination is rare; splits are common).

This benchmark sweeps comb models of growing resonance counts and checks
that the solver's work grows roughly linearly with the number of
crossings — the scalability property that lets the paper handle cases
with N_lambda up to 125.
"""

from __future__ import annotations

import pytest

from _config import BENCH_SCALE, BENCH_THREADS, write_artifact
from repro import RunConfig, solve
from repro.core.options import SolverOptions
from repro.synth.transmission_line import transmission_line_model

OPTIONS = SolverOptions()
SERIAL = RunConfig(strategy="bisection", options=OPTIONS)

_BASE_RESONANCES = max(4, int(80 * BENCH_SCALE))
RESONANCES = [_BASE_RESONANCES * k for k in (1, 2, 4)]

_models = {}


def get_model(num_resonances):
    if num_resonances not in _models:
        _models[num_resonances] = transmission_line_model(
            num_resonances,
            4,
            seed=num_resonances,
            sigma_target=1.12,
            delay=float(num_resonances) / 4.0,  # keep the band roughly fixed
        )
    return _models[num_resonances]


@pytest.mark.parametrize("num_resonances", RESONANCES)
def test_comb_serial(benchmark, num_resonances):
    model = get_model(num_resonances)
    result = benchmark.pedantic(
        lambda: solve(model, SERIAL),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["crossings"] = result.num_crossings
    benchmark.extra_info["shifts"] = result.shifts_processed


@pytest.mark.parametrize("num_resonances", RESONANCES)
def test_comb_parallel(benchmark, num_resonances):
    model = get_model(num_resonances)
    result = benchmark.pedantic(
        lambda: solve(
            model,
            RunConfig(strategy="queue", num_threads=BENCH_THREADS, options=OPTIONS),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["crossings"] = result.num_crossings
    benchmark.extra_info["shifts"] = result.shifts_processed


def test_comb_report(benchmark):
    """Crossings scale with the comb; work per crossing stays bounded."""

    def run():
        lines = [
            f"{'resonances':>11}{'order':>7}{'crossings':>10}{'shifts':>8}"
            f"{'applies':>9}{'applies/crossing':>18}"
        ]
        lines.append("-" * len(lines[0]))
        rows = []
        for num_resonances in RESONANCES:
            model = get_model(num_resonances)
            result = solve(model, SERIAL)
            applies = result.work["operator_applies"]
            per = applies / max(result.num_crossings, 1)
            rows.append((result.num_crossings, per))
            lines.append(
                f"{num_resonances:>11}{model.order:>7}{result.num_crossings:>10}"
                f"{result.shifts_processed:>8}{applies:>9}{per:>18.1f}"
            )
        # More resonances must produce more crossings (comb grows)...
        assert rows[-1][0] > rows[0][0]
        # ...with sub-quadratic growth of work per crossing.
        assert rows[-1][1] < 10.0 * rows[0][1]
        return "\n".join(lines)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    path = write_artifact("transmission_line_scaling.txt", table)
    print("\n[Transmission-line comb scaling]")
    print(table)
    print(f"(written to {path})")
