"""Percentile reporting, and the metric catalogue against BENCHMARK.json."""

import json
import math
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.stats import hd_median, percentile, reportable_tail, summarize

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "count, tail",
    [(0, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_reportable_tail_keeps_ten_samples_beyond(count, tail):
    assert reportable_tail(count) == tail
    if tail is not None:
        assert count * (1 - tail / 100) >= 10 - 1e-9


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 100) == 4.0
    assert math.isnan(percentile([], 50))


def test_hd_median_estimates_the_median():
    assert hd_median([]) == 0.0
    assert hd_median([3.0]) == 3.0
    assert hd_median([4.0, 1.0, 3.0, 2.0, 5.0]) == pytest.approx(3.0)
    values = [float(i) for i in range(1, 202)]
    assert hd_median(values) == pytest.approx(101.0)


def test_hd_median_moves_smoothly_on_a_grid():
    # Latencies on a 0.1 s grid: moving one sample across the middle
    # shifts the sample median a whole step, the estimate only a little.
    low = [0.5] * 16 + [0.6] * 15
    high = [0.5] * 15 + [0.6] * 16
    assert percentile(high, 50) - percentile(low, 50) == pytest.approx(0.1)
    assert 0.0 < hd_median(high) - hd_median(low) < 0.03


def test_summarize_states_count_median_and_tail():
    values = [float(i) for i in range(1, 201)]
    summary = summarize(values)
    assert summary["n"] == 200
    assert summary["p50"] == pytest.approx(100.5)
    assert summary["tail_q"] == 90.0
    assert summary["tail"] == pytest.approx(percentile(values, 90))
    assert summarize([1.0])["tail"] is None


def test_catalogue_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [row[:3] for row in metrics.PER_LAYER]


def test_every_target_names_a_declared_metric_and_workload():
    end_to_end = {name for name, *_ in metrics.END_TO_END}
    for goal in metrics.targets().values():
        for target in goal or ():
            name, workload = target.split("@")
            assert name in end_to_end
            assert workload in metrics.WORKLOADS


def test_emit_fills_unexercised_layers_with_zero():
    out = metrics.emit("per_layer", {"store.hit_ratio": 1.0})
    assert list(out) == [name for name, *_ in metrics.PER_LAYER]
    assert out["store.hit_ratio"] == {"value": 1.0, "unit": "share"}
    assert out["core.solve_s.serial"]["value"] == 0.0
    with pytest.raises(KeyError):
        metrics.emit("end_to_end", {"setup_s": 1.0})
