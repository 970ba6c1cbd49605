"""The bench stage table (:mod:`repro.obs.benchstage`) behind ``repro bench``
and ``benchmarks/run.py``, checked against the gate that reads its payload."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import benchstage

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_compare_for_stages", ROOT / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = compare
_spec.loader.exec_module(compare)


def _instant(scale, threads):
    return benchstage.StageResult(0.0, None, {})


def test_serial_tier_produces_every_gated_timing():
    baseline = json.loads((ROOT / "BENCH_pipeline.json").read_text())
    gated = set(compare._timings(baseline))
    assert gated
    assert gated <= set(benchstage.TIERS["serial"])
    for stages in benchstage.TIERS.values():
        assert set(stages) <= set(benchstage.BENCH_STAGES)


def test_bench_payload_passes_the_gate_against_itself(tmp_path, capsys):
    out = tmp_path / "bench.json"
    argv = ["bench", "frequency_response", "sampling_baseline", "--scale", "0.02"]
    assert main([*argv, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == payload
    assert payload["tier"] == "serial"
    assert [stage["name"] for stage in payload["stages"]] == argv[1:3]
    diffs, missing = compare.compare_payloads(payload, payload)
    assert not missing
    assert len(diffs) == 2
    assert not any(diff.regressed for diff in diffs)


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--scale", "-3"], "--scale"),
        (["--scale", "0"], "--scale"),
        (["--scale", "1.5"], "--scale"),
        (["--threads", "0"], "--threads"),
        (["eigensweep"], "eigensweep"),
    ],
)
def test_bad_input_exits_1_before_any_stage_runs(extra, named, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(
        benchstage.BENCH_STAGES, "vector_fit", lambda *args: ran.append(args)
    )
    assert main(["bench", "vector_fit", *extra]) == 1
    captured = capsys.readouterr()
    assert named in captured.err
    assert not captured.out
    assert not ran


def test_failed_check_exits_nonzero_naming_the_stage(capsys, monkeypatch):
    def failing(scale, threads):
        raise benchstage.StageCheckError("the claim no longer holds")

    monkeypatch.setitem(benchstage.BENCH_STAGES, "comb_scaling", failing)
    assert main(["bench", "comb_scaling"]) == 3
    err = capsys.readouterr().err
    assert "comb_scaling" in err
    assert "the claim no longer holds" in err


@pytest.mark.parametrize(
    "stages, tier",
    [
        ([], "serial"),
        (["queue_drain", "batch_fleet"], "multicore"),
        (["vector_fit", "queue_drain"], None),
        (["scheduler_ablation"], None),
    ],
)
def test_payload_names_the_tier_that_holds_every_stage(stages, tier, monkeypatch):
    for name in benchstage.BENCH_STAGES:
        monkeypatch.setitem(benchstage.BENCH_STAGES, name, _instant)
    payload = benchstage.run_bench_stages(stages)
    assert payload["tier"] == tier
    expected = stages or list(benchstage.TIERS["serial"])
    assert [stage["name"] for stage in payload["stages"]] == expected


def test_service_import_path_leaves_the_table_unloaded():
    code = (
        "import sys, repro, repro.obs, repro.cli, repro.service;"
        " print('repro.obs.benchstage' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_eigensweep_process_stage_runs_the_pool():
    # At the tier's default scale the reference model is below
    # PROCESS_MIN_ORDER, where the process backend would run on threads.
    result = benchstage.BENCH_STAGES["eigensweep_process"](0.05, 2)
    assert result.extra["strategy"] == "process"
    assert result.extra["max_crossing_diff"] < float("inf")
