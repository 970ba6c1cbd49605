"""Unit tests for the benchmark regression gate (benchmarks/compare.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_COMPARE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
)
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE_PATH)
compare = importlib.util.module_from_spec(_spec)
sys.modules["bench_compare"] = compare
_spec.loader.exec_module(compare)


def payload(**stage_seconds):
    return {
        "sweep": {"batched_seconds": stage_seconds.pop("sweep_batched", 0.1)},
        "stages": [
            {"name": name, "seconds": seconds}
            for name, seconds in stage_seconds.items()
        ],
    }


class TestComparePayloads:
    def test_identical_runs_pass(self):
        base = payload(characterization=0.4, enforcement=0.8)
        diffs, missing = compare.compare_payloads(base, base)
        assert not missing
        assert not any(diff.regressed for diff in diffs)

    def test_injected_regression_detected(self):
        base = payload(characterization=0.4)
        # 30% slower than baseline: beyond the 25% gate.
        cur = payload(characterization=0.52)
        diffs, _ = compare.compare_payloads(base, cur)
        (diff,) = [d for d in diffs if d.name == "characterization"]
        assert diff.regressed
        assert diff.ratio == pytest.approx(1.3)

    def test_slowdown_within_threshold_passes(self):
        base = payload(characterization=0.4)
        cur = payload(characterization=0.48)  # +20%
        diffs, _ = compare.compare_payloads(base, cur)
        assert not any(diff.regressed for diff in diffs)

    def test_noise_floor_exempts_dust_stages(self):
        base = payload(tiny=0.001)
        cur = payload(tiny=0.004)  # 4x slower but microscopic
        diffs, _ = compare.compare_payloads(base, cur)
        (diff,) = [d for d in diffs if d.name == "tiny"]
        assert not diff.eligible
        assert not diff.regressed

    def test_stage_growing_past_floor_is_eligible(self):
        base = payload(tiny=0.01)
        cur = payload(tiny=0.2)  # ballooned into relevance
        diffs, _ = compare.compare_payloads(base, cur)
        (diff,) = [d for d in diffs if d.name == "tiny"]
        assert diff.eligible and diff.regressed

    def test_missing_stage_reported(self):
        base = payload(characterization=0.4, batch_fleet=1.0)
        cur = payload(characterization=0.4)
        _, missing = compare.compare_payloads(base, cur)
        assert missing == ["batch_fleet"]

    def test_empty_baseline_rejected(self):
        with pytest.raises(ValueError, match="no comparable timings"):
            compare.compare_payloads({"stages": []}, payload(a=1.0))

    def test_custom_threshold(self):
        base = payload(characterization=0.4)
        cur = payload(characterization=0.48)  # +20%
        diffs, _ = compare.compare_payloads(base, cur, threshold=0.10)
        assert any(diff.regressed for diff in diffs)


class TestMain:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload(characterization=0.4))
        cur = self._write(tmp_path, "cur.json", payload(characterization=0.41))
        assert compare.main(["--baseline", base, "--current", cur]) == 0
        assert "no benchmark regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload(characterization=0.4))
        cur = self._write(tmp_path, "cur.json", payload(characterization=0.6))
        assert compare.main(["--baseline", base, "--current", cur]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "characterization" in captured.err

    def test_missing_stage_exits_two(self, tmp_path, capsys):
        base = self._write(
            tmp_path, "base.json", payload(characterization=0.4, gone=1.0)
        )
        cur = self._write(tmp_path, "cur.json", payload(characterization=0.4))
        assert compare.main(["--baseline", base, "--current", cur]) == 2
        assert "GONE" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        cur = self._write(tmp_path, "cur.json", payload(a=1.0))
        code = compare.main(
            ["--baseline", str(tmp_path / "nope.json"), "--current", cur]
        )
        assert code == 2

    def test_real_tracked_baseline_self_compares_clean(self, capsys):
        tracked = (
            Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
        )
        code = compare.main(
            ["--baseline", str(tracked), "--current", str(tracked)]
        )
        assert code == 0


class TestFleetGateSkip:
    def _fleet_payload(self, fleet_seconds, workers, **others):
        doc = payload(batch_fleet=fleet_seconds, **others)
        for stage in doc["stages"]:
            if stage["name"] == "batch_fleet":
                stage["extra"] = {"workers": workers}
        return doc

    def test_single_core_host_skips(self):
        current = self._fleet_payload(1.0, workers=4)
        reason = compare.fleet_gate_skip_reason(current, cpu_count=1)
        assert reason is not None and "core" in reason

    def test_one_worker_run_skips(self):
        current = self._fleet_payload(1.0, workers=1)
        reason = compare.fleet_gate_skip_reason(current, cpu_count=8)
        assert reason is not None and "workers: 1" in reason

    def test_parallel_run_on_multicore_gates_normally(self):
        current = self._fleet_payload(1.0, workers=4)
        assert compare.fleet_gate_skip_reason(current, cpu_count=8) is None

    def test_stage_without_extra_gates_normally(self):
        current = payload(batch_fleet=1.0)
        assert compare.fleet_gate_skip_reason(current, cpu_count=8) is None

    def test_main_skips_fleet_regression_from_one_worker_run(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(
            json.dumps(self._fleet_payload(1.0, workers=4, characterization=0.4))
        )
        # 3x slower fleet stage, but the run had a one-worker pool: the
        # stage is reported as SKIP (with the reason) and does not fail
        # the gate; other stages still gate normally.
        cur.write_text(
            json.dumps(self._fleet_payload(3.0, workers=1, characterization=0.4))
        )
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        out = capsys.readouterr().out
        assert "SKIP" in out and "batch_fleet" in out
        assert code == 0

    def test_main_still_fails_on_other_regressions_when_fleet_skipped(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(
            json.dumps(self._fleet_payload(1.0, workers=4, characterization=0.4))
        )
        cur.write_text(
            json.dumps(self._fleet_payload(3.0, workers=1, characterization=0.8))
        )
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        assert code == 1
        assert "characterization" in capsys.readouterr().err


def multicore_payload(cpu_count=4, **speedups):
    """A schema/2 multicore payload whose stages carry min_speedup 1.0."""
    return {
        "schema": "repro-bench-pipeline/2",
        "tier": "multicore",
        "cpu_count": cpu_count,
        "stages": [
            {
                "name": name,
                "seconds": 1.0,
                "extra": {"speedup": speedup, "min_speedup": 1.0, "workers": 2},
            }
            for name, speedup in speedups.items()
        ],
    }


class TestTierAwareness:
    def test_schemaless_payload_is_serial_tier(self):
        assert compare.payload_tier(payload(a=1.0)) == "serial"

    def test_schema2_tier_and_cores_read_back(self):
        doc = multicore_payload(cpu_count=8, batch_fleet=1.5)
        assert compare.payload_tier(doc) == "multicore"
        assert compare.payload_cpu_count(doc) == 8

    def test_floors_extracted_only_when_declared(self):
        doc = multicore_payload(batch_fleet=1.5, queue_drain=2.0)
        doc["stages"].append(
            {
                "name": "eigensweep_process",
                "seconds": 1.0,
                "extra": {"speedup": 0.7, "min_speedup": None},
            }
        )
        checks = {c.name: c for c in compare.speedup_floors(doc)}
        assert set(checks) == {"batch_fleet", "queue_drain"}
        assert not checks["batch_fleet"].failed

    def test_floor_is_strict(self):
        (check,) = compare.speedup_floors(multicore_payload(batch_fleet=1.0))
        assert check.failed  # exactly the floor is a tie, not a win

    def test_floor_skip_reason_on_single_core(self):
        doc = multicore_payload(cpu_count=1, batch_fleet=0.9)
        reason = compare.floor_skip_reason(doc)
        assert reason is not None and "core" in reason

    def test_stamped_core_count_beats_host(self):
        # The payload says 4 cores: floors gate even if this host has 1.
        doc = multicore_payload(cpu_count=4, batch_fleet=1.5)
        assert compare.floor_skip_reason(doc) is None

    def test_main_multicore_passing_floors_exits_zero(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(payload(characterization=0.4)))
        cur.write_text(
            json.dumps(multicore_payload(batch_fleet=1.8, queue_drain=1.6))
        )
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tier 'serial'" in out and "tier 'multicore'" in out

    def test_main_missed_floor_exits_one(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(payload(characterization=0.4)))
        cur.write_text(
            json.dumps(multicore_payload(batch_fleet=0.9, queue_drain=1.6))
        )
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        captured = capsys.readouterr()
        assert code == 1
        assert "batch_fleet" in captured.err
        assert "floor" in captured.err

    def test_main_zero_comparable_stages_exits_two(self, tmp_path, capsys):
        # Tier mismatch and no floors anywhere: the gate inspected
        # nothing and must say so loudly instead of passing.
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(payload(characterization=0.4)))
        doc = multicore_payload()
        doc["stages"] = [{"name": "x", "seconds": 1.0, "extra": {}}]
        cur.write_text(json.dumps(doc))
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        assert code == 2
        assert "zero comparable stages" in capsys.readouterr().err

    def test_main_single_core_multicore_run_exits_two(self, tmp_path, capsys):
        # All floors skipped on a 1-core run leaves nothing gated —
        # same loud refusal (CI skips the job before this point).
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(payload(characterization=0.4)))
        cur.write_text(
            json.dumps(multicore_payload(cpu_count=1, batch_fleet=0.9))
        )
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        captured = capsys.readouterr()
        assert code == 2
        assert "SKIP" in captured.out

    def test_main_same_tier_multicore_payloads_compare_timings(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        doc = multicore_payload(batch_fleet=1.8)
        base.write_text(json.dumps(doc))
        cur.write_text(json.dumps(doc))
        code = compare.main(["--baseline", str(base), "--current", str(cur)])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE" not in out  # same tier: timings gate normally


def worked(work_by_stage, **stage_seconds):
    """A payload whose stages carry the given work dicts."""
    doc = payload(**stage_seconds)
    for stage in doc["stages"]:
        if stage["name"] in work_by_stage:
            stage["work"] = dict(work_by_stage[stage["name"]])
    return doc


class TestWorkGate:
    WORK = {"arnoldi_steps": 1220, "operator_applies": 1448}

    def _main(self, tmp_path, base, cur):
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "cur.json").write_text(json.dumps(cur))
        return compare.main(
            ["--baseline", str(tmp_path / "base.json"),
             "--current", str(tmp_path / "cur.json")]
        )

    def test_planted_extra_arnoldi_step_fails(self, tmp_path, capsys):
        base = worked({"characterization": self.WORK}, characterization=0.4)
        planted = dict(self.WORK, arnoldi_steps=1221)
        cur = worked({"characterization": planted}, characterization=0.4)
        assert self._main(tmp_path, base, cur) == 1
        captured = capsys.readouterr()
        assert "characterization.arnoldi_steps" in captured.out
        assert "1220 -> 1221" in captured.out
        assert "characterization.arnoldi_steps" in captured.err

    def test_equal_work_dicts_pass(self, tmp_path, capsys):
        base = worked({"characterization": self.WORK}, characterization=0.4)
        cur = worked({"characterization": dict(self.WORK)}, characterization=0.41)
        assert self._main(tmp_path, base, cur) == 0
        assert "WORK" not in capsys.readouterr().out

    def test_stage_without_work_on_either_side_is_skipped(self):
        base = worked({}, vector_fit=0.06, characterization=0.4)
        cur = worked({}, vector_fit=0.06, characterization=0.4)
        assert compare.work_diffs(base, cur) == []

    def test_work_dropped_from_the_current_run_fails(self):
        base = worked({"characterization": self.WORK}, characterization=0.4)
        cur = worked({}, characterization=0.4)
        names = [diff.name for diff in compare.work_diffs(base, cur)]
        assert names == [
            "characterization.arnoldi_steps",
            "characterization.operator_applies",
        ]

    def test_work_is_not_compared_across_tiers(self, tmp_path):
        base = worked({"batch_fleet": {"jobs": 16}}, characterization=0.4)
        cur = multicore_payload(batch_fleet=1.8)
        cur["stages"][0]["work"] = {"jobs": 32}
        assert self._main(tmp_path, base, cur) == 0

    def test_tracked_baseline_work_dicts_are_gated(self):
        tracked = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_pipeline.json").read_text()
        )
        gated = [stage["name"] for stage in tracked["stages"] if stage.get("work")]
        assert {"characterization", "enforcement", "sampling_baseline",
                "timedomain"} <= set(gated)
        assert compare.work_diffs(tracked, tracked) == []
