#!/usr/bin/env python
"""Benchmark regression gate: diff a fresh run against the tracked baseline.

Compares the per-stage wall-clock timings of a fresh ``run.py`` output
against the repo-tracked ``BENCH_pipeline.json`` and exits non-zero when
any stage slowed down by more than the threshold (default 25%).  Stages
faster than the noise floor (default 50 ms) in *both* runs are reported
but never fail the gate — interpreter jitter dominates below that.

It also gates each stage's ``work`` dict (Arnoldi steps, operator
applies, shifts, transfer evaluations, time steps, ...) *exactly*: a
counter that differs from the baseline's fails the gate.  A stage with
no work dict on either side is skipped.  The counters are expected not
to depend on the host, but every recorded run so far came from one
machine; Arnoldi steps and restarts come from floating-point
convergence tests, which a different BLAS kernel could move, so a first
``WORK`` row on a new host may be a host difference, not a regression.

The gate is **tier-aware**.  ``run.py`` writes schema
``repro-bench-pipeline/3``; the tracked baseline is still schema/2, and
the gate reads both alike.  Payloads without a ``tier`` field —
including every schema/1 baseline — are treated as the ``serial`` tier:

* Timing diffs only run between payloads of the *same* tier.  A
  multicore run is never timed against the serial baseline (or vice
  versa) — cross-tier wall clocks measure different stages on different
  hardware assumptions.
* Stages whose ``extra`` carries a ``min_speedup`` floor (the multicore
  tier's parallel-scaling stages) are self-gating: the *current*
  payload's measured ``speedup`` must exceed the floor, no baseline
  needed.  Floors are skipped — with the reason printed — when the run
  or the host has fewer than 2 cores, where parallel speedups are
  physically unreachable.
* When neither a timing diff nor a floor applies (e.g. comparing a
  multicore run with no gated stages against a serial baseline), the
  gate fails **loudly** with exit 2 instead of green-lighting a run it
  never actually inspected.

Usage::

    python benchmarks/run.py --output fresh.json
    python benchmarks/compare.py --baseline BENCH_pipeline.json --current fresh.json

CI wires this into the ``bench-smoke`` (serial tier) and
``bench-multicore`` jobs; commits whose message contains
``[bench-skip]`` bypass the gate (escape hatch for runs on known-noisy
runners or intentional trade-offs — say why in the commit).

Exit codes: 0 — no regression; 1 — at least one stage regressed, did
different work, or missed its speedup floor; 2 — the payloads could not
be compared
(missing file/stage, or zero comparable stages for the current tier).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Fail when current > baseline * (1 + THRESHOLD) for an eligible stage.
DEFAULT_THRESHOLD = 0.25

#: Stages faster than this in both runs never fail the gate (seconds).
DEFAULT_MIN_SECONDS = 0.05


@dataclass(frozen=True)
class StageDiff:
    """Comparison of one named timing between baseline and current."""

    name: str
    baseline_seconds: float
    current_seconds: float
    threshold: float
    min_seconds: float

    @property
    def ratio(self) -> float:
        """Current over baseline (>1 means slower)."""
        if self.baseline_seconds <= 0.0:
            return float("inf") if self.current_seconds > 0.0 else 1.0
        return self.current_seconds / self.baseline_seconds

    @property
    def eligible(self) -> bool:
        """True when the stage is above the noise floor in either run."""
        return (
            self.baseline_seconds >= self.min_seconds
            or self.current_seconds >= self.min_seconds
        )

    @property
    def regressed(self) -> bool:
        """True when this stage fails the gate."""
        return self.eligible and self.ratio > 1.0 + self.threshold

    def format_row(self) -> str:
        flag = "FAIL" if self.regressed else ("  ok" if self.eligible else "dust")
        return (
            f"{flag}  {self.name:<24} {self.baseline_seconds:10.4f}s"
            f" -> {self.current_seconds:10.4f}s   x{self.ratio:.3f}"
        )


def payload_tier(payload: dict) -> str:
    """Bench tier of a payload; schema/1 payloads predate the multicore
    tier, so a missing ``tier`` field always means ``serial``."""
    tier = payload.get("tier")
    return str(tier) if tier else "serial"


def payload_cpu_count(payload: dict) -> Optional[int]:
    """Core count stamped by ``run.py`` (schema/2 and later), or None."""
    value = payload.get("cpu_count")
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class FloorCheck:
    """A self-gating stage: its measured speedup vs its declared floor."""

    name: str
    speedup: float
    min_speedup: float

    @property
    def failed(self) -> bool:
        """True when the stage missed its floor (strict: the floor
        itself is not enough — ``min_speedup`` 1.0 demands a real
        parallel win, not a tie with serial)."""
        return not self.speedup > self.min_speedup

    def format_row(self) -> str:
        flag = "FAIL" if self.failed else "  ok"
        return (
            f"{flag}  {self.name:<24} speedup x{self.speedup:.3f}"
            f"   (floor x{self.min_speedup:.3f})"
        )


def speedup_floors(payload: dict) -> List[FloorCheck]:
    """Extract the ``min_speedup``-floored stages of a payload."""
    checks: List[FloorCheck] = []
    for stage in payload.get("stages", []):
        extra = stage.get("extra") or {}
        floor = extra.get("min_speedup")
        speedup = extra.get("speedup")
        if floor is None or speedup is None:
            continue
        checks.append(
            FloorCheck(
                name=str(stage.get("name")),
                speedup=float(speedup),
                min_speedup=float(floor),
            )
        )
    return checks


def floor_skip_reason(
    current: dict, cpu_count: Optional[int] = None
) -> Optional[str]:
    """Why the speedup floors should not be enforced on this run.

    Floors assert parallel wins, which need >= 2 cores.  An explicit
    ``cpu_count`` wins (tests); otherwise the count the run itself
    stamped (the run may have executed on a different host than the
    comparison); otherwise this host's.
    """
    if cpu_count is not None:
        cores: Optional[int] = cpu_count
    else:
        cores = payload_cpu_count(current)
        if cores is None:
            cores = os.cpu_count()
    if cores is not None and cores < 2:
        return (
            f"run executed on {cores} CPU core(s); parallel speedup"
            " floors are unreachable there"
        )
    return None


def _timings(payload: dict) -> Dict[str, float]:
    """Extract the named wall-clock timings compared by the gate.

    Covers every stage record, plus the dense-sweep micro-benchmark's
    batched timing under ``payload["sweep"]``.  ``run.py`` no longer
    writes that key, so the branch serves only older baselines such as
    the tracked schema/2 one.
    """
    timings: Dict[str, float] = {}
    sweep = payload.get("sweep")
    if isinstance(sweep, dict) and "batched_seconds" in sweep:
        timings["sweep.batched"] = float(sweep["batched_seconds"])
    for stage in payload.get("stages", []):
        name = stage.get("name")
        seconds = stage.get("seconds")
        if name is None or seconds is None:
            continue
        timings[str(name)] = float(seconds)
    return timings


@dataclass(frozen=True)
class WorkDiff:
    """One work counter whose value differs from the baseline's."""

    stage: str
    counter: str
    baseline: Optional[int]
    current: Optional[int]

    @property
    def name(self) -> str:
        return f"{self.stage}.{self.counter}"

    def format_row(self) -> str:
        return f"WORK  {self.name:<36} {self.baseline} -> {self.current}"


def work_diffs(baseline: dict, current: dict) -> List[WorkDiff]:
    """Counters that differ between the work dicts of the stages present
    in both payloads; a stage with no work dict on either side is
    skipped, and a counter absent on one side reads ``None`` there."""
    current_work = {
        stage.get("name"): stage.get("work") or {}
        for stage in current.get("stages", [])
    }
    diffs: List[WorkDiff] = []
    for stage in baseline.get("stages", []):
        name = stage.get("name")
        if name not in current_work:
            continue
        base, cur = stage.get("work") or {}, current_work[name]
        for counter in sorted(set(base) | set(cur)):
            if base.get(counter) != cur.get(counter):
                diffs.append(
                    WorkDiff(str(name), counter, base.get(counter), cur.get(counter))
                )
    return diffs


def fleet_gate_skip_reason(
    current: dict, cpu_count: Optional[int] = None
) -> Optional[str]:
    """Why the ``batch_fleet`` stage should not be gated on this host.

    The fleet stage measures process-pool speedup, which is meaningless
    on a single-core runner (or when the run recorded a one-worker
    pool): the "parallel" timing degenerates to serial-plus-overhead and
    the gate would flag infrastructure, not code.  Returns a
    human-readable reason to skip, or ``None`` to gate normally.
    """
    cores = os.cpu_count() if cpu_count is None else cpu_count
    if cores is not None and cores < 2:
        return (
            f"host has {cores} CPU core(s); the process-pool timing is"
            " serial-plus-overhead here, not a regression signal"
        )
    for stage in current.get("stages", []):
        if stage.get("name") != "batch_fleet":
            continue
        workers = (stage.get("extra") or {}).get("workers")
        if workers == 1:
            return (
                "the current run recorded workers: 1; a one-worker pool"
                " measures overhead, not parallel speed"
            )
    return None


def compare_payloads(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Tuple[List[StageDiff], List[str]]:
    """Diff two ``run.py`` payloads.

    Returns
    -------
    (diffs, missing)
        Per-stage comparisons for the stages present in both payloads,
        and the names of baseline stages absent from the current run
        (a silently dropped stage must not pass the gate).
    """
    base_timings = _timings(baseline)
    cur_timings = _timings(current)
    if not base_timings:
        raise ValueError("baseline payload contains no comparable timings")
    diffs = [
        StageDiff(
            name=name,
            baseline_seconds=base_timings[name],
            current_seconds=cur_timings[name],
            threshold=threshold,
            min_seconds=min_seconds,
        )
        for name in base_timings
        if name in cur_timings
    ]
    missing = sorted(set(base_timings) - set(cur_timings))
    return diffs, missing


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_pipeline.json",
        help="tracked baseline JSON (default: repo-root BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--current", type=Path, required=True, help="fresh run.py output JSON"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed per-stage slowdown fraction (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="noise floor: stages faster than this in both runs never fail",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load benchmark payloads: {exc}", file=sys.stderr)
        return 2

    base_tier = payload_tier(baseline)
    cur_tier = payload_tier(current)
    same_tier = base_tier == cur_tier
    diffs: List[StageDiff] = []
    missing: List[str] = []
    work_changes: List[WorkDiff] = []
    if same_tier:
        work_changes = work_diffs(baseline, current)
        try:
            diffs, missing = compare_payloads(
                baseline,
                current,
                threshold=args.threshold,
                min_seconds=args.min_seconds,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    print(
        f"benchmark gate: threshold +{args.threshold:.0%},"
        f" noise floor {args.min_seconds:g}s, tier {cur_tier}"
    )
    if not same_tier:
        print(
            f"NOTE  baseline is tier '{base_tier}', current is tier"
            f" '{cur_tier}': timings are not comparable across tiers,"
            " only speedup floors gate this run"
        )
    skipped: Dict[str, str] = {}
    fleet_reason = fleet_gate_skip_reason(current)
    if fleet_reason is not None:
        skipped["batch_fleet"] = fleet_reason
    for diff in diffs:
        if diff.name in skipped:
            print(f"SKIP  {diff.name:<24} {skipped[diff.name]}")
        else:
            print(diff.format_row())
    for name in missing:
        print(f"GONE  {name:<24} present in baseline, absent from current run")
    for change in work_changes:
        print(change.format_row())

    floors = speedup_floors(current)
    floors_reason = floor_skip_reason(current) if floors else None
    gated_floors: List[FloorCheck] = []
    for check in floors:
        if floors_reason is not None:
            print(f"SKIP  {check.name:<24} {floors_reason}")
        else:
            print(check.format_row())
            gated_floors.append(check)

    regressions = [
        diff for diff in diffs if diff.regressed and diff.name not in skipped
    ]
    floor_failures = [check for check in gated_floors if check.failed]
    gated_anything = (
        any(diff.name not in skipped for diff in diffs) or gated_floors
    )
    if missing:
        print(
            f"{len(missing)} baseline stage(s) missing from the current run",
            file=sys.stderr,
        )
        return 2
    if not gated_anything:
        # A gate that inspected nothing must not report success — a CI
        # job green on zero comparable stages is a silent skip.
        print(
            f"error: zero comparable stages for tier '{cur_tier}'"
            f" (baseline tier '{base_tier}', no applicable speedup"
            " floors); refusing to pass a gate that checked nothing",
            file=sys.stderr,
        )
        return 2
    if regressions or floor_failures or work_changes:
        if work_changes:
            print(
                f"{len(work_changes)} work counter(s) differ from the"
                " baseline: " + ", ".join(change.name for change in work_changes),
                file=sys.stderr,
            )
        if regressions:
            print(
                f"{len(regressions)} stage(s) regressed beyond"
                f" {args.threshold:.0%}: "
                + ", ".join(diff.name for diff in regressions),
                file=sys.stderr,
            )
        if floor_failures:
            print(
                f"{len(floor_failures)} stage(s) missed their speedup"
                " floor: "
                + ", ".join(check.name for check in floor_failures),
                file=sys.stderr,
            )
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
