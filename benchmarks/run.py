#!/usr/bin/env python
"""Run one tier of the bench stage table with BLAS pinned; write its payload.

The stages and tiers live in :mod:`repro.obs.benchstage`:

* ``serial`` (the default) writes the tracked ``BENCH_pipeline.json``,
  which ``compare.py`` gates on timing;
* ``multicore`` records the parallel-scaling stages, which gate
  themselves through the ``min_speedup`` floors in their own payload.

Examples::

    python benchmarks/run.py                      # serial tier
    python benchmarks/run.py --tier multicore --output fresh.json

``repro bench STAGE...`` runs any stage of the same table unpinned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

# One BLAS/OpenMP thread per process, set before numpy loads, as the
# repository benchmark (perfbench/run.py) does; worker processes inherit
# it.  Unpinned, the first BLAS-heavy stage on a multi-core host pays
# OpenBLAS thread start-up: on a 2-core host vector_fit read 0.74 s cold
# against 0.08 s warm.
os.environ.update(
    {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "BLIS_NUM_THREADS": "1",
    }
)

from repro.obs.benchstage import TIERS, run_bench_stages  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tier",
        choices=sorted(TIERS),
        default="serial",
        help="stage tier to run (default: serial, the tracked baseline)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_pipeline.json",
        help="output JSON path (default: repo-root BENCH_pipeline.json)",
    )
    args = parser.parse_args(argv)

    print(
        f"tier: {args.tier} ({os.cpu_count() or 1} CPU core(s) detected)",
        file=sys.stderr,
    )
    # The table's default scale (0.05) and threads (2) are the baseline's.
    payload = run_bench_stages(TIERS[args.tier])
    for record in payload["stages"]:
        speedup = record["extra"].get("speedup")
        note = "" if speedup is None else f"  speedup {speedup:.2f}x"
        print(f"  {record['name']:<20} {record['seconds']:.4f}s{note}", file=sys.stderr)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
