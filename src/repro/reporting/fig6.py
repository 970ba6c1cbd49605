"""Fig. 6 driver: speedup vs. thread count for the Case 5 model.

The paper runs Case 5 twenty times per thread count ``t = 1..16`` with
random Arnoldi start vectors and plots the mean speedup with standard
deviations.  Run as a module::

    python -m repro.reporting.fig6 --scale 0.1 --max-threads 8 --repeats 5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import RunConfig
from repro.core.options import SolverOptions
from repro.core.solver import solve
from repro.reporting.projection import project_speedup
from repro.reporting.sweepcheck import sweep_crossing_check
from repro.reporting.tables import Fig6Point, format_fig6
from repro.synth.workloads import fig6_case

__all__ = ["run_fig6", "main"]


def run_fig6(
    *,
    scale: float = 1.0,
    threads: Sequence[int] = tuple(range(1, 17)),
    repeats: int = 20,
    options: Optional[SolverOptions] = None,
    model=None,
    validate_points: int = 0,
) -> List[Fig6Point]:
    """Measure the speedup curve.

    The serial reference ``tau_1`` / ``W_1`` is re-measured per repeat with
    the repeat's seed (matching the paper's protocol, where the statistical
    variation of the *random start vectors* is part of the measurement).

    Parameters
    ----------
    scale:
        Order scale factor for the Case 5 model.
    threads:
        Thread counts to measure.
    repeats:
        Independent randomized runs per thread count (paper: 20).
    options:
        Base solver options; each repeat derives a distinct seed.
    model:
        Optional pre-built model (defaults to the Case 5 substitute).

    Returns
    -------
    list of Fig6Point
    """
    options = options if options is not None else SolverOptions()
    model = model if model is not None else fig6_case(scale=scale)

    # Per-repeat serial references.
    serial_time: List[float] = []
    serial_work: List[int] = []
    serial_results = []
    for rep in range(repeats):
        rep_options = options.with_(seed=(options.seed or 0) + 7919 * (rep + 1))
        res = solve(model, RunConfig(strategy="bisection", options=rep_options))
        serial_time.append(res.elapsed)
        serial_work.append(res.work.get("operator_applies", 1))
        serial_results.append(res)

    if validate_points and serial_results:
        check = sweep_crossing_check(
            model, serial_results[0], points=validate_points
        )
        prefix = "" if check.ok else "WARNING: "
        print(f"{prefix}fig6 case: {check.summary()}", file=sys.stderr)

    points: List[Fig6Point] = []
    for t in threads:
        eta_wall: List[float] = []
        eta_work: List[float] = []
        eta_proj: List[float] = []
        for rep in range(repeats):
            rep_options = options.with_(seed=(options.seed or 0) + 7919 * (rep + 1))
            res = solve(
                model, RunConfig(strategy="queue", num_threads=t, options=rep_options)
            )
            eta_wall.append(
                serial_time[rep] / res.elapsed if res.elapsed > 0 else np.inf
            )
            eta_work.append(
                serial_work[rep] / max(res.work.get("operator_applies", 1), 1)
            )
            eta_proj.append(
                project_speedup(serial_results[rep], res, int(t)).eta_makespan
            )
        points.append(
            Fig6Point(
                threads=int(t),
                eta_wall_mean=float(np.mean(eta_wall)),
                eta_wall_std=float(np.std(eta_wall)),
                eta_work_mean=float(np.mean(eta_work)),
                eta_work_std=float(np.std(eta_work)),
                eta_proj_mean=float(np.mean(eta_proj)),
                eta_proj_std=float(np.std(eta_proj)),
            )
        )
    return points


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="order scale factor (0, 1]"
    )
    parser.add_argument("--max-threads", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument(
        "--validate-points",
        type=int,
        default=0,
        help="cross-validate crossings with a batched dense sigma sweep of"
        " this many points (0 = off)",
    )
    args = parser.parse_args(argv)

    print(
        f"measuring Fig. 6 series (scale={args.scale},"
        f" t=1..{args.max_threads}, {args.repeats} repeats)...",
        file=sys.stderr,
    )
    points = run_fig6(
        scale=args.scale,
        threads=tuple(range(1, args.max_threads + 1)),
        repeats=args.repeats,
        validate_points=args.validate_points,
    )
    print(format_fig6(points))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
