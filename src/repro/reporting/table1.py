"""Table I driver: serial vs. parallel characterization of the 12 cases.

Run as a module::

    python -m repro.reporting.table1 --scale 0.1 --threads 8 --repeats 2

``--scale`` shrinks the dynamic orders for quick runs (1.0 = the paper's
full sizes).  The measured table is printed in the paper's layout with the
paper's reference values alongside.
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
from repro.reporting.tables import Table1Row, format_table1
from repro.synth.workloads import TABLE1_CASES, CaseSpec, build_case

__all__ = ["run_case", "run_table1", "main"]


def run_case(
    spec: CaseSpec,
    *,
    scale: float = 1.0,
    num_threads: int = 16,
    repeats: int = 1,
    options: Optional[SolverOptions] = None,
    validate_points: int = 0,
) -> Table1Row:
    """Measure one Table I row: serial once, parallel ``repeats`` times.

    With ``validate_points > 0`` the serial crossing set is additionally
    cross-validated against one batched dense sigma sweep of that size
    (see :func:`repro.reporting.sweepcheck.sweep_crossing_check`).
    """
    options = options if options is not None else SolverOptions()
    model = build_case(spec, scale=scale)

    serial = solve(model, RunConfig(strategy="bisection", options=options))
    work_serial = serial.work.get("operator_applies", 0)
    if validate_points:
        check = sweep_crossing_check(model, serial, points=validate_points)
        prefix = "" if check.ok else "WARNING: "
        print(f"{prefix}{spec.name}: {check.summary()}", file=sys.stderr)

    par_times: List[float] = []
    par_works: List[int] = []
    par_projs: List[float] = []
    shifts = eliminated = 0
    nlambda = serial.num_crossings
    for rep in range(repeats):
        rep_options = options.with_(
            seed=(options.seed or 0) + 1000 * (rep + 1)
        )
        par = solve(
            model,
            RunConfig(strategy="queue", num_threads=num_threads, options=rep_options),
        )
        par_times.append(par.elapsed)
        par_works.append(par.work.get("operator_applies", 0))
        par_projs.append(project_speedup(serial, par, num_threads).eta_makespan)
        shifts = par.shifts_processed
        eliminated = par.work.get("shifts_eliminated", 0)
        if par.num_crossings != nlambda:
            # Eigensolvers agree in all validated runs; surface loudly if not.
            print(
                f"WARNING: {spec.name}: serial found {nlambda} crossings,"
                f" parallel rep {rep} found {par.num_crossings}",
                file=sys.stderr,
            )
    tau_t_mean = float(np.mean(par_times))
    tau_t_max = float(np.max(par_times))
    work_par = float(np.mean(par_works))
    return Table1Row(
        case_name=spec.name,
        order=model.order,
        ports=model.num_ports,
        nlambda=nlambda,
        tau1=serial.elapsed,
        tau_t_mean=tau_t_mean,
        tau_t_max=tau_t_max,
        eta_wall=serial.elapsed / tau_t_mean if tau_t_mean > 0 else float("inf"),
        eta_work=work_serial / work_par if work_par > 0 else float("inf"),
        eta_proj=float(np.mean(par_projs)),
        shifts=shifts,
        eliminated=eliminated,
        paper_nlambda=spec.paper_nlambda,
        paper_eta=spec.paper_eta16,
    )


def run_table1(
    *,
    cases: Sequence[CaseSpec] = TABLE1_CASES,
    scale: float = 1.0,
    num_threads: int = 16,
    repeats: int = 1,
    options: Optional[SolverOptions] = None,
    verbose: bool = False,
    validate_points: int = 0,
) -> List[Table1Row]:
    """Measure all requested cases; returns the rows in case order."""
    rows = []
    for spec in cases:
        if verbose:
            print(
                f"running {spec.name} (n={spec.order}, p={spec.ports})...",
                file=sys.stderr,
            )
        rows.append(
            run_case(
                spec,
                scale=scale,
                num_threads=num_threads,
                repeats=repeats,
                options=options,
                validate_points=validate_points,
            )
        )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="order scale factor (0, 1]"
    )
    parser.add_argument("--threads", type=int, default=16, help="parallel thread count")
    parser.add_argument(
        "--repeats", type=int, default=1, help="parallel repetitions per case"
    )
    parser.add_argument(
        "--cases",
        type=str,
        default="",
        help="comma-separated case numbers (default: all 12)",
    )
    parser.add_argument(
        "--validate-points",
        type=int,
        default=0,
        help="cross-validate crossings with a batched dense sigma sweep of"
        " this many points (0 = off)",
    )
    args = parser.parse_args(argv)

    cases = TABLE1_CASES
    if args.cases:
        wanted = {int(tok) for tok in args.cases.split(",")}
        cases = tuple(c for c in TABLE1_CASES if c.case_id in wanted)
    rows = run_table1(
        cases=cases,
        scale=args.scale,
        num_threads=args.threads,
        repeats=args.repeats,
        verbose=True,
        validate_points=args.validate_points,
    )
    print(format_table1(rows, args.threads))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
