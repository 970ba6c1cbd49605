"""Parallel scaling study on a Table-I-shaped macromodel (Fig. 6 style).

Sweeps the thread count on the Case 5 substitute model and reports, per
thread count:

* wall time (on CPython attenuated by the GIL: threads overlap only
  inside numpy/BLAS),
* total operator work,
* the projected T-core speedup from the makespan simulation (the
  platform-independent analogue of the paper's speedup factor),
* shifts processed and tentative shifts eliminated by the dynamic
  scheduler (the source of the paper's superlinear cases).

Run:  python examples/parallel_scaling.py [scale]
      (scale in (0, 1]; default 0.05 => order ~112; 1.0 = paper size 2240)
"""

import sys

from repro import RunConfig, SolverOptions, solve
from repro.reporting.projection import project_speedup
from repro.synth.workloads import fig6_case


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    model = fig6_case(scale=scale)
    options = SolverOptions(seed=3)
    print(f"Case 5 substitute: order={model.order}, ports={model.num_ports}")

    serial = solve(model, RunConfig(strategy="bisection", options=options))
    print(
        f"\nserial bisection reference: {serial.elapsed:.3f}s,"
        f" {serial.work['operator_applies']} applies,"
        f" {serial.num_crossings} crossings"
    )

    header = (
        f"{'threads':>8}{'wall[s]':>10}{'applies':>10}{'shifts':>8}"
        f"{'elim':>6}{'eta_proj':>10}"
    )
    print("\n" + header)
    print("-" * len(header))
    for threads in (1, 2, 4, 8, 16):
        result = solve(
            model, RunConfig(strategy="queue", num_threads=threads, options=options)
        )
        assert result.num_crossings == serial.num_crossings, "solvers disagree!"
        projection = project_speedup(serial, result, threads)
        print(
            f"{threads:>8}{result.elapsed:>10.3f}"
            f"{result.work['operator_applies']:>10}"
            f"{result.shifts_processed:>8}"
            f"{result.work['shifts_eliminated']:>6}"
            f"{projection.eta_makespan:>10.3f}"
        )

    print(
        "\nNote: eta_proj is the speedup a T-core machine would achieve"
        " (work-based makespan projection); wall times on a single-core"
        " CPython host do not overlap."
    )


if __name__ == "__main__":
    main()
