"""The paper's primary contribution: the parallel Hamiltonian eigensolver.

Layering (bottom up):

* :mod:`repro.core.arnoldi` -- Krylov/Arnoldi machinery with explicit
  deflation and re-orthogonalization;
* :mod:`repro.core.single_shift` -- the single-shift operator
  ``S(theta, rho0) -> ({lambda_k}, rho)`` of Sec. III: a restarted,
  deflated Arnoldi process around one shift returning the eigenvalues in a
  certified disk;
* :mod:`repro.core.scheduler` -- the dynamic band-coverage scheduler of
  Sec. IV (tentative/processing/done shift sets, interval splitting,
  covered-shift elimination, startup ordering, termination), and the
  classical bisection of Fig. 2 as a placement policy with its interface;
* :mod:`repro.core.sweep` -- the one claim -> run -> complete loop over
  either, with each shift run inline, on threads, or on a process pool;
* :mod:`repro.core.dense` -- the full O(n^3) eigensolution that
  ``strategy="auto"`` picks below the measured crossover order;
* :mod:`repro.core.registry` -- the closed table of the five strategies
  and :func:`resolve_strategy`, which decides the one a solve runs;
* :mod:`repro.core.config` -- the single :class:`RunConfig` carrying all
  cross-cutting knobs, checked by the resolver when it is built;
* :mod:`repro.core.solver` -- the public API :func:`solve`, running
  ``dense`` or the sweep the resolver names.
"""

from repro.core.config import RunConfig
from repro.core.options import SolverOptions
from repro.core.registry import available_strategies, resolve_strategy
from repro.core.results import ShiftRecord, SingleShiftResult, SolveResult
from repro.core.single_shift import SingleShiftSolver, estimate_spectral_bound
from repro.core.solver import solve

__all__ = [
    "RunConfig",
    "SolverOptions",
    "available_strategies",
    "resolve_strategy",
    "SingleShiftResult",
    "ShiftRecord",
    "SolveResult",
    "SingleShiftSolver",
    "estimate_spectral_bound",
    "solve",
]
