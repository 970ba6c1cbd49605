"""Shared low-level utilities for the repro package.

This subpackage collects numerics helpers that are reused across the
macromodel, Hamiltonian, and eigensolver layers:

* :mod:`repro.utils.validation` -- argument checking with consistent errors;
* :mod:`repro.utils.linalg` -- block-diagonal kernels used by the structured
  state-space realization and the Sherman-Morrison-Woodbury shift-invert;
* :mod:`repro.utils.timing` -- work-unit instrumentation;
* :mod:`repro.utils.rng` -- seeded random-stream management so the randomized
  Arnoldi restarts are reproducible;
* :mod:`repro.utils.logging` -- a tiny logging shim used by solvers.
"""

from repro.utils.rng import RandomStream, as_generator
from repro.utils.timing import WorkCounter

__all__ = ["RandomStream", "as_generator", "WorkCounter"]
