"""Hamiltonian matrices for passivity characterization.

The scattering Hamiltonian (eq. 5 of the paper) associated with a
state-space macromodel has the property that its purely imaginary
eigenvalues ``j*w`` mark exactly the frequencies where singular values of
``H(j*w)`` cross the unit threshold.  This subpackage provides:

* :mod:`repro.hamiltonian.dense` -- explicit dense construction (eq. 5),
  scattering and immittance variants;
* :mod:`repro.hamiltonian.operator` -- a matrix-free O(n p) operator built
  on the structured SIMO realization;
* :mod:`repro.hamiltonian.shift_invert` -- the Sherman-Morrison-Woodbury
  shift-and-invert operator of eq. (6).  Each shift is factored once, in
  O(n p + p^3): the block-diagonal resolvent
  ``K^{-1} = blkdiag(A - theta I, -A^T - theta I)^{-1}`` (reciprocals and
  closed-form 2x2 inverses, O(n) memory) and the inverted ``2p x 2p``
  core.  One application then costs two elementwise ``K^{-1}`` products,
  two O(n p) port projections and one O(p^2) core product;
* :mod:`repro.hamiltonian.spectral` -- the O(n^3) full dense eigensolution
  baseline and imaginary-eigenvalue filtering.
"""

from repro.hamiltonian.dense import (
    dense_hamiltonian,
    dense_hamiltonian_immittance,
    dense_hamiltonian_scattering,
)
from repro.hamiltonian.operator import HamiltonianOperator
from repro.hamiltonian.shift_invert import ShiftInvertOperator
from repro.hamiltonian.spectral import (
    full_hamiltonian_spectrum,
    imaginary_eigenvalues_dense,
    select_imaginary,
)

__all__ = [
    "dense_hamiltonian",
    "dense_hamiltonian_scattering",
    "dense_hamiltonian_immittance",
    "HamiltonianOperator",
    "ShiftInvertOperator",
    "full_hamiltonian_spectrum",
    "imaginary_eigenvalues_dense",
    "select_imaginary",
]
