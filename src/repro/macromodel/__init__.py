"""Macromodel representations.

Three equivalent views of a linear interconnect macromodel are provided:

* :class:`repro.macromodel.rational.PoleResidueModel` -- the pole/residue
  form produced by rational fitting (Vector Fitting, ref. [1] of the paper);
* :class:`repro.macromodel.statespace.StateSpace` -- a generic dense
  state-space realization ``{A, B, C, D}``;
* :class:`repro.macromodel.simo.SimoRealization` -- the structured
  block-diagonal multi-SIMO realization of eq. (2) in the paper, with O(n)
  shifted-resolvent kernels that power the fast Hamiltonian eigensolver.
"""

from repro.macromodel.poles import (
    is_stable,
    make_stable,
    partition_poles,
    reconstruct_poles,
)
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import (
    as_simo,
    pole_residue_to_simo,
    realize_column,
    simo_from_columns,
)
from repro.macromodel.simo import SimoColumn, SimoRealization
from repro.macromodel.statespace import StateSpace

__all__ = [
    "PoleResidueModel",
    "StateSpace",
    "SimoColumn",
    "SimoRealization",
    "partition_poles",
    "reconstruct_poles",
    "is_stable",
    "make_stable",
    "realize_column",
    "simo_from_columns",
    "pole_residue_to_simo",
    "as_simo",
]
