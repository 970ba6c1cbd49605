"""Builders that turn pole/residue data into structured SIMO realizations.

The central entry point is :func:`pole_residue_to_simo`, which maps a
:class:`~repro.macromodel.rational.PoleResidueModel` (e.g. the output of
Vector Fitting) to the block-diagonal realization of the paper's eq. (2),
applying the real 2x2 transformation of ref. [9] to complex pole pairs.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.macromodel.poles import partition_poles
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.simo import SimoColumn, SimoRealization
from repro.utils.validation import ensure_matrix, ensure_vector

__all__ = [
    "realize_column",
    "simo_from_columns",
    "pole_residue_to_simo",
    "as_simo",
]


def realize_column(poles, residues) -> SimoColumn:
    """Build one SIMO column from a pole list and residue vectors.

    Parameters
    ----------
    poles:
        1-D pole array (conjugate-complete complex entries allowed).
    residues:
        ``(num_poles, p)`` residue vectors; row ``m`` is the residue vector
        of ``poles[m]``.  Residues of conjugate pole pairs must be
        conjugates of each other (within round-off).

    Returns
    -------
    SimoColumn
        Real 1x1 blocks for real poles, 2x2 blocks for pairs.

    Raises
    ------
    ValueError
        On a conjugate-incomplete pole set or inconsistent residue symmetry.
    """
    poles = ensure_vector(poles, "poles", dtype=complex, allow_empty=True)
    residues = np.atleast_2d(np.asarray(residues, dtype=complex))
    if poles.size == 0:
        return SimoColumn(
            np.empty(0), np.empty((0, 0)), np.empty(0, dtype=complex), np.empty((0, 0))
        )
    if residues.shape[0] != poles.size:
        raise ValueError(
            f"residues rows ({residues.shape[0]}) must match poles ({poles.size})"
        )
    p = residues.shape[1]

    real_poles, pair_poles = partition_poles(poles)
    real_residues = np.zeros((real_poles.size, p), dtype=float)
    pair_residues = np.zeros((pair_poles.size, p), dtype=complex)

    used = np.zeros(poles.size, dtype=bool)

    # Match real poles to rows of the input (greedy nearest, each row once).
    for i, rp in enumerate(real_poles):
        dist = np.where(used, np.inf, np.abs(poles - rp))
        j = int(np.argmin(dist))
        if not np.isfinite(dist[j]):
            raise ValueError("internal pole matching failure for real pole")
        used[j] = True
        res = residues[j]
        if np.max(np.abs(res.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(res)))):
            raise ValueError(
                f"residue of real pole {rp} has a non-negligible imaginary part"
            )
        real_residues[i] = res.real

    for i, pp in enumerate(pair_poles):
        dist = np.where(used, np.inf, np.abs(poles - pp))
        j = int(np.argmin(dist))
        used[j] = True
        pair_residues[i] = residues[j]
        # Locate and validate the conjugate partner's residue.  Pole sets
        # may contain repeated values (one copy per SIMO column), so among
        # equidistant conjugate candidates pick the one whose residue
        # matches best, then validate.
        dist_c = np.where(used, np.inf, np.abs(poles - np.conj(pp)))
        near = dist_c <= max(1e-8 * max(abs(pp), 1.0), float(np.min(dist_c)))
        if not np.any(np.isfinite(dist_c)):
            raise ValueError(f"pole {pp} lacks a conjugate partner")
        candidates = np.nonzero(near)[0]
        mismatches = [
            float(np.max(np.abs(residues[jc] - np.conj(residues[j]))))
            for jc in candidates
        ]
        best = int(np.argmin(mismatches))
        jc = int(candidates[best])
        used[jc] = True
        mismatch = mismatches[best]
        scale = max(1.0, float(np.max(np.abs(residues[j]))))
        if mismatch > 1e-6 * scale:
            raise ValueError(
                f"residues of conjugate pair around {pp} are not conjugate"
                f" (mismatch {mismatch:.3e})"
            )

    return SimoColumn(real_poles, real_residues, pair_poles, pair_residues)


def simo_from_columns(columns: Sequence[SimoColumn], d) -> SimoRealization:
    """Assemble a :class:`SimoRealization` from per-column data."""
    d = ensure_matrix(d, "d", dtype=float)
    return SimoRealization(columns, d)


def pole_residue_to_simo(model: PoleResidueModel) -> SimoRealization:
    """Convert a pole/residue model to the structured realization of eq. (2).

    Every column of the transfer matrix uses the model's full pole set (the
    common-pole case produced by Vector Fitting); columns whose residue
    vector for some pole is identically zero still carry the pole — exact
    minimality is not required by the eigensolver and keeping the uniform
    layout simplifies indexing.
    """
    if not isinstance(model, PoleResidueModel):
        raise TypeError(f"expected PoleResidueModel, got {type(model).__name__}")
    columns = [
        realize_column(model.poles, model.column_residues(k))
        for k in range(model.num_ports)
    ]
    return SimoRealization(columns, model.d)


def as_simo(model: Union[PoleResidueModel, SimoRealization]) -> SimoRealization:
    """The structured realization of a model input: the one normalizer of
    every solver and passivity entry point.

    Raises
    ------
    TypeError
        When ``model`` is neither a :class:`PoleResidueModel` nor a
        :class:`SimoRealization`.
    """
    if isinstance(model, PoleResidueModel):
        return pole_residue_to_simo(model)
    if isinstance(model, SimoRealization):
        return model
    raise TypeError(
        f"expected PoleResidueModel or SimoRealization, got {type(model).__name__}"
    )
