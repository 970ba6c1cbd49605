"""Passivity characterization and enforcement.

Characterization (Sec. II of the paper): the purely imaginary eigenvalues
of the Hamiltonian matrix mark the frequencies where singular values of
the scattering matrix cross the unit threshold; the bands between
consecutive crossings where ``sigma_max > 1`` are the passivity
violations.  For immittance (Y/Z/hybrid) models the same pipeline marks
where eigenvalues of ``H + H^H`` cross zero and flags the bands where
the smallest one is negative; ``config.representation`` picks the test.

Enforcement (scattering models): the standard iterative
residue-perturbation scheme referenced by the paper ([8], [17]): locate
each violation band's singular-value peak, build first-order
sensitivities of the peak with respect to the model residues, and apply
the minimum-norm perturbation that pushes all peaks back under the
threshold; repeat until the Hamiltonian test reports no crossings.
"""

from repro.passivity.characterization import (
    PassivityReport,
    ViolationBand,
    characterize_passivity,
    violation_bands_from_crossings,
)
from repro.passivity.enforcement import (
    EnforcementResult,
    clip_direct_term,
    enforce_passivity,
)
from repro.passivity.hinf import HinfResult, hinf_norm
from repro.passivity.metrics import (
    grid_passivity_margin,
    peak_singular_value_on_grid,
    singular_values_on_grid,
)
from repro.passivity.sampling import SamplingReport, sampled_violations

__all__ = [
    "PassivityReport",
    "ViolationBand",
    "characterize_passivity",
    "violation_bands_from_crossings",
    "EnforcementResult",
    "clip_direct_term",
    "enforce_passivity",
    "singular_values_on_grid",
    "peak_singular_value_on_grid",
    "grid_passivity_margin",
    "HinfResult",
    "hinf_norm",
    "SamplingReport",
    "sampled_violations",
]
