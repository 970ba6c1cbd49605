"""Beyond scattering: H-infinity norms and immittance passivity.

Two extensions built on the same parallel Hamiltonian eigensolver:

1. **H-infinity norm** via gamma-bisection (Boyd/Balakrishnan/Kabamba,
   ref. [7] of the paper — the ancestor of the Hamiltonian passivity
   test): ``||H||_inf < gamma`` iff the Hamiltonian of ``H/gamma`` has no
   imaginary eigenvalues.

2. **Immittance (positive-realness) characterization** (Sec. II: "the
   same derivations can be performed for the impedance, admittance, and
   hybrid cases"): violations are bands where ``H(jw) + H(jw)^H`` loses
   positive semidefiniteness.  The same ``characterize_passivity`` runs
   it when the config names the immittance representation.

Run:  python examples/hinf_and_immittance.py
"""

import numpy as np

from repro.passivity.characterization import characterize_passivity
from repro.passivity.hinf import hinf_norm
from repro.synth import random_macromodel


def main() -> None:
    # ------------------------------------------------------------------
    # H-infinity norm of a scattering model.
    # ------------------------------------------------------------------
    model = random_macromodel(14, 3, seed=21, sigma_target=1.08)
    print(f"scattering model: {model}")
    result = hinf_norm(model, rtol=1e-8, num_threads=2)
    print(
        f"||H||_inf = {result.norm:.9f}"
        f"  (certified bracket [{result.lower:.9f}, {result.upper:.9f}],"
        f" {result.bisections} Hamiltonian sweeps)"
    )
    print(f"norm attained near w = {result.peak_freq:.5f} rad/s")

    # Independent check on a dense grid around the reported peak.
    window = np.linspace(result.peak_freq * 0.99, result.peak_freq * 1.01, 2001)
    sv = np.linalg.svd(model.frequency_response(window), compute_uv=False)[:, 0]
    print(f"dense window check: max sigma = {sv.max():.9f}")

    # ------------------------------------------------------------------
    # Immittance passivity of an impedance-like model.
    # ------------------------------------------------------------------
    base = random_macromodel(12, 3, seed=22, sigma_target=None)
    impedance = base.with_d(base.d + 1.5 * np.eye(3))  # D + D^T > 0
    print(f"\nimmittance model: {impedance}")
    report = characterize_passivity(
        impedance, representation="immittance", num_threads=2
    )
    print(report.summary())
    for band in report.bands:
        # An immittance band's peak is -lambda_min(H + H^H) at its worst point.
        print(
            f"  indefinite band [{band.lo:.4f}, {band.hi:.4f}],"
            f" min eig {-band.peak:.4f} at w = {band.peak_freq:.4f}"
        )


if __name__ == "__main__":
    main()
