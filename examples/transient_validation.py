"""Transient validation: watch a non-passive macromodel manufacture energy.

The frequency-domain pipeline certifies passivity analytically; this
example demonstrates the *consequence* the paper's motivation section
describes — a macromodel whose singular values exceed one injects
energy into the surrounding circuit, and the enforcement loop removes
exactly that behavior:

1. synthesize a mildly non-passive model and characterize it;
2. drive it at its worst violation peak with a tone aligned to the top
   singular vector: the port-energy monitor witnesses gain > 1;
3. enforce passivity, re-run the *same* stimulus: gain drops below 1;
4. cross-check the integrator against the frequency-domain kernels
   (FFT of the simulated impulse response vs ``transfer_many``);
5. re-run the repaired model through a reflective (mismatched)
   termination network with a PRBS pattern — still contractive.

Run:  python examples/transient_validation.py
"""

import numpy as np

from repro import Macromodel, RunConfig
from repro.synth import random_macromodel
from repro.timedomain import Stimulus, Termination, impulse_fft_check, worst_tone


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A violating model, located precisely by the Hamiltonian test.
    # ------------------------------------------------------------------
    model = random_macromodel(10, 2, seed=7, sigma_target=1.05)
    session = Macromodel.from_pole_residue(
        model, config=RunConfig(num_threads=2)
    ).check_passivity()
    report = session.passivity_report
    band = max(report.bands, key=lambda b: b.severity)
    print(f"characterization: {report.summary()}")
    print(
        f"worst violation: sigma = {band.peak:.4f}"
        f" at w = {band.peak_freq:.4f} rad/s"
    )

    # ------------------------------------------------------------------
    # 2. The time-domain witness: a tone at the violation peak, aligned
    #    with the top right singular vector of H(j w*).
    # ------------------------------------------------------------------
    stimulus = worst_tone(model, band.peak_freq)
    # Window long enough for the slowest resonance to ring up.
    slowest = float(np.min(np.abs(model.poles.real)))
    steps = min(400_000, int(20.0 / slowest / 0.02))
    session.simulate(stimulus, num_steps=steps)
    before = session.energy_report
    print(f"\nnon-passive transient: {before.summary()}")
    assert before.energy_gain > 1.0, "expected an energy-gain witness"
    print(
        f"  -> the model returned {100.0 * (before.energy_gain - 1.0):.2f}%"
        f" more energy than it received (sigma^2 would give"
        f" {band.peak ** 2:.4f} at steady state)"
    )

    # ------------------------------------------------------------------
    # 3. Enforce, then replay the exact same stimulus.
    # ------------------------------------------------------------------
    session.enforce()
    session.simulate(stimulus, num_steps=steps)
    after = session.energy_report
    print(f"\nenforced transient:   {after.summary()}")
    assert after.energy_gain <= 1.0 + 1e-8, "enforced model must contract"

    # ------------------------------------------------------------------
    # 4. Internal consistency oracle: the FFT of the simulated impulse
    #    response must match transfer_many on the (alias-folded) DFT
    #    grid.
    # ------------------------------------------------------------------
    dt = 0.05
    decay = float(np.min(np.abs(session.model.poles.real)))
    fft_steps = 1 << int(np.ceil(np.log2(16.0 / (decay * dt))))
    check = impulse_fft_check(
        session.model, dt=dt, num_steps=fft_steps, aliases=24
    )
    print(
        f"\nFFT cross-check: discrete {check.max_discrete_error:.2e},"
        f" vs transfer_many {check.max_folded_error:.2e}"
        f" (tail {check.tail_magnitude:.1e})"
    )

    # ------------------------------------------------------------------
    # 5. A mismatched termination network: reflections re-excite the
    #    model, the repaired response still never gains energy.
    # ------------------------------------------------------------------
    session.simulate(
        Stimulus.prbs(seed=11, bit_steps=4),
        num_steps=20_000,
        termination=Termination(resistances=(100.0, 12.5)),
    )
    closed = session.energy_report
    print(f"\nmismatched termination: {closed.summary()}")
    assert closed.energy_gain <= 1.0 + 1e-8

    print("\ntransient validation complete: violation witnessed, repair held")


if __name__ == "__main__":
    main()
