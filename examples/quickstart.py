"""Quickstart: the Macromodel session facade end to end.

Builds a small synthetic scattering macromodel (the kind rational fitting
produces), then drives the paper's whole workflow through one fluent
session: characterize passivity with the parallel Hamiltonian
eigensolver, enforce passivity, and inspect the machine-readable result.

Run:  python examples/quickstart.py
"""

import json

import numpy as np

from repro import Macromodel, RunConfig
from repro.synth import random_macromodel


def main() -> None:
    # A 4-port model with 20 poles per column (order 80), mildly
    # non-passive: its peak singular value is pushed to ~1.05.
    model = random_macromodel(20, 4, seed=42, sigma_target=1.05)
    print(f"model: {model}")

    # One frozen config carries every cross-cutting knob (threads,
    # strategy, representation, band).  It can also come from dicts
    # (RunConfig.from_dict) or the environment (RunConfig.from_env).
    config = RunConfig(num_threads=4)

    # --- The pipeline: sweep, characterize, then enforce -----------------
    session = Macromodel.from_pole_residue(model, config=config)

    # Low-level access first: the raw crossing frequencies of the
    # (still non-passive) model, straight from the eigensolver.
    result = session.find_crossings().solve_result
    print(f"\nsweep: {result.summary()}")
    print(f"crossing frequencies Omega = {np.round(result.omegas, 6)}")

    session.check_passivity()
    report = session.passivity_report
    print(f"\n{report.summary()}")
    for band in report.bands:
        print(
            f"  violation band [{band.lo:.4f}, {band.hi:.4f}] rad/s,"
            f" peak sigma = {band.peak:.4f} at w = {band.peak_freq:.4f}"
        )

    if not session.is_passive:
        session.enforce()
        print(f"\nafter enforcement: passive = {session.is_passive}")

    print(f"\n{session.summary()}")

    # --- Machine consumption: everything is JSON-serializable ------------
    payload = session.to_dict()
    print("\nsession payload keys:", sorted(payload))
    print("passivity payload:", json.dumps(payload["passivity"])[:100], "...")

    # The crossings of the *original* model are exactly where a singular
    # value touches 1.  All crossings are evaluated in ONE batched call:
    # transfer_many returns the (K, p, p) stack, and the stacked SVD
    # factors every point at once.
    print("\nverification (singular values at each crossing):")
    if report.crossings.size:
        sv = np.linalg.svd(
            model.transfer_many(1j * report.crossings), compute_uv=False
        )
        for w, svals in zip(report.crossings, sv):
            closest = svals[np.argmin(np.abs(svals - 1.0))]
            print(f"  w = {w:9.5f}  ->  sigma = {closest:.9f}")


if __name__ == "__main__":
    main()
