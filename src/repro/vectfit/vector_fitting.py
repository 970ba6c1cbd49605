"""The Vector Fitting algorithm (Gustavsen & Semlyen, ref. [1]).

Given samples ``H(j w_k)`` of a ``p x p`` transfer matrix, Vector Fitting
finds a common-pole rational approximation

.. math::

    H(s) \\approx D + \\sum_{m=1}^{M} \\frac{R_m}{s - p_m}

by iterating two linear least-squares stages:

1. **sigma stage** — with the current pole set, fit
   ``sigma(s) H(s) ~ (sum c_m phi_m(s)) + D`` and
   ``sigma(s) = 1 + sum sigma_m phi_m(s)`` jointly; the *zeros* of
   ``sigma`` are better pole estimates ("pole relocation").  The zeros are
   the eigenvalues of ``A_sigma - b_sigma c_sigma^T`` built from the real
   block realization of the basis.
2. **residue stage** — with the relocated (and stability-flipped) poles,
   fit the residue matrices and direct term by ordinary least squares.

Everything is formulated in real arithmetic through the conjugate-pair
basis ``phi_1 = 1/(s-q) + 1/(s-q*)``, ``phi_2 = j/(s-q) - j/(s-q*)`` so the
resulting model is exactly real (conjugate-symmetric residues).

Both stages QR-factor the weighted basis once per weight column and
broadcast the factor over the elements that use it (the fast-VF
reduction of Deschrijver et al., IEEE MWCL 18(6), 2008).  The default
uniform weighting is a single column shared by all ``p^2`` elements,
so each stage runs one QR; ``inverse_magnitude`` gives every element
its own column and its own QR.  The shared factor is bit-identical to
the one a per-element factorization would give.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.macromodel.poles import make_stable, partition_poles
from repro.obs import trace as _obs_trace
from repro.obs.metrics import get_registry as _obs_metrics
from repro.macromodel.rational import PoleResidueModel
from repro.utils.guards import ensure_finite
from repro.utils.validation import ensure_positive_int, ensure_sorted_frequencies
from repro.vectfit.options import VectorFittingOptions

__all__ = ["FitResult", "initial_poles", "vector_fit"]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Vector Fitting run.

    Attributes
    ----------
    model:
        The identified pole/residue macromodel.
    rms_error:
        Root-mean-square absolute fit error over all samples and entries.
    max_error:
        Worst-case absolute entry error.
    iterations:
        Pole-relocation sweeps actually performed.
    converged:
        True when the pole set stopped moving before the iteration cap.
    pole_history:
        Pole set after every relocation sweep (first entry: start poles).
    """

    model: PoleResidueModel
    rms_error: float
    max_error: float
    iterations: int
    converged: bool
    pole_history: Tuple[np.ndarray, ...]

    def to_dict(self, *, include_model: bool = True) -> dict:
        """JSON-serializable dictionary of the fit outcome."""
        payload = {
            "rms_error": float(self.rms_error),
            "max_error": float(self.max_error),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "num_poles": int(self.model.num_poles),
            "num_ports": int(self.model.num_ports),
        }
        if include_model:
            payload["model"] = self.model.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FitResult":
        """Rebuild a fit outcome from a :meth:`to_dict` payload.

        Requires ``include_model=True`` payloads.  ``pole_history`` is
        not serialized, so a rebuilt result carries an empty history —
        the ``to_dict()`` round trip is exact regardless.
        """
        return cls(
            model=PoleResidueModel.from_dict(payload["model"]),
            rms_error=float(payload["rms_error"]),
            max_error=float(payload["max_error"]),
            iterations=int(payload["iterations"]),
            converged=bool(payload["converged"]),
            pole_history=(),
        )


def initial_poles(
    freqs_rad,
    num_poles: int,
    *,
    real_fraction: float = 0.0,
    damping_ratio: float = 0.01,
) -> np.ndarray:
    """Classical Vector Fitting starting poles.

    Complex pairs with imaginary parts spread linearly over the sampled
    band and small negative real parts ``-damping_ratio * |Im|``; an
    optional leading group of real poles spread logarithmically.

    Parameters
    ----------
    freqs_rad:
        Sample frequencies (rad/s), used only for their extent.
    num_poles:
        Total starting pole count.
    real_fraction:
        Fraction of poles that are real (rounded; remainder must be even).
    damping_ratio:
        ``|Re| / |Im|`` of the complex starting poles.
    """
    freqs_rad = ensure_sorted_frequencies(freqs_rad, "freqs_rad")
    num_poles = ensure_positive_int(num_poles, "num_poles")
    w_max = float(freqs_rad[-1]) if freqs_rad[-1] > 0 else 1.0
    w_min = (
        float(freqs_rad[freqs_rad > 0][0]) if np.any(freqs_rad > 0) else w_max / 100.0
    )

    num_real = int(round(real_fraction * num_poles))
    if (num_poles - num_real) % 2:
        num_real += 1
    num_pairs = (num_poles - num_real) // 2

    poles = np.empty(num_poles, dtype=complex)
    if num_real:
        poles[:num_real] = -np.exp(
            np.linspace(np.log(max(w_min, 1e-6)), np.log(w_max), num_real)
        )
    if num_pairs:
        w0 = np.linspace(max(w_min, w_max / 100.0), w_max, num_pairs)
        pairs = -damping_ratio * w0 + 1j * w0
        poles[num_real::2] = pairs
        poles[num_real + 1 :: 2] = np.conj(pairs)
    return poles


def _basis(
    freqs_rad: np.ndarray, poles: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real-coefficient partial-fraction basis evaluated at ``j w``.

    Returns ``(phi, real_poles, pair_poles)`` with ``phi`` of shape
    ``(K, M)`` complex: one column per real pole, two per conjugate pair.
    The whole ``(K, M)`` Cauchy-basis block is built by broadcasting — no
    per-pole Python loop.
    """
    real_poles, pair_poles = partition_poles(poles)
    s = 1j * freqs_rad
    num_real = real_poles.size
    phi = np.empty((s.size, num_real + 2 * pair_poles.size), dtype=complex)
    if num_real:
        phi[:, :num_real] = 1.0 / (s[:, None] - real_poles[None, :])
    if pair_poles.size:
        inv_up = 1.0 / (s[:, None] - pair_poles[None, :])
        inv_dn = 1.0 / (s[:, None] - np.conj(pair_poles)[None, :])
        phi[:, num_real::2] = inv_up + inv_dn
        phi[:, num_real + 1 :: 2] = 1j * (inv_up - inv_dn)
    return phi, real_poles, pair_poles


def _sigma_realization(
    real_poles: np.ndarray, pair_poles: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Zeros of ``1 + sum sigma_m phi_m``: eigenvalues of ``A - b c^T``."""
    num_real = real_poles.size
    m = num_real + 2 * pair_poles.size
    a = np.zeros((m, m))
    b = np.zeros(m)
    if num_real:
        idx = np.arange(num_real)
        a[idx, idx] = real_poles
        b[idx] = 1.0
    if pair_poles.size:
        pos = num_real + 2 * np.arange(pair_poles.size)
        a[pos, pos] = pair_poles.real
        a[pos, pos + 1] = pair_poles.imag
        a[pos + 1, pos] = -pair_poles.imag
        a[pos + 1, pos + 1] = pair_poles.real
        b[pos] = 2.0
    return np.linalg.eigvals(a - np.outer(b, sigma))


def _symmetrize(poles: np.ndarray) -> np.ndarray:
    """Force exact conjugate symmetry on a numerically computed pole set."""
    real_tol = 1e-9
    scale = np.maximum(np.abs(poles), 1.0)
    is_real = np.abs(poles.imag) <= real_tol * scale
    reals = poles[is_real].real
    uppers = poles[(~is_real) & (poles.imag > 0)]
    lowers = poles[(~is_real) & (poles.imag < 0)]
    # Pair each upper with its nearest lower conjugate and average.
    symmetric = []
    lowers = list(lowers)
    for q in uppers:
        if lowers:
            dist = [abs(np.conj(w) - q) for w in lowers]
            j = int(np.argmin(dist))
            partner = lowers.pop(j)
            q = 0.5 * (q + np.conj(partner))
        symmetric.append(q)
    # Unmatched lowers become their own uppers.
    symmetric.extend(np.conj(w) for w in lowers)
    out = np.empty(reals.size + 2 * len(symmetric), dtype=complex)
    out[: reals.size] = reals
    out[reals.size :: 2] = symmetric
    out[reals.size + 1 :: 2] = np.conj(symmetric)
    return out


def _stack_real(matrix: np.ndarray, *, axis: int = 0) -> np.ndarray:
    """Stack real and imaginary parts along ``axis``.

    With ``axis=1`` this turns a complex ``(E, K, F)`` stack of per-element
    blocks into the real ``(E, 2K, F)`` LS blocks consumed by the batched
    QR factorizations below.
    """
    return np.concatenate([matrix.real, matrix.imag], axis=axis)


def vector_fit(
    freqs_rad,
    responses,
    num_poles: int,
    *,
    options: Optional[VectorFittingOptions] = None,
    start_poles: Optional[np.ndarray] = None,
) -> FitResult:
    """Fit a common-pole rational model to tabulated frequency samples.

    Parameters
    ----------
    freqs_rad:
        Strictly increasing sample frequencies (rad/s), length K >= 2.
    responses:
        Samples ``H(j w_k)``, shape ``(K, p, p)`` (or ``(K,)`` for scalar
        data, treated as 1x1).
    num_poles:
        Model order ``M`` (number of poles).
    options:
        :class:`VectorFittingOptions`.
    start_poles:
        Explicit starting pole set (conjugate-complete); defaults to
        :func:`initial_poles`.

    Returns
    -------
    FitResult

    Raises
    ------
    ValueError
        On inconsistent shapes or too few samples for the requested order.
    """
    fit_started = time.perf_counter()
    options = options if options is not None else VectorFittingOptions()
    freqs_rad = ensure_sorted_frequencies(freqs_rad, "freqs_rad")
    responses = np.asarray(responses, dtype=complex)
    # NaN/Inf samples would propagate silently through the least-squares
    # stages and surface as inexplicable garbage poles — fail here with
    # a structured diagnostic instead.
    ensure_finite(responses, stage="fit", what="frequency samples")
    if responses.ndim == 1:
        responses = responses[:, None, None]
    if responses.ndim != 3 or responses.shape[1] != responses.shape[2]:
        raise ValueError(
            f"responses must have shape (K, p, p), got {responses.shape}"
        )
    if responses.shape[0] != freqs_rad.size:
        raise ValueError(
            f"got {responses.shape[0]} samples but {freqs_rad.size} frequencies"
        )
    k_samples = freqs_rad.size
    p = responses.shape[1]
    num_unknowns = num_poles + (1 if options.fit_direct_term else 0)
    if 2 * k_samples < num_unknowns + num_poles:
        raise ValueError(
            f"too few samples ({k_samples}) for order {num_poles};"
            " need at least (order + unknowns) / 2"
        )

    poles = (
        np.asarray(start_poles, dtype=complex)
        if start_poles is not None
        else initial_poles(
            freqs_rad,
            num_poles,
            real_fraction=options.real_pole_fraction,
            damping_ratio=options.initial_damping_ratio,
        )
    )
    if poles.size != num_poles:
        raise ValueError(
            f"start_poles has {poles.size} poles, expected {num_poles}"
        )

    flat = responses.reshape(k_samples, p * p)  # (K, E)
    # Uniform weights are one column shared by every element, so each
    # stage factors a single weighted block; per-element weights give one
    # column (and one QR) per element.
    weights = np.ones((k_samples, 1))
    if options.weighting == "inverse_magnitude":
        weights = 1.0 / np.maximum(np.abs(flat), 1e-2 * np.abs(flat).max() + 1e-30)

    history: List[np.ndarray] = [poles.copy()]
    converged = False
    iterations_run = 0
    for iteration in range(options.iterations):
        iterations_run = iteration + 1
        with _obs_trace.span("vectfit.relocate", iteration=iteration):
            new_poles = _relocate_poles(
                freqs_rad, flat, weights, poles, options
            )
        move = _pole_movement(poles, new_poles)
        poles = new_poles
        history.append(poles.copy())
        if move < options.convergence_tol:
            converged = True
            break

    with _obs_trace.span("vectfit.residues"):
        model = _identify_residues(
            freqs_rad, flat, weights, poles, p, options
        )
    fitted = model.frequency_response(freqs_rad).reshape(k_samples, p * p)
    # A fit that went numerically off the rails (overflowed residues,
    # divergent pole relocation) must be reported as such, not returned
    # as a "model" whose responses are NaN.
    ensure_finite(fitted, stage="fit", what="fitted model response")
    err = np.abs(fitted - flat)
    _obs_metrics().count("vectfit.fits")
    _obs_metrics().count("vectfit.iterations", iterations_run)
    _obs_metrics().observe(
        "vectfit.fit", time.perf_counter() - fit_started
    )
    return FitResult(
        model=model,
        rms_error=float(np.sqrt(np.mean(err**2))),
        max_error=float(err.max()) if err.size else 0.0,
        iterations=iterations_run,
        converged=converged,
        pole_history=tuple(history),
    )


def _pole_movement(old: np.ndarray, new: np.ndarray) -> float:
    """Relative pole displacement between sweeps (greedy matching)."""
    if old.size != new.size:
        return np.inf
    remaining = list(new)
    worst = 0.0
    for pole in old:
        dist = [abs(pole - q) for q in remaining]
        j = int(np.argmin(dist))
        worst = max(worst, dist[j] / max(1.0, abs(pole)))
        remaining.pop(j)
    return worst


def _relocate_poles(
    freqs_rad: np.ndarray,
    flat: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    options: VectorFittingOptions,
) -> np.ndarray:
    """One sigma stage: solve for sigma coefficients, return new poles."""
    phi, real_poles, pair_poles = _basis(freqs_rad, poles)
    k_samples, num_funcs = phi.shape
    const = (
        np.ones((k_samples, 1)) if options.fit_direct_term else np.zeros((k_samples, 0))
    )
    basis = np.concatenate([phi, const.astype(complex)], axis=1)  # (K, F)

    # Per-element projection of the sigma block onto the orthogonal
    # complement of the residue block (the "fast VF" reduction).  All
    # elements are assembled at once as stacked ``(E, 2K, .)`` real blocks
    # and projected through ONE batched QR — no per-element Python loop —
    # then one stacked least-squares yields the shared sigma coefficients.
    # A single weight column makes the residue block one ``(1, 2K, F)``
    # factor that broadcasts over the elements.
    w3 = weights.T[:, :, None]  # (E or 1, K, 1)
    a_blocks = _stack_real(basis[None, :, :] * w3, axis=1)  # (E or 1, 2K, F)
    b_blocks = _stack_real(
        -(flat.T[:, :, None] * phi[None, :, :]) * w3, axis=1
    )  # (E, 2K, M)
    rhs = _stack_real((flat * weights).T[:, :, None], axis=1)  # (E, 2K, 1)
    q, _ = np.linalg.qr(a_blocks)
    qt = np.swapaxes(q, 1, 2)
    b_proj = b_blocks - q @ (qt @ b_blocks)
    r_proj = rhs - q @ (qt @ rhs)
    g = b_proj.reshape(-1, b_proj.shape[2])
    b = r_proj.reshape(-1)
    sigma, *_ = np.linalg.lstsq(g, b, rcond=None)

    zeros = _sigma_realization(real_poles, pair_poles, sigma)
    if options.enforce_stability:
        zeros = make_stable(
            zeros, min_real=1e-12 * max(1.0, float(np.abs(zeros).max()))
        )
    return _symmetrize(zeros)


def _identify_residues(
    freqs_rad: np.ndarray,
    flat: np.ndarray,
    weights: np.ndarray,
    poles: np.ndarray,
    p: int,
    options: VectorFittingOptions,
) -> PoleResidueModel:
    """Final residue stage with fixed poles.

    All ``p^2`` element fits share one ``(E, 2K, F)`` stacked assembly (one
    ``(1, 2K, F)`` block under a single weight column) and one batched QR
    least-squares solve; a per-element ``lstsq`` fallback covers the
    (rank-deficient) corner the fast path cannot factor.
    """
    phi, real_poles, pair_poles = _basis(freqs_rad, poles)
    k_samples, num_funcs = phi.shape
    const = (
        np.ones((k_samples, 1)) if options.fit_direct_term else np.zeros((k_samples, 0))
    )
    basis = np.concatenate([phi, const.astype(complex)], axis=1)

    num_elems = flat.shape[1]
    w3 = weights.T[:, :, None]  # (E or 1, K, 1)
    a_blocks = _stack_real(basis[None, :, :] * w3, axis=1)  # (E or 1, 2K, F)
    rhs = _stack_real((flat * weights).T[:, :, None], axis=1)  # (E, 2K, 1)
    try:
        q, r = np.linalg.qr(a_blocks)
        sol = np.linalg.solve(r, np.swapaxes(q, 1, 2) @ rhs)  # (E, F, 1)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("batched QR solve not finite")
        coeffs = sol[:, :, 0].T  # (F, E)
    except np.linalg.LinAlgError:
        # Rank-deficient basis on some element: redo with per-element lstsq.
        coeffs = np.zeros((basis.shape[1], num_elems))
        for e in range(num_elems):
            a_e = a_blocks[0 if len(a_blocks) == 1 else e]
            sol_e, *_ = np.linalg.lstsq(a_e, rhs[e, :, 0], rcond=None)
            coeffs[:, e] = sol_e

    # Unpack into residue matrices (order: real poles, then pairs).
    num_real = real_poles.size
    num_pairs = pair_poles.size
    m_total = num_real + 2 * num_pairs
    residues = np.zeros((m_total, p, p), dtype=complex)
    ordered_poles = np.empty(m_total, dtype=complex)
    if num_real:
        ordered_poles[:num_real] = real_poles
        residues[:num_real] = coeffs[:num_real].reshape(num_real, p, p)
    if num_pairs:
        pair_rows = coeffs[num_real : num_real + 2 * num_pairs]
        blocks = (pair_rows[0::2] + 1j * pair_rows[1::2]).reshape(num_pairs, p, p)
        ordered_poles[num_real::2] = pair_poles
        ordered_poles[num_real + 1 :: 2] = np.conj(pair_poles)
        residues[num_real::2] = blocks
        residues[num_real + 1 :: 2] = np.conj(blocks)
    if options.fit_direct_term:
        d = coeffs[-1].reshape(p, p)
    else:
        d = np.zeros((p, p))
    return PoleResidueModel(ordered_poles, residues, d)
