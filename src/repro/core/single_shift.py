"""The single-shift iteration ``S(theta, rho0) -> ({lambda_k}, rho)``.

This implements the operator of Sec. III (Fig. 1): a restarted, deflated
Arnoldi process on the shift-inverted Hamiltonian that returns

* the set of eigenvalues converged inside a disk centered at ``theta``, and
* a *certified radius* ``rho`` such that (up to the convergence tolerance)
  no unlisted eigenvalue lies inside ``C(theta, rho)``.

Radius update rules follow the paper:

* if more than ``n_theta`` eigenvalues converge inside the current disk,
  the radius shrinks so that only ``n_theta`` remain enclosed and the rest
  are discarded;
* if converged eigenvalues fall outside the initial radius, the radius
  grows to the farthest converged eigenvalue;
* the certified radius is additionally capped below the distance of the
  nearest *unconverged-but-stabilizing* Ritz estimate — a safety guard so
  that a disk is never certified past an eigenvalue the iteration saw but
  did not resolve.

Convergence of a candidate eigenpair is accepted only after a *true*
residual check ``||M v - lambda v|| <= tol * max(scale, |lambda|)`` using
one O(n p) application of the matrix-free Hamiltonian — cheap insurance
against the well-known optimism of Hessenberg residual estimates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.arnoldi import build_arnoldi, ritz_pairs
from repro.core.options import SolverOptions
from repro.core.results import SingleShiftResult
from repro.hamiltonian.operator import HamiltonianOperator
from repro.utils.linalg import orthonormalize_against
from repro.utils.logging import get_logger
from repro.utils.rng import RandomStream

__all__ = ["SingleShiftSolver", "estimate_spectral_bound"]

_LOG = get_logger("single_shift")

#: Ritz pairs whose cheap residual estimate exceeds this (relative to the
#: Ritz value magnitude) are not even screened with a true matvec.
_SCREEN_RTOL = 1e-3

#: Relative residual below which an *unconverged* Ritz value is considered
#: a stabilizing estimate of a true nearby eigenvalue (radius guard).
_GUARD_RTOL = 1e-2


def estimate_spectral_bound(
    hamiltonian: HamiltonianOperator,
    *,
    stream: Optional[RandomStream] = None,
    krylov_dim: int = 40,
    restarts: int = 2,
    margin: float = 1.05,
) -> float:
    """Estimate ``max |lambda(M)|`` with a shift-free Arnoldi run (Sec. IV.A).

    The paper precomputes the upper edge of the search band as the magnitude
    of the largest Hamiltonian eigenvalue, "obtained with a single-shift
    iteration on M without applying any shift-and-invert operation".

    Parameters
    ----------
    hamiltonian:
        Matrix-free Hamiltonian operator.
    stream:
        Random stream for start vectors (seeded default when omitted).
    krylov_dim:
        Krylov dimension per run.
    restarts:
        Independent randomized runs; the max over runs is kept.
    margin:
        Multiplicative safety factor applied to the estimate.

    Returns
    -------
    float
        An (approximate, margin-inflated) upper bound on the modulus of any
        Hamiltonian eigenvalue, hence on any crossing frequency.
    """
    stream = stream if stream is not None else RandomStream(0)
    dim = hamiltonian.dimension
    if dim == 0:
        return 0.0
    best = 0.0
    for _ in range(max(1, restarts)):
        start = stream.complex_vector(dim)
        fact = build_arnoldi(
            hamiltonian.matvec, start, min(krylov_dim, dim), work=hamiltonian.work
        )
        pairs = ritz_pairs(fact, sort_by="magnitude", max_pairs=1)
        if pairs:
            best = max(best, abs(pairs[0].value))
    return float(margin * best)


class SingleShiftSolver:
    """Runs single-shift iterations against one Hamiltonian operator.

    A solver instance is stateless across shifts (each call to :meth:`run`
    is independent), so one instance may be shared by many threads as long
    as the underlying numpy kernels are (they are — all mutable state is
    local to :meth:`run`).
    """

    def __init__(
        self, hamiltonian: HamiltonianOperator, options: SolverOptions
    ) -> None:
        self.hamiltonian = hamiltonian
        self.options = options
        # Problem scale for relative tolerances: the spectral radius of the
        # block-diagonal part is cheap and representative.
        self._scale = max(1.0, hamiltonian.simo.spectral_radius_bound())

    # ------------------------------------------------------------------
    def _shift_invert(self, theta: complex):
        """Build the SMW operator, nudging the shift off singular points."""
        nudge = 1e-9 * self._scale
        last_error: Optional[Exception] = None
        for attempt in range(4):
            try:
                return self.hamiltonian.shift_invert(theta + attempt * nudge)
            except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
                last_error = exc
                continue
        raise np.linalg.LinAlgError(
            f"could not factor shift-invert operator near {theta}: {last_error}"
        )

    # ------------------------------------------------------------------
    def run(
        self,
        center: float,
        rho0: float,
        stream: Optional[RandomStream] = None,
    ) -> SingleShiftResult:
        """Execute ``S(j*center, rho0)``.

        Parameters
        ----------
        center:
            Shift position ``omega`` on the imaginary axis.
        rho0:
            Initial disk radius guess (eq. 23).
        stream:
            Random stream for restart vectors.

        Returns
        -------
        SingleShiftResult
            Converged eigenvalues inside the certified disk and the radius.
        """
        opts = self.options
        stream = stream if stream is not None else RandomStream(0)
        theta = 1j * float(center)
        op = self._shift_invert(theta)
        actual_theta = op.shift  # may include a tiny nudge
        dim = self.hamiltonian.dimension
        krylov_dim = min(opts.krylov_dim, dim)

        # Per-shift work accounting (for the multicore makespan projection):
        # wrap the operators so applications by *this* shift are counted
        # locally in addition to the shared WorkCounter.
        local_applies = [0]

        def si_matvec(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x)
            local_applies[0] += 1 if x.ndim == 1 else x.shape[1]
            return op.matvec(x)

        def m_matvec(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x)
            local_applies[0] += 1 if x.ndim == 1 else x.shape[1]
            return self.hamiltonian.matvec(x)

        locked_vecs = np.zeros((dim, 0), dtype=complex)  # orthonormal Q
        locked_images = np.zeros((dim, 0), dtype=complex)  # W = OP Q
        locked_vals: List[complex] = []
        # Screen only the leading pairs: |mu| large <=> close to shift.
        # Only these are lifted to the full space.
        screen_width = max(2 * opts.num_wanted, 8)
        guard_distance = np.inf  # nearest unresolved eigenvalue estimate
        stall = 0
        restarts = 0
        budget_hit = False
        pairs = []

        while restarts < opts.max_restarts:
            restarts += 1
            if self.hamiltonian.work is not None:
                self.hamiltonian.work.add(restarts=1)
            start = stream.complex_vector(dim)
            try:
                fact = build_arnoldi(
                    si_matvec,
                    start,
                    krylov_dim,
                    locked=locked_vecs,
                    work=self.hamiltonian.work,
                )
            except ValueError:
                # Start vector collapsed into the locked space — the
                # complement is (numerically) exhausted.
                break
            pairs = ritz_pairs(fact, sort_by="magnitude", max_pairs=screen_width)
            # Small projection Q^H OP Q for the locked-subspace correction.
            qhwq = locked_vecs.conj().T @ locked_images

            new_found = 0
            guard_distance = np.inf
            accepted: List[Tuple[complex, np.ndarray]] = []
            candidates: List[np.ndarray] = []
            for pair in pairs:
                mu = pair.value
                if abs(mu) == 0.0:
                    continue
                if pair.residual_estimate > _SCREEN_RTOL * abs(mu):
                    continue
                u = self._correct_candidate(
                    pair, locked_vecs, qhwq, fact.deflation_coeffs
                )
                if u is None:
                    continue
                candidates.append(u)
            # True-residual check for every screened candidate with ONE
            # blocked O(n p c) Hamiltonian apply (BLAS-3) instead of one
            # matvec per candidate.
            if candidates:
                block = np.stack(candidates, axis=1)  # (2n, c)
                mv_block = m_matvec(block)
                rayleigh = np.einsum("ij,ij->j", block.conj(), mv_block)
                res_norms = np.linalg.norm(
                    mv_block - block * rayleigh[None, :], axis=0
                )
            else:
                rayleigh = res_norms = np.empty(0)
            for u, lam, residual in zip(candidates, rayleigh, res_norms):
                lam = complex(lam)  # Rayleigh quotient refinement
                residual = float(residual)
                tol_abs = opts.tol * max(self._scale, abs(lam))
                dist = abs(lam - actual_theta)
                if residual <= tol_abs:
                    if self._is_duplicate(lam, locked_vals) or self._is_duplicate(
                        lam, [a_lam for a_lam, _ in accepted]
                    ):
                        continue
                    accepted.append((lam, u))
                elif residual <= _GUARD_RTOL * max(self._scale, abs(lam)):
                    # Stabilizing but unresolved: remember its distance so
                    # the certified radius never reaches past it.  Ghost
                    # copies of already-locked eigenvalues are ignored.
                    if not self._is_duplicate(lam, locked_vals):
                        guard_distance = min(guard_distance, dist)

            # Lock the accepted eigenpairs (Q stays orthonormal; W = OP Q is
            # updated analytically: OP u = u / (lambda - theta)).
            for lam, u in accepted:
                coeffs, norm, q = orthonormalize_against(locked_vecs, u)
                if q is None:
                    continue
                nu = 1.0 / (lam - actual_theta)
                w_q = (nu * u - locked_images @ coeffs) / norm
                locked_vecs = np.hstack([locked_vecs, q[:, None]])
                locked_images = np.hstack([locked_images, w_q[:, None]])
                locked_vals.append(lam)
                new_found += 1

            if new_found == 0:
                stall += 1
            else:
                stall = 0

            count = len(locked_vals)
            if count >= opts.num_wanted:
                break  # budget reached — certify (shrinking if exceeded)
            if stall >= opts.stall_restarts:
                break
            if fact.breakdown and new_found == 0:
                break
        else:
            budget_hit = True

        radius, kept = self._certify_radius(
            actual_theta, rho0, locked_vals, guard_distance, pairs
        )
        _LOG.debug(
            "S(center=%.6g, rho0=%.4g) -> %d eigs, rho=%.4g, restarts=%d",
            center,
            rho0,
            len(kept),
            radius,
            restarts,
        )
        return SingleShiftResult(
            shift=actual_theta,
            radius=float(radius),
            eigenvalues=np.asarray(kept, dtype=complex),
            restarts=restarts,
            converged=not budget_hit,
            applies=local_applies[0],
        )

    # ------------------------------------------------------------------
    def _correct_candidate(
        self,
        pair,
        locked_vecs: np.ndarray,
        qhwq: np.ndarray,
        deflation_coeffs: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Reconstruct a full-space eigenvector from a deflated Ritz pair.

        The deflated Arnoldi run approximates eigenpairs of the *projected*
        operator ``P OP P`` (``P = I - Q Q^H``).  Because eigenvectors of a
        non-normal operator are not orthogonal, the true eigenvector of the
        remaining eigenvalue generally has a component inside ``span(Q)``:
        ``u = v + Q t`` with ``t = (mu I - Q^H OP Q)^{-1} Q^H OP v``.
        ``Q^H OP v`` is available for free from the deflation coefficients
        recorded during the factorization.

        Returns the unit-norm corrected vector, or ``None`` when the
        correction is degenerate (``mu`` collides with a locked eigenvalue).
        """
        v = pair.vector
        m = locked_vecs.shape[1]
        if m == 0:
            return v
        g = deflation_coeffs @ pair.hess_vector
        mat = pair.value * np.eye(m, dtype=complex) - qhwq
        try:
            t = np.linalg.solve(mat, g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(t)) or np.linalg.norm(t) > 1e8:
            return None
        u = v + locked_vecs @ t
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            return None
        return u / norm

    def _is_duplicate(self, lam: complex, locked_vals: List[complex]) -> bool:
        """True when ``lam`` matches an already-locked eigenvalue."""
        tol = self.options.dedup_rtol * max(self._scale, abs(lam))
        return any(abs(lam - known) <= tol for known in locked_vals)

    def _certify_radius(
        self,
        theta: complex,
        rho0: float,
        locked_vals: List[complex],
        guard_distance: float,
        last_pairs,
    ) -> Tuple[float, List[complex]]:
        """Apply the paper's radius update rules and the safety guard.

        Returns the certified radius and the eigenvalues enclosed by it.
        """
        opts = self.options
        eps = 1e-9 * self._scale
        if not locked_vals:
            # Empty disk: estimate the distance to the nearest eigenvalue
            # from the largest-|mu| Ritz value of the last factorization
            # (|mu| ~ 1/dist for the shift-inverted operator).
            dist_est = np.inf
            for pair in last_pairs[:3]:
                if abs(pair.value) > 0.0:
                    dist_est = min(dist_est, 1.0 / abs(pair.value))
            dist_est = min(dist_est, guard_distance)
            if not np.isfinite(dist_est):
                return rho0, []
            if dist_est <= rho0:
                # An eigenvalue may hide inside rho0 — certify conservatively.
                return max(0.9 * dist_est, eps), []
            # Free to extend the certified-empty disk toward the estimate.
            return max(rho0, 0.9 * dist_est), []

        dists = np.sort(np.abs(np.asarray(locked_vals) - theta))
        count = dists.size
        gap_tol = 10.0 * eps

        if count > opts.num_wanted:
            # Shrink so that at most num_wanted eigenvalues are enclosed.
            # The cut must fall in a *strict* gap between consecutive
            # distances — symmetric eigenvalue pairs are equidistant from
            # an on-axis shift, and a disk boundary must never pass
            # through an eigenvalue.
            j = opts.num_wanted
            while j > 0 and dists[j] - dists[j - 1] <= gap_tol:
                j -= 1
            if j == 0:
                # The whole converged cloud is one tight cluster; certify
                # an empty disk strictly below it.
                radius = max(0.5 * float(dists[0]), eps)
            else:
                radius = 0.5 * (float(dists[j - 1]) + float(dists[j]))
        else:
            # Grow to the farthest converged eigenvalue if needed (paper).
            radius = max(rho0, float(dists[-1]) * (1.0 + 1e-9) + eps)

        # Safety clamp: the certified disk must never reach an eigenvalue
        # the iteration saw but did not resolve (convergence order is not
        # monotone in distance for non-normal matrices, so a far pair may
        # lock before a nearer cluster).
        if np.isfinite(guard_distance) and radius > 0.95 * guard_distance:
            below = dists[dists < guard_distance - gap_tol]
            if below.size:
                radius = min(radius, 0.5 * (float(below[-1]) + guard_distance))
            else:
                radius = min(radius, max(0.9 * guard_distance, eps))

        kept = [lam for lam in locked_vals if abs(lam - theta) <= radius]
        return float(radius), kept
