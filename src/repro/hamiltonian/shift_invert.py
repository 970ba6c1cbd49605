"""Sherman-Morrison-Woodbury shift-and-invert operator (eq. 6 of the paper).

With the low-rank split ``M = K0 + U Z V`` (see
:mod:`repro.hamiltonian.operator`) the shifted matrix is
``M - theta I = K + U Z V`` where ``K = blkdiag(A - theta I, -A^T - theta I)``
is block-diagonal with 1x1/2x2 blocks.  The Woodbury identity in the form
that does not require ``Z`` itself to be invertible reads

.. math::

    (K + U Z V)^{-1} = K^{-1} - K^{-1} U Z (I + V K^{-1} U Z)^{-1} V K^{-1}.

Everything that depends on the shift alone is built once, when the
operator is constructed, in O(n p + p^3) time and O(n) extra memory:

* ``K^{-1}``, which keeps the 1x1/2x2 block structure — reciprocals for
  real poles and closed-form 2x2 inverses for pole pairs, for both the
  ``A - theta I`` and ``-A^T - theta I`` halves — stored as the three
  diagonals of a tridiagonal ``2n x 2n`` matrix;
* the ``2p x 2p`` *core* ``I + (V K^{-1} U) Z`` (two structured Gramian
  products), inverted and premultiplied by ``Z``.

One application of ``(M - theta I)^{-1}`` then costs two elementwise O(n)
``K^{-1}`` products, two O(n p) port projections and one O(p^2) small
matmul — linear in the number of macromodel states, which is the enabling
property for the Krylov iteration of Sec. III.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hamiltonian.operator import HamiltonianOperator
from repro.utils.linalg import Tridiagonal
from repro.utils.timing import WorkCounter

__all__ = ["ShiftInvertOperator"]


class ShiftInvertOperator:
    """Applies ``(M - shift I)^{-1}`` in O(n p) via the SMW identity.

    Parameters
    ----------
    hamiltonian:
        The matrix-free Hamiltonian operator (carries the realization and
        the coupling matrix Z).
    shift:
        Complex shift ``theta``.  Must not coincide with a pole of the
        realization (that would make the block-diagonal part K singular) or
        with an eigenvalue of M (that would make the core singular).

    Raises
    ------
    ZeroDivisionError
        If ``shift`` equals a pole of A or ``-conj``-mirrored pole of A^T.
    numpy.linalg.LinAlgError
        If the SMW core is numerically singular (shift equals a Hamiltonian
        eigenvalue); callers are expected to nudge the shift and retry.
    """

    def __init__(self, hamiltonian: HamiltonianOperator, shift: complex) -> None:
        if not isinstance(hamiltonian, HamiltonianOperator):
            raise TypeError(
                f"expected HamiltonianOperator, got {type(hamiltonian).__name__}"
            )
        self.hamiltonian = hamiltonian
        self.shift = complex(shift)
        simo = hamiltonian.simo
        p = simo.num_ports

        # K^-1 = blkdiag((A - theta I)^-1, -(A^T + theta I)^-1); raises
        # ZeroDivisionError when theta sits on a pole or a mirrored pole.
        top = simo.shifted_inverse(self.shift)
        bottom = simo.shifted_inverse(-self.shift, transpose=True)
        self._k_inv = Tridiagonal(np.hstack([top.bands, -bottom.bands]))

        # Gramian blocks of V K^-1 U:
        #   upper: C (A - theta I)^-1 B              = gamma(theta)
        #   lower: B^T (-A^T - theta I)^-1 C^T       = -gamma(-theta)^T
        g_upper = simo.gamma(self.shift)
        g_lower = -simo.gamma(-self.shift).T
        vku = np.zeros((2 * p, 2 * p), dtype=complex)
        vku[:p, :p] = g_upper
        vku[p:, p:] = g_lower

        z = hamiltonian.smw_coupling
        core = np.eye(2 * p, dtype=complex) + vku @ z
        # Inversion may raise LinAlgError for a singular core (shift on an
        # eigenvalue); propagate to the caller, which perturbs the shift.
        # An explicit inverse (applied via matmul) is used instead of an LU
        # factorization because worker threads apply this concurrently and
        # BLAS matmul is the only reliably thread-safe small-solve
        # primitive across scipy/OpenBLAS builds.
        self._zcore_inv = z @ np.linalg.inv(core)
        if not np.all(np.isfinite(self._zcore_inv)):
            raise np.linalg.LinAlgError("SMW core inversion is not finite")
        if hamiltonian.work is not None:
            hamiltonian.work.add(small_solves=1)

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Operator dimension 2n."""
        return self.hamiltonian.dimension

    @property
    def work(self) -> Optional[WorkCounter]:
        """The work counter shared with the parent Hamiltonian operator."""
        return self.hamiltonian.work

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply ``(M - shift I)^{-1}`` to a vector ``(2n,)`` or block ``(2n, k)``.

        The structured solves and port projections broadcast over trailing
        columns, so a ``k``-column block amortizes the Python-level kernel
        dispatch into BLAS calls; blocked applies count as ``k`` work units.
        """
        x = np.asarray(x, dtype=complex)
        n = self.hamiltonian.order
        if x.ndim not in (1, 2) or x.shape[0] != 2 * n:
            raise ValueError(
                f"expected vector of length {2 * n} or block (2n, k),"
                f" got shape {x.shape}"
            )
        simo = self.hamiltonian.simo
        p = simo.num_ports

        w = self._k_inv.apply(x)
        # v = V w  (port projections)
        v = np.empty((2 * p,) + x.shape[1:], dtype=complex)
        v[:p] = simo.apply_c(w[:n])
        v[p:] = simo.apply_bt(w[n:])
        # t = Z (I + VKU Z)^-1 v
        t = self._zcore_inv @ v
        # u = U t
        u = np.empty((2 * n,) + x.shape[1:], dtype=complex)
        u[:n] = simo.apply_b(t[:p])
        u[n:] = simo.apply_ct(t[p:])
        result = w - self._k_inv.apply(u)

        if self.hamiltonian.work is not None:
            self.hamiltonian.work.add(
                operator_applies=1 if x.ndim == 1 else x.shape[1]
            )
        return result

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:
        return (
            f"ShiftInvertOperator(shift={self.shift!r},"
            f" order={self.hamiltonian.order})"
        )
