"""Structured multi-SIMO state-space realization (eq. 2 of the paper).

The realization stores, for each transfer-matrix column ``k``:

* ``A_k`` — a block-diagonal matrix holding the column's real poles as 1x1
  blocks and its complex pole pairs as 2x2 real blocks
  ``[[alpha, beta], [-beta, alpha]]`` (the real transformation of ref. [9]);
* ``u_k`` — the input vector with entry 1 for each real pole and
  ``(2, 0)`` for each complex pair;
* ``C_k`` — the ``p x m_k`` residue block.

Globally ``A = blkdiag{A_k}``, ``B = blkdiag{u_k}``, ``C = [C_1 ... C_p]``
(a multiple Single-Input-Multiple-Output structure), so ``A`` has at most
``2n`` nonzeros and ``B`` has ``n``.  All kernels below exploit this:
resolvent solves ``(A - theta I)^{-1} x`` cost O(n), transfer evaluations
and the Gramian-like products needed by the Sherman-Morrison-Woodbury
shift-invert cost O(n p).

Kernel complexity and batching
------------------------------

Every kernel broadcasts over trailing right-hand-side columns (``k``), and
the frequency-sweep kernels additionally broadcast over a *shift* axis
(``K`` evaluation points) so sweeps run as a handful of vectorized numpy
passes instead of per-point Python loops:

======================================  ==========  ==========================
kernel                                  cost        batched form
======================================  ==========  ==========================
``apply_a/apply_b/apply_bt/apply_c``    O(n k)      ``(n, k)`` blocks broadcast
``shifted_inverse``                     O(n)        factored once per shift;
                                                    each apply O(n k)
``solve_shifted``                       O(n k)      ``solve_shifted_many`` —
                                                    ``(K, n[, k])``, shared rhs
``gamma`` / ``transfer``                O(n p)      ``gamma_many`` /
                                                    ``transfer_many`` — one
                                                    ``(K, n)`` Cauchy divide
                                                    plus ``p`` GEMMs into
                                                    ``(K, p, p)``
``frequency_response``                  O(K n p)    loop-free over the grid
======================================  ==========  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.macromodel.statespace import StateSpace
from repro.utils import linalg as la
from repro.utils.validation import ensure_matrix, ensure_vector

__all__ = ["SimoColumn", "SimoRealization", "segment_sum"]


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``values`` over contiguous segments along axis 0.

    Parameters
    ----------
    values:
        Array of shape ``(n,)`` or ``(n, k)``.
    offsets:
        Integer array of length ``num_segments + 1`` with
        ``offsets[0] == 0`` and ``offsets[-1] == n``; segment ``j`` covers
        rows ``offsets[j]:offsets[j+1]`` (segments may be empty).

    Returns
    -------
    numpy.ndarray
        Shape ``(num_segments,)`` or ``(num_segments, k)``.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.intp)
    num_segments = offsets.size - 1
    out_shape = (num_segments,) + values.shape[1:]
    if values.shape[0] == 0 or num_segments == 0:
        return np.zeros(out_shape, dtype=values.dtype)
    lengths = np.diff(offsets)
    if np.all(lengths > 0):
        return np.add.reduceat(values, offsets[:-1], axis=0)
    # General path: tolerate empty segments (reduceat mishandles them).
    out = np.zeros(out_shape, dtype=values.dtype)
    nonempty = np.nonzero(lengths > 0)[0]
    if nonempty.size:
        partial = np.add.reduceat(values, offsets[:-1][nonempty], axis=0)
        out[nonempty] = partial
    return out


@dataclass(frozen=True)
class SimoColumn:
    """Pole/residue data of one transfer-matrix column before assembly.

    Parameters
    ----------
    real_poles:
        1-D real array of the column's real poles.
    real_residues:
        ``(num_real, p)`` real residue vectors (rows align with poles).
    pair_poles:
        1-D complex array of upper-half-plane pair representatives.
    pair_residues:
        ``(num_pairs, p)`` complex residue vectors of the representatives
        (the conjugate pole implicitly carries the conjugate residue).
    """

    real_poles: np.ndarray
    real_residues: np.ndarray
    pair_poles: np.ndarray
    pair_residues: np.ndarray

    def __post_init__(self):
        rp = np.atleast_1d(np.asarray(self.real_poles, dtype=float))
        rr = np.atleast_2d(np.asarray(self.real_residues, dtype=float))
        pp = np.atleast_1d(np.asarray(self.pair_poles, dtype=complex))
        pr = np.atleast_2d(np.asarray(self.pair_residues, dtype=complex))
        if rp.size == 0:
            rr = rr.reshape(0, rr.shape[1] if rr.size else 0)
        if pp.size == 0:
            pr = pr.reshape(0, pr.shape[1] if pr.size else 0)
        if rr.shape[0] != rp.size:
            raise ValueError(
                f"real_residues rows ({rr.shape[0]}) must match real_poles ({rp.size})"
            )
        if pr.shape[0] != pp.size:
            raise ValueError(
                f"pair_residues rows ({pr.shape[0]}) must match pair_poles ({pp.size})"
            )
        if rp.size and pp.size and rr.shape[1] != pr.shape[1]:
            raise ValueError("real and pair residues must agree on port count")
        if np.any(pp.imag <= 0):
            raise ValueError("pair_poles must lie strictly in the upper half plane")
        object.__setattr__(self, "real_poles", rp)
        object.__setattr__(self, "real_residues", rr)
        object.__setattr__(self, "pair_poles", pp)
        object.__setattr__(self, "pair_residues", pr)

    @property
    def order(self) -> int:
        """States contributed by this column: one per real pole, two per pair."""
        return int(self.real_poles.size + 2 * self.pair_poles.size)

    @property
    def num_ports(self) -> int:
        """Residue vector length (0 when the column is empty)."""
        if self.real_residues.size:
            return int(self.real_residues.shape[1])
        if self.pair_residues.size:
            return int(self.pair_residues.shape[1])
        return 0

    def all_poles(self) -> np.ndarray:
        """Full complex pole list of this column (pairs expanded)."""
        out = np.concatenate(
            [
                self.real_poles.astype(complex),
                self.pair_poles,
                np.conj(self.pair_poles),
            ]
        )
        return out


class SimoRealization:
    """Assembled structured realization with O(n) kernels.

    Build instances via :func:`repro.macromodel.realization.simo_from_columns`
    or :func:`repro.macromodel.realization.pole_residue_to_simo` rather than
    calling the constructor directly.

    Attributes
    ----------
    order:
        Total dynamic order ``n``.
    num_ports:
        Number of ports ``p``.
    d:
        Direct term, ``(p, p)`` real.
    c:
        Output matrix, ``(p, n)`` real.
    """

    def __init__(self, columns: Sequence[SimoColumn], d: np.ndarray) -> None:
        d = ensure_matrix(d, "d", dtype=float)
        p = d.shape[0]
        if d.shape != (p, p):
            raise ValueError(f"d must be square, got {d.shape}")
        if len(columns) != p:
            raise ValueError(f"expected {p} columns (one per port), got {len(columns)}")
        for k, col in enumerate(columns):
            if col.order and col.num_ports != p:
                raise ValueError(
                    f"column {k} has residue length {col.num_ports}, expected {p}"
                )

        self.d = d
        self._columns: List[SimoColumn] = list(columns)
        self.column_orders = np.array([col.order for col in columns], dtype=np.intp)
        self.col_starts = np.concatenate([[0], np.cumsum(self.column_orders)])
        n = int(self.col_starts[-1])
        self.order = n
        self.num_ports = p

        real_pos: List[int] = []
        real_val: List[float] = []
        pair_pos: List[int] = []
        pair_alpha: List[float] = []
        pair_beta: List[float] = []
        b = np.zeros(n, dtype=float)
        c = np.zeros((p, n), dtype=float)
        col_of_state = np.zeros(n, dtype=np.intp)

        for k, col in enumerate(columns):
            base = int(self.col_starts[k])
            col_of_state[base : base + col.order] = k
            pos = base
            for i, pole in enumerate(col.real_poles):
                real_pos.append(pos)
                real_val.append(float(pole))
                b[pos] = 1.0
                c[:, pos] = col.real_residues[i]
                pos += 1
            for i, pole in enumerate(col.pair_poles):
                pair_pos.append(pos)
                pair_alpha.append(float(pole.real))
                pair_beta.append(float(pole.imag))
                b[pos] = 2.0
                b[pos + 1] = 0.0
                c[:, pos] = col.pair_residues[i].real
                c[:, pos + 1] = col.pair_residues[i].imag
                pos += 2

        self.real_pos = np.asarray(real_pos, dtype=np.intp)
        self.real_val = np.asarray(real_val, dtype=float)
        self.pair_pos = np.asarray(pair_pos, dtype=np.intp)
        self.pair_alpha = np.asarray(pair_alpha, dtype=float)
        self.pair_beta = np.asarray(pair_beta, dtype=float)
        self.b = b
        self.c = c
        self.col_of_state = col_of_state
        # Constants of the per-apply kernels, built once: the complex C
        # that a complex ``C @ x`` would otherwise cast on every call, and
        # the segment starts of ``B^T x`` (None when a column is empty,
        # which only segment_sum handles).
        self._c_complex = c.astype(complex)
        self._bt_starts = (
            self.col_starts[:-1] if n and np.all(self.column_orders > 0) else None
        )
        # Complex-cast direct term, computed once: transfer evaluations are
        # hot-path kernels and must not pay an astype per call.
        self._d_complex = d.astype(complex)

        # Cauchy expansion of gamma for the multi-shift transfer sweep:
        # gamma(s)[:, j] = -sum_{state in col j} res[:, state] / (s - pole).
        # Real poles carry their residue column directly (B entry 1); a 2x2
        # pair block with B entries (2, 0) and output columns (c0, c1) is
        # algebraically r/(s-q) + conj(r)/(s-conj(q)) with r = c0 + j*c1.
        cauchy_poles = np.zeros(n, dtype=complex)
        cauchy_res = np.zeros((p, n), dtype=complex)
        if self.real_pos.size:
            cauchy_poles[self.real_pos] = self.real_val
            cauchy_res[:, self.real_pos] = c[:, self.real_pos]
        if self.pair_pos.size:
            q = self.pair_alpha + 1j * self.pair_beta
            cauchy_poles[self.pair_pos] = q
            cauchy_poles[self.pair_pos + 1] = np.conj(q)
            r_vec = c[:, self.pair_pos] + 1j * c[:, self.pair_pos + 1]
            cauchy_res[:, self.pair_pos] = r_vec
            cauchy_res[:, self.pair_pos + 1] = np.conj(r_vec)
        self._cauchy_poles = cauchy_poles
        # (n, p) contiguous, pre-negated: gamma contractions are then plain
        # GEMMs with no per-call copies.
        self._cauchy_res_neg_t = np.ascontiguousarray(-cauchy_res.T)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[SimoColumn]:
        """The per-column pole/residue data used to assemble the realization."""
        return list(self._columns)

    def poles(self) -> np.ndarray:
        """All poles of the realization (union over columns, with repeats)."""
        parts = [col.all_poles() for col in self._columns if col.order]
        if not parts:
            return np.empty(0, dtype=complex)
        return np.concatenate(parts)

    def is_stable(self, *, margin: float = 0.0) -> bool:
        """True when every pole satisfies ``Re(p) < -margin``."""
        poles = self.poles()
        if poles.size == 0:
            return True
        return bool(np.all(poles.real < -margin))

    def spectral_radius_bound(self) -> float:
        """Upper bound on ``max |p|`` over the poles (exact for this A)."""
        best = 0.0
        if self.real_val.size:
            best = max(best, float(np.max(np.abs(self.real_val))))
        if self.pair_alpha.size:
            best = max(
                best, float(np.max(np.hypot(self.pair_alpha, self.pair_beta)))
            )
        return best

    # ------------------------------------------------------------------
    # O(n) structured kernels
    # ------------------------------------------------------------------
    def apply_a(self, x: np.ndarray, *, transpose: bool = False) -> np.ndarray:
        """Compute ``A x`` (or ``A^T x``) in O(n)."""
        x = np.asarray(x)
        out = np.zeros_like(x, dtype=np.result_type(x.dtype, float))
        if self.real_pos.size:
            out[self.real_pos] = self.real_val * x[self.real_pos] if x.ndim == 1 else (
                self.real_val[:, None] * x[self.real_pos]
            )
        if self.pair_pos.size:
            beta = -self.pair_beta if transpose else self.pair_beta
            if x.ndim == 1:
                x0 = x[self.pair_pos]
                x1 = x[self.pair_pos + 1]
                out[self.pair_pos] = self.pair_alpha * x0 + beta * x1
                out[self.pair_pos + 1] = -beta * x0 + self.pair_alpha * x1
            else:
                x0 = x[self.pair_pos]
                x1 = x[self.pair_pos + 1]
                out[self.pair_pos] = self.pair_alpha[:, None] * x0 + beta[:, None] * x1
                out[self.pair_pos + 1] = (
                    -beta[:, None] * x0 + self.pair_alpha[:, None] * x1
                )
        return out

    def shifted_inverse(
        self, shift: complex, *, transpose: bool = False
    ) -> la.Tridiagonal:
        """Factor ``(A - shift I)^{-1}`` (or with ``A^T``) once, in O(n).

        The inverse keeps the block structure of ``A``: a reciprocal per
        real pole and the closed-form inverse of each pair's 2x2 block
        (:func:`repro.utils.linalg.shifted_rot2_inverse`).  Every later
        product with it is elementwise, O(n) per right-hand side.

        Raises
        ------
        ZeroDivisionError
            If ``shift`` coincides with a pole of the realization.
        """
        bands = np.zeros(
            (3, self.order), dtype=np.result_type(float, np.asarray(shift).dtype)
        )
        lower, diag, upper = bands
        if self.real_pos.size:
            diag[self.real_pos] = la.shifted_diagonal_inverse(self.real_val, shift)
        if self.pair_pos.size:
            beta = -self.pair_beta if transpose else self.pair_beta
            alpha_inv, beta_inv = la.shifted_rot2_inverse(self.pair_alpha, beta, shift)
            diag[self.pair_pos] = alpha_inv
            diag[self.pair_pos + 1] = alpha_inv
            upper[self.pair_pos] = beta_inv
            lower[self.pair_pos + 1] = -beta_inv
        return la.Tridiagonal(bands)

    def solve_shifted(
        self, shift: complex, rhs: np.ndarray, *, transpose: bool = False
    ) -> np.ndarray:
        """Solve ``(A - shift I) x = rhs`` (or with ``A^T``) in O(n).

        ``rhs`` may be a vector ``(n,)`` or a block of right-hand sides
        ``(n, k)``.  Callers that solve many right-hand sides at one shift
        should factor once with :meth:`shifted_inverse` instead.

        Raises
        ------
        ZeroDivisionError
            If ``shift`` coincides with a pole of the realization.
        """
        return self.shifted_inverse(shift, transpose=transpose).apply(rhs)

    def solve_shifted_many(
        self, shifts, rhs: np.ndarray, *, transpose: bool = False
    ) -> np.ndarray:
        """Solve ``(A - shift_k I) x_k = rhs`` for a whole batch of shifts.

        The structured solves are elementwise diagonal/2x2-rotation
        operations, so the shift axis broadcasts for free: ``K`` solves cost
        one vectorized pass instead of ``K`` Python-level kernel calls.

        Parameters
        ----------
        shifts:
            1-D array of ``K`` complex shifts.
        rhs:
            Shared right-hand side, shape ``(n,)`` or ``(n, j)``.
        transpose:
            Solve against ``A^T`` instead of ``A``.

        Returns
        -------
        numpy.ndarray
            Shape ``(K, n)`` or ``(K, n, j)``.

        Raises
        ------
        ZeroDivisionError
            If any shift coincides with a pole of the realization.
        """
        shifts = ensure_vector(shifts, "shifts", dtype=complex)
        rhs = np.asarray(rhs)
        out = np.zeros(
            (shifts.size,) + rhs.shape,
            dtype=np.result_type(rhs.dtype, shifts.dtype),
        )
        if self.real_pos.size:
            out[:, self.real_pos] = la.solve_shifted_diagonal_many(
                self.real_val, shifts, rhs[self.real_pos]
            )
        if self.pair_pos.size:
            beta = -self.pair_beta if transpose else self.pair_beta
            stacked = np.stack([rhs[self.pair_pos], rhs[self.pair_pos + 1]], axis=1)
            solved = la.solve_shifted_rot2_many(self.pair_alpha, beta, shifts, stacked)
            out[:, self.pair_pos] = solved[:, :, 0]
            out[:, self.pair_pos + 1] = solved[:, :, 1]
        return out

    def apply_b(self, u: np.ndarray) -> np.ndarray:
        """Compute ``B u`` for ``u`` of shape ``(p,)`` or ``(p, k)`` — O(n)."""
        u = np.asarray(u)
        if u.ndim == 1:
            return self.b * u[self.col_of_state]
        return self.b[:, None] * u[self.col_of_state]

    def apply_bt(self, x: np.ndarray) -> np.ndarray:
        """Compute ``B^T x`` for ``x`` of shape ``(n,)`` or ``(n, k)`` — O(n)."""
        x = np.asarray(x)
        bx = self.b * x if x.ndim == 1 else self.b[:, None] * x
        if self._bt_starts is None:
            return segment_sum(bx, self.col_starts)
        return np.add.reduceat(bx, self._bt_starts, axis=0)

    def apply_c(self, x: np.ndarray) -> np.ndarray:
        """Compute ``C x`` — O(n p)."""
        x = np.asarray(x)
        return (self._c_complex if np.iscomplexobj(x) else self.c) @ x

    def apply_ct(self, y: np.ndarray) -> np.ndarray:
        """Compute ``C^T y`` — O(n p)."""
        return self.c.T @ np.asarray(y)

    # ------------------------------------------------------------------
    # Transfer-function evaluation
    # ------------------------------------------------------------------
    def gamma(self, shift: complex) -> np.ndarray:
        """Compute ``C (A - shift I)^{-1} B`` in O(n p).

        This is the ``-H_theta + D`` quantity of the paper's eq. (6); note
        ``H(s) = D - gamma(s)``.
        """
        w = self.solve_shifted(shift, self.b)
        contracted = segment_sum((self.c * w).T, self.col_starts)  # (p, p): [k, j]
        return contracted.T

    def gamma_transpose(self, shift: complex) -> np.ndarray:
        """Compute ``B^T (A^T - shift I)^{-1} C^T`` in O(n p).

        Mathematically equals ``gamma(shift).T``; computed independently via
        the transpose solve, which tests exploit as a consistency check.
        """
        x = self.solve_shifted(shift, self.c.T, transpose=True)
        return segment_sum(self.b[:, None] * x, self.col_starts)

    def transfer(self, s: complex) -> np.ndarray:
        """Evaluate ``H(s) = D - C (A - s I)^{-1} B`` in O(n p)."""
        return self._d_complex - self.gamma(s)

    def gamma_many(self, shifts) -> np.ndarray:
        """Compute ``C (A - shift_k I)^{-1} B`` for a batch; ``(K, p, p)``.

        Uses the realization's precomputed Cauchy expansion: one ``(K, n)``
        complex divide builds all resolvent factors, and ``p`` per-column
        BLAS-3 contractions assemble the ``(K, p, p)`` result — O(K n p)
        total with no per-shift Python overhead.
        """
        shifts = ensure_vector(shifts, "shifts", dtype=complex)
        denom = shifts[:, None] - self._cauchy_poles[None, :]  # (K, n)
        # all() is the cheap exact-singularity test: |z| == 0 iff z == 0.
        if denom.size and not np.all(denom):
            raise ZeroDivisionError(
                "shift coincides with a pole of the realization;"
                " shifted block is singular"
            )
        inv = 1.0 / denom
        out = np.empty(
            (shifts.size, self.num_ports, self.num_ports), dtype=complex
        )
        for j in range(self.num_ports):
            sl = slice(self.col_starts[j], self.col_starts[j + 1])
            out[:, :, j] = inv[:, sl] @ self._cauchy_res_neg_t[sl]
        return out

    def transfer_many(self, s_values) -> np.ndarray:
        """Evaluate ``H`` on an array of points; returns ``(K, p, p)``.

        Loop-free multi-shift evaluation: all ``K`` points are solved in one
        broadcast pass (see :meth:`solve_shifted_many`).
        """
        s_arr = ensure_vector(s_values, "s_values", dtype=complex)
        return self._d_complex[None] - self.gamma_many(s_arr)

    def frequency_response(self, freqs_rad) -> np.ndarray:
        """Evaluate ``H(j w)`` on an angular-frequency grid; ``(K, p, p)``."""
        freqs_rad = np.asarray(freqs_rad, dtype=float)
        return self.transfer_many(1j * freqs_rad)

    # ------------------------------------------------------------------
    # Dense conversion
    # ------------------------------------------------------------------
    def dense_a(self) -> np.ndarray:
        """Assemble the dense ``(n, n)`` state matrix."""
        a = np.zeros((self.order, self.order), dtype=float)
        if self.real_pos.size:
            a[self.real_pos, self.real_pos] = self.real_val
        for pos, alpha, beta in zip(self.pair_pos, self.pair_alpha, self.pair_beta):
            a[pos, pos] = alpha
            a[pos, pos + 1] = beta
            a[pos + 1, pos] = -beta
            a[pos + 1, pos + 1] = alpha
        return a

    def dense_b(self) -> np.ndarray:
        """Assemble the dense ``(n, p)`` input matrix."""
        b = np.zeros((self.order, self.num_ports), dtype=float)
        b[np.arange(self.order), self.col_of_state] = self.b
        return b

    def to_statespace(self) -> StateSpace:
        """Convert to a dense :class:`StateSpace` (for baselines and tests)."""
        return StateSpace(self.dense_a(), self.dense_b(), self.c.copy(), self.d.copy())

    def __repr__(self) -> str:
        return (
            f"SimoRealization(order={self.order}, ports={self.num_ports},"
            f" real_poles={self.real_pos.size}, pairs={self.pair_pos.size})"
        )
