"""Dense and structured linear-algebra kernels.

The structured SIMO realization of the paper (eq. 2) stores the state matrix
``A`` as a block diagonal of 1x1 blocks (real poles) and 2x2 rotation-like
blocks (complex-conjugate pole pairs after the real transformation of
ref. [9]).  The kernels here invert shifted blocks in closed form — a
shifted inverse keeps the block structure, so it is built once per shift
in O(n) and applied as a :class:`Tridiagonal` in O(n) per right-hand side
— the workhorse behind the O(n p) Sherman-Morrison-Woodbury shift-invert
of eq. (6).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "blkdiag",
    "shifted_diagonal_inverse",
    "shifted_rot2_inverse",
    "solve_shifted_diagonal_many",
    "solve_shifted_rot2_many",
    "Tridiagonal",
    "orthonormalize_against",
    "relative_spacing",
]


def blkdiag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble a dense block-diagonal matrix from a sequence of blocks.

    Equivalent to :func:`scipy.linalg.block_diag` but accepts an empty
    sequence (returning a 0x0 array) and always promotes to a common dtype.
    """
    mats = [np.atleast_2d(np.asarray(b)) for b in blocks]
    if not mats:
        return np.zeros((0, 0))
    dtype = np.result_type(*[m.dtype for m in mats])
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=dtype)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def shifted_diagonal_inverse(diag: np.ndarray, shift) -> np.ndarray:
    """Entries ``1 / (d - shift)`` of ``(diag(d) - shift*I)^{-1}``.

    ``shift`` broadcasts against ``diag``: a ``(K, 1)`` column of shifts
    against ``(1, m)`` entries gives one row of reciprocals per shift.

    Raises
    ------
    ZeroDivisionError
        If a shift coincides exactly with a diagonal entry, making the
        block singular.
    """
    denom = np.asarray(diag) - np.asarray(shift)
    # all() is the cheap exact-singularity test: |z| == 0 iff z == 0.
    if denom.size and not np.all(denom):
        raise ZeroDivisionError(
            "shift coincides with a real pole; shifted block is singular"
        )
    return 1.0 / denom


def shifted_rot2_inverse(alpha: np.ndarray, beta: np.ndarray, shift):
    """Closed-form ``(block - shift*I)^{-1}`` of rotation-like 2x2 blocks.

    Each block ``[[alpha, beta], [-beta, alpha]]`` is the real realization
    of a complex pole pair ``alpha +/- j*beta``.  With ``a = alpha - shift``
    the shifted inverse is ``[[a, -beta], [beta, a]] / (a^2 + beta^2)``,
    again rotation-like, so it is returned in the same parametrization.
    ``shift`` broadcasts against ``alpha``/``beta`` as in
    :func:`shifted_diagonal_inverse`.

    Returns
    -------
    (alpha_inv, beta_inv):
        The inverse blocks are ``[[alpha_inv, beta_inv], [-beta_inv,
        alpha_inv]]``.

    Raises
    ------
    ZeroDivisionError
        If a shift coincides with a block eigenvalue ``alpha +/- j*beta``.
    """
    a = np.asarray(alpha) - np.asarray(shift)
    beta = np.asarray(beta)
    det = a * a + beta * beta
    if det.size and not np.all(det):
        raise ZeroDivisionError(
            "shift coincides with a complex pole; shifted block is singular"
        )
    return a / det, -beta / det


def solve_shifted_diagonal_many(
    diag: np.ndarray, shifts: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``(diag(d) - shift_k*I) x_k = rhs`` for a whole batch of shifts.

    The right-hand side is *shared* across shifts (the multi-shift
    structure of frequency sweeps, where ``B`` is fixed and only the
    evaluation point moves), so the solves reduce to one broadcast product
    with the reciprocals of :func:`shifted_diagonal_inverse`.

    Parameters
    ----------
    diag:
        1-D array of diagonal entries ``d`` (length ``m``).
    shifts:
        1-D array of ``K`` complex shifts.
    rhs:
        Shared right-hand side of shape ``(m,)`` or ``(m, j)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(K, m)`` or ``(K, m, j)`` — one solution per shift.

    Raises
    ------
    ZeroDivisionError
        If any shift coincides with a diagonal entry.
    """
    inv = shifted_diagonal_inverse(
        np.asarray(diag)[None, :], np.asarray(shifts)[:, None]
    )  # (K, m)
    rhs = np.asarray(rhs)
    if rhs.ndim == 1:
        return rhs[None, :] * inv
    return rhs[None, :, :] * inv[:, :, None]


def solve_shifted_rot2_many(
    alpha: np.ndarray, beta: np.ndarray, shifts: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve shifted rotation-like 2x2 systems for a whole batch of shifts.

    The systems are ``([[alpha, beta], [-beta, alpha]] - shift_k*I) x = rhs``
    for every block and shift; the right-hand side is shared across the
    ``K`` shifts, and every ``(block, shift)`` combination is solved with
    one broadcast product with the inverses of :func:`shifted_rot2_inverse`.

    Parameters
    ----------
    alpha, beta:
        1-D arrays of length ``m`` (one entry per 2x2 block).
    shifts:
        1-D array of ``K`` complex shifts.
    rhs:
        Shared right-hand side of shape ``(m, 2)`` or ``(m, 2, j)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(K, m, 2)`` or ``(K, m, 2, j)``.

    Raises
    ------
    ZeroDivisionError
        If any shift coincides with a block eigenvalue ``alpha +/- j*beta``.
    """
    g, h = shifted_rot2_inverse(
        np.asarray(alpha)[None, :],
        np.asarray(beta)[None, :],
        np.asarray(shifts)[:, None],
    )  # (K, m) each
    rhs = np.asarray(rhs)
    if rhs.ndim == 3:
        g = g[:, :, None]
        h = h[:, :, None]
    r0 = rhs[None, :, 0]
    r1 = rhs[None, :, 1]
    return np.stack([g * r0 + h * r1, g * r1 - h * r0], axis=2)


class Tridiagonal:
    """A tridiagonal matrix ``T`` stored as its three diagonals.

    A block diagonal of 1x1 and 2x2 blocks on consecutive indices — the
    structured state matrix of eq. (2) and its shifted inverses — is
    tridiagonal, so its product with an ``(N,)`` vector or an ``(N, k)``
    block costs three contiguous elementwise products and no index
    gathers.

    Parameters
    ----------
    bands:
        ``(3, N)`` array of rows ``(lower, diag, upper)`` with
        ``lower[i] = T[i, i - 1]``, ``diag[i] = T[i, i]`` and
        ``upper[i] = T[i, i + 1]``.  ``lower[0]`` and ``upper[N - 1]`` lie
        outside the matrix and must be zero, so the bands of two matrices
        placed side by side are the bands of their block diagonal.
    """

    def __init__(self, bands: np.ndarray) -> None:
        bands = np.asarray(bands)
        if bands.ndim != 2 or bands.shape[0] != 3:
            raise ValueError(f"bands must have shape (3, N), got {bands.shape}")
        self.bands = bands
        # (diag, upper[:-1], lower[1:]) sliced once, for vectors and for
        # blocks: apply runs once per Arnoldi step.
        self._vector_bands = (bands[1], bands[2, :-1], bands[0, 1:])
        self._block_bands = tuple(band[:, None] for band in self._vector_bands)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute ``T x`` for ``x`` of shape ``(N,)`` or ``(N, k)``."""
        x = np.asarray(x)
        diag, upper, lower = self._vector_bands if x.ndim == 1 else self._block_bands
        out = diag * x
        out[:-1] += upper * x[1:]
        out[1:] += lower * x[:-1]
        return out


def orthonormalize_against(basis: np.ndarray, vector: np.ndarray, *, passes: int = 2):
    """Orthonormalize ``vector`` against the columns of ``basis``.

    Uses classical Gram-Schmidt with ``passes`` re-orthogonalization sweeps
    ("twice is enough", Kahan/Parlett) — each sweep is a pair of BLAS-2
    products, which is both faster and numerically tighter than one
    element-at-a-time modified Gram-Schmidt pass in floating point.

    Parameters
    ----------
    basis:
        ``(n, k)`` array with orthonormal columns (``k`` may be 0).
    vector:
        Length-``n`` vector to orthogonalize.
    passes:
        Number of projection sweeps (2 is the robust default).

    Returns
    -------
    (coeffs, norm, q):
        ``coeffs`` — accumulated projection coefficients (length ``k``);
        ``norm`` — the norm of the orthogonalized remainder;
        ``q`` — the unit remainder, or ``None`` when the remainder vanished
        (vector was numerically inside ``span(basis)``).
    """
    basis = np.asarray(basis)
    w = np.array(vector, dtype=np.result_type(vector, basis.dtype), copy=True)
    k = basis.shape[1] if basis.ndim == 2 else 0
    coeffs = np.zeros(k, dtype=w.dtype)
    original_norm = np.linalg.norm(w)
    for _ in range(max(1, passes)):
        if k == 0:
            break
        # basis^H w as conj(basis^T conj(w)): conjugates O(n + k) entries
        # instead of copying the whole (n, k) basis.
        proj = np.conj(basis.T @ np.conj(w))
        w -= basis @ proj
        coeffs += proj
    norm = float(np.linalg.norm(w))
    # Breakdown detection: the remainder is in span(basis) to machine
    # precision when its norm collapsed by ~eps relative to the input.
    if original_norm == 0.0 or norm <= 1e-14 * max(1.0, original_norm):
        return coeffs, 0.0, None
    return coeffs, norm, w / norm


def relative_spacing(values: np.ndarray) -> float:
    """Return the smallest relative gap between sorted real values.

    Used by tests to reason about eigenvalue cluster resolvability; returns
    ``inf`` for fewer than two values.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size < 2:
        return float("inf")
    scale = max(1.0, float(np.max(np.abs(arr))))
    return float(np.min(np.diff(arr)) / scale)
