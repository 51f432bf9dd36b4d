"""Gram assembly, jitter-laddered Cholesky factorization and forward substitution."""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError
from .grids import Grid

__all__ = ["gram", "chol_psd", "jitter_ladder", "solve_lower"]

# Rows per diagonal block of the forward substitution.
SOLVE_BLOCK = 128


def gram(kernel, grid: Grid) -> np.ndarray:
    """Kernel matrix ``[k(x_i, x_j)]`` on a grid.

    The result is symmetrized after assembly so it is exactly symmetric.
    """
    x = grid.points
    m = np.asarray(kernel(x[:, None], x[None, :]), dtype=float)
    return 0.5 * (m + m.T)


def jitter_ladder(max_jitter: float):
    """Candidate jitters: 0, then decade steps from 1e-12 up to max_jitter."""
    ladder = [0.0]
    k = -12
    while 10.0**k <= max_jitter:
        ladder.append(10.0**k)
        k += 1
    if max_jitter > 0 and ladder[-1] < max_jitter:
        ladder.append(float(max_jitter))
    return ladder


def chol_psd(matrix: np.ndarray, max_jitter: float = 1e-8):
    """Lower Cholesky factor of ``matrix + delta * I`` for the smallest workable delta.

    Tries the jitter ladder ``0, 1e-12, 1e-11, ..., max_jitter`` in order and
    returns ``(L, delta)`` for the first success.  ``matrix`` itself is
    factored first; each retry adds ``delta`` to the diagonal of a copy in
    ``matrix``'s memory layout.

    Only the lower triangle of ``matrix`` is read: entries above the
    diagonal do not change ``L`` or ``delta``, so a caller may fill the lower
    triangle alone.

    Raises
    ------
    NotPositiveDefiniteError
        If no ladder entry makes the factorization succeed; the exception
        records the attempted deltas.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotPositiveDefiniteError(f"expected a square matrix, got shape {m.shape}")
    ladder = jitter_ladder(max_jitter)
    for delta in ladder:
        shifted = m
        if delta:
            shifted = m.copy(order="K")
            shifted[np.diag_indices_from(shifted)] += delta
        try:
            return np.linalg.cholesky(shifted), delta
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError(
        f"matrix of size {m.shape[0]} is not positive definite for any jitter "
        f"on the ladder (tried {ladder})",
        tried=ladder,
    )


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` in place for a lower-triangular ``L`` by blocked forward substitution.

    ``b``, a float64 vector or matrix of right-hand sides, is overwritten by
    ``x`` and returned.  Each ``SOLVE_BLOCK`` row block of ``x`` is solved
    against its diagonal block of ``L`` with ``np.linalg.solve``, then one
    matrix product removes it from the rows below.  Only the lower triangle
    of ``L`` is read.
    """
    n = L.shape[0]
    for lo in range(0, n, SOLVE_BLOCK):
        hi = min(lo + SOLVE_BLOCK, n)
        b[lo:hi] = np.linalg.solve(np.tril(L[lo:hi, lo:hi]), b[lo:hi])
        if hi < n:
            b[hi:] -= L[hi:, lo:hi] @ b[lo:hi]
    return b
