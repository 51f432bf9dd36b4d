"""Gram assembly and jitter-laddered Cholesky factorization."""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError
from .grids import Grid

__all__ = ["gram", "chol_psd", "jitter_ladder"]


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
    factored first; each retry adds ``delta`` to the diagonal of a copy.

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
            shifted = m.copy()
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
