"""Gram assembly, jitter-laddered Cholesky, forward substitution and the one-BLAS-thread seam."""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import NotPositiveDefiniteError
from .grids import Grid

__all__ = ["gram", "chol_psd", "jitter_ladder", "solve_lower", "one_blas_thread",
           "blas_threads"]

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


class _OpenBLAS:
    """The thread count of one OpenBLAS library, held at one while any caller is inside.

    The count is process-wide, so entries nest and may come from several
    threads: the first entry saves the count and sets one, the last exit
    restores what was saved.
    """

    def __init__(self, lib: ctypes.CDLL, prefix: str, suffix: str):
        self.get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        self.set.argtypes, self.set.restype = [ctypes.c_int], None
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def enter(self):
        with self._lock:
            if self._depth == 0:
                self._saved = self.get()
                self.set(1)
            self._depth += 1

    def exit(self):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set(self._saved)


def _find_openblas() -> _OpenBLAS | None:
    """numpy's bundled OpenBLAS (``numpy.libs`` on Linux, ``numpy/.dylibs`` on macOS)."""
    pkg = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(pkg + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(pkg, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if all(hasattr(lib, f"{prefix}_{op}_num_threads{suffix}") for op in ("get", "set")):
                    return _OpenBLAS(lib, prefix, suffix)
    return None


# numpy's OpenBLAS, looked up on first use and never at import: None until
# then, and False when the lookup found none, in which case BLAS is
# uncontrolled and one_blas_thread does nothing.
_openblas: _OpenBLAS | bool | None = None
_openblas_lock = threading.Lock()


def _resolve_openblas() -> _OpenBLAS | bool:
    global _openblas
    with _openblas_lock:
        if _openblas is None:
            _openblas = _find_openblas() or False
        return _openblas


def blas_threads() -> int | None:
    """numpy's current OpenBLAS thread count, or None when BLAS is uncontrolled."""
    blas = _resolve_openblas()
    return blas.get() if blas else None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread; restore the count on exit.

    A multi-threaded BLAS call splits its sums by thread, so its bits depend
    on the thread count, and after each call OpenBLAS's workers spin for a
    while, taking cores from the Python code that runs next.  The count is
    restored also when the body raises.  Entries nest, also across threads:
    the count is restored when the last one leaves.  Usable as a decorator.
    When numpy bundles no OpenBLAS that can be found, this does nothing.
    """
    blas = _resolve_openblas()
    if not blas:
        yield
        return
    blas.enter()
    try:
        yield
    finally:
        blas.exit()
