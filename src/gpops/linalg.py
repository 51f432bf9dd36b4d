"""Gram assembly, jitter-laddered Cholesky, forward substitution and the one-BLAS-thread seam.

The Cholesky factor (LAPACK's ``dpotrf``) and the triangular solve (BLAS's
``dtrsm``) are called through ``ctypes`` from the OpenBLAS that numpy bundles,
the library whose thread count ``one_blas_thread`` holds, so the runtime
needs no scipy.  Both work in one layout, Fortran order, the one LAPACK
reads: the factor is returned in it and the solve reads both operands in it.
Without such a library they fall back to ``np.linalg.cholesky`` and
``np.linalg.solve``.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import sys
import threading
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, ParameterError
from .grids import Grid

__all__ = ["gram", "chol_psd", "jitter_ladder", "solve_lower", "one_blas_thread",
           "blas_threads"]


def gram(kernel, grid: Grid) -> np.ndarray:
    """Kernel matrix ``[k(x_i, x_j)]`` on a grid.

    The result is symmetrized after assembly so it is exactly symmetric.
    """
    x = grid.points
    m = np.asarray(kernel(x[:, None], x[None, :]), dtype=float)
    return 0.5 * (m + m.T)


def jitter_ladder(max_jitter: float):
    """Candidate jitters: 0, then decade steps from 1e-12 up to max_jitter.

    Raises ParameterError unless ``max_jitter`` is finite and >= 0.
    """
    if not (math.isfinite(max_jitter) and max_jitter >= 0):
        raise ParameterError(f"max_jitter must be finite and >= 0, got {max_jitter}")
    ladder = [0.0]
    k = -12
    while k <= sys.float_info.max_10_exp and 10.0**k <= max_jitter:
        ladder.append(10.0**k)
        k += 1
    if max_jitter > 0 and ladder[-1] < max_jitter:
        ladder.append(float(max_jitter))
    return ladder


def chol_psd(matrix: np.ndarray, max_jitter: float = 1e-8, *, overwrite: bool = False):
    """Lower Cholesky factor of ``matrix + delta * I`` for the smallest workable delta.

    Tries the jitter ladder ``0, 1e-12, 1e-11, ..., max_jitter`` in order and
    returns ``(L, delta)`` for the first success.  The factorization is
    LAPACK's ``dpotrf``, in place on a Fortran-ordered work array.  Before the
    first attempt the strict upper triangle of that array receives a mirror
    of the lower one and the diagonal is kept in an O(q) copy, so a retry
    restores the array from them and adds ``delta`` to its diagonal.  The
    factor equals ``np.linalg.cholesky``'s bit for bit, which is also the
    fallback when numpy bundles no OpenBLAS that can be found.

    ``L`` is always the Fortran-ordered work array.  By default that is a
    Fortran copy of ``matrix``, which is never modified, so the memory is the
    input plus one copy.

    With ``overwrite=True`` a writeable, Fortran-ordered float64 ``matrix``
    is itself the work array and is returned as ``L``, so on the OpenBLAS
    path no q×q copy is made (the numpy fallback allocates one for its
    factor).  Any other input, a C-ordered one included, cannot be factored
    in place: it is copied and left untouched, as by default.  After an
    error with ``overwrite=True``, an input taken over holds unspecified
    values.

    Only the lower triangle of ``matrix`` is read: entries above the
    diagonal do not change ``L`` or ``delta``, so a caller may fill the lower
    triangle alone.

    Raises
    ------
    DimensionError
        If ``matrix`` is not a square matrix.
    NotPositiveDefiniteError
        If no ladder entry makes the factorization succeed, or if the lower
        triangle holds a NaN or an infinity (LAPACK does not flag a NaN, but
        it always reaches the factor's diagonal); the exception records the
        attempted deltas.
    ParameterError
        If ``max_jitter`` is not finite and >= 0.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    ladder = jitter_ladder(max_jitter)
    owned = overwrite and m is matrix and m.flags.writeable and m.flags.f_contiguous
    work = m if owned else np.array(m, order="F")
    # dpotrf('L') leaves the strict upper triangle alone, so a mirror of the
    # lower one there, and the diagonal kept aside, restore it for a retry
    saved = work.diagonal().copy()
    _mirror_lower(work)
    for i, delta in enumerate(ladder):
        if delta:
            _restore_lower(work, saved + delta)
        if _factor_lower(work):
            break
    else:
        _restore_lower(work, saved)
        if not np.isfinite(np.tril(work)).all():
            raise _not_finite(m, ladder)
        raise NotPositiveDefiniteError(
            f"matrix of size {m.shape[0]} is not positive definite for any jitter "
            f"on the ladder (tried {ladder})",
            tried=ladder,
        )
    if not np.isfinite(work.diagonal()).all():
        raise _not_finite(m, ladder[:i + 1])
    for j in range(1, work.shape[1]):
        work[:j, j] = 0.0
    return work, delta


# Columns per panel of _mirror_lower: its temporaries are q x _PANEL.
_PANEL = 128


def _mirror_lower(a: np.ndarray):
    """Copy the strict lower triangle of the square ``a`` onto its strict upper one.

    One column panel at a time, so each temporary is one panel and never a
    q×q array.  ``_mirror_lower(a.T)`` copies the upper triangle back.
    """
    q = a.shape[0]
    for j0 in range(0, q, _PANEL):
        j1 = min(q, j0 + _PANEL)
        a[:j0, j0:j1] = a[j0:j1, :j0].T
        block = a[j0:j1, j0:j1]
        np.copyto(block, block.T, where=~np.tri(j1 - j0, dtype=bool))


def _restore_lower(a: np.ndarray, diagonal: np.ndarray):
    """Refill the lower triangle of ``a`` from the mirror in its upper one and set its diagonal."""
    _mirror_lower(a.T)
    np.fill_diagonal(a, diagonal)


def _not_finite(m, tried) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(
        f"matrix of size {m.shape[0]} has an entry that is not finite (a NaN or an "
        f"infinity) in its lower triangle", tried=tried)


def _factor_lower(work: np.ndarray) -> bool:
    """Cholesky-factor the Fortran-ordered ``work`` in place; False if it is not positive definite.

    Only the lower triangle is read.  A failed attempt leaves the strict
    upper triangle as it was, since ``chol_psd`` keeps a mirror of the lower
    one there; after a success it holds no defined values.
    """
    blas = _resolve_openblas()
    if blas:
        return blas.potrf(work) == 0
    try:
        factor = np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return False
    work[...] = factor
    return True


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` in place for a lower-triangular ``L``; return ``b``, now holding ``x``.

    ``b`` is a writeable float64 vector or matrix of right-hand sides.  One
    BLAS ``dtrsm`` call of one fixed shape solves for all of them, in
    Fortran order: a Fortran-ordered ``L``, such as ``chol_psd`` returns,
    and a vector or Fortran-ordered ``b`` are not copied, any other ``L`` is
    read from a Fortran copy, and any other ``b`` is solved in a Fortran
    copy that is written back.  So every layout of ``L`` and ``b`` gives the
    same bits.  Only the lower triangle of ``L`` is read.  When numpy bundles
    no OpenBLAS that can be found, this falls back to ``np.linalg.solve`` on
    ``np.tril(L)``.

    Raises ParameterError, before any work, for a ``b`` that cannot hold the
    solution (anything but a writeable float64 ndarray), and DimensionError
    unless ``L`` is square and ``b`` has as many rows.
    """
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.flags.writeable):
        got = (f"a {'writeable' if b.flags.writeable else 'read-only'} {b.dtype} array"
               if isinstance(b, np.ndarray) else type(b).__name__)
        raise ParameterError(f"the right-hand side receives the solution, so it must be a "
                             f"writeable float64 array; got {got}")
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or b.ndim not in (1, 2) \
            or b.shape[0] != L.shape[0]:
        raise DimensionError(f"cannot solve {L.shape} against {b.shape}")
    blas = _resolve_openblas()
    if not blas:
        b[...] = np.linalg.solve(np.tril(L), b)
        return b
    x = b if b.flags.f_contiguous else np.array(b, order="F")
    blas.trsm(np.asfortranarray(L), x)
    if x is not b:
        b[...] = x
    return b


class _OpenBLAS:
    """One OpenBLAS library: its thread count, and the LAPACK factor and BLAS solve read from it.

    The thread count is process-wide and held at one while any caller is
    inside, so entries nest and may come from several threads: the first
    entry saves the count and sets one, the last exit restores what was
    saved.  Binding raises AttributeError when the library lacks a symbol.
    The ``64_`` symbols take 64-bit integers, the others 32-bit ones, and each
    character argument has a trailing hidden length.
    """

    def __init__(self, lib: ctypes.CDLL, prefix: str, suffix: str):
        self.get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        self.set.argtypes, self.set.restype = [ctypes.c_int], None
        lapack = "scipy_" if prefix == "scipy_openblas" else ""
        self._int = ctypes.c_int64 if suffix == "64_" else ctypes.c_int32
        char, ptr, length = ctypes.c_char_p, ctypes.POINTER(self._int), ctypes.c_size_t
        self._potrf = getattr(lib, f"{lapack}dpotrf_{suffix}")
        self._potrf.argtypes = [char, ptr, ctypes.c_void_p, ptr, ptr, length]
        self._potrf.restype = None
        self._trsm = getattr(lib, f"{lapack}dtrsm_{suffix}")
        self._trsm.argtypes = [char, char, char, char, ptr, ptr,
                               ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, ptr,
                               ctypes.c_void_p, ptr, length, length, length, length]
        self._trsm.restype = None
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

    def potrf(self, a: np.ndarray) -> int:
        """``dpotrf('L')`` in place on the Fortran-ordered float64 square ``a``; LAPACK's info."""
        n, info = a.shape[0], self._int(0)
        self._potrf(b"L", ctypes.byref(self._int(n)), a.ctypes.data,
                    ctypes.byref(self._int(max(1, n))), ctypes.byref(info), 1)
        return info.value

    def trsm(self, L: np.ndarray, b: np.ndarray):
        """Overwrite ``b`` by ``L^-1 b``: ``dtrsm("L", "L", "N", "N")``, lower triangle of ``L``.

        ``L`` is a Fortran-ordered float64 square, ``b`` a Fortran-ordered
        float64 vector or matrix with as many rows.
        """
        q, k = L.shape[0], b.shape[1] if b.ndim == 2 else 1
        ld = ctypes.byref(self._int(max(1, q)))
        self._trsm(b"L", b"L", b"N", b"N", ctypes.byref(self._int(q)),
                   ctypes.byref(self._int(k)), ctypes.byref(ctypes.c_double(1.0)),
                   L.ctypes.data, ld, b.ctypes.data, ld, 1, 1, 1, 1)


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
                try:
                    return _OpenBLAS(lib, prefix, suffix)
                except AttributeError:
                    continue
    return None


# numpy's OpenBLAS, looked up on first use and never at import: None until
# then, and False when the lookup found none, in which case BLAS is
# uncontrolled, one_blas_thread does nothing and chol_psd and solve_lower
# fall back to numpy.
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
