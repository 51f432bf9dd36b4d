"""Gram assembly, jitter-laddered Cholesky, forward substitution and the one-BLAS-thread seam.

The Cholesky factors and the triangular solve are called through ``ctypes``
from the OpenBLAS that numpy bundles, the library whose thread count
``one_blas_thread`` holds, so the runtime needs no scipy.  A dense matrix is
factored by LAPACK's ``dpotrf`` in a Fortran-ordered copy.  A
:class:`PackedLower` holds only the lower triangle of a symmetric matrix, in
LAPACK's rectangular full packed format, q(q+1)/2 numbers instead of q²; it is
factored in place by ``dpftrf`` and solved against by ``dtfsm``, which read
the same layout.  Without such a library they fall back to
``np.linalg.cholesky`` and ``np.linalg.solve`` (on an unpacked copy).
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

from .errors import DimensionError, EvaluationError, NotPositiveDefiniteError, ParameterError
from .grids import Grid

__all__ = ["gram", "check_finite", "chol_psd", "jitter_ladder", "solve_lower", "PackedLower",
           "one_blas_thread", "blas_threads"]


def gram(kernel, grid: Grid) -> np.ndarray:
    """Kernel matrix ``[k(x_i, x_j)]`` on a grid, exactly symmetric.

    ``kernel.fill_lower`` tabulates the lower triangle, the same bits as the
    full table, and each band of 64 rows copies its mirror image into the
    upper one.  A non-finite entry is returned for the caller to name.
    """
    n, band = len(grid), 64
    m = kernel.fill_lower(grid.points, np.empty((n, n)))
    upper = ~np.tri(band, dtype=bool)
    for lo in range(0, n, band):
        hi = min(n, lo + band)
        m[lo:hi, hi:] = m[hi:, lo:hi].T
        np.copyto(m[lo:hi, lo:hi], m[lo:hi, lo:hi].T, where=upper[:hi - lo, :hi - lo])
    return m


def check_finite(tables):
    """Raise :class:`EvaluationError` naming the first ``(name, source, table)`` not finite.

    A kernel table names the grid's width as a cause too: the differences of
    points far apart, over a short lengthscale, overflow inside the series.
    """
    for name, source, value in tables:
        if not np.isfinite(value).all():
            cause = f"the {source} or an operator coefficient is too large"
            if source == "kernel":
                cause += ", or the grid is too wide for the kernel's lengthscale"
            raise EvaluationError(f"{name} has an entry that is not finite: {cause}")


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


class PackedLower:
    """The lower triangle of a symmetric q×q matrix in rectangular full packed format.

    LAPACK's RFP format (TRANSR='N', UPLO='L'; Gustavson, Waśniewski,
    Dongarra and Langou, ACM TOMS 37(2), 2010) holds the q(q+1)/2 entries of
    the triangle in one Fortran-ordered array ``data`` of shape (q+e)×n1,
    with n1 = q - ⌊q/2⌋, n2 = ⌊q/2⌋ and e = 1 - q mod 2: ``data[e:e+n1, :]``
    holds the leading n1×n1 triangle, ``data[e+n1:, :]`` the block below it
    and ``data[:n2, 1-e:1-e+n2].T`` the trailing n2×n2 triangle.  Every
    number of ``data`` is an entry of the triangle.  ``shape`` is (q, q),
    the matrix it stands for.

    ``fill(packed)`` writes the whole triangle through :meth:`pieces` and
    :meth:`add_to_diagonal`.  It runs at construction and again on each
    :meth:`refill`, which is how :func:`chol_psd` restores the matrix for a
    jitter retry after ``dpftrf`` has overwritten it with a partial factor:
    there is no backup copy.
    """

    def __init__(self, q: int, fill):
        n2 = q // 2
        self.shape = (q, q)
        self._n1, self._e = q - n2, 1 - q % 2
        self.data = np.empty((q + self._e, q - n2), order="F")
        self._fill = fill
        self.refill()

    @classmethod
    def from_dense(cls, matrix) -> PackedLower:
        """The lower triangle of the square ``matrix``, packed; refilled from ``matrix``."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        return cls(m.shape[0], lambda packed: packed._write(m))

    def refill(self):
        """Write the matrix's triangle into ``data`` again, with the ``fill`` given at construction."""
        self._fill(self)

    def pieces(self, rows: slice, cols: slice):
        """Views of ``data`` that hold the block ``[rows, cols]`` of the matrix.

        ``rows`` and ``cols`` are slices with integer bounds, for a block
        below the diagonal (``rows.start >= cols.stop``) or on it (``rows ==
        cols``).  Returns ``(rows, cols, view)`` triples that cover the block:
        a piece with ``rows == cols`` is a diagonal square, of which only the
        lower triangle is the matrix's (its strict upper triangle holds other
        entries); every other view is a whole block.  The views of the
        leading columns are column-major, those of the trailing triangle
        row-major.
        """
        n1, e = self._n1, self._e
        r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
        out = []
        if c0 < min(c1, n1):
            # data[e + r, c] holds the entry (r, c) of a leading column c < n1
            cm = min(c1, n1)
            if rows == cols:
                out.append((slice(c0, cm), slice(c0, cm), self.data[e + c0:e + cm, c0:cm]))
                r0 = cm
            if r0 < r1:
                out.append((slice(r0, r1), slice(c0, cm), self.data[e + r0:e + r1, c0:cm]))
        if c1 > n1:
            # data[c - n1, 1 - e + r - n1] holds the entry (r, c) of a trailing column
            c0, r0 = max(c0, n1), max(r0, n1)
            view = self.data[c0 - n1:c1 - n1, 1 - e + r0 - n1:1 - e + r1 - n1].T
            out.append((slice(r0, r1), slice(c0, c1), view))
        return out

    def _diagonals(self):
        # writeable views of the diagonal: its leading n1 entries, then its trailing n2
        q, n1, e = self.shape[0], self._n1, self._e
        flat, ld = self.data.reshape(-1, order="F"), q + e
        return flat[e::ld + 1][:n1], flat[(1 - e) * ld::ld + 1][:q - n1]

    def diagonal(self) -> np.ndarray:
        """A copy of the diagonal, in order."""
        return np.concatenate(self._diagonals())

    def add_to_diagonal(self, values):
        """Add ``values``, one per diagonal entry or one for all, to the diagonal."""
        lead, trail = self._diagonals()
        values = np.broadcast_to(np.asarray(values, dtype=float), (self.shape[0],))
        lead += values[:lead.size]
        trail += values[lead.size:]

    def _write(self, matrix):
        # the lower triangle of the dense square ``matrix`` into data
        q = self.shape[0]
        for rows, cols, view in self.pieces(slice(0, q), slice(0, q)):
            block = matrix[rows, cols]
            if rows == cols:
                np.copyto(view, block, where=np.tri(len(block), dtype=bool))
            else:
                view[...] = block

    def unpack(self) -> np.ndarray:
        """The triangle as a dense Fortran-ordered q×q array, zero above the diagonal."""
        q = self.shape[0]
        out = np.zeros((q, q), order="F")
        for rows, cols, view in self.pieces(slice(0, q), slice(0, q)):
            out[rows, cols] = np.tril(view) if rows == cols else view
        return out


def chol_psd(matrix, max_jitter: float = 1e-8):
    """Lower Cholesky factor of ``matrix + delta * I`` for the smallest workable delta.

    Tries the jitter ladder ``0, 1e-12, 1e-11, ..., max_jitter`` in order and
    returns ``(L, delta)`` for the first success.  Only the lower triangle of
    ``matrix`` is read.

    A dense ``matrix`` is never modified: LAPACK's ``dpotrf`` factors a
    Fortran-ordered copy of it, which each retry copies afresh before it
    adds ``delta`` to the diagonal.  ``L`` is that copy, Fortran-ordered and
    zero above the diagonal; it equals ``np.linalg.cholesky``'s factor bit
    for bit, which is also the fallback when numpy bundles no OpenBLAS that
    can be found.

    A :class:`PackedLower` ``matrix`` is factored in place by LAPACK's
    ``dpftrf`` and returned as ``L``, so no q×q array is made on the
    OpenBLAS path (numpy's fallback factors an unpacked copy and packs the
    factor back).  A retry refills it (:meth:`PackedLower.refill`) and adds
    ``delta`` to its diagonal.  After an error it holds the matrix again.

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
    packed = isinstance(matrix, PackedLower)
    if not packed:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {matrix.shape}")
    ladder = jitter_ladder(max_jitter)
    q = matrix.shape[0]
    work = matrix if packed else np.empty((q, q), order="F")
    for i, delta in enumerate(ladder):
        # the matrix afresh for every rung but a packed one's first, which
        # nothing has touched yet
        if not packed:
            np.copyto(work, matrix)
        elif i:
            work.refill()
        if delta:
            if packed:
                work.add_to_diagonal(delta)
            else:
                work[np.diag_indices(q)] += delta
        if _factor_packed(work) if packed else _factor_lower(work):
            break
    else:
        if packed:
            work.refill()
        if not np.isfinite(work.data if packed else np.tril(matrix)).all():
            raise _not_finite(q, ladder)
        raise NotPositiveDefiniteError(
            f"matrix of size {q} is not positive definite for any jitter "
            f"on the ladder (tried {ladder})",
            tried=ladder,
        )
    if not np.isfinite(work.diagonal()).all():
        if packed:
            work.refill()
        raise _not_finite(q, ladder[:i + 1])
    if not packed:
        for j in range(1, q):
            work[:j, j] = 0.0
    return work, delta


def _not_finite(q, tried) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(
        f"matrix of size {q} has an entry that is not finite (a NaN or an "
        f"infinity) in its lower triangle", tried=tried)


def _factor_lower(work: np.ndarray) -> bool:
    """Cholesky-factor the Fortran-ordered ``work`` in place; False if it is not positive definite.

    Only the lower triangle is read, and only it is written.
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


def _factor_packed(work: PackedLower) -> bool:
    """Cholesky-factor the packed ``work`` in place; False if it is not positive definite."""
    blas = _resolve_openblas()
    if blas:
        return blas.pftrf(work.data, work.shape[0]) == 0
    try:
        factor = np.linalg.cholesky(work.unpack())
    except np.linalg.LinAlgError:
        return False
    work._write(factor)
    return True


def solve_lower(L: PackedLower, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` in place for a packed lower-triangular ``L``; return ``b``, now holding ``x``.

    ``L`` is a :class:`PackedLower`, such as :func:`chol_psd` returns for
    one.  ``b`` is a writeable float64 vector or matrix of right-hand sides.
    One LAPACK ``dtfsm`` call solves for all of them, in Fortran order: a
    vector or Fortran-ordered ``b`` is not copied, and any other ``b`` is
    solved in a Fortran copy that is written back, so every layout of ``b``
    gives the same bits.  When numpy bundles no OpenBLAS that can be found,
    this falls back to ``np.linalg.solve`` on ``L.unpack()``.

    Raises ParameterError, before any work, for an ``L`` that is not a
    :class:`PackedLower` or a ``b`` that cannot hold the solution (anything
    but a writeable float64 ndarray), and DimensionError unless ``b`` has as
    many rows as ``L``.
    """
    if not isinstance(L, PackedLower):
        raise ParameterError(f"the factor must be a PackedLower, got {type(L).__name__}")
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.flags.writeable):
        got = (f"a {'writeable' if b.flags.writeable else 'read-only'} {b.dtype} array"
               if isinstance(b, np.ndarray) else type(b).__name__)
        raise ParameterError(f"the right-hand side receives the solution, so it must be a "
                             f"writeable float64 array; got {got}")
    if b.ndim not in (1, 2) or b.shape[0] != L.shape[0]:
        raise DimensionError(f"cannot solve {L.shape} against {b.shape}")
    blas = _resolve_openblas()
    if not blas:
        b[...] = np.linalg.solve(L.unpack(), b)
        return b
    x = b if b.flags.f_contiguous else np.array(b, order="F")
    blas.tfsm(L.data, x)
    if x is not b:
        b[...] = x
    return b


class _OpenBLAS:
    """One OpenBLAS library: its thread count, and the LAPACK factors and solve read from it.

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
        self._pftrf = getattr(lib, f"{lapack}dpftrf_{suffix}")
        self._pftrf.argtypes = [char, char, ptr, ctypes.c_void_p, ptr, length, length]
        self._pftrf.restype = None
        self._tfsm = getattr(lib, f"{lapack}dtfsm_{suffix}")
        self._tfsm.argtypes = [char, char, char, char, char, ptr, ptr,
                               ctypes.POINTER(ctypes.c_double), ctypes.c_void_p,
                               ctypes.c_void_p, ptr] + [length] * 5
        self._tfsm.restype = None
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

    def pftrf(self, a: np.ndarray, n: int) -> int:
        """``dpftrf('N', 'L')`` in place on the packed order-``n`` array ``a``; LAPACK's info."""
        info = self._int(0)
        self._pftrf(b"N", b"L", ctypes.byref(self._int(n)), a.ctypes.data,
                    ctypes.byref(info), 1, 1)
        return info.value

    def tfsm(self, a: np.ndarray, b: np.ndarray):
        """Overwrite ``b`` by ``L^-1 b``: ``dtfsm("N", "L", "L", "N", "N")``, ``L`` packed in ``a``.

        ``a`` holds the lower triangle of ``L`` as :class:`PackedLower`
        does; ``b`` is a Fortran-ordered float64 vector or matrix with as
        many rows as ``L``.
        """
        q, k = b.shape[0], b.shape[1] if b.ndim == 2 else 1
        self._tfsm(b"N", b"L", b"L", b"N", b"N", ctypes.byref(self._int(q)),
                   ctypes.byref(self._int(k)), ctypes.byref(ctypes.c_double(1.0)),
                   a.ctypes.data, b.ctypes.data, ctypes.byref(self._int(max(1, q))),
                   1, 1, 1, 1, 1)


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
