"""Seeded path ensembles and their empirical statistics.

Reproducibility contract
------------------------
Sampling uses the counter-based Philox bit generator keyed by the seed, an
integer in [0, 2^64); any other seed is a ``ParameterError``.  Path
``i`` consumes the 64-bit words at block-aligned offset ``i * wpp`` of the
Philox counter stream, where ``wpp = 4 * ceil(n_points / 4)`` is the per-path
word budget (Philox advances in blocks of four words).  Uniforms are
``((word >> 11) + 0.5) * 2**-53`` (strictly inside (0, 1)) and normals their
inverse-CDF images.  Because each path's substream depends only on (seed,
path index), ensembles are bit-identical however generation is split across
threads or chunks, and regenerating with equal inputs reproduces paths
exactly.

:func:`_standard_normals` writes the normals of paths ``first .. first +
len(out)`` into a given array, in contiguous blocks of about ``BLOCK_WORDS``
words: the calling thread and at most ``threads - 1`` helper threads, one
fewer than the blocks, take them one at a time, so a single thread runs no
helper and hands nothing over.

A draw in factored form is a :class:`FactoredDraw`: the mean ``m``, the
Cholesky factor ``L`` and its jitter, and the seed of the normals ``z``,
which are drawn only when the draw is read.  Its
:meth:`~FactoredDraw.chunks` is the only caller of :func:`_standard_normals`:
it draws the paths in chunks of about ``CHUNK_ENTRIES`` entries into one
reused buffer.  A chunk has at most 64 blocks on any grid, so a draw runs at
most 63 helpers at a time.  Its readers reduce each chunk before the next is
drawn: :meth:`~FactoredDraw.moments` (``sum z``, ``z^t z`` and ``z c``,
holding 8 MB of normals, not N x n) and :meth:`~FactoredDraw.paths` (each
chunk's ``z L^t`` into its rows of the one N x n array that
:func:`sample_paths` returns).

:func:`draw_factored` returns the Gaussian subclass :class:`GaussianDraw`,
whose :meth:`~GaussianDraw.moments` draws ``(zbar, cov(z), z c)`` from their
exact joint law instead: N r + O(n^2) normals, where ``r = rank c``, in place
of N n.  They come from ``Generator(Philox(key=seed))``, keyed by the seed
alone and drawn in one thread, so the N paths whose moments verify reads are
seeded but never formed, and no thread count reaches them.  Its ``paths()``
is the chunked draw above.

BLAS thread count
-----------------
Every reader runs inside :func:`~gpops.linalg.one_blas_thread`, which says
why: every sum is grouped the same way on every run, so neither
``ensemble.csv`` nor verify's moments depend on the BLAS thread count, and
no OpenBLAS worker spins at a chunk boundary.
"""

from __future__ import annotations

import numbers
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .expressions import evaluate_finite
from .grids import Grid
from .linalg import chol_psd, gram, one_blas_thread
from .operators import LinearOperator
from .processes import GaussianProcessPrior
from .stencils import differentiation_matrix

__all__ = [
    "SampleEnsemble",
    "FactoredDraw",
    "GaussianDraw",
    "draw_factored",
    "sample_paths",
    "apply_operator_pathwise",
    "empirical_mean",
    "empirical_cov",
]

# Philox words per block of paths.  Small blocks keep each thread's
# temporaries small; whole-slice temporaries left tens of MB held by the
# allocator after helper threads ended.
BLOCK_WORDS = 2**16
# Path entries per chunk of a draw's normals (8 MB of doubles).  Its reducer
# runs BLAS at one thread, so no OpenBLAS worker spins at a chunk boundary
# and a chunk costs only its share.
CHUNK_ENTRIES = 2**20


@dataclass(frozen=True)
class SampleEnsemble:
    """N tabulated paths on a grid, remembering the seed that produced them.

    ``jitter`` is the ``delta`` the sampling Cholesky added to the Gram
    diagonal (see :func:`~gpops.linalg.chol_psd`); it is not serialized.
    """

    grid: Grid
    paths: np.ndarray  # shape (N, len(grid))
    seed: int
    jitter: float = 0.0

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        if paths.ndim != 2 or paths.shape[1] != len(self.grid):
            raise ParameterError(
                f"paths of shape {paths.shape} do not match grid of {len(self.grid)} points"
            )
        if paths.shape[0] < 2:
            raise ParameterError("an ensemble needs at least two paths")
        if not np.all(np.isfinite(paths)):
            raise ParameterError("ensemble paths must be finite")
        paths.setflags(write=False)
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _words_per_path(n_points: int) -> int:
    return 4 * ((n_points + 3) // 4)


def _uniform_block(seed: int, first_path: int, n_paths: int, n_points: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The uniforms of paths ``first_path ..`` as an ``(n_paths, n_points)`` array.

    They are written into ``out`` when it is given.  ``k * 2**-53 + 2**-54``
    equals ``(k + 0.5) * 2**-53`` bit for bit, since scaling by a power of two
    commutes with rounding, so no temporary holds ``k + 0.5``.
    """
    wpp = _words_per_path(n_points)
    bg = np.random.Philox(key=int(seed))
    if first_path:
        bg.advance(int(first_path) * (wpp // 4))  # advance counts 4-word blocks
    raw = bg.random_raw(n_paths * wpp)
    raw >>= np.uint64(11)
    if out is None:
        out = np.empty((n_paths, n_points))
    np.multiply(raw.reshape(n_paths, wpp)[:, :n_points], 2.0**-53, out=out)
    out += 2.0**-54
    return out


def _standard_normals(seed: int, first: int, out: np.ndarray, threads: int) -> np.ndarray:
    """Write the normals of paths ``first .. first + len(out)`` into ``out`` and return it."""
    # Imported here, in the calling thread before any helper starts: scipy
    # loads only when normals are drawn.
    from scipy.special import ndtri

    n_paths, n_points = out.shape
    step = max(1, BLOCK_WORDS // _words_per_path(n_points))
    starts = range(0, n_paths, step)
    pending = iter(starts)
    lock = threading.Lock()

    def fill():
        while True:
            with lock:
                lo = next(pending, None)
            if lo is None:
                return
            hi = min(lo + step, n_paths)
            block = _uniform_block(seed, first + lo, hi - lo, n_points, out[lo:hi])
            ndtri(block, out=block)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        helpers = [pool.submit(fill) for _ in range(min(threads, len(starts)) - 1)]
        fill()
        for h in helpers:
            h.result()
    return out


@dataclass(frozen=True)
class FactoredDraw:
    """A seeded draw of the prior's grid marginal: path ``i`` is ``mean + factor @ z[i]``.

    ``jitter`` is the ``delta`` the Cholesky ``factor`` added to the Gram
    diagonal.  ``seed`` keys the paths' substreams of normals ``z``, drawn
    chunk by chunk when read, by ``threads`` threads that change no bit.
    """

    mean: np.ndarray  # shape (n,)
    factor: np.ndarray  # lower triangular, shape (n, n)
    n_paths: int
    seed: int
    jitter: float = 0.0
    threads: int = 1

    @property
    def n_points(self) -> int:
        return len(self.mean)

    def chunks(self):
        """Yield ``(lo, z)``: the normals ``z`` of paths ``lo .. lo + len(z)``, in order.

        Each chunk holds about ``CHUNK_ENTRIES`` entries and is a view of one
        buffer that the next chunk overwrites: copy what must outlive it.
        """
        rows = max(1, CHUNK_ENTRIES // self.n_points)
        buf = np.empty((min(rows, self.n_paths), self.n_points))
        for lo in range(0, self.n_paths, rows):
            z = buf[:min(rows, self.n_paths - lo)]
            yield lo, _standard_normals(self.seed, lo, z, self.threads)

    @one_blas_thread()
    def moments(self, c: np.ndarray):
        """``(zbar, cov(z), z c)`` of the normals ``z``, in one pass at one BLAS thread.

        Each chunk adds to ``sum z`` and ``z^t z`` and writes its rows of
        ``z c`` before the next chunk is drawn.  Then ``cov(z) = (z^t z - N
        zbar zbar^t) / (N - 1)``, which cancels little because ``z`` is white
        (``|zbar|`` is of order ``N^-1/2``).  The normals are finite exactly
        when the diagonal of ``z^t z`` is; otherwise ``ParameterError``.
        """
        n = self.n_paths
        zsum = np.zeros(self.n_points)
        ztz = np.zeros((self.n_points, self.n_points))
        zc = np.empty((n, c.shape[1]))
        for lo, z in self.chunks():
            zsum += z.sum(axis=0)
            ztz += z.T @ z
            np.matmul(z, c, out=zc[lo:lo + len(z)])
        if not np.all(np.isfinite(np.diag(ztz))):
            raise ParameterError("ensemble paths must be finite")
        zbar = zsum / n
        return zbar, (ztz - n * np.outer(zbar, zbar)) / (n - 1), zc

    @one_blas_thread()
    def paths(self) -> np.ndarray:
        """The N x n paths ``mean + z L^t``, chunk by chunk into their rows, at one BLAS thread."""
        out = np.empty((self.n_paths, self.n_points))
        for lo, z in self.chunks():
            np.matmul(z, self.factor.T, out=out[lo:lo + len(z)])
        out += self.mean
        return out


@dataclass(frozen=True)
class GaussianDraw(FactoredDraw):
    """A :class:`FactoredDraw` whose moments are drawn from their exact law, not from paths.

    ``z`` is N x n white, so its moments need no path.  With ``c = Q [R1; 0]``
    (``Q`` orthogonal, ``R1`` of rank r rows), ``w = z Q`` is white too and
    ``z c = w1 R1``.  Given ``U = [1 | w1]``, the cross products ``w2^t U``
    are ``G chol(U^t U)^t`` for a white ``G``, and ``w2^t w2 = G G^t + W``
    with ``W ~ Wishart(N - r - 1, I)`` independent of the rest, drawn by the
    Bartlett decomposition (Anderson, *An Introduction to Multivariate
    Statistical Analysis*, ch. 7).  Rotating back gives ``sum z = Q w^t 1``
    and ``z^t z = Q w^t w Q^t``.  With no more paths than points, the N x n
    normals are fewer than a Wishart factor's, and they are drawn whole.
    """

    @one_blas_thread()
    def moments(self, c: np.ndarray):
        """``(zbar, cov(z), z c)`` of N seeded white paths, none of them formed."""
        n_paths, n = self.n_paths, self.n_points
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        if n_paths <= n:
            z = rng.standard_normal((n_paths, n))
            zsum, ztz, zc = z.sum(axis=0), z.T @ z, z @ c
        else:
            # c = Q [R1; 0] from the SVD, which also gives its numerical rank
            q, sv, vt = np.linalg.svd(c)
            r = int(np.count_nonzero(sv > sv[:1] * max(c.shape) * np.finfo(float).eps))
            w1 = rng.standard_normal((n_paths, r))
            w1sum = w1.sum(axis=0)
            utu = np.block([[np.array([[float(n_paths)]]), w1sum[None, :]],
                            [w1sum[:, None], w1.T @ w1]])
            g = rng.standard_normal((n - r, r + 1))
            w2u = g @ np.linalg.cholesky(utu).T
            bartlett = np.tril(rng.standard_normal((n - r, n - r)), -1)
            bartlett[np.diag_indices(n - r)] = np.sqrt(
                rng.chisquare(n_paths - r - 1 - np.arange(n - r)))
            wtw = np.empty((n, n))
            wtw[:r, :r] = utu[1:, 1:]
            wtw[r:, :r] = w2u[:, 1:]
            wtw[:r, r:] = w2u[:, 1:].T
            wtw[r:, r:] = g @ g.T + bartlett @ bartlett.T
            zsum = q @ np.concatenate([w1sum, w2u[:, 0]])
            ztz = q @ wtw @ q.T
            zc = w1 @ (sv[:r, None] * vt[:r])
        zbar = zsum / n_paths
        return zbar, (ztz - n_paths * np.outer(zbar, zbar)) / (n_paths - 1), zc


def draw_factored(p: GaussianProcessPrior, grid: Grid, n_paths: int, seed: int,
                  *, threads: int = 1) -> GaussianDraw:
    """The prior's mean and Gram factor on the grid, and N paths of normals drawn when read.

    ``L`` is the jitter-laddered Cholesky factor of the Gram matrix and ``z``
    the per-path normals (see the module docstring for the substream
    derivation).  Deterministic in the seed and independent of ``threads``.
    A seed outside [0, 2^64), and a draw of more doubles than an array can
    hold, raise ``ParameterError`` before anything is allocated.
    """
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if n_paths < 2:
        raise ParameterError("need at least two paths")
    if n_paths * len(grid) > sys.maxsize // 8:
        raise ParameterError(f"{n_paths} paths of {len(grid)} points are more doubles "
                             f"than an array can hold")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    L, jitter = chol_psd(gram(p.kernel, grid))
    return GaussianDraw(mean=p.mean(grid.points), factor=L, n_paths=int(n_paths),
                        seed=int(seed), jitter=jitter, threads=int(threads))


@one_blas_thread()
def sample_paths(p: GaussianProcessPrior, grid: Grid, n_paths: int, seed: int,
                 *, threads: int = 1) -> SampleEnsemble:
    """N paths of the prior's finite marginal on the grid, with the draw's seed and jitter.

    BLAS runs at one thread throughout, the Cholesky too (module docstring).
    """
    d = draw_factored(p, grid, n_paths, seed, threads=threads)
    return SampleEnsemble(grid=grid, paths=d.paths(), seed=d.seed, jitter=d.jitter)


def apply_operator_pathwise(op: LinearOperator, e: SampleEnsemble) -> SampleEnsemble:
    """Apply the operator to every path via grid stencils of accuracy order 4.

    This is the pathwise reference: ``verify_theorem`` takes the same
    statistics from the moments of the white draw instead.

    Rows within reach of an endpoint use shifted one-sided stencils; the
    companion statistics exclude those columns from interior comparisons.
    :func:`~gpops.stencils.differentiation_matrix` requires an operator of
    order at most 4 (``ParameterError``) and, for a differentiating operator,
    a uniform grid with at least the stencil footprint of points
    (``GridSizeError``).
    """
    a_mat = operator_matrix(op, e.grid)
    return SampleEnsemble(grid=e.grid, paths=e.paths @ a_mat.T, seed=e.seed, jitter=e.jitter)


def operator_matrix(op: LinearOperator, grid: Grid) -> np.ndarray:
    """Grid stencil matrix of the operator: sum_i diag(a_i(x)) D^(i).

    A coefficient that is not finite on the grid raises ``EvaluationError``.
    """
    x = grid.points
    out = np.zeros((x.size, x.size))
    for order, coeff in op.terms:
        a = evaluate_finite(coeff, x, "coefficient", coeff)
        out += a[:, None] * differentiation_matrix(grid, order)
    return out


def empirical_mean(e: SampleEnsemble) -> np.ndarray:
    """Column means of the ensemble."""
    return e.paths.mean(axis=0)


def empirical_cov(e: SampleEnsemble) -> np.ndarray:
    """Unbiased (N-1) sample covariance of the ensemble columns.

    numpy forms ``cᵀc`` of the centred paths ``c`` by one symmetric rank-k
    update, so the result is exactly symmetric.
    """
    c = e.paths - e.paths.mean(axis=0)
    return c.T @ c / (e.n_paths - 1)
