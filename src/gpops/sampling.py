"""Seeded path ensembles and their empirical statistics.

Reproducibility contract
------------------------
Every draw reads one ``numpy.random.Generator(Philox(key=seed))``, keyed by
the seed, an integer in [0, 2^64); any other seed is a ``ParameterError``.
Filling successive chunks of rows from one generator gives the numbers of
one whole draw, bit for bit, so an ensemble depends on the seed alone: not
on how it is chunked, and not on a thread count.  Growing the ensemble keeps
its earlier paths.

A draw in factored form is a :class:`FactoredDraw`: the mean ``m``, the
Cholesky factor ``L`` of the Gram it was handed and its jitter, and the seed
of the normals ``z``, drawn only when the draw is read, in row blocks of one
reused buffer (:meth:`~FactoredDraw.normal_blocks`).  :func:`draw_factored`
factors the table its caller made: :func:`sample_paths` tabulates the prior
on its grid, and verify hands on its one prior table on the grid, the law
its gates compare with.
:meth:`~FactoredDraw.paths` writes each chunk's ``z L^t`` into its rows of
the one N x n array that :func:`sample_paths` returns.

``moments(c, reduce)`` returns ``(zbar, cov(z))`` and passes every row of
the image ``z c`` once, in order, through ``reduce(lo, block)``, so a
caller reduces the image as it is drawn and no array with N rows is held.
One reduction, :func:`_white_moments`, reads the white blocks of both draws:
the chunks of paths of a :class:`FactoredDraw`, and for the
:class:`GaussianDraw` that :func:`draw_factored` returns, the N r normals of
the moments' exact joint law (``r = rank c``) in place of N n, in blocks of
about ``BLOCK_ENTRIES``.  So the N paths whose moments verify reads are
seeded but never formed; with no more paths than points they are the very
paths that :meth:`~FactoredDraw.paths` forms.

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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .expressions import evaluate_finite
from .grids import Grid
from .linalg import chol_psd, gram, one_blas_thread
from .operators import LinearOperator
from .processes import GaussianProcessPrior
from .stencils import differentiation_matrix

__all__ = ["SampleEnsemble", "FactoredDraw", "GaussianDraw", "draw_factored", "sample_paths",
           "apply_operator_pathwise", "empirical_mean", "empirical_cov"]

# Path entries per chunk of a draw's normals (8 MB of doubles).  Its reducer
# runs BLAS at one thread, so no OpenBLAS worker spins at a chunk boundary
# and a chunk costs only its share.
CHUNK_ENTRIES = 2**20
# Normals per block of the drawn moments' rotated columns (256 KB of doubles):
# with its image and a block of the caller's reduction, about 1 MB.
BLOCK_ENTRIES = 2**15


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


@dataclass(frozen=True)
class FactoredDraw:
    """A seeded draw of a grid marginal: path ``i`` is ``mean + factor @ z[i]``.

    ``jitter`` is the ``delta`` the Cholesky ``factor`` added to the Gram
    diagonal.  ``seed`` keys the one generator of the normals ``z``, drawn
    chunk by chunk when read.
    """

    mean: np.ndarray  # shape (n,)
    factor: np.ndarray  # lower triangular, shape (n, n)
    n_paths: int
    seed: int
    jitter: float = 0.0

    @property
    def n_points(self) -> int:
        return len(self.mean)

    def normal_blocks(self, rng: np.random.Generator, width: int, rows: int):
        """Yield ``(lo, w)``: rows ``lo .. lo + len(w)`` of ``n_paths`` rows of ``width`` normals.

        Each block of ``rows`` rows (fewer at the end) is drawn from ``rng``
        into one buffer that the next block overwrites: copy what must
        outlive it.  Successive blocks are the numbers of one whole draw.
        """
        buf = np.empty((min(rows, self.n_paths), width))
        for lo in range(0, self.n_paths, rows):
            w = buf[:min(rows, self.n_paths - lo)]
            rng.standard_normal(out=w)
            yield lo, w

    def chunks(self):
        """Yield ``(lo, z)``: the normals ``z`` of paths ``lo .. lo + len(z)``, in order.

        Each chunk holds about ``CHUNK_ENTRIES`` entries and is a view of one
        buffer that the next chunk overwrites: copy what must outlive it.
        """
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return self.normal_blocks(rng, self.n_points, max(1, CHUNK_ENTRIES // self.n_points))

    @one_blas_thread()
    def moments(self, c: np.ndarray, reduce):
        """``(zbar, cov(z))``, each chunk of normals a white block of :func:`_white_moments`."""
        return _white_moments(self.chunks(), c, reduce, self.n_paths)

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
    normals are fewer than a Wishart factor's, and the chunked reduction of
    the base class reads them.
    """

    @one_blas_thread()
    def moments(self, c: np.ndarray, reduce):
        """``(zbar, cov(z))`` of N seeded white paths, none of them formed.

        ``w1`` is drawn first, in blocks of about ``BLOCK_ENTRIES`` normals
        through :meth:`~FactoredDraw.normal_blocks`, each a white block of
        :func:`_white_moments` that passes on its ``z c = w1 R1``.  Then come
        ``G``, the Bartlett factor and its chi-square draws, from the same
        generator.
        """
        n_paths, n = self.n_paths, self.n_points
        if n_paths <= n:
            return super().moments(c, reduce)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        # c = Q [R1; 0] from the SVD, which also gives its numerical rank
        q, sv, vt = np.linalg.svd(c)
        r = int(np.count_nonzero(sv > sv[:1] * max(c.shape) * np.finfo(float).eps))

        def whole_draw(w1sum, w1tw1):
            # sum z and z^t z, from those of w1 and the rest of w = z Q
            utu = np.block([[np.array([[float(n_paths)]]), w1sum[None, :]],
                            [w1sum[:, None], w1tw1]])
            g = rng.standard_normal((n - r, r + 1))
            w2u = g @ np.linalg.cholesky(utu).T
            bartlett = np.tril(rng.standard_normal((n - r, n - r)), -1)
            bartlett[np.diag_indices(n - r)] = np.sqrt(
                rng.chisquare(n_paths - r - 1 - np.arange(n - r)))
            wtw = np.block([[w1tw1, w2u[:, 1:].T], [w2u[:, 1:], g @ g.T + bartlett @ bartlett.T]])
            return q @ np.concatenate([w1sum, w2u[:, 0]]), q @ wtw @ q.T

        rows = max(1, BLOCK_ENTRIES // max(1, c.shape[1]))
        return _white_moments(self.normal_blocks(rng, r, rows), sv[:r, None] * vt[:r], reduce,
                              n_paths, whole_draw)


def _white_moments(blocks, c, reduce, n_paths, whole_draw=None):
    """``(wbar, cov(w))`` of N white rows, read in blocks ``(lo, w)`` at row ``lo``, at least one.

    Each block adds to ``sum w`` and ``w^t w`` and passes its rows of ``w c``,
    in one buffer that the next block overwrites, to ``reduce(lo, block)``.
    The normals are finite exactly when the diagonal of ``w^t w`` is;
    otherwise ``ParameterError``, after the last block.  ``whole_draw(sum w,
    w^t w)``, if given, maps the blocks' sums to those of the whole draw.  Then
    ``cov(w) = (w^t w - N wbar wbar^t) / (N - 1)``, which cancels little
    because ``w`` is white (``|wbar|`` is of order ``N^-1/2``).
    """
    for lo, w in blocks:
        if lo == 0:  # the first block is the largest
            wsum, wtw = np.zeros(w.shape[1]), np.zeros((w.shape[1], w.shape[1]))
            image = np.empty((len(w), c.shape[1]))
        wsum += w.sum(axis=0)
        wtw += w.T @ w
        np.matmul(w, c, out=image[:len(w)])
        reduce(lo, image[:len(w)])
    if not np.all(np.isfinite(np.diag(wtw))):
        raise ParameterError("ensemble paths must be finite")
    if whole_draw is not None:
        wsum, wtw = whole_draw(wsum, wtw)
    wbar = wsum / n_paths
    return wbar, (wtw - n_paths * np.outer(wbar, wbar)) / (n_paths - 1)


def draw_factored(mean: np.ndarray, gram: np.ndarray, n_paths: int, seed: int) -> GaussianDraw:
    """N paths of the law ``(mean, gram)``: its Gram factor, and normals drawn when read.

    ``L`` is the jitter-laddered Cholesky factor of ``gram`` and ``z`` the
    normals, a function of the seed alone (module docstring).  A seed outside
    [0, 2^64), and a draw of more doubles than an array can hold, raise
    ``ParameterError``, and a mean whose length is not the Gram's order
    ``DimensionError``, before anything is factored or allocated.
    """
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if n_paths < 2:
        raise ParameterError("need at least two paths")
    if n_paths * len(mean) > sys.maxsize // 8:
        raise ParameterError(f"{n_paths} paths of {len(mean)} points are more doubles "
                             f"than an array can hold")
    if len(gram) != len(mean):
        raise DimensionError(f"a mean of {len(mean)} entries does not match a Gram of order "
                             f"{len(gram)}")
    L, jitter = chol_psd(gram)
    return GaussianDraw(mean=np.array(mean, dtype=float), factor=L, n_paths=int(n_paths),
                        seed=int(seed), jitter=jitter)


@one_blas_thread()
def sample_paths(p: GaussianProcessPrior, grid: Grid, n_paths: int,
                 seed: int) -> SampleEnsemble:
    """N paths of the prior's finite marginal on the grid, with the draw's seed and jitter.

    BLAS runs at one thread throughout, the Cholesky too (module docstring).
    """
    d = draw_factored(p.mean(grid.points), gram(p.kernel, grid), n_paths, seed)
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
