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
Cholesky factor ``L`` and its jitter, and the seed of the normals ``z``,
which are drawn only when the draw is read.  Every draw of normals goes
through :meth:`~FactoredDraw.normal_blocks`, which fills row blocks of one
reused buffer from the generator.  :meth:`~FactoredDraw.chunks` draws the
paths' normals that way, in chunks of about ``CHUNK_ENTRIES`` entries, and
its readers reduce each chunk before the next is drawn:
:meth:`~FactoredDraw.moments` and :meth:`~FactoredDraw.paths` (each chunk's
``z L^t`` into its rows of the one N x n array that :func:`sample_paths`
returns).

``moments(c, reduce)`` returns ``(zbar, cov(z))`` and passes every row of
the image ``z c`` once, in order, through ``reduce(lo, block)``, so a
caller reduces the image as it is drawn and no array with N rows is held.
:func:`draw_factored` returns the Gaussian subclass :class:`GaussianDraw`,
whose :meth:`~GaussianDraw.moments` draws them from their exact joint law
instead: N r + O(n^2) normals, where ``r = rank c``, in place of N n, from
the same generator.  The N r normals come in blocks of about
``BLOCK_ENTRIES``, each reduced and passed on before the next is drawn.  So
the N paths whose moments verify reads are seeded but never formed; with no
more paths than points they are the very paths that
:meth:`~FactoredDraw.paths` forms.  Its ``paths()`` is the chunked draw
above.

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
    """A seeded draw of the prior's grid marginal: path ``i`` is ``mean + factor @ z[i]``.

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
        """``(zbar, cov(z))`` of the normals ``z``, in one pass at one BLAS thread.

        Each chunk adds to ``sum z`` and ``z^t z`` and passes its rows of
        ``z c`` to ``reduce(lo, block)`` before the next chunk is drawn.  Then
        ``cov(z) = (z^t z - N zbar zbar^t) / (N - 1)``, which cancels little
        because ``z`` is white (``|zbar|`` is of order ``N^-1/2``).  The
        normals are finite exactly when the diagonal of ``z^t z`` is;
        otherwise ``ParameterError``, after the last block has been passed.
        """
        n = self.n_paths
        zsum = np.zeros(self.n_points)
        ztz = np.zeros((self.n_points, self.n_points))
        for lo, z in self.chunks():
            zsum += z.sum(axis=0)
            ztz += z.T @ z
            reduce(lo, z @ c)
        _check_finite_normals(ztz)
        zbar = zsum / n
        return zbar, (ztz - n * np.outer(zbar, zbar)) / (n - 1)

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
        through :meth:`~FactoredDraw.normal_blocks`; each block adds to ``sum
        w1`` and ``w1^t w1`` and passes its ``z c = w1 R1`` to ``reduce(lo,
        block)``.  Then come ``G``, the Bartlett factor and its chi-square
        draws, from the same generator.  Normals that are not finite raise
        ``ParameterError``.
        """
        n_paths, n = self.n_paths, self.n_points
        if n_paths <= n:
            return super().moments(c, reduce)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        # c = Q [R1; 0] from the SVD, which also gives its numerical rank
        q, sv, vt = np.linalg.svd(c)
        r = int(np.count_nonzero(sv > sv[:1] * max(c.shape) * np.finfo(float).eps))
        r1 = sv[:r, None] * vt[:r]
        w1sum, w1tw1 = np.zeros(r), np.zeros((r, r))
        rows = max(1, BLOCK_ENTRIES // max(1, c.shape[1]))
        image = np.empty((min(rows, n_paths), c.shape[1]))
        for lo, w1 in self.normal_blocks(rng, r, rows):
            w1sum += w1.sum(axis=0)
            w1tw1 += w1.T @ w1
            zc = image[:len(w1)]
            np.matmul(w1, r1, out=zc)
            reduce(lo, zc)
        _check_finite_normals(w1tw1)
        utu = np.block([[np.array([[float(n_paths)]]), w1sum[None, :]],
                        [w1sum[:, None], w1tw1]])
        g = rng.standard_normal((n - r, r + 1))
        w2u = g @ np.linalg.cholesky(utu).T
        bartlett = np.tril(rng.standard_normal((n - r, n - r)), -1)
        bartlett[np.diag_indices(n - r)] = np.sqrt(
            rng.chisquare(n_paths - r - 1 - np.arange(n - r)))
        wtw = np.empty((n, n))
        wtw[:r, :r] = w1tw1
        wtw[r:, :r] = w2u[:, 1:]
        wtw[:r, r:] = w2u[:, 1:].T
        wtw[r:, r:] = g @ g.T + bartlett @ bartlett.T
        zsum = q @ np.concatenate([w1sum, w2u[:, 0]])
        ztz = q @ wtw @ q.T
        zbar = zsum / n_paths
        return zbar, (ztz - n_paths * np.outer(zbar, zbar)) / (n_paths - 1)


def _check_finite_normals(gram_of_normals):
    # the normals are finite exactly when the diagonal of their Gram is
    if not np.all(np.isfinite(np.diag(gram_of_normals))):
        raise ParameterError("ensemble paths must be finite")


def draw_factored(p: GaussianProcessPrior, grid: Grid, n_paths: int,
                  seed: int) -> GaussianDraw:
    """The prior's mean and Gram factor on the grid, and N paths of normals drawn when read.

    ``L`` is the jitter-laddered Cholesky factor of the Gram matrix and ``z``
    the normals, a function of the seed alone (module docstring).  A seed
    outside [0, 2^64), and a draw of more doubles than an array can hold,
    raise ``ParameterError`` before anything is allocated.
    """
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if n_paths < 2:
        raise ParameterError("need at least two paths")
    if n_paths * len(grid) > sys.maxsize // 8:
        raise ParameterError(f"{n_paths} paths of {len(grid)} points are more doubles "
                             f"than an array can hold")
    L, jitter = chol_psd(gram(p.kernel, grid))
    return GaussianDraw(mean=p.mean(grid.points), factor=L, n_paths=int(n_paths),
                        seed=int(seed), jitter=jitter)


@one_blas_thread()
def sample_paths(p: GaussianProcessPrior, grid: Grid, n_paths: int,
                 seed: int) -> SampleEnsemble:
    """N paths of the prior's finite marginal on the grid, with the draw's seed and jitter.

    BLAS runs at one thread throughout, the Cholesky too (module docstring).
    """
    d = draw_factored(p, grid, n_paths, seed)
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
