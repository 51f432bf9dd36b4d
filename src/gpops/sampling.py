"""Seeded path ensembles and their empirical statistics.

Reproducibility contract
------------------------
Sampling uses the counter-based Philox bit generator keyed by the seed.  Path
``i`` consumes the 64-bit words at block-aligned offset ``i * wpp`` of the
Philox counter stream, where ``wpp = 4 * ceil(n_points / 4)`` is the per-path
word budget (Philox advances in blocks of four words).  Uniforms are
``((word >> 11) + 0.5) * 2**-53`` (strictly inside (0, 1)) and normals their
inverse-CDF images.  Because each path's substream depends only on (seed,
path index), ensembles are bit-identical however generation is split across
threads, and regenerating with equal inputs reproduces paths exactly.

The paths are split into contiguous blocks of about ``BLOCK_WORDS`` words.
The calling thread and ``threads - 1`` helper threads take the blocks one at
a time, draw their uniforms and write their inverse-CDF images into one
shared array, so a single thread runs no helper and hands nothing over.  The
Cholesky product ``z @ L.T`` is left to BLAS.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import GridSizeError, ParameterError
from .grids import Grid
from .linalg import chol_psd, gram
from .operators import LinearOperator
from .processes import GaussianProcessPrior
from .stencils import differentiation_matrix, stencil_width

__all__ = [
    "SampleEnsemble",
    "sample_paths",
    "apply_operator_pathwise",
    "empirical_mean",
    "empirical_cov",
]

MAX_PATHWISE_ORDER = 4
# Philox words per block of paths.  Small blocks keep each thread's
# temporaries small; whole-slice temporaries left tens of MB held by the
# allocator after helper threads ended.
BLOCK_WORDS = 2**16


@dataclass(frozen=True)
class SampleEnsemble:
    """N tabulated paths on a grid, remembering the seed that produced them."""

    grid: Grid
    paths: np.ndarray  # shape (N, len(grid))
    seed: int

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


def _uniform_block(seed: int, first_path: int, n_paths: int, n_points: int) -> np.ndarray:
    wpp = _words_per_path(n_points)
    bg = np.random.Philox(key=int(seed) & (2**64 - 1))
    if first_path:
        bg.advance(int(first_path) * (wpp // 4))  # advance counts 4-word blocks
    raw = bg.random_raw(n_paths * wpp).reshape(n_paths, wpp)[:, :n_points]
    return ((raw >> np.uint64(11)) + 0.5) * 2.0**-53


def _standard_normals(seed: int, n_paths: int, n_points: int, threads: int) -> np.ndarray:
    z = np.empty((n_paths, n_points))
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
            ndtri(_uniform_block(seed, lo, hi - lo, n_points), out=z[lo:hi])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        helpers = [pool.submit(fill) for _ in range(min(threads, len(starts)) - 1)]
        fill()
        for h in helpers:
            h.result()
    return z


def sample_paths(p: GaussianProcessPrior, grid: Grid, n_paths: int, seed: int,
                 *, max_jitter: float = 1e-8, threads: int = 1) -> SampleEnsemble:
    """Draw N paths of the prior's finite marginal on the grid.

    Paths are ``mean + L z`` with ``L`` the jitter-laddered Cholesky factor of
    the Gram matrix and ``z`` per-path standard normals (see the module
    docstring for the substream derivation).  Deterministic in the seed and
    independent of ``threads``.
    """
    if n_paths < 2:
        raise ParameterError("need at least two paths")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    L, _ = chol_psd(gram(p.kernel, grid), max_jitter=max_jitter)
    mean = p.mean(grid.points)
    z = _standard_normals(seed, n_paths, len(grid), threads)
    paths = mean + z @ L.T
    return SampleEnsemble(grid=grid, paths=paths, seed=int(seed))


def apply_operator_pathwise(op: LinearOperator, e: SampleEnsemble) -> SampleEnsemble:
    """Apply the operator to every path via grid stencils of accuracy order 4.

    Rows within reach of an endpoint use shifted one-sided stencils; the
    companion statistics exclude those columns from interior comparisons.
    Requires a uniform grid with at least the stencil footprint of points and
    an operator of order at most 4.
    """
    if op.order > MAX_PATHWISE_ORDER:
        raise ParameterError(
            f"pathwise application supports operator order <= {MAX_PATHWISE_ORDER}, "
            f"got {op.order}"
        )
    if op.order > 0:
        if not e.grid.uniform:
            raise GridSizeError("pathwise operator application requires a uniform grid")
        if len(e.grid) < stencil_width(op.order):
            raise GridSizeError(
                f"grid of {len(e.grid)} points is smaller than the stencil footprint "
                f"{stencil_width(op.order)} for operator order {op.order}"
            )
    a_mat = operator_matrix(op, e.grid)
    return SampleEnsemble(grid=e.grid, paths=e.paths @ a_mat.T, seed=e.seed)


def operator_matrix(op: LinearOperator, grid: Grid) -> np.ndarray:
    """Grid stencil matrix of the operator: sum_i diag(a_i(x)) D^(i)."""
    x = grid.points
    out = np.zeros((x.size, x.size))
    for order, coeff in op.terms:
        d = differentiation_matrix(grid, order) if order else np.eye(x.size)
        out += coeff(x)[:, None] * d
    return out


def empirical_mean(e: SampleEnsemble) -> np.ndarray:
    """Column means of the ensemble."""
    return e.paths.mean(axis=0)


def empirical_cov(e: SampleEnsemble) -> np.ndarray:
    """Unbiased (N-1) sample covariance of the ensemble columns."""
    centered = e.paths - e.paths.mean(axis=0)
    return centered.T @ centered / (e.n_paths - 1)
