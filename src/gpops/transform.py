"""Pushforward of a GP prior through a linear operator.

The image of ``GP(m, k)`` under an operator ``T`` is again a Gaussian
process prior, with mean ``T m`` and kernel ``T`` applied to both kernel
arguments, and :func:`pushforward` returns it as a
:class:`~gpops.processes.GaussianProcessPrior`.  Both parts stay in closed
form: the mean is an expression, and the kernel is the transformed
:class:`~gpops.kernels.KernelBifunction` over the catalog kernel.  The
image can therefore be pushed forward again, and the second operator
expands onto the same catalog kernel, which evaluates the image as one
weighted derivative series per row group (see :mod:`gpops.kernels`).

:func:`joint_blocks` tabulates the covariance blocks of ``(u, Tu)``.  It
evaluates ``T2 k`` once and returns its transpose as the ``(Tu, u)``
block, so ``k_vu == k_uv.T`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .grids import Grid
# chol_psd is not called here; it stays importable because perfbench/tracing.py rebinds it
from .linalg import chol_psd, gram  # noqa: F401
from .operators import ARG1, ARG2, LinearOperator, apply_arg, apply_both, apply_to_function
from .processes import GaussianProcessPrior

__all__ = ["JointBlocks", "pushforward", "finite_dim_pushforward", "joint_blocks"]


def pushforward(p: GaussianProcessPrior, op: LinearOperator) -> GaussianProcessPrior:
    """Image prior of ``p`` under ``op``: mean ``T m``, kernel ``T1 T2 k``.

    Requires ``op.order`` within the kernel's sample smoothness; violations
    raise :class:`DomainViolationError`.  The image kernel is the
    bifunction :func:`apply_both` builds, labelled ``[op]x2 k``; its sample
    smoothness is ``op.order`` below the kernel's.  Every partial it needs
    is closed-form.
    """
    # the kernel first: its smoothness guard refuses an operator before the
    # mean is differentiated
    kernel_v = apply_both(op, p.kernel)
    mean_v = apply_to_function(op, p.mean)
    kernel_v.label = f"[{op.label}]x2 {p.kernel.label}"
    return GaussianProcessPrior(mean=mean_v, kernel=kernel_v)


def finite_dim_pushforward(mean, cov, t_mat):
    """Exact finite-dimensional image law: ``(T m, T C T^t)``.

    This is the matrix-level analogue of the process pushforward, and the
    bridge between the two: a grid differentiation matrix applied here
    converges to the transformed kernel's Gram matrix as the grid refines.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    t_mat = np.asarray(t_mat, dtype=float)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise DimensionError(
            f"mean of size {mean.shape} and covariance of shape {cov.shape} do not conform"
        )
    if t_mat.ndim != 2 or t_mat.shape[1] != mean.size:
        raise DimensionError(
            f"operator matrix of shape {t_mat.shape} does not conform with size {mean.size}"
        )
    return t_mat @ mean, t_mat @ cov @ t_mat.T


@dataclass(frozen=True)
class JointBlocks:
    """The four covariance blocks of (u on grid_x, Tu on grid_y)."""

    k_uu: np.ndarray
    k_uv: np.ndarray
    k_vu: np.ndarray
    k_vv: np.ndarray

    def stacked(self) -> np.ndarray:
        """The full joint covariance [[K_uu, K_uv], [K_vu, K_vv]]."""
        top = np.hstack([self.k_uu, self.k_uv])
        bottom = np.hstack([self.k_vu, self.k_vv])
        return np.vstack([top, bottom])


def joint_blocks(p: GaussianProcessPrior, op: LinearOperator, grid_x: Grid,
                 grid_y: Grid) -> JointBlocks:
    """Prior covariance blocks needed to condition u on observations of Tu.

    ``k_uv[i, j] = Cov(u(x_i), (Tu)(y_j))`` applies the operator to the
    second kernel argument, evaluated once on ``grid_x x grid_y``;
    ``k_vu`` is its transpose, exactly.  ``k_uu`` and ``k_vv`` come from
    :func:`~gpops.linalg.gram`, which mirrors each lower triangle, so both
    are exactly symmetric; an entry that is not finite is returned as it is.
    """
    t2k = apply_arg(op, ARG2, p.kernel)
    k_uv = t2k(grid_x.points[:, None], grid_y.points[None, :])
    k_uu = gram(p.kernel, grid_x)
    k_vv = gram(apply_arg(op, ARG1, t2k), grid_y)
    return JointBlocks(k_uu, k_uv, k_uv.T, k_vv)
