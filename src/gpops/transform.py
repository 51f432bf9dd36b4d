"""Pushforward of a GP prior through a linear operator.

The image of ``GP(m, k)`` under an operator ``T`` is again a Gaussian
process, with mean ``T m`` and kernel ``T`` applied to both kernel
arguments.  The image kernel stays lazy (closed-form evaluators, not
tabulated matrices), so the image process can itself be pushed forward
again; tabulation happens only at matrix-level consumers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError
from .grids import Grid
from .kernels import Kernel
from .linalg import chol_psd, cross_tabulate, gram
from .operators import (ARG1, ARG2, KernelBifunction, LinearOperator, apply_arg,
                        apply_both, apply_to_function)
from .processes import GaussianProcessPrior

__all__ = ["ImageProcess", "JointBlocks", "pushforward", "finite_dim_pushforward",
           "joint_blocks"]


@dataclass(frozen=True)
class ImageProcess:
    """The image GP of a prior under an operator, with provenance."""

    prior: GaussianProcessPrior
    source_label: str
    operator_label: str
    psd_jitter: float | None = None  # jitter needed by the optional PSD spot check


def _image_kernel(bf: KernelBifunction, smoothness, symmetric, label) -> Kernel:
    # Lazy kernel backed by the transformed bifunction; closed-form partials
    # are inherited from the base kernel where the budget allows.
    return Kernel(bf.__call__, bf.partial, sample_smoothness=smoothness,
                  symmetric=symmetric, label=label)


def pushforward(p: GaussianProcessPrior, op: LinearOperator, *,
                check_grid: Grid | None = None) -> ImageProcess:
    """Image process of ``p`` under ``op``: mean ``T m``, kernel ``T1 T2 k``.

    Requires ``op.order`` within both the kernel's sample smoothness and the
    mean's available derivatives; violations raise
    :class:`DomainViolationError`.  The image kernel's sample smoothness
    drops by ``op.order``.

    When ``check_grid`` is given, the image kernel's Gram matrix on that grid
    is factorized as a runtime sanity check.  Positive semidefiniteness holds
    by construction, so a nonzero jitter indicates numerical (not
    mathematical) defect, e.g. truncation error on a finite-difference path;
    the jitter used is recorded on the result.
    """
    mean_v = apply_to_function(op, p.mean)
    bf = apply_both(op, p.kernel)
    s = p.kernel.sample_smoothness
    smooth_v = s if s == math.inf else s - op.order
    kernel_v = _image_kernel(bf, smooth_v, p.kernel.symmetric,
                             label=f"[{op.label}]x2 {p.kernel.label}")
    delta = None
    if check_grid is not None:
        try:
            _, delta = chol_psd(gram(kernel_v, check_grid), max_jitter=1e-8)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"image kernel of {p.kernel.label!r} under {op.label!r} failed the "
                f"PSD spot check; this is a numerical defect of the evaluation "
                f"path, not of the transport itself ({exc})",
                tried=exc.tried,
            ) from exc
    image_prior = GaussianProcessPrior(mean=mean_v, kernel=kernel_v)
    return ImageProcess(prior=image_prior, source_label=p.label,
                        operator_label=op.label, psd_jitter=delta)


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
    grid_x: Grid
    grid_y: Grid

    def stacked(self) -> np.ndarray:
        """The full joint covariance [[K_uu, K_uv], [K_vu, K_vv]]."""
        top = np.hstack([self.k_uu, self.k_uv])
        bottom = np.hstack([self.k_vu, self.k_vv])
        return np.vstack([top, bottom])


def joint_blocks(p: GaussianProcessPrior, op: LinearOperator, grid_x: Grid,
                 grid_y: Grid) -> JointBlocks:
    """Prior covariance blocks needed to condition u on observations of Tu.

    ``k_uv[i, j] = Cov(u(x_i), (Tu)(y_j))`` applies the operator to the
    second kernel argument; ``k_vu`` applies it to the first, so that
    ``k_vu == k_uv.T`` on equal grids.
    """
    t2k = apply_arg(op, ARG2, p.kernel)
    t1k = apply_arg(op, ARG1, p.kernel)
    t1t2k = apply_arg(op, ARG1, t2k)
    k_uu = gram(p.kernel, grid_x)
    k_uv = cross_tabulate(t2k, grid_x, grid_y)
    k_vu = cross_tabulate(t1k, grid_y, grid_x)
    k_vv = cross_tabulate(t1t2k, grid_y, grid_y)
    k_vv = 0.5 * (k_vv + k_vv.T)
    return JointBlocks(k_uu, k_uv, k_vu, k_vv, grid_x, grid_y)
