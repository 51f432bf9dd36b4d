"""Gaussian process priors: a mean function paired with a covariance kernel."""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import Kernel
from .means import MeanFunction
from .operators import KernelBifunction

__all__ = ["GaussianProcessPrior"]


@dataclass(frozen=True)
class GaussianProcessPrior:
    """A GP prior; every finite marginal is multivariate normal by definition.

    The kernel is a catalog :class:`Kernel`, or the
    :class:`~gpops.operators.KernelBifunction` of an image prior.
    """

    mean: MeanFunction
    kernel: Kernel | KernelBifunction

    @property
    def label(self) -> str:
        return f"GP({self.mean.label}, {self.kernel.label})"
