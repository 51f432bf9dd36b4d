"""Gaussian process priors: a mean function paired with a covariance kernel."""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import KernelBifunction
from .means import MeanFunction

__all__ = ["GaussianProcessPrior"]


@dataclass(frozen=True)
class GaussianProcessPrior:
    """A GP prior; every finite marginal is multivariate normal by definition.

    The kernel is a :class:`~gpops.kernels.KernelBifunction`: a catalog
    kernel (identity on both arguments), or the transformed one of an image prior.
    """

    mean: MeanFunction
    kernel: KernelBifunction

    @property
    def label(self) -> str:
        return f"GP({self.mean.label}, {self.kernel.label})"
