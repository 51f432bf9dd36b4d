"""Finite grids over the one-dimensional index set."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["Grid"]


class Grid:
    """A strictly increasing finite set of finite points on the real line.

    A grid is only its points.  Grid stencils need a uniform grid, which
    :func:`~gpops.stencils.differentiation_matrix` checks where it is used.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ParameterError("a grid needs a 1-D array of at least one point")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("grid points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ParameterError("grid points must be strictly increasing")
        pts.setflags(write=False)
        self.points = pts

    @classmethod
    def uniform_on(cls, a: float, b: float, count: int) -> "Grid":
        """Uniform grid of `count` points spanning [a, b]."""
        if count < 1:
            raise ParameterError("count must be at least 1")
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ParameterError("need finite endpoints with a < b")
        if not np.isfinite(float(b) - float(a)):
            raise ParameterError(f"the width b - a of [{a:g}, {b:g}] is not finite")
        return cls(np.linspace(a, b, count))

    def __len__(self):
        return self.points.size

    def __repr__(self):
        p = self.points
        return f"Grid({p.size} points on [{p[0]:g}, {p[-1]:g}])"
