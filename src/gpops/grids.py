"""Finite grids over the one-dimensional index set."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["Grid"]

# Relative slack under which a grid still counts as uniformly spaced.
_UNIFORM_RTOL = 1e-12


class Grid:
    """A strictly increasing finite set of points on the real line.

    Points must be finite.  A grid is flagged ``uniform`` when all spacings
    agree with the first one to within ``1e-12`` relative tolerance; only
    uniform grids can be used with grid-stencil operations.
    """

    __slots__ = ("points", "uniform", "_spacing")

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
        if pts.size > 1:
            deltas = np.diff(pts)
            self.uniform = bool(np.max(np.abs(deltas - deltas[0])) <= _UNIFORM_RTOL * deltas[0])
            self._spacing = float(deltas[0]) if self.uniform else None
        else:
            self.uniform = False
            self._spacing = None

    @classmethod
    def uniform_on(cls, a: float, b: float, count: int) -> "Grid":
        """Uniform grid of `count` points spanning [a, b]."""
        if count < 1:
            raise ParameterError("count must be at least 1")
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ParameterError("need finite endpoints with a < b")
        return cls(np.linspace(a, b, count))

    @property
    def spacing(self) -> float:
        if self._spacing is None:
            raise ParameterError("spacing is defined only for uniform grids of >= 2 points")
        return self._spacing

    def __len__(self):
        return self.points.size

    def __repr__(self):
        p = self.points
        return f"Grid({p.size} points on [{p[0]:g}, {p[-1]:g}], uniform={self.uniform})"
