"""Finite-difference stencils for differentiating sample paths on a grid.

All stencils have accuracy order 4.  Weights for arbitrary nodes come from
Fornberg's recurrence, which also supplies the shifted (one-sided) stencils
used near grid boundaries at the same accuracy order.  Grid stencils need a
uniform grid, so each of a window's ``order + 4`` stencils is computed once
per matrix.  Kernel partials never come from here: they are closed-form
(:mod:`gpops.operators`).
"""

from __future__ import annotations

import numpy as np

from .errors import GridSizeError, ParameterError
from .grids import Grid

__all__ = [
    "fd_weights",
    "differentiation_matrix",
    "stencil_width",
    "boundary_widths",
    "interior_mask",
]

MAX_DERIVATIVE_ORDER = 4

# Relative slack under which a grid still counts as uniformly spaced.
_UNIFORM_RTOL = 1e-12


def fd_weights(x0: float, nodes, order: int) -> np.ndarray:
    """Fornberg weights for the ``order``-th derivative at ``x0`` on given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if order >= n:
        raise ParameterError(f"need more than {order} nodes for derivative order {order}")
    w = np.zeros((order + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    for j in range(1, n):
        c2 = 1.0
        mn = min(j, order)
        for k in range(j):
            c3 = nodes[j] - nodes[k]
            c2 *= c3
            for m in range(mn, 0, -1):
                w[m, j] = c1 * (m * w[m - 1, j - 1] - (nodes[j - 1] - x0) * w[m, j - 1]) / c2
            w[0, j] = -c1 * (nodes[j - 1] - x0) * w[0, j - 1] / c2
            for m in range(mn, 0, -1):
                w[m, k] = ((nodes[j] - x0) * w[m, k] - m * w[m - 1, k]) / c3
            w[0, k] = (nodes[j] - x0) * w[0, k] / c3
        c1 = c2
    return w[order]


def _check_order(order):
    if not (1 <= order <= MAX_DERIVATIVE_ORDER):
        raise ParameterError(f"derivative order must be in 1..{MAX_DERIVATIVE_ORDER}, got {order}")


def stencil_width(order: int) -> int:
    """Window size used by grid stencils: order + 4 points (accuracy 4 everywhere)."""
    _check_order(order)
    return order + 4


def boundary_widths(order: int):
    """Number of shifted-stencil rows at the (low, high) ends of a grid."""
    w = stencil_width(order)
    lo = (w - 1) // 2
    return lo, w - 1 - lo


def interior_mask(n_points: int, order: int) -> np.ndarray:
    """Boolean mask of grid rows whose stencils are not boundary-shifted."""
    if order == 0:
        return np.ones(n_points, dtype=bool)
    lo, hi = boundary_widths(order)
    mask = np.zeros(n_points, dtype=bool)
    mask[lo:n_points - hi] = True
    return mask


def differentiation_matrix(grid: Grid, order: int) -> np.ndarray:
    """Dense matrix applying d^order/dx^order on a uniform grid.

    Interior rows hold near-central stencils of ``w = order + 4`` points;
    rows within reach of an endpoint use shifted stencils of the same
    accuracy order.  A grid is uniform when it has two or more points and
    every spacing is within ``1e-12`` relative of the first, ``h``; then the
    stencil at window position ``j`` is ``fd_weights(j, arange(w), order) /
    h**order`` in every window, and each of the ``w`` stencils is computed
    once.  A grid that is not uniform, or smaller than ``w``, raises
    :class:`GridSizeError`.
    """
    if order == 0:
        return np.eye(len(grid))
    _check_order(order)
    deltas = np.diff(grid.points)
    if deltas.size == 0 or not np.max(np.abs(deltas - deltas[0])) <= _UNIFORM_RTOL * deltas[0]:
        raise GridSizeError("grid stencils require a uniform grid")
    n = len(grid)
    w = stencil_width(order)
    if n < w:
        raise GridSizeError(
            f"grid of {n} points is smaller than the stencil footprint {w} "
            f"for derivative order {order}"
        )
    stencils = [fd_weights(j, np.arange(w), order) / deltas[0]**order for j in range(w)]
    D = np.zeros((n, n))
    lo, _ = boundary_widths(order)
    for i in range(n):
        start = min(max(i - lo, 0), n - w)
        D[i, start:start + w] = stencils[i - start]
    return D
