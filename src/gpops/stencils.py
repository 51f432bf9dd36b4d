"""Finite-difference stencils: kernel partials and grid matrices.

All stencils have accuracy order 4.  Weights for arbitrary nodes come from
Fornberg's recurrence, which also supplies the shifted (one-sided) stencils
used near grid boundaries at the same accuracy order.  Mixed partials of a
kernel use tensor-product central stencils with one Richardson step; they
serve only as the reference that closed-form partials are checked against
(:meth:`~gpops.operators.KernelBifunction.fd`).
"""

from __future__ import annotations

import numpy as np

from .errors import GridSizeError, ParameterError
from .grids import Grid

__all__ = [
    "fd_weights",
    "fd_mixed_partial",
    "differentiation_matrix",
    "stencil_width",
    "boundary_widths",
    "interior_mask",
]

_EPS = np.finfo(float).eps

MAX_DERIVATIVE_ORDER = 4


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


def _central_offsets(order: int) -> np.ndarray:
    # Symmetric footprints giving accuracy order 4: +-2 for orders 1-2, +-3 for 3-4.
    half = 2 if order <= 2 else 3
    return np.arange(-half, half + 1, dtype=float)


def _check_order(order):
    if not (1 <= order <= MAX_DERIVATIVE_ORDER):
        raise ParameterError(f"derivative order must be in 1..{MAX_DERIVATIVE_ORDER}, got {order}")


def fd_mixed_partial(k, d1: int, d2: int):
    """Vectorized evaluator for a mixed partial of a bifunction by tensor stencils.

    Steps are ``max(1, |x|) * eps**(1/(d1+d2+5))`` per argument, which
    balances truncation against roundoff for the high mixed orders the
    kernel machinery may request, and one Richardson step extrapolates the
    full- and half-step values.  Returns a callable ``(x1, x2) -> array``.
    """
    if d1 == 0 and d2 == 0:
        return lambda x1, x2: np.asarray(k(x1, x2), dtype=float)
    for d in (d1, d2):
        if not (0 <= d <= MAX_DERIVATIVE_ORDER):
            raise ParameterError(f"partial orders must be in 0..{MAX_DERIVATIVE_ORDER}")
    o1 = _central_offsets(d1) if d1 else np.zeros(1)
    o2 = _central_offsets(d2) if d2 else np.zeros(1)
    w1 = fd_weights(0.0, o1, d1) if d1 else np.ones(1)
    w2 = fd_weights(0.0, o2, d2) if d2 else np.ones(1)
    expo = 1.0 / (d1 + d2 + 5)

    def evaluate(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        h1 = np.maximum(1.0, np.abs(x1)) * _EPS**expo
        h2 = np.maximum(1.0, np.abs(x2)) * _EPS**expo

        def tensor(s1, s2):
            acc = 0.0
            for i, wi in enumerate(w1):
                xi = x1 + o1[i] * s1
                row = 0.0
                for j, wj in enumerate(w2):
                    row = row + wj * np.asarray(k(xi, x2 + o2[j] * s2), dtype=float)
                acc = acc + wi * row
            denom = (s1**d1 if d1 else 1.0) * (s2**d2 if d2 else 1.0)
            return acc / denom

        return (16.0 * tensor(h1 / 2.0, h2 / 2.0) - tensor(h1, h2)) / 15.0

    return evaluate


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

    Interior rows hold near-central stencils of ``order + 4`` points; rows
    within reach of an endpoint use shifted stencils of the same accuracy
    order.
    """
    if order == 0:
        return np.eye(len(grid))
    _check_order(order)
    if not grid.uniform:
        raise GridSizeError("grid stencils require a uniform grid")
    x = grid.points
    n = x.size
    w = stencil_width(order)
    if n < w:
        raise GridSizeError(
            f"grid of {n} points is smaller than the stencil footprint {w} "
            f"for derivative order {order}"
        )
    D = np.zeros((n, n))
    lo, _ = boundary_widths(order)
    for i in range(n):
        start = min(max(i - lo, 0), n - w)
        D[i, start:start + w] = fd_weights(x[i], x[start:start + w], order)
    return D
