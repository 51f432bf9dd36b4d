"""Finite-difference reference for kernel partials, used only by the tests.

The package evaluates every kernel partial in closed form.  The functions
here take the same partials by tensor-product central stencils, so tests can
compare the closed form against an independent numerical derivative:

* :func:`fd_mixed_partial` -- one mixed partial of any bifunction;
* :func:`per_term_sum` -- a transformed kernel as the plain per-term sum
  ``sum c1(x1) c2(x2) * partial(d1, d2) k``, with each base partial from a
  given source;
* :func:`bifunction_fd` -- that sum with finite-difference partials;
* :func:`commutator_residual_fd` -- the residual between the two
  argument-application orders, evaluated by :func:`bifunction_fd`.
"""

import numpy as np

from gpops.errors import ParameterError
from gpops.kernels import KernelBifunction
from gpops.operators import ARG1, ARG2, apply_arg
from gpops.stencils import MAX_DERIVATIVE_ORDER, fd_weights

_EPS = np.finfo(float).eps


def _central_offsets(order):
    # Symmetric footprints giving accuracy order 4: +-2 for orders 1-2, +-3 for 3-4.
    half = 2 if order <= 2 else 3
    return np.arange(-half, half + 1, dtype=float)


def fd_mixed_partial(k, d1, d2):
    """Vectorized evaluator for a mixed partial of a bifunction by tensor stencils.

    Steps are ``max(1, |x|) * eps**(1/(d1+d2+5))`` per argument, which
    balances truncation against roundoff for high mixed orders, and one
    Richardson step extrapolates the full- and half-step values.  Returns a
    callable ``(x1, x2) -> array``.
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


def per_term_sum(bf, x1, x2, partial):
    """``bf`` on ``broadcast(x1, x2)``, term by term; ``partial(d1, d2)`` gives each evaluator."""
    total = 0.0
    for d1, c1 in bf.terms1:
        for d2, c2 in bf.terms2:
            total = total + c1(x1) * c2(x2) * np.asarray(partial(d1, d2)(x1, x2), dtype=float)
    return total


def bifunction_fd(bf, x1, x2):
    """``bf`` on ``broadcast(x1, x2)`` with each base partial taken by finite differences."""
    base = KernelBifunction(bf.base)
    return per_term_sum(bf, x1, x2, lambda d1, d2: fd_mixed_partial(base, d1, d2))


def commutator_residual_fd(op, k, grid):
    """Max over the grid square of |arg1-then-arg2 minus arg2-then-arg1|, by finite differences."""
    a12 = apply_arg(op, ARG1, apply_arg(op, ARG2, k))
    a21 = apply_arg(op, ARG2, apply_arg(op, ARG1, k))
    x1, x2 = grid.points[:, None], grid.points[None, :]
    return float(np.max(np.abs(bifunction_fd(a12, x1, x2) - bifunction_fd(a21, x1, x2))))
