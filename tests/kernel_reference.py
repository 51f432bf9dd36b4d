"""Per-order reference tables for the catalog kernels, used only by the tests.

The package sums a kernel's weighted derivative series in one recurrence
per row group.  This module keeps the per-order arithmetic as a reference:

* :func:`se_profile` and :func:`matern_profile` -- the list
  ``[f(s), f'(s), ..., f^(m)(s)]`` of a catalog profile, each order a table
  of its own, the squared exponential's by the forward Hermite recurrence;
* :func:`reference_table` -- a bifunction's table as the sum over profile
  orders ``m`` of ``f^(m)(x1 - x2)`` times the table of weights
  ``W_m = sum (-1)^d2 c1(x1) c2(x2)`` over the pairs with ``d1 + d2 = m``;
* :func:`series_derivative` -- one order ``f^(m)(s)`` of a kernel's own base,
  as its series with one unit coefficient.
"""

import math
from math import factorial

import numpy as np

from gpops.kernels import ARG1, ARG2


def se_profile(lengthscale, variance):
    """``profile(s, m) -> [f(s), ..., f^(m)(s)]`` of ``se_kernel(lengthscale, variance)``."""
    ell, var = float(lengthscale), float(variance)

    def profile(s, m):
        with np.errstate(over="ignore", invalid="ignore"):
            t = s / ell
            e = np.exp(-0.5 * t * t)
            out = [var * e]
            he_prev, he = 1.0, t
            for k in range(1, m + 1):
                if k > 1:
                    he_prev, he = he, t * he - (k - 1) * he_prev
                out.append((-1.0) ** k * var * np.float64(ell) ** -k * he * e)
        return out

    return profile


def _matern_radial_coeffs(p, a):
    coeffs = np.zeros(p + 1)
    for i in range(p + 1):
        coeffs[p - i] += (factorial(p) / factorial(2 * p)
                          * factorial(p + i) / (factorial(i) * factorial(p - i))
                          * np.float64(2.0 * a) ** (p - i))
    return coeffs


def matern_profile(nu, lengthscale, variance):
    """``profile(s, m)`` of ``matern_kernel(nu, lengthscale, variance)``."""
    ell, var = float(lengthscale), float(variance)
    p = int(round(nu - 0.5))
    a = math.sqrt(2.0 * nu) / ell
    coeffs = [_matern_radial_coeffs(p, a)]
    for _ in range(2 * p):
        c = -a * coeffs[-1]
        c[:-1] += coeffs[-1][1:] * np.arange(1, p + 1)
        coeffs.append(c)
    coeffs = [c[::-1] for c in coeffs]

    def profile(s, m):
        r = np.abs(s)
        e = np.exp(-a * r)
        sign = np.where(s < 0, -1.0, 1.0)
        return [var * np.polyval(coeffs[k], r) * e * (sign if k % 2 else 1.0)
                for k in range(m + 1)]

    return profile


def reference_table(bf, profile, x1, x2):
    """``bf`` on ``broadcast(x1, x2)`` as the per-order sum of ``profile`` tables times weights."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    top = bf.order(ARG1) + bf.order(ARG2)
    f = profile(x1 - x2, top)
    weights = {}
    for d1, c1 in bf.terms1:
        for d2, c2 in bf.terms2:
            w = (-1.0) ** d2 * c1(x1) * c2(x2)
            weights[d1 + d2] = weights.get(d1 + d2, 0.0) + w
    total = np.zeros(np.broadcast_shapes(x1.shape, x2.shape))
    for m, w in weights.items():
        total = total + f[m] * w
    return total


def series_derivative(k, s, m):
    """``f^(m)(s)`` of ``k``'s base alone: its series with one unit coefficient, at ``m``."""
    g = np.zeros(m + 1)
    g[m] = 1.0
    return k.base.series(s, [k.base.fold(g)])[0]
