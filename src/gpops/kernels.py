"""Covariance kernels with closed-form partial derivatives.

Both catalog kernels are stationary, ``k(x1, x2) = f(x1 - x2)``, so every
mixed partial is a signed derivative of one profile:
``d^d1/dx1^d1 d^d2/dx2^d2 k = (-1)^d2 f^(d1+d2)(x1 - x2)``.  A
:class:`Kernel` is that profile plus two pieces of metadata:

* ``profile(s, m)`` returns ``[f(s), f'(s), ..., f^(m)(s)]`` from one
  difference array (one ``exp`` for all orders), up to total order
  ``2 * sample_smoothness``, the whole smoothness budget.  The kernel's
  value is read off it, and every partial comes from it through
  :class:`~gpops.operators.KernelBifunction` (see :mod:`gpops.operators`
  for one partial alone); there is no other evaluation path.
* ``sample_smoothness`` is the almost-sure differentiability order of
  sample paths drawn from the kernel.  This is the static proxy for whether
  paths lie in the domain of a differential operator: an operator of order
  ``q`` is applicable only when ``q <= sample_smoothness``.  The underlying
  kernel-regularity => path-regularity implication is an analytic fact
  assumed per catalog entry, not something checked numerically.

The image of a kernel under operators is not a ``Kernel`` but a
:class:`~gpops.operators.KernelBifunction` over the same catalog base.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np

from .errors import ParameterError

__all__ = ["Kernel", "se_kernel", "matern_kernel", "MATERN_ORDERS"]

MATERN_ORDERS = (0.5, 1.5, 2.5, 3.5)


class Kernel:
    """A stationary positive-semidefinite kernel ``k(x1, x2) = f(x1 - x2)``.

    Parameters
    ----------
    profile : callable
        ``profile(s, m) -> [f(s), ..., f^(m)(s)]``, vectorized over ``s``.
    sample_smoothness : int or math.inf
        A.s. differentiability order of sample paths; ``profile`` supplies
        every order up to twice this, so partials up to that total order
        ``d1 + d2`` are closed-form.
    label : str
        Display name.
    """

    def __init__(self, profile, sample_smoothness, label):
        self.profile = profile
        self.sample_smoothness = sample_smoothness
        self.label = label

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.asarray(self.profile(x1 - x2, 0)[0], dtype=float)
        if x1.ndim == 0 and x2.ndim == 0:
            return float(out)
        return out

    def __repr__(self):
        return f"Kernel({self.label!r}, sample_smoothness={self.sample_smoothness})"


def _check_hyperparameters(lengthscale, variance):
    if not all(0 < v < math.inf for v in (lengthscale, variance)):
        raise ParameterError(
            f"lengthscale and variance must be positive and finite, got {lengthscale}, {variance}"
        )


def se_kernel(lengthscale: float, variance: float = 1.0) -> Kernel:
    """Squared-exponential kernel ``var * exp(-(x1-x2)^2 / (2 ell^2))``.

    Sample paths are smooth (infinitely differentiable), so any catalog
    operator applies.  Mixed partials of every total order are closed-form,
    via the Hermite-polynomial identity

        d^m/dr^m exp(-r^2/2) = (-1)^m He_m(r) exp(-r^2/2),

    with the probabilists' Hermite polynomials ``He_m`` built by one
    three-term recurrence for all orders.
    """
    _check_hyperparameters(lengthscale, variance)
    ell, var = float(lengthscale), float(variance)

    def profile(s, m):
        t = s / ell
        e = np.exp(-0.5 * t * t)
        out = [var * e]
        he_prev, he = 1.0, t
        for k in range(1, m + 1):
            if k > 1:
                he_prev, he = he, t * he - (k - 1) * he_prev
            out.append((-1.0) ** k * var * ell ** (-k) * he * e)
        return out

    return Kernel(profile, sample_smoothness=math.inf,
                  label=f"se(ell={ell:g}, var={var:g})")


def _matern_radial_coeffs(p: int, a: float) -> np.ndarray:
    # Polynomial part of the half-integer Matern radial profile:
    # k(r) = P(r) exp(-a r) for r >= 0, coeffs[j] multiplying r^j.
    coeffs = np.zeros(p + 1)
    for i in range(p + 1):
        c = (factorial(p) / factorial(2 * p)
             * factorial(p + i) / (factorial(i) * factorial(p - i))
             * (2.0 * a) ** (p - i))
        coeffs[p - i] += c
    return coeffs


def _poly_exp_derivative(coeffs: np.ndarray, a: float) -> np.ndarray:
    # d/dr [P(r) e^{-a r}] = (P' - a P) e^{-a r}
    out = -a * coeffs
    out[:-1] += coeffs[1:] * np.arange(1, coeffs.size)
    return out


def matern_kernel(nu: float, lengthscale: float, variance: float = 1.0) -> Kernel:
    """Half-integer Matern kernel for nu in {1/2, 3/2, 5/2, 7/2}.

    Sample paths have exactly ``ceil(nu) - 1`` derivatives; closed-form mixed
    partials exist (and are supplied) up to total order twice that, which is
    the maximal differentiability of the kernel across the diagonal.  The
    half-integer family therefore exercises the operator-domain guard: e.g.
    the Ornstein-Uhlenbeck case nu = 1/2 admits no differential operator at
    all.

    Derivatives of the radial profile ``P(r) exp(-a r)`` are computed by
    symbolic polynomial differentiation of the r >= 0 branch and extended to
    r < 0 by even reflection: one ``exp(-a r)`` and one sign array serve
    every order, with one polynomial per order.
    """
    if not any(abs(nu - v) < 1e-12 for v in MATERN_ORDERS):
        raise ParameterError(
            f"nu must be one of {MATERN_ORDERS} (half-integer catalog), got {nu}"
        )
    _check_hyperparameters(lengthscale, variance)
    ell, var = float(lengthscale), float(variance)
    p = int(round(nu - 0.5))
    a = math.sqrt(2.0 * nu) / ell
    # m-th r-derivative of P(r) exp(-a r), as polynomial coefficients in
    # np.polyval order (highest power first).
    coeffs = [_matern_radial_coeffs(p, a)]
    for _ in range(2 * p):
        coeffs.append(_poly_exp_derivative(coeffs[-1], a))
    coeffs = [c[::-1] for c in coeffs]

    def profile(s, m):
        r = np.abs(s)
        e = np.exp(-a * r)
        out = [var * np.polyval(coeffs[0], r) * e]
        if m:
            sign = np.where(s < 0, -1.0, 1.0)
        for k in range(1, m + 1):
            val = var * np.polyval(coeffs[k], r) * e
            out.append(val * sign if k % 2 else val)
        return out

    return Kernel(profile, sample_smoothness=p,
                  label=f"matern(nu={nu:g}, ell={ell:g}, var={var:g})")
