"""Covariance kernels with closed-form partial derivatives.

Both catalog kernels are stationary, ``k(x1, x2) = f(x1 - x2)``, so every
mixed partial is a signed derivative of one profile:
``d^d1/dx1^d1 d^d2/dx2^d2 k = (-1)^d2 f^(d1+d2)(x1 - x2)``.  A
:class:`KernelBifunction` is the profile with one operator per argument,
``T1 T2 k``, each stored as its ``(order, coefficient)`` terms.  A catalog
kernel is the pair of identity operators, its own image under the
identity, so prior and image kernels are one type with one evaluator.  Its
``base`` is a :class:`Kernel`, the non-callable record of:

* ``profile(s, m)``, which returns ``[f(s), f'(s), ..., f^(m)(s)]`` from one
  difference array (one ``exp`` for all orders), up to total order
  ``2 * sample_smoothness``, the whole smoothness budget.  The value and
  every partial come from it (see :mod:`gpops.operators` for one partial
  alone); there is no other evaluation path.
* ``sample_smoothness``, the almost-sure differentiability order of
  sample paths drawn from the kernel.  This is the static proxy for whether
  paths lie in the domain of a differential operator: an operator of order
  ``q`` is applicable only when ``q <= sample_smoothness``.  The underlying
  kernel-regularity => path-regularity implication is an analytic fact
  assumed per catalog entry, not something checked numerically.

A custom kernel is ``KernelBifunction(Kernel(profile, sample_smoothness, label))``.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np

from .errors import EvaluationError, ParameterError
from .expressions import Const, Expr, evaluate_finite

__all__ = ["Kernel", "KernelBifunction", "se_kernel", "matern_kernel", "MATERN_ORDERS"]

MATERN_ORDERS = (0.5, 1.5, 2.5, 3.5)

# Argument slots of a bifunction; exactly two values.
ARG1, ARG2 = 1, 2

_ONE = Const(1.0)


class Kernel:
    """The profile record of a stationary kernel ``k(x1, x2) = f(x1 - x2)``.

    Not callable: it is the ``base`` of the kernel ``KernelBifunction(self)``.

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

    def __repr__(self):
        return f"Kernel({self.label!r}, sample_smoothness={self.sample_smoothness})"


# Output entries per block when a kernel is tabulated, so that the profile
# derivatives and weights of one block stay cache-sized.
BLOCK_ENTRIES = 2**15


def _value(c: Expr, x, cache):
    # c(x), a constant as a float; each coefficient is evaluated once per call,
    # and EvaluationError names it where it is not finite
    if c.is_const():
        return c.value
    if c not in cache:
        cache[c] = evaluate_finite(c, x, "coefficient", c)
    return cache[c]


def _lift(v, ndim, flip=False):
    # an argument or weight factor broadcast against a table of ``ndim`` axes,
    # with its missing leading axes made length 1, or, with flip=True,
    # broadcast against the table's transpose; constants stay as they are
    if not isinstance(v, np.ndarray):
        return v
    v = v.reshape((1,) * (ndim - v.ndim) + v.shape)
    return v.T if flip else v


def _cut(v, index):
    # a lifted argument or weight factor on the table block ``index`` (slices
    # of its leading axes): the axes where it has length 1 hold everywhere
    if not isinstance(v, np.ndarray):
        return v
    return v[tuple(s if n > 1 else slice(None) for s, n in zip(index, v.shape))]


def _weight_factors(pairs, x1, x2, values1, values2):
    # The weight sum_k sign_k c1_k(x1) c2_k(x2) of one profile order, as a part
    # constant in x1 plus rank-1 rows [(c1(x1), v(x2))]: pairs that share c1
    # add their signed c2 on x2, and constant c1 fold into the first part.
    # The order of ``pairs`` fixes the order of every sum.
    row_const, rows = None, {}
    for sign, c1, c2 in pairs:
        v = sign * _value(c2, x2, values2)
        if c1.is_const():
            v = c1.value * v
            row_const = v if row_const is None else row_const + v
        else:
            rows[c1] = rows[c1] + v if c1 in rows else v
    return row_const, [(_value(c1, x1, values1), v) for c1, v in rows.items()]


class KernelBifunction:
    """A catalog kernel with one operator applied to each argument, in closed form.

    ``terms1`` and ``terms2`` are the ``(order, coefficient)`` terms, as in
    :attr:`~gpops.operators.LinearOperator.terms`, of the operators ``T1``
    and ``T2`` on the two arguments, so the bifunction is ``T1 T2 f``, the
    sum of ``c1(x1) c2(x2) * partial(d1, d2) f`` over both term lists, for
    the :class:`Kernel` ``f = base``.  The default, the identity terms
    ``((0, 1),)`` in both arguments, is the catalog kernel itself.  An
    argument's operator order is the budget spent there.  An image kernel
    (see :func:`~gpops.transform.pushforward`) can be transformed again: a
    further operator composes with the argument's operator.

    Evaluation is one pass per row block of the output.  Every pair of terms
    shares the block's profile derivatives ``f^(0..M)(x1 - x2)``, computed
    once up to the largest order needed; each order ``m`` is multiplied by
    one weight ``W_m = sum (-1)^d2 c1(x1) c2(x2)`` over its pairs, built from
    rank-1 products of coefficients evaluated once per call.  No step uses
    BLAS, so values do not depend on its threads.  Orders whose sum is beyond
    the base profile have no closed form and raise :class:`EvaluationError`
    at construction; :func:`~gpops.operators.apply_arg` never builds them,
    because a catalog profile covers the kernel's whole smoothness budget.
    """

    def __init__(self, base: Kernel, terms1=((0, _ONE),), terms2=((0, _ONE),), label=None):
        if not isinstance(base, Kernel):
            raise ParameterError(f"a bifunction's base must be a Kernel, got {type(base).__name__}")
        self.base = base
        self.label = label or base.label
        self.terms1, self.terms2 = tuple(terms1), tuple(terms2)
        d1, d2 = self.order(ARG1), self.order(ARG2)
        if d1 + d2 > 2 * base.sample_smoothness:
            raise EvaluationError(
                f"kernel {base.label!r} has no closed-form partial ({d1}, {d2}); "
                f"its profile stops at total order {2 * base.sample_smoothness}"
            )
        # profile order m -> [(sign, c1, c2)]; the values (-1)^d2 f^(m) serve
        # every pair with d1 + d2 = m
        self._orders: dict[int, list] = {}
        for d1, c1 in self.terms1:
            for d2, c2 in self.terms2:
                self._orders.setdefault(d1 + d2, []).append(((-1.0) ** d2, c1, c2))
        self._top = max(self._orders, default=0)

    def order(self, slot: int):
        """The order of the operator on argument ``slot``: the budget spent there."""
        return max(d for d, _ in (self.terms1 if slot == ARG1 else self.terms2))

    @property
    def sample_smoothness(self):
        return self.base.sample_smoothness - max(self.order(ARG1), self.order(ARG2))

    def remaining_budget(self, slot: int):
        return self.base.sample_smoothness - self.order(slot)

    def __call__(self, x1, x2, out=None):
        """Tabulate the bifunction on ``broadcast(x1, x2)``, into ``out`` if given.

        ``out`` may have any layout: the table is filled one block at a time
        along its slow axis (see :meth:`_tabulate`), and every layout gets
        the same bits.
        """
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ParameterError(f"output shape {out.shape} does not match the table's {shape}")
        values1, values2 = {}, {}
        self._tabulate(x1, x2, [(m, *_weight_factors(triples, x1, x2, values1, values2))
                                for m, triples in self._orders.items()], out)
        if x1.ndim == 0 and x2.ndim == 0:
            return float(out)
        return out

    def fill_lower(self, x, out):
        """Write the lower triangle of ``self(x[:, None], x[None, :])`` into ``out``.

        Only the entries on and below the diagonal are evaluated and written;
        entries above it are left as they are, so ``out`` may be a square
        whose strict upper triangle holds other data, as the pieces of a
        :class:`~gpops.linalg.PackedLower` do.  ``out`` may have any layout,
        as in :meth:`__call__`.  Each coefficient is evaluated once, on
        ``x``, for both arguments.  Every entry is the same elementwise
        arithmetic as in the full table, so the two agree bit for bit.  It is
        the one tabulation of a symmetric table: :func:`~gpops.linalg.gram`
        mirrors it into the upper triangle, and the observation Gram of
        :func:`~gpops.conditioning.condition` fills its diagonal pieces with
        it.  Only the diagonal squares of its row blocks are evaluated whole,
        about 0.56 n² entries at n = 513.  Returns ``out``.
        """
        x = np.asarray(x, dtype=float)
        n = x.size
        if x.ndim != 1 or out.shape != (n, n):
            raise ParameterError(f"fill_lower needs 1-D points and an (n, n) target, "
                                 f"got {x.shape} and {out.shape}")
        values = {}  # both arguments run over x, so they share each coefficient's values
        weights = []
        for m, triples in self._orders.items():
            w, rows = _weight_factors(triples, x, x, values, values)
            # the first argument's values run down the table, the second's across
            weights.append((m, w, [(_lift(c1v, 2, flip=True), v) for c1v, v in rows]))
        self._tabulate(x[:, None], x[None, :], weights, out, lower=True)
        return out

    def _tabulate(self, x1, x2, weights, out, lower=False):
        # Fill out with the table on broadcast(x1, x2), or with lower=True only
        # its lower triangle, one block of rows of out's slow axis at a time:
        # every block is then a few runs of contiguous memory.  A column-major
        # out is tabulated as out.T, whose rows are its columns, from the
        # arguments and weights with their axes swapped; its lower triangle
        # is the upper triangle of out.T.  The arithmetic of each entry is
        # the same in every case.
        ndim = out.ndim
        flip = ndim == 2 and abs(out.strides[0]) < abs(out.strides[1])
        x1, x2 = _lift(x1, ndim, flip), _lift(x2, ndim, flip)
        weights = [(m, _lift(w, ndim, flip), [(_lift(c1v, ndim, flip), _lift(v, ndim, flip))
                                              for c1v, v in rows])
                   for m, w, rows in weights]
        if flip:
            out = out.T
        n = out.shape[0] if ndim else 1
        step = max(1, BLOCK_ENTRIES // max(1, math.prod(out.shape[1:])))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            rows = slice(lo, hi)
            if not lower:
                index = (rows,) if ndim else ()
                self._sum_orders(out[index + (Ellipsis,)], index, x1, x2, weights)
                continue
            # the triangle: the full rectangle beside the block's diagonal
            # square, written in place, and the square's half through a mask
            rect = (rows, slice(hi, n) if flip else slice(0, lo))
            self._sum_orders(out[rect], rect, x1, x2, weights)
            square = np.empty((hi - lo, hi - lo))
            self._sum_orders(square, (rows, rows), x1, x2, weights)
            keep = np.tri(hi - lo, dtype=bool)
            np.copyto(out[rows, rows], square, where=keep.T if flip else keep)

    def _sum_orders(self, out, index, x1, x2, weights):
        # out[...] = sum_m f^(m)(s) W_m on the table block ``index``, the
        # arithmetic of every table entry; W_m is its part constant in x1
        # plus its rank-1 rows, each factor cut to the block.  An entry that
        # overflows is left inf or nan without a numpy warning, for the
        # caller to name
        if not out.size:
            return
        f = self.base.profile(_cut(x1, index) - _cut(x2, index), self._top)
        out[...] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for m, w, rows in weights:
                w = _cut(w, index)
                for c1v, v in rows:
                    term = _cut(c1v, index) * _cut(v, index)
                    w = term if w is None else w + term
                out += f[m] * w

    def __repr__(self):
        return (f"KernelBifunction({self.label!r}, terms=({len(self.terms1)}, {len(self.terms2)}), "
                f"orders=({self.order(ARG1)}, {self.order(ARG2)}))")


def _check_hyperparameters(lengthscale, variance):
    if not all(0 < v < math.inf for v in (lengthscale, variance)):
        raise ParameterError(
            f"lengthscale and variance must be positive and finite, got {lengthscale}, {variance}"
        )


def se_kernel(lengthscale: float, variance: float = 1.0) -> KernelBifunction:
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
        # ell^-k as numpy's power, which overflows to inf where Python's float
        # power raises (both call C pow, so finite values agree bit for bit);
        # a tiny ell gives inf or nan here without a numpy warning
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

    return KernelBifunction(Kernel(profile, sample_smoothness=math.inf,
                                   label=f"se(ell={ell:g}, var={var:g})"))


def _matern_radial_coeffs(p: int, a: float) -> np.ndarray:
    # Polynomial part of the half-integer Matern radial profile:
    # k(r) = P(r) exp(-a r) for r >= 0, coeffs[j] multiplying r^j.
    coeffs = np.zeros(p + 1)
    for i in range(p + 1):
        c = (factorial(p) / factorial(2 * p)
             * factorial(p + i) / (factorial(i) * factorial(p - i))
             * np.float64(2.0 * a) ** (p - i))
        coeffs[p - i] += c
    return coeffs


def _poly_exp_derivative(coeffs: np.ndarray, a: float) -> np.ndarray:
    # d/dr [P(r) e^{-a r}] = (P' - a P) e^{-a r}
    out = -a * coeffs
    out[:-1] += coeffs[1:] * np.arange(1, coeffs.size)
    return out


def matern_kernel(nu: float, lengthscale: float, variance: float = 1.0) -> KernelBifunction:
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
    # the rate and the m-th r-derivative of P(r) exp(-a r), as polynomial
    # coefficients in np.polyval order (highest power first); a tiny ell
    # overflows them, which is refused here, where they are made
    with np.errstate(over="ignore", invalid="ignore"):
        a = math.sqrt(2.0 * nu) / ell
        coeffs = [_matern_radial_coeffs(p, a)]
        for _ in range(2 * p):
            coeffs.append(_poly_exp_derivative(coeffs[-1], a))
    if not (math.isfinite(a) and all(np.isfinite(c).all() for c in coeffs)):
        raise ParameterError(
            f"lengthscale {lengthscale} is too small for nu = {nu}: "
            f"the profile's coefficients are not finite"
        )
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

    return KernelBifunction(Kernel(profile, sample_smoothness=p,
                                   label=f"matern(nu={nu:g}, ell={ell:g}, var={var:g})"))
