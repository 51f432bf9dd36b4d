"""Covariance kernels with closed-form partial derivatives.

Both catalog kernels are stationary, ``k(x1, x2) = f(x1 - x2)``, so every
mixed partial is a signed derivative of one profile:
``d^d1/dx1^d1 d^d2/dx2^d2 k = (-1)^d2 f^(d1+d2)(x1 - x2)``.  A
:class:`KernelBifunction` is the profile with one operator per argument,
``T1 T2 k``, each stored as its ``(order, coefficient)`` terms.  A catalog
kernel is the pair of identity operators, its own image under the
identity, so prior and image kernels are one type with one evaluator.  Its
``base`` is a :class:`Kernel`, the non-callable record of:

* the weighted derivative series ``sum_m g_m f^(m)(s)``, for coefficient
  arrays ``g_m`` that broadcast against the differences ``s``, for several
  row groups at once.  It is the kernel's one evaluation: the value and every
  partial come from it (see :mod:`gpops.operators` for one partial alone),
  for orders up to ``2 * sample_smoothness``, the whole smoothness budget.
  The squared exponential sums it by Clenshaw's recurrence in the Hermite
  basis, the Matern kernels by Horner's rule on their even- and odd-order
  polynomials, each under one ``exp`` envelope.
* ``sample_smoothness``, the almost-sure differentiability order of
  sample paths drawn from the kernel.  This is the static proxy for whether
  paths lie in the domain of a differential operator: an operator of order
  ``q`` is applicable only when ``q <= sample_smoothness``.  The underlying
  kernel-regularity => path-regularity implication is an analytic fact
  assumed per catalog entry, not something checked numerically.

A custom kernel is ``KernelBifunction(Kernel(series, sample_smoothness, label, fold))``.
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
    Its one evaluation is the weighted derivative series
    ``sum_m g[m] f^(m)(s)``, one per row group: ``series(s, [fold(g) for g in
    groups])``.

    Parameters
    ----------
    series : callable
        ``series(s, a)``, vectorized over ``s``: for each row group's folded
        coefficients in the list ``a``, whose last axes broadcast against
        ``s``, a new array, the group's series on ``broadcast(s, ...)``.
        Work shared by the groups, such as an envelope, is done once.
    sample_smoothness : int or math.inf
        A.s. differentiability order of sample paths; ``series`` sums every
        order up to twice this, so partials up to that total order
        ``d1 + d2`` are closed-form.
    label : str
        Display name.
    fold : callable
        ``fold(g)``, linear: one group's coefficients ``g``, whose leading
        axis is the derivative order ``m = 0..M``, in the form ``series``
        takes, with the profile's own scalars folded in.  A bifunction
        folds its coefficients once per table, not once per block.
    """

    def __init__(self, series, sample_smoothness, label, fold):
        self.series = series
        self.sample_smoothness = sample_smoothness
        self.label = label
        self.fold = fold

    def __repr__(self):
        return f"Kernel({self.label!r}, sample_smoothness={self.sample_smoothness})"


# Output entries per block when a kernel is tabulated, so that the series'
# recurrence arrays of one block stay cache-sized.
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
    # an argument or coefficient broadcast against a table of ``ndim`` axes,
    # with its missing leading axes made length 1, or, with flip=True,
    # broadcast against the table's transpose; constants stay as they are
    if not isinstance(v, np.ndarray):
        return v
    v = v.reshape((1,) * (ndim - v.ndim) + v.shape)
    return v.T if flip else v


def _cut(v, index):
    # a lifted argument or coefficient array on the table block ``index``
    # (one slice per table axis, matched against v's last axes): the axes
    # where it has length 1 hold everywhere
    if not isinstance(v, np.ndarray):
        return v
    lead = v.ndim - len(index)
    return v[(slice(None),) * lead
             + tuple(s if n > 1 else slice(None) for s, n in zip(index, v.shape[lead:]))]


def _prescale(top):
    # the least k >= 0 with top * 2^-k <= 2: coefficients scaled by 2^-k,
    # exactly, keep a series, which sums before its envelope is applied, in
    # range wherever the enveloped table is; 0 for a top that is not finite,
    # whose table is named by the caller
    if not 2.0 < top < math.inf:
        return 0
    mantissa, k = math.frexp(top)  # top = mantissa 2^k, mantissa in [0.5, 1)
    return k - 2 if mantissa == 0.5 else k - 1


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

    The table is ``sum_g c1_g(x1) sum_m g_m(x2) f^(m)(x1 - x2)``: each
    distinct non-constant first-argument coefficient ``c1_g`` is a row
    group, and the constant ones fold into one more.  A group's series
    coefficients ``g_m(x2) = sum (-1)^d2 c2(x2)`` over its pairs with
    ``d1 + d2 = m``, up to its own top order, are formed, scaled by one
    exact power of two and folded by the base once per call, on the second
    argument alone.  Each block of the output is then one ``series`` call
    for all groups, one product per group with its ``c1`` and a sum: no
    table per order and no table of weights.  No step uses BLAS, so values
    do not depend on its threads.  Orders whose sum is beyond the base's
    budget have no closed form and raise :class:`EvaluationError` at
    construction; :func:`~gpops.operators.apply_arg` never builds them,
    because a catalog series covers the kernel's whole smoothness budget.
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
        # the row groups: each first coefficient but the constant ones, then
        # the constant ones as None, with the group's top profile order and
        # its pairs (m, factor, c2), whose series coefficient at m gains
        # factor * c2(x2), for the factor (-1)^d2, times c1 if c1 is constant
        groups = {}
        for d1, c1 in self.terms1:
            key = None if c1.is_const() else c1
            factor = c1.value if key is None else 1.0
            groups.setdefault(key, []).extend((d1 + d2, (-1.0) ** d2 * factor, c2)
                                              for d2, c2 in self.terms2)
        self._groups = sorted(((c1, max(m for m, *_ in pairs), pairs)
                               for c1, pairs in groups.items()), key=lambda g: g[0] is None)

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
        # a scalar is tabulated as a table of one entry
        ndim = max(1, len(shape))
        self._tabulate(_lift(x1, ndim), _lift(x2, ndim),
                       *self._series(x1, x2, {}, {}, ndim), out if shape else out.reshape(1))
        if not shape:
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
        # the first argument's values run down the table, the second's across
        self._tabulate(x[:, None], x[None, :], *self._series(x, x, values, values, 2, True),
                       out, lower=True)
        return out

    def _series(self, x1, x2, values1, values2, ndim, down=False):
        # The per-call part of a table of ``ndim`` axes: each row group's first
        # coefficient c1(x1), or None for the constant group, the exponent k,
        # and the base's fold of each group's series coefficients scaled by
        # 2^-k.  Coefficient values are lifted to the table, c1's with
        # down=True as a column.  The order of the pairs fixes the order of
        # every sum.
        g = []
        shape = _lift(x2, ndim).shape
        with np.errstate(over="ignore", invalid="ignore"):
            for _, top, pairs in self._groups:
                g.append(np.zeros((top + 1,) + shape))
                for m, factor, c2 in pairs:
                    g[-1][m] += _lift(factor * _value(c2, x2, values2), ndim)
            k = _prescale(max(float(np.max(np.abs(gi), initial=0.0)) for gi in g))
            if k:
                g = [np.ldexp(gi, -k) for gi in g]
            a = [self.base.fold(gi) for gi in g]
        c1 = [None if c is None else _lift(_value(c, x1, values1), ndim, flip=down)
              for c, *_ in self._groups]
        return c1, k, a

    def _tabulate(self, x1, x2, c1, k, a, out, lower=False):
        # Fill out with the table on broadcast(x1, x2), or with lower=True only
        # its lower triangle, one block of rows of out's slow axis at a time:
        # every block is then a few runs of contiguous memory.  A column-major
        # out is tabulated as out.T, whose rows are its columns, from the
        # arguments and coefficients with their table axes swapped; its lower
        # triangle is the upper triangle of out.T.  The arithmetic of each
        # entry is the same in every case.
        ndim = out.ndim
        flip = ndim == 2 and abs(out.strides[0]) < abs(out.strides[1])
        if flip:
            x1, x2, out = x1.T, x2.T, out.T
            c1 = [c if c is None else c.T for c in c1]
            a = [np.swapaxes(ag, -1, -2) for ag in a]
        n = out.shape[0]
        step = max(1, BLOCK_ENTRIES // max(1, math.prod(out.shape[1:])))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            rows = slice(lo, hi)
            if not lower:
                index = (rows,) + (slice(None),) * (ndim - 1)
                self._sum_groups(out[index], index, x1, x2, c1, k, a)
                continue
            # the triangle: the full rectangle beside the block's diagonal
            # square, written in place, and the square's half through a mask
            rect = (rows, slice(hi, n) if flip else slice(0, lo))
            self._sum_groups(out[rect], rect, x1, x2, c1, k, a)
            square = np.empty((hi - lo, hi - lo))
            self._sum_groups(square, (rows, rows), x1, x2, c1, k, a)
            keep = np.tri(hi - lo, dtype=bool)
            np.copyto(out[rows, rows], square, where=keep.T if flip else keep)

    def _sum_groups(self, out, index, x1, x2, c1, k, a):
        # out[...] = 2^k sum_g c1_g(x1) series_g(x1 - x2) on the table block
        # ``index``, the arithmetic of every table entry, each factor cut to
        # the block; the constant group, last, is added as it is.  An entry
        # that overflows is left inf or nan without a numpy warning, for the
        # caller to name
        if not out.size:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            parts = self.base.series(_cut(x1, index) - _cut(x2, index),
                                     [_cut(ag, index) for ag in a])
            for i, (c, part) in enumerate(zip(c1, parts)):
                if i == 0:
                    if c is None:
                        out[...] = part
                    else:
                        np.multiply(part, _cut(c, index), out=out)
                    continue
                if c is not None:
                    part *= _cut(c, index)
                out += part
            if k:
                out *= 2.0 ** k

    def __repr__(self):
        return (f"KernelBifunction({self.label!r}, terms=({len(self.terms1)}, {len(self.terms2)}), "
                f"orders=({self.order(ARG1)}, {self.order(ARG2)}))")


def _check_hyperparameters(lengthscale, variance):
    if not all(0 < v < math.inf for v in (lengthscale, variance)):
        raise ParameterError(
            f"lengthscale and variance must be positive and finite, got {lengthscale}, {variance}"
        )


def _hermite_series(t, a):
    # sum_m a[m] He_m(t), for a's leading axis m, by Clenshaw's recurrence
    # b_m = (a[m] - (m + 1) b_{m+2}) + t b_{m+1}, whose b_0 is the sum; the
    # first b_{m+2} is a[top] itself, whose product with m + 1 is formed
    # before its broadcast
    top = a.shape[0] - 1
    if top == 0:
        b1 = np.empty(np.broadcast(t, a[0]).shape)
        b1[...] = a[0]
        return b1
    b1 = np.multiply(t, a[top])
    b1 += a[top - 1]
    if top == 1:
        return b1
    b2 = np.multiply(t, b1)
    b2 += a[top - 2] - (top - 1) * a[top]
    b1, b2 = b2, b1
    tmp = np.empty(b1.shape)
    for m in range(top - 3, -1, -1):
        # b2's buffer takes b_m
        if m:
            b2 *= m + 1
        np.subtract(a[m], b2, out=b2)
        np.multiply(t, b1, out=tmp)
        b2 += tmp
        b1, b2 = b2, b1
    return b1


def se_kernel(lengthscale: float, variance: float = 1.0) -> KernelBifunction:
    """Squared-exponential kernel ``var * exp(-(x1-x2)^2 / (2 ell^2))``.

    Sample paths are smooth (infinitely differentiable), so any catalog
    operator applies.  Mixed partials of every total order are closed-form,
    via the Hermite-polynomial identity

        d^m/dr^m exp(-r^2/2) = (-1)^m He_m(r) exp(-r^2/2),

    with the probabilists' Hermite polynomials ``He_m``.  The fold turns
    the series' coefficients into Hermite coefficients, ``g_m (-1/ell)^m``;
    the series sums them by Clenshaw's recurrence on ``t = s / ell`` and
    applies ``(var * sum) * exp(-t^2/2)`` last.
    """
    _check_hyperparameters(lengthscale, variance)
    ell, var = float(lengthscale), float(variance)

    def fold(g):
        # ell^-m as numpy's power, which overflows to inf where Python's float
        # power raises (both call C pow, so finite values agree bit for bit)
        scales = [(-1.0) ** m * np.float64(ell) ** -m for m in range(g.shape[0])]
        return g * np.reshape(scales, (-1,) + (1,) * (g.ndim - 1))

    def series(s, a):
        t = s / ell
        envelope = np.exp(-0.5 * t * t)
        out = [_hermite_series(t, ag) for ag in a]
        for part in out:
            if var != 1.0:
                part *= var
            part *= envelope
        return out

    return KernelBifunction(Kernel(series, sample_smoothness=math.inf,
                                   label=f"se(ell={ell:g}, var={var:g})", fold=fold))


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


def _horner(r, c):
    # sum_j c[j] r^j, for c's leading axis j, by Horner's rule from the top
    # power, as np.polyval
    if c.shape[0] == 1:
        y = np.empty(np.broadcast(r, c[0]).shape)
        y[...] = c[0]
        return y
    y = np.multiply(r, c[-1])
    y += c[-2]
    for cj in c[-3::-1]:
        y *= r
        y += cj
    return y


def matern_kernel(nu: float, lengthscale: float, variance: float = 1.0) -> KernelBifunction:
    """Half-integer Matern kernel for nu in {1/2, 3/2, 5/2, 7/2}.

    Sample paths have exactly ``ceil(nu) - 1`` derivatives; closed-form mixed
    partials exist (and are supplied) up to total order twice that, which is
    the maximal differentiability of the kernel across the diagonal.  The
    half-integer family therefore exercises the operator-domain guard: e.g.
    the Ornstein-Uhlenbeck case nu = 1/2 admits no differential operator at
    all.

    The m-th derivative of the radial profile ``P(r) exp(-a r)`` is a
    polynomial of degree p times ``exp(-a r)``, found by symbolic
    differentiation of the r >= 0 branch and extended to r < 0 by even
    reflection, with ``sign(s)`` on the odd orders.  The fold sums the
    series' coefficients into one polynomial for the even orders and one
    for the odd; the series evaluates both by Horner's rule on ``r = |s|``
    and applies ``(var * (even + sign(s) odd)) * exp(-a r)`` last.
    """
    if not any(abs(nu - v) < 1e-12 for v in MATERN_ORDERS):
        raise ParameterError(
            f"nu must be one of {MATERN_ORDERS} (half-integer catalog), got {nu}"
        )
    _check_hyperparameters(lengthscale, variance)
    ell, var = float(lengthscale), float(variance)
    p = int(round(nu - 0.5))
    # the rate and the m-th r-derivative of P(r) exp(-a r), as polynomial
    # coefficients, coeffs[m][j] multiplying r^j; a tiny ell overflows them,
    # which is refused here, where they are made
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

    def fold(g):
        # the even orders' polynomial, and with any odd order the odd orders'
        out = np.zeros((min(2, g.shape[0]), p + 1) + g.shape[1:])
        for m in range(g.shape[0]):
            for j in range(p + 1):
                out[m % 2, j] += g[m] * coeffs[m][j]
        return out

    def series(s, c):
        r = np.abs(s)
        envelope = np.exp(-a * r)
        sign = np.where(s < 0, -1.0, 1.0) if any(cg.shape[0] > 1 for cg in c) else None
        out = []
        for cg in c:
            part = _horner(r, cg[0])
            if cg.shape[0] > 1:
                odd = _horner(r, cg[1])
                odd *= sign
                part += odd
            if var != 1.0:
                part *= var
            part *= envelope
            out.append(part)
        return out

    return KernelBifunction(Kernel(series, sample_smoothness=p,
                                   label=f"matern(nu={nu:g}, ell={ell:g}, var={var:g})",
                                   fold=fold))
