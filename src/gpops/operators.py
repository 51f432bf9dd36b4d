"""Linear differential operators and their action on means and kernels.

An operator is a finite sum ``sum_i a_i(x) d^i/dx^i`` whose coefficients are
closed-form expressions.  It acts on

* mean functions, giving the expression ``sum_i a_i * f^(i)``;
* either argument of a kernel (``slot`` 1 or 2), giving a
  :class:`~gpops.kernels.KernelBifunction` over the catalog kernel: the
  operator is composed with the one that argument already carries, and its
  order is the part of the kernel's derivative budget spent there;
* both arguments, which is the covariance transport of the operator.

Both results stay in closed form over the catalog: a transformed mean is an
expression, and a kernel, catalog or transformed, is the pair ``(T1, T2)``
of operators over the catalog base, so a further operator composes onto
that pair.  This module is the operator algebra; :mod:`gpops.kernels`
evaluates kernels.

Applying to an argument requires ``operator.order <= sample_smoothness`` of
the kernel in that argument; requests beyond that budget are rejected with
:class:`DomainViolationError`.  Within the budget every partial is
closed-form: a catalog kernel's derivative series covers its whole
smoothness budget.
One partial alone is the bifunction ``apply_arg(derivative_operator(d1),
ARG1, apply_arg(derivative_operator(d2), ARG2, k))``.  No kernel partial
comes from finite differences; the tests keep that reference to check the
closed form against (``tests/fd_reference.py``).

A standing analytic assumption, not checked numerically: the covariance
transport of a partially-defined operator is well posed when the operator is
closed with a densely defined adjoint.  Differential operators with smooth
coefficients on interval domains have this property (integration by parts
exhibits the adjoint), which is why the catalog restricts coefficients to
closed-form smooth functions.
"""

from __future__ import annotations

import numbers
from math import comb

import numpy as np

from .errors import DomainViolationError, ExpressionError, ParameterError
from .expressions import Const, Expr, parse_expression
from .grids import Grid
from .kernels import ARG1, ARG2, KernelBifunction
from .means import MeanFunction

__all__ = [
    "LinearOperator",
    "identity",
    "derivative_operator",
    "compose",
    "add",
    "scale",
    "apply_to_function",
    "apply_arg",
    "apply_both",
    "commutator_residual",
    "ARG1",
    "ARG2",
]

_ZERO = Const(0.0)


def _coerce_coefficient(c):
    # (expression, label text) of a coefficient given as a number, string or Expr
    if isinstance(c, Expr):
        return c, repr(c)
    if isinstance(c, (int, float)):
        try:
            return parse_expression(c), repr(float(c))
        except ExpressionError:
            raise ParameterError(f"coefficient {c!r} is not a finite number") from None
    if isinstance(c, str):
        return parse_expression(c), c
    raise ParameterError(f"cannot interpret {c!r} as a coefficient expression")


def _leibniz(b, j, a, i):
    """Terms ``(order, coefficient)`` of ``(b d^j) o (a d^i)`` by the product rule.

    ``b d^j (a f^(i)) = sum_l C(j, l) b a^(j-l) f^(i+l)``; terms whose
    coefficient is identically zero are dropped.  Composition is this
    expansion, and so is application to a kernel argument, which composes.
    """
    out = []
    for l in range(j + 1):
        coeff = b * (Const(comb(j, l)) * a.diff(j - l))
        if not coeff.is_const(0.0):
            out.append((i + l, coeff))
    return out


class LinearOperator:
    """``sum_i a_i(x) d^i/dx^i`` with closed-form coefficient expressions.

    ``terms`` is an iterable of ``(order, coefficient)`` pairs; coefficients
    may be numbers, expression strings, or :class:`~gpops.expressions.Expr`
    trees, and are stored as ``Expr``.  Duplicate orders are merged;
    exact-zero coefficients are dropped.  Operators compare and hash by
    their terms; the label is for display only.
    """

    def __init__(self, terms, label=None):
        merged: dict[int, tuple[Expr, str]] = {}  # order -> (coefficient, label text)
        for order, coeff in terms:
            if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 0:
                raise ParameterError(f"derivative order must be an integer >= 0, got {order!r}")
            order = int(order)
            coeff, text = _coerce_coefficient(coeff)
            if order in merged:
                prev, prev_text = merged[order]
                total = prev + coeff
                text = (text if prev.is_const(0.0) else prev_text if coeff.is_const(0.0)
                        else repr(total) if total.is_const() else f"({prev_text} + {text})")
                coeff = total
            merged[order] = (coeff, text)
        items = sorted((o, ct) for o, ct in merged.items() if not ct[0].is_const(0.0))
        if not items:
            items = [(0, (Const(0.0), repr(0.0)))]
        self.terms = tuple((o, c) for o, (c, _) in items)
        self._hash = hash(self.terms)  # taken once: observations group by operator
        self.order = self.terms[-1][0]
        self.label = label if label is not None else _default_label(items)

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return add(self, other)

    def __rmul__(self, c):
        return scale(c, self)

    def __matmul__(self, other):
        return compose(self, other)

    def __repr__(self):
        return f"LinearOperator({self.label!r}, order={self.order})"


def _default_label(items):
    parts = []
    for order, (coeff, text) in items:
        d = "1" if order == 0 else ("d/dx" if order == 1 else f"d^{order}/dx^{order}")
        if coeff.is_const(1.0):
            parts.append(d)
        elif order == 0:
            parts.append(text)
        else:
            parts.append(f"{text}*{d}")
    return " + ".join(parts)


def identity() -> LinearOperator:
    """The identity operator (single term, order 0, unit coefficient)."""
    return LinearOperator([(0, 1.0)], label="identity")


def derivative_operator(order: int = 1) -> LinearOperator:
    """Pure ``d^order/dx^order``."""
    op = LinearOperator([(order, 1.0)], label="d/dx" if order == 1 else f"d^{order}/dx^{order}")
    return identity() if op.order == 0 else op


def add(s: LinearOperator, t: LinearOperator) -> LinearOperator:
    """Term-wise sum of two operators."""
    return LinearOperator(list(s.terms) + list(t.terms), label=f"({s.label}) + ({t.label})")


def scale(c: float, t: LinearOperator) -> LinearOperator:
    """Scalar multiple of an operator, term-wise; ``c`` must be a finite real number."""
    if not isinstance(c, numbers.Real):
        raise ParameterError(f"scale factor must be a real number, got {c!r}")
    factor, _ = _coerce_coefficient(c if isinstance(c, int) else float(c))
    return LinearOperator([(o, factor * a) for o, a in t.terms], label=f"{c:g}*({t.label})")


def compose(s: LinearOperator, t: LinearOperator) -> LinearOperator:
    """Leibniz-expanded composition ``s o t`` of order ``s.order + t.order``."""
    return LinearOperator([term for j, b in s.terms for i, a in t.terms
                           for term in _leibniz(b, j, a, i)],
                          label=f"({s.label}) o ({t.label})")


def apply_to_function(op: LinearOperator, f: MeanFunction) -> MeanFunction:
    """Apply the operator to a mean: the expression ``sum_i a_i * f^(i)``.

    Derivatives are symbolic, so the result is again a closed-form mean and
    can itself be differentiated or pushed forward.
    """
    expr = _ZERO
    for order, a in op.terms:
        expr = expr + a * f.expr.diff(order)
    return MeanFunction(expr, label=f"{op.label}[{f.label}]")


def apply_arg(op: LinearOperator, slot: int, k: KernelBifunction) -> KernelBifunction:
    """Apply an operator to one argument of a kernel, catalog or transformed.

    The result carries ``compose(op, T)`` on that argument, ``T`` being its
    operator so far (the identity on a catalog kernel).  The argument's
    remaining sample-smoothness budget must cover ``op.order``; otherwise
    :class:`DomainViolationError` is raised before any numerics happen.
    """
    if slot not in (ARG1, ARG2):
        raise ParameterError(f"slot must be {ARG1} (first argument) or {ARG2} (second), got {slot}")
    if not isinstance(k, KernelBifunction):
        raise ParameterError(f"expected a KernelBifunction, got {type(k).__name__}")
    budget = k.remaining_budget(slot)
    if op.order > budget:
        raise DomainViolationError(
            f"operator {op.label!r} of order {op.order} exceeds the remaining "
            f"sample-path smoothness budget {budget} of kernel {k.label!r} "
            f"in argument {slot}; sample paths are (a.s.) not in the operator's domain"
        )
    terms = compose(op, LinearOperator(k.terms1 if slot == ARG1 else k.terms2)).terms
    terms1, terms2 = (terms, k.terms2) if slot == ARG1 else (k.terms1, terms)
    return KernelBifunction(k.base, terms1, terms2, label=f"{op.label}_[arg{slot}] {k.label}")


def apply_both(op: LinearOperator, k) -> KernelBifunction:
    """Apply the operator to both kernel arguments (second argument first).

    This is the covariance transport of the operator.  The application
    order is immaterial by construction: an application to one argument
    changes only that argument's operator, so both orders build the same
    pair ``(op, op)`` of term tuples, and the same table bit for bit.
    """
    return apply_arg(op, ARG1, apply_arg(op, ARG2, k))


def commutator_residual(op: LinearOperator, k, grid: Grid) -> float:
    """Max over the grid square of |arg1-then-arg2 minus arg2-then-arg1|: 0.0 by construction."""
    a12 = apply_arg(op, ARG1, apply_arg(op, ARG2, k))
    a21 = apply_arg(op, ARG2, apply_arg(op, ARG1, k))
    x1, x2 = grid.points[:, None], grid.points[None, :]
    return float(np.max(np.abs(a12(x1, x2) - a21(x1, x2))))
