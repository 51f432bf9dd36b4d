"""Mean functions: closed-form expressions on the index set.

A :class:`MeanFunction` is an expression tree
(:class:`~gpops.expressions.Expr`) with a display label.  Every expression
differentiates in closed form, so an operator ``sum_i a_i d^i`` maps a mean
``f`` to the expression ``sum_i a_i * f.expr.diff(i)``
(:func:`~gpops.operators.apply_to_function`), which is again a mean and can
be pushed forward again.  Operator coefficients are the same kind of tree.
"""

from __future__ import annotations

import numpy as np

from .expressions import Expr, evaluate_finite, parse_expression

__all__ = [
    "MeanFunction",
    "zero_mean",
    "constant_mean",
    "mean_from_expression",
]


class MeanFunction:
    """An expression on the index set, evaluated vectorized, with a display label."""

    def __init__(self, expr: Expr, label: str):
        self.expr = expr
        self.label = label

    def __call__(self, x):
        """The mean at ``x``; :class:`EvaluationError` where it is not finite."""
        out = evaluate_finite(self.expr, x, "mean", self.label)
        return float(out) if out.ndim == 0 else np.array(out)

    def __repr__(self):
        return f"MeanFunction({self.label!r})"


def zero_mean() -> MeanFunction:
    """The zero function."""
    return constant_mean(0.0)


def constant_mean(c: float) -> MeanFunction:
    return mean_from_expression(float(c))


def mean_from_expression(source) -> MeanFunction:
    """Build a mean function from the expression grammar (a string, number or ``Expr``)."""
    expr = source if isinstance(source, Expr) else parse_expression(source)
    label = source if isinstance(source, str) else repr(expr)
    return MeanFunction(expr, label)
