"""Mean functions: scalar functions on the index set with derivative metadata.

A :class:`MeanFunction` pairs a vectorized evaluator with whatever closed-form
derivatives are available.  ``smoothness`` is the highest derivative order
available in closed form (``math.inf`` for the expression-backed catalog).
Operator application consumes and produces these; when closed forms run out,
consumers may fall back to finite differences explicitly.

Operator coefficients are not mean functions: they are expression trees
(:class:`~gpops.expressions.Expr`), which always differentiate in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import Expr, parse_expression

__all__ = [
    "MeanFunction",
    "zero_mean",
    "constant_mean",
    "mean_from_expression",
    "mean_from_callable",
]


class MeanFunction:
    """A function on the index set together with its closed-form derivatives.

    Parameters
    ----------
    evaluator : callable
        Vectorized map from points to values.
    deriv_factory : callable, optional
        Map from derivative order (>= 1) to an evaluator, or ``None`` when the
        order is not available in closed form.
    smoothness : int or math.inf
        Highest order for which ``deriv_factory`` returns an evaluator.
    label : str
        Display name used in error messages.
    """

    def __init__(self, evaluator, deriv_factory=None, smoothness=0, label="m"):
        self._evaluator = evaluator
        self._deriv_factory = deriv_factory
        self.smoothness = smoothness
        self.label = label

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._evaluator(x)
        out = np.broadcast_to(np.asarray(out, dtype=float), x.shape)
        return float(out) if x.ndim == 0 else np.array(out)

    def derivative_evaluator(self, order: int):
        """Closed-form evaluator of the given derivative order, or ``None``."""
        if order == 0:
            return self._evaluator
        if order > self.smoothness or self._deriv_factory is None:
            return None
        return self._deriv_factory(order)

    def __repr__(self):
        return f"MeanFunction({self.label!r}, smoothness={self.smoothness})"


def zero_mean() -> MeanFunction:
    """The zero function."""
    return constant_mean(0.0)


def constant_mean(c: float) -> MeanFunction:
    return mean_from_expression(float(c))


def mean_from_expression(source) -> MeanFunction:
    """Build a mean function from the expression grammar.

    All expressions are infinitely differentiable; derivatives are derived
    symbolically and cached on the expression tree.
    """
    expr = source if isinstance(source, Expr) else parse_expression(source)
    label = source if isinstance(source, str) else repr(expr)
    return MeanFunction(expr, expr.diff, math.inf, label=label)


def mean_from_callable(f, derivatives=None, smoothness=None, label="f") -> MeanFunction:
    """Wrap a plain callable, optionally with a dict of closed-form derivatives.

    ``derivatives`` maps order -> evaluator; ``smoothness`` defaults to the
    highest contiguous order present.
    """
    derivatives = dict(derivatives or {})
    if smoothness is None:
        smoothness = 0
        while smoothness + 1 in derivatives:
            smoothness += 1
    factory = (lambda order: derivatives.get(order)) if derivatives else None
    return MeanFunction(f, factory, smoothness, label=label)
