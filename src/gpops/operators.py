"""Linear differential operators and their action on means and kernels.

An operator is a finite sum ``sum_i a_i(x) d^i/dx^i`` whose coefficients are
closed-form expressions.  It acts on

* mean functions, giving ``x -> sum_i a_i(x) f^(i)(x)``;
* either argument of a kernel (``slot`` 1 or 2), giving a
  :class:`KernelBifunction` that tracks, per argument, how much of the
  kernel's derivative budget has been spent;
* both arguments, which is the covariance transport of the operator.

Applying to an argument requires ``operator.order <= sample_smoothness`` of
the kernel in that argument; requests beyond that budget are rejected with
:class:`DomainViolationError` regardless of whether finite differences could
produce a number.  Within the budget, evaluation uses closed-form partials
where the kernel has them and finite differences otherwise.

A standing analytic assumption, not checked numerically: the covariance
transport of a partially-defined operator is well posed when the operator is
closed with a densely defined adjoint.  Differential operators with smooth
coefficients on interval domains have this property (integration by parts
exhibits the adjoint), which is why the catalog restricts coefficients to
closed-form smooth functions.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from .errors import DomainViolationError, EvaluationError, ParameterError
from .expressions import Const, Expr, parse_expression
from .grids import Grid
from .kernels import Kernel
from .means import MeanFunction
from .stencils import KERNEL_FALLBACK_SCHEME, fd_derivative, fd_mixed_partial

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

# Argument slots of a bifunction; exactly two values.
ARG1, ARG2 = 1, 2

_METHODS = ("auto", "closed", "fd")

_ONE = Const(1.0)


def _coerce_coefficient(c):
    # (expression, label text) of a coefficient given as a number, string or Expr
    if isinstance(c, Expr):
        return c, repr(c)
    if isinstance(c, (int, float)):
        return Const(c), repr(float(c))
    if isinstance(c, str):
        return parse_expression(c), c
    raise ParameterError(f"cannot interpret {c!r} as a coefficient expression")


def _leibniz(b, j, a, i):
    """Terms ``(order, coefficient)`` of ``(b d^j) o (a d^i)`` by the product rule.

    ``b d^j (a f^(i)) = sum_l C(j, l) b a^(j-l) f^(i+l)``; terms whose
    coefficient is identically zero are dropped.  Every operation on
    operators (composition, application to a kernel argument, partials of a
    transformed kernel, derivatives of a transformed mean) is this expansion.
    """
    out = []
    for l in range(j + 1):
        coeff = b * (Const(comb(j, l)) * a.diff(j - l))
        if not coeff.is_const(0.0):
            out.append((i + l, coeff))
    return out


def _times(val, c: Expr, x):
    # val * c(x); a constant coefficient multiplies as a scalar, and 1 drops out
    if c.is_const():
        return val if c.value == 1.0 else val * c.value
    return val * c(x)


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
            order = int(order)
            if order < 0:
                raise ParameterError(f"derivative order must be >= 0, got {order}")
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
        self.order = self.terms[-1][0]
        self.label = label if label is not None else _default_label(items)

    def is_identity(self) -> bool:
        return self.terms == ((0, _ONE),)

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

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
    if order < 0:
        raise ParameterError("order must be >= 0")
    if order == 0:
        return identity()
    label = "d/dx" if order == 1 else f"d^{order}/dx^{order}"
    return LinearOperator([(order, 1.0)], label=label)


def add(s: LinearOperator, t: LinearOperator) -> LinearOperator:
    """Term-wise sum of two operators."""
    return LinearOperator(list(s.terms) + list(t.terms), label=f"({s.label}) + ({t.label})")


def scale(c: float, t: LinearOperator) -> LinearOperator:
    """Scalar multiple of an operator, term-wise."""
    return LinearOperator([(o, Const(c) * a) for o, a in t.terms],
                          label=f"{c:g}*({t.label})")


def compose(s: LinearOperator, t: LinearOperator) -> LinearOperator:
    """Leibniz-expanded composition ``s o t`` of order ``s.order + t.order``."""
    return LinearOperator([term for j, b in s.terms for i, a in t.terms
                           for term in _leibniz(b, j, a, i)],
                          label=f"({s.label}) o ({t.label})")


def _weighted_sum(terms, derivative):
    # Evaluator of x -> sum_i a_i(x) f^(i)(x) given f^(i) = derivative(i), or
    # None when some f^(i) is missing.
    pieces = [(c, derivative(order)) for order, c in terms]
    if any(ev is None for _, ev in pieces):
        return None

    def evaluate(x):
        total = None
        for c, ev in pieces:
            val = _times(np.asarray(ev(x), dtype=float), c, x)
            total = val if total is None else total + val
        return total

    return evaluate


def apply_to_function(op: LinearOperator, f: MeanFunction, *,
                      method: str = "auto") -> MeanFunction:
    """Apply the operator to a function: ``x -> sum_i a_i(x) f^(i)(x)``.

    Closed-form derivatives of ``f`` are used where present.  With
    ``method="auto"`` (or ``"fd"``) missing derivatives fall back to central
    finite differences of accuracy order 4; with ``method="closed"`` a
    missing derivative raises :class:`DomainViolationError` naming the
    deficit.  The result's smoothness is ``f.smoothness - op.order``, or 0
    when finite differences were used; its derivatives are
    ``D^d (T f) = (D^d o T) f``.
    """
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}")
    fd_used = False

    def derivative(order):
        nonlocal fd_used
        ev = None if method == "fd" and order else f.derivative_evaluator(order)
        if ev is not None:
            return ev
        if method == "closed":
            raise DomainViolationError(
                f"operator {op.label!r} needs derivative order {order} of "
                f"{f.label!r}, but only {f.smoothness} closed-form orders exist "
                f"and finite differences are disallowed"
            )
        fd_used = True

        def fd_ev(x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 0:
                return fd_derivative(f, float(x), order)
            return np.array([fd_derivative(f, xi, order) for xi in x.ravel()]).reshape(x.shape)

        return fd_ev

    evaluate = _weighted_sum(op.terms, derivative)

    def factory(d):
        terms = [term for i, a in op.terms for term in _leibniz(_ONE, d, a, i)]
        return _weighted_sum(terms, f.derivative_evaluator)

    smoothness = 0 if fd_used else f.smoothness - op.order
    return MeanFunction(evaluate, factory, smoothness, label=f"{op.label}[{f.label}]")


class _BiTerm:
    """One summand ``c1(x1) * c2(x2) * d^(d1,d2) k`` of a transformed kernel."""

    __slots__ = ("c1", "c2", "d1", "d2")

    def __init__(self, c1, c2, d1, d2):
        self.c1, self.c2, self.d1, self.d2 = c1, c2, d1, d2


class KernelBifunction:
    """A kernel with operators applied to its arguments, kept in closed form.

    Stores a sum of terms ``c1(x1) c2(x2) * partial(d1, d2) k`` over a base
    kernel, with expression coefficients.  Evaluation resolves each term
    against the base kernel's closed-form partials, falling back to
    tensor-product finite differences per the construction method.  The
    spent derivative orders per argument (``applied1``, ``applied2``)
    determine the remaining budget available to further operator
    applications.
    """

    def __init__(self, base: Kernel, terms, method="auto", label=None):
        self.base = base
        self.terms = tuple(terms)
        self.method = method
        self.label = label or base.label
        self.applied1 = max((t.d1 for t in self.terms), default=0)
        self.applied2 = max((t.d2 for t in self.terms), default=0)
        self._evaluators = [self._resolve(t) for t in self.terms]

    @classmethod
    def wrap(cls, k) -> "KernelBifunction":
        if isinstance(k, KernelBifunction):
            return k
        if isinstance(k, Kernel):
            return cls(k, [_BiTerm(_ONE, _ONE, 0, 0)])
        raise ParameterError(f"expected a Kernel or KernelBifunction, got {type(k).__name__}")

    def remaining_budget(self, slot: int):
        applied = self.applied1 if slot == ARG1 else self.applied2
        s = self.base.sample_smoothness
        return s if s == math.inf else s - applied

    def _resolve(self, term: _BiTerm):
        closed = None if self.method == "fd" and (term.d1 or term.d2) else self.base.partial(term.d1, term.d2)
        if closed is not None:
            return closed
        if self.method == "closed":
            raise EvaluationError(
                f"kernel {self.base.label!r} has no closed-form partial "
                f"({term.d1}, {term.d2}) and finite differences are disallowed"
            )
        return fd_mixed_partial(self.base, term.d1, term.d2, KERNEL_FALLBACK_SCHEME)

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        total = 0.0
        for term, ev in zip(self.terms, self._evaluators):
            val = np.asarray(ev(x1, x2), dtype=float)
            total = total + _times(_times(val, term.c1, x1), term.c2, x2)
        total = np.asarray(total, dtype=float)
        if x1.ndim == 0 and x2.ndim == 0:
            return float(total)
        return total

    def partial(self, d1: int, d2: int):
        """Closed-form partial of the transformed bifunction, or ``None``.

        This is ``d^d1`` applied to argument 1 and ``d^d2`` to argument 2,
        without a budget check; it exists when every base-kernel partial it
        needs is closed-form.  Used to give image kernels their own partial
        metadata.
        """
        if d1 == 0 and d2 == 0:
            return self.__call__
        terms = [_BiTerm(c1, c2, o1, o2) for t in self.terms
                 for o1, c1 in _leibniz(_ONE, d1, t.c1, t.d1)
                 for o2, c2 in _leibniz(_ONE, d2, t.c2, t.d2)]
        try:
            return KernelBifunction(self.base, terms, method="closed", label=self.label)
        except EvaluationError:
            return None

    def __repr__(self):
        return (f"KernelBifunction({self.label!r}, terms={len(self.terms)}, "
                f"applied=({self.applied1}, {self.applied2}))")


def _check_slot(slot):
    if slot not in (ARG1, ARG2):
        raise ParameterError(f"slot must be {ARG1} (first argument) or {ARG2} (second), got {slot}")


def apply_arg(op: LinearOperator, slot: int, k, *, method: str = "auto") -> KernelBifunction:
    """Apply an operator to one argument of a kernel (or transformed kernel).

    The sample-smoothness budget of the chosen argument must cover
    ``op.order``; otherwise :class:`DomainViolationError` is raised before
    any numerics happen.  The result records the remaining per-argument
    budget, so repeated applications stay guarded.
    """
    _check_slot(slot)
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}")
    bf = KernelBifunction.wrap(k)
    budget = bf.remaining_budget(slot)
    if op.order > budget:
        raise DomainViolationError(
            f"operator {op.label!r} of order {op.order} exceeds the remaining "
            f"sample-path smoothness budget {budget} of kernel {bf.base.label!r} "
            f"in argument {slot}; sample paths are (a.s.) not in the operator's domain"
        )
    new_terms = []
    for order, a in op.terms:
        for t in bf.terms:
            if slot == ARG1:
                new_terms += [_BiTerm(c, t.c2, d, t.d2) for d, c in _leibniz(a, order, t.c1, t.d1)]
            else:
                new_terms += [_BiTerm(t.c1, c, t.d1, d) for d, c in _leibniz(a, order, t.c2, t.d2)]
    label = f"{op.label}_[arg{slot}] {bf.label}"
    return KernelBifunction(bf.base, new_terms, method=method, label=label)


def apply_both(op: LinearOperator, k, *, method: str = "auto") -> KernelBifunction:
    """Apply the operator to both kernel arguments (second argument first).

    This is the covariance transport of the operator; the choice of
    application order is immaterial, which :func:`commutator_residual`
    certifies numerically.
    """
    return apply_arg(op, ARG1, apply_arg(op, ARG2, k, method=method), method=method)


def commutator_residual(op: LinearOperator, k, grid: Grid, *,
                        method: str = "auto") -> float:
    """Max over the grid square of |arg1-then-arg2 minus arg2-then-arg1|."""
    a12 = apply_arg(op, ARG1, apply_arg(op, ARG2, k, method=method), method=method)
    a21 = apply_arg(op, ARG2, apply_arg(op, ARG1, k, method=method), method=method)
    x = grid.points
    v12 = a12(x[:, None], x[None, :])
    v21 = a21(x[:, None], x[None, :])
    return float(np.max(np.abs(v12 - v21)))
