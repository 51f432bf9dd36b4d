"""Linear differential operators and their action on means and kernels.

An operator is a finite sum ``sum_i a_i(x) d^i/dx^i`` whose coefficients are
closed-form expressions.  It acts on

* mean functions, giving the expression ``sum_i a_i * f^(i)``;
* either argument of a kernel (``slot`` 1 or 2), giving a
  :class:`KernelBifunction` over the catalog kernel that tracks, per
  argument, how much of the kernel's derivative budget has been spent;
* both arguments, which is the covariance transport of the operator.

Both results stay in closed form over the catalog: a transformed mean is an
expression and a transformed kernel is a bifunction over the base kernel, so
applying a further operator expands onto the base again.

Applying to an argument requires ``operator.order <= sample_smoothness`` of
the kernel in that argument; requests beyond that budget are rejected with
:class:`DomainViolationError`.  Within the budget every partial is
closed-form: a catalog kernel's profile covers its whole smoothness budget.
:class:`KernelBifunction` is the only evaluator of kernel partials; one
partial alone is the one-key bifunction ``apply_arg(derivative_operator(d1),
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

import math
import numbers
from math import comb

import numpy as np

from .errors import DomainViolationError, EvaluationError, ExpressionError, ParameterError
from .expressions import Const, Expr, evaluate_finite, parse_expression
from .grids import Grid
from .kernels import Kernel
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

# Argument slots of a bifunction; exactly two values.
ARG1, ARG2 = 1, 2

_ZERO, _ONE = Const(0.0), Const(1.0)


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
    coefficient is identically zero are dropped.  Every operation on
    operators (composition, application to a kernel argument, including
    to an already transformed kernel) is this expansion.
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


# Output entries per row block when a transformed kernel is tabulated, so
# that the profile derivatives and weights of one block stay cache-sized.
BLOCK_ENTRIES = 2**15


def _row_blocks(x1, x2, shape):
    # Index expressions of the output's row blocks.  Rows split only when x1
    # runs along the first axis and x2 is constant along it (an outer
    # product); any other broadcast shape, a scalar included, is one block.
    if (shape and x1.ndim == len(shape) and x1.shape[0] == shape[0]
            and (x2.ndim < len(shape) or x2.shape[0] == 1)):
        step = max(1, BLOCK_ENTRIES // max(1, math.prod(shape[1:])))
        return [slice(lo, lo + step) for lo in range(0, shape[0], step)]
    return [Ellipsis]


def _value(c: Expr, x, cache):
    # c(x), a constant as a float; each coefficient is evaluated once per call,
    # and EvaluationError names it where it is not finite
    if c.is_const():
        return c.value
    if c not in cache:
        cache[c] = evaluate_finite(c, x, "coefficient", c)
    return cache[c]


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
    """A catalog kernel with operators applied to its arguments, in closed form.

    ``terms`` maps each derivative pair ``(d1, d2)`` to its coefficient
    pairs ``(c1, c2)``, so the bifunction is the sum over keys and pairs of
    ``c1(x1) c2(x2) * partial(d1, d2) k`` for the catalog kernel ``k =
    base``.  The constructor takes an iterable of ``(d1, d2, c1, c2)``
    tuples.  The spent derivative orders per argument (``applied1``,
    ``applied2``) determine the remaining budget available to further
    operator applications, and ``sample_smoothness`` is what is left in
    both arguments.  An image kernel (see
    :func:`~gpops.transform.pushforward`) is such a bifunction, so it can
    serve as a prior kernel and be transformed again; further operators
    expand onto the same base.

    Evaluation is one pass per row block of the output.  Every key shares
    the block's profile derivatives ``f^(0..M)(x1 - x2)``, computed once up
    to the largest order needed; each order ``m`` is multiplied by one
    weight ``W_m = sum (-1)^d2 c1(x1) c2(x2)`` over its keys, built from
    rank-1 products of coefficients evaluated once per call.  No step uses
    BLAS, so values do not depend on its threads.  A key beyond the base
    profile has no closed form and raises :class:`EvaluationError` at
    construction; :func:`apply_arg` never builds one, because a catalog
    profile covers the kernel's whole smoothness budget.
    """

    def __init__(self, base: Kernel, terms, label=None):
        self.base = base
        self.label = label or base.label
        self.terms: dict[tuple[int, int], list[tuple[Expr, Expr]]] = {}
        for d1, d2, c1, c2 in terms:
            if d1 + d2 > 2 * base.sample_smoothness:
                raise EvaluationError(
                    f"kernel {base.label!r} has no closed-form partial ({d1}, {d2}); "
                    f"its profile stops at total order {2 * base.sample_smoothness}"
                )
            self.terms.setdefault((d1, d2), []).append((c1, c2))
        self.applied1 = max((d1 for d1, _ in self.terms), default=0)
        self.applied2 = max((d2 for _, d2 in self.terms), default=0)
        # profile order m -> [(sign, c1, c2)]; the values (-1)^d2 f^(m) serve
        # every key with d1 + d2 = m
        self._orders: dict[int, list] = {}
        for (d1, d2), pairs in self.terms.items():
            self._orders.setdefault(d1 + d2, []).extend(((-1.0) ** d2, c1, c2) for c1, c2 in pairs)

    @classmethod
    def wrap(cls, k) -> "KernelBifunction":
        if isinstance(k, KernelBifunction):
            return k
        if isinstance(k, Kernel):
            return cls(k, [(0, 0, _ONE, _ONE)])
        raise ParameterError(f"expected a Kernel or KernelBifunction, got {type(k).__name__}")

    @property
    def sample_smoothness(self):
        return self.base.sample_smoothness - max(self.applied1, self.applied2)

    def remaining_budget(self, slot: int):
        return self.base.sample_smoothness - (self.applied1 if slot == ARG1 else self.applied2)

    def __call__(self, x1, x2, out=None):
        """Tabulate the bifunction on ``broadcast(x1, x2)``, into ``out`` if given."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ParameterError(f"output shape {out.shape} does not match the table's {shape}")
        values1, values2 = {}, {}
        weights = [(m, *_weight_factors(triples, x1, x2, values1, values2))
                   for m, triples in self._orders.items()]
        top = max(self._orders, default=0)
        for blk in _row_blocks(x1, x2, shape):
            f = self.base.profile(x1[blk] - x2, top)
            out[blk] = 0.0
            for m, w, rows in weights:
                for c1v, v in rows:
                    term = c1v[blk] * v
                    w = term if w is None else w + term
                out[blk] += f[m] * w
        if x1.ndim == 0 and x2.ndim == 0:
            return float(out)
        return out

    def fill_lower(self, x, out):
        """Write the lower triangle of ``self(x[:, None], x[None, :])`` into ``out``.

        Runs the row blocks of the full table, but each block's columns stop
        at its last row, so about half the entries are evaluated.  Entries
        above the diagonal are not written.  Every entry is the same
        elementwise arithmetic as in the full table, so the two agree bit
        for bit.  Returns ``out``.
        """
        x = np.asarray(x, dtype=float)
        n = x.size
        if x.ndim != 1 or out.shape != (n, n):
            raise ParameterError(f"fill_lower needs 1-D points and an (n, n) target, "
                                 f"got {x.shape} and {out.shape}")
        for blk in _row_blocks(x[:, None], x[None, :], (n, n)):
            lo, hi = blk.start, min(blk.stop, n)
            np.copyto(out[lo:hi, :hi], self(x[lo:hi, None], x[None, :hi]),
                      where=np.arange(hi) <= np.arange(lo, hi)[:, None])
        return out

    def __repr__(self):
        return (f"KernelBifunction({self.label!r}, terms={sum(map(len, self.terms.values()))}, "
                f"applied=({self.applied1}, {self.applied2}))")


def _check_slot(slot):
    if slot not in (ARG1, ARG2):
        raise ParameterError(f"slot must be {ARG1} (first argument) or {ARG2} (second), got {slot}")


def apply_arg(op: LinearOperator, slot: int, k) -> KernelBifunction:
    """Apply an operator to one argument of a kernel (or transformed kernel).

    The sample-smoothness budget of the chosen argument must cover
    ``op.order``; otherwise :class:`DomainViolationError` is raised before
    any numerics happen.  The result records the remaining per-argument
    budget, so repeated applications stay guarded.
    """
    _check_slot(slot)
    bf = KernelBifunction.wrap(k)
    budget = bf.remaining_budget(slot)
    if op.order > budget:
        raise DomainViolationError(
            f"operator {op.label!r} of order {op.order} exceeds the remaining "
            f"sample-path smoothness budget {budget} of kernel {bf.label!r} "
            f"in argument {slot}; sample paths are (a.s.) not in the operator's domain"
        )
    new_terms = []
    for order, a in op.terms:
        for (d1, d2), pairs in bf.terms.items():
            for c1, c2 in pairs:
                if slot == ARG1:
                    new_terms += [(d, d2, c, c2) for d, c in _leibniz(a, order, c1, d1)]
                else:
                    new_terms += [(d1, d, c1, c) for d, c in _leibniz(a, order, c2, d2)]
    label = f"{op.label}_[arg{slot}] {bf.label}"
    return KernelBifunction(bf.base, new_terms, label=label)


def apply_both(op: LinearOperator, k) -> KernelBifunction:
    """Apply the operator to both kernel arguments (second argument first).

    This is the covariance transport of the operator.  The application
    order is immaterial by construction: an application to one argument
    changes only that argument's partial orders and coefficients, so both
    orders build the same terms.  :func:`commutator_residual` measures the
    difference of their tables, which is summation-order roundoff.
    """
    return apply_arg(op, ARG1, apply_arg(op, ARG2, k))


def commutator_residual(op: LinearOperator, k, grid: Grid) -> float:
    """Max over the grid square of |arg1-then-arg2 minus arg2-then-arg1|, in closed form."""
    a12 = apply_arg(op, ARG1, apply_arg(op, ARG2, k))
    a21 = apply_arg(op, ARG2, apply_arg(op, ARG1, k))
    x1, x2 = grid.points[:, None], grid.points[None, :]
    return float(np.max(np.abs(a12(x1, x2) - a21(x1, x2))))
