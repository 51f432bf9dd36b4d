"""Tiny closed-form expression language for means and operator coefficients.

The accepted grammar (used verbatim by the run-config format) is

    expr   ::= expr '+' expr | expr '*' expr | expr '^' expr
             | 'sin' '(' expr ')' | 'cos' '(' expr ')' | 'exp' '(' expr ')'
             | '-' expr | '(' expr ')' | NUMBER | 'x'

with the usual precedence (^ binds tightest and is right-associative, then *,
then +).  '^' denotes exponentiation and the exponent must be a constant.
Unary minus is accepted anywhere a number is, so negative constants are
writable.  Every expression is infinitely differentiable in closed form, which
is what makes these usable as operator coefficients.

Expressions evaluate vectorized over numpy arrays and differentiate
symbolically via :meth:`Expr.diff`.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ExpressionError

__all__ = ["Expr", "parse_expression"]


class Expr:
    """A node of the expression tree: evaluate with ``__call__``, derive with ``diff``.

    Nodes compare and hash by structure, and each node keeps its first
    derivative once built, so repeated ``diff`` calls share subtrees.
    """

    _fields: tuple = ()  # attribute names that make up the node's structure
    _hash = None
    _derivative = None

    def __call__(self, x):
        raise NotImplementedError

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _diff(self) -> "Expr":
        raise NotImplementedError

    def diff(self, order: int = 1) -> "Expr":
        """The ``order``-th derivative, walking the chain of cached first derivatives."""
        node = self
        for _ in range(order):
            if node._derivative is None:
                node._derivative = node._diff()
            node = node._derivative
        return node

    def is_const(self, value=None) -> bool:
        return False

    def __eq__(self, other):
        if self is other:
            return True
        return (type(self) is type(other) and hash(self) == hash(other)
                and self._key() == other._key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._key()))
        return self._hash

    def __add__(self, other):
        return _add(self, other)

    def __mul__(self, other):
        return _mul(self, other)


class Const(Expr):
    _fields = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __call__(self, x):
        return np.full(np.shape(x), self.value)

    def _diff(self):
        return Const(0.0)

    def is_const(self, value=None):
        return value is None or self.value == value

    def __repr__(self):
        return repr(self.value)


class Var(Expr):
    def __call__(self, x):
        return np.asarray(x, dtype=float)

    def _diff(self):
        return Const(1.0)

    def __repr__(self):
        return "x"


class Add(Expr):
    _fields = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, x):
        return self.a(x) + self.b(x)

    def _diff(self):
        return _add(self.a.diff(), self.b.diff())

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Mul(Expr):
    _fields = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, x):
        return self.a(x) * self.b(x)

    def _diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Pow(Expr):
    """Power with a constant exponent; the restriction keeps diff closed-form."""

    _fields = ("base", "exponent")

    def __init__(self, base, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def __call__(self, x):
        return self.base(x) ** self.exponent

    def _diff(self):
        c = self.exponent
        if c == 0:
            return Const(0.0)
        if c == 1:
            return self.base.diff()
        return _mul(_mul(Const(c), Pow(self.base, c - 1)), self.base.diff())

    def __repr__(self):
        return f"({self.base!r} ^ {self.exponent!r})"


class Sin(Expr):
    _fields = ("a",)

    def __init__(self, a):
        self.a = a

    def __call__(self, x):
        return np.sin(self.a(x))

    def _diff(self):
        return _mul(Cos(self.a), self.a.diff())

    def __repr__(self):
        return f"sin({self.a!r})"


class Cos(Expr):
    _fields = ("a",)

    def __init__(self, a):
        self.a = a

    def __call__(self, x):
        return np.cos(self.a(x))

    def _diff(self):
        return _mul(_mul(Const(-1.0), Sin(self.a)), self.a.diff())

    def __repr__(self):
        return f"cos({self.a!r})"


class ExpF(Expr):
    _fields = ("a",)

    def __init__(self, a):
        self.a = a

    def __call__(self, x):
        return np.exp(self.a(x))

    def _diff(self):
        return _mul(ExpF(self.a), self.a.diff())

    def __repr__(self):
        return f"exp({self.a!r})"


def _add(a, b):
    if a.is_const(0.0):
        return b
    if b.is_const(0.0):
        return a
    if a.is_const() and b.is_const():
        return Const(a.value + b.value)
    return Add(a, b)


def _mul(a, b):
    if a.is_const(0.0) or b.is_const(0.0):
        return Const(0.0)
    if a.is_const(1.0):
        return b
    if b.is_const(1.0):
        return a
    if a.is_const() and b.is_const():
        return Const(a.value * b.value)
    return Mul(a, b)


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": ExpF}


def _convert(node, source):
    if isinstance(node, ast.Expression):
        return _convert(node.body, source)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return Const(node.value)
        raise ExpressionError(f"non-numeric constant {node.value!r} in {source!r}")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return Var()
        raise ExpressionError(
            f"unknown name {node.id!r} in {source!r} (only 'x' is allowed)"
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _mul(Const(-1.0), _convert(node.operand, source))
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            return _add(_convert(node.left, source), _convert(node.right, source))
        if isinstance(node.op, ast.Mult):
            return _mul(_convert(node.left, source), _convert(node.right, source))
        if isinstance(node.op, ast.Pow):
            exponent = _convert(node.right, source)
            if not exponent.is_const():
                raise ExpressionError(
                    f"exponent must be a constant in {source!r} "
                    f"(got {ast.get_source_segment(source, node.right)!r})"
                )
            base = _convert(node.left, source)
            if base.is_const():
                return Const(base.value**exponent.value)
            return Pow(base, exponent.value)
        raise ExpressionError(
            f"operator {type(node.op).__name__} not in the grammar "
            f"(allowed: +, *, ^) in {source!r}"
        )
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _FUNCTIONS[node.func.id](_convert(node.args[0], source))
        raise ExpressionError(
            f"only sin(...), cos(...), exp(...) calls are allowed in {source!r}"
        )
    raise ExpressionError(
        f"syntax element {type(node).__name__} not in the grammar in {source!r}"
    )


def parse_expression(source) -> Expr:
    """Parse an expression string (or bare number) into an :class:`Expr`.

    Raises :class:`ExpressionError` with position information on malformed
    input.
    """
    if isinstance(source, (int, float)) and not isinstance(source, bool):
        return Const(source)
    if not isinstance(source, str):
        raise ExpressionError(f"expected an expression string, got {type(source).__name__}")
    # '^' is exponentiation in this grammar; '**' is not part of it.
    if "**" in source:
        raise ExpressionError(f"use '^' for powers, not '**', in {source!r}")
    translated = source.replace("^", "**")
    try:
        tree = ast.parse(translated, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(
            f"cannot parse {source!r}: {exc.msg} at line {exc.lineno}, column {exc.offset}"
        ) from None
    return _convert(tree, source)
