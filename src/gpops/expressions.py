"""Tiny closed-form expression language for means and operator coefficients.

The accepted grammar (used verbatim by the run-config format) is

    expr   ::= expr '+' expr | expr '*' expr | expr '^' expr
             | 'sin' '(' expr ')' | 'cos' '(' expr ')' | 'exp' '(' expr ')'
             | '-' expr | '(' expr ')' | NUMBER | 'x'

with the usual precedence (^ binds tightest and is right-associative, then *,
then +).  '^' denotes exponentiation and the exponent must be a constant.
Unary minus is accepted anywhere a number is, so negative constants are
writable.  Every constant, as written or folded, must be a finite real.
Every expression is infinitely differentiable in closed form, which is what
makes these usable as operator coefficients.

Expressions evaluate vectorized over numpy arrays and differentiate
symbolically via :meth:`Expr.diff`.  A node class declares its structure once,
in ``_fields``: construction, children, equality, hashing and the canonical
order all read it, and each of those walks keeps a stack of its own.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import EvaluationError, ExpressionError

__all__ = ["Expr", "parse_expression", "evaluate_finite"]

# The deepest syntax tree parse_expression converts: a sum of 480 terms
# (n terms are n + 2 levels deep).  Conversion takes one frame per level, so
# it stays within Python's default recursion limit of 1000 from a caller 200
# frames deep.  Evaluation, differentiation, equality, hashing, ordering and
# repr keep a stack of their own (Expr), so they take a few frames at any depth.
MAX_NESTING = 482


class Expr:
    """A node of the expression tree: evaluate with ``__call__``, derive with ``diff``.

    Nodes compare and hash by structure, and each node keeps its first
    derivative once built, so repeated ``diff`` calls share subtrees.  The
    two operands of ``+`` and of ``*`` are stored in a canonical order, so
    commuted sums and products such as ``x + 1`` and ``1 + x``, or
    ``x*sin(x)`` and ``sin(x)*x``, are equal trees.  Like terms are not
    collected: ``x + x`` and ``2*x`` stay different trees.

    Evaluation, ``diff``, equality, hashing, ordering and ``repr`` walk the
    tree on a stack of their own, not by recursion, so a tree of any depth
    takes a few frames from any caller.
    """

    _fields: tuple = ()  # attribute names that make up the node's structure
    _hash = None
    _order = None
    _derivative = None

    def __init__(self, *fields):
        for name, value in zip(self._fields, fields, strict=True):
            setattr(self, name, value)

    def __call__(self, x):
        """The values at ``x``; a subtree shared by identity is evaluated once."""
        return _fold(self, lambda node, *operands: node._apply(x, *operands))

    def _apply(self, x, *operands):
        # this node's values from its operands' values
        raise NotImplementedError

    def __repr__(self):
        return _fold(self, lambda node, *operands: node._text(*operands))

    def _text(self, *operands) -> str:
        # this node's text from its operands' texts
        raise NotImplementedError

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _children(self) -> tuple:
        # the operand subtrees, in field order
        return tuple(f for f in self._key() if isinstance(f, Expr))

    def _diff(self) -> "Expr":
        # the first derivative, once every child's is cached
        raise NotImplementedError

    def diff(self, order: int = 1) -> "Expr":
        """The ``order``-th derivative, walking the chain of cached first derivatives."""
        node = self
        for _ in range(order):
            if node._derivative is None:
                for sub in _children_first(node, lambda sub: sub._derivative is not None):
                    sub._derivative = sub._diff()
            node = node._derivative
        return node

    def is_const(self, value=None) -> bool:
        return False

    def __eq__(self, other):
        # pairs of subtrees still to compare, on a stack of their own; fields
        # compare as in a tuple, by identity first
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or hash(a) != hash(b):
                return False
            for u, v in zip(a._key(), b._key()):
                if isinstance(u, Expr):
                    pairs.append((u, v))
                elif u is not v and u != v:
                    return False
        return True

    def __hash__(self):
        if self._hash is None:
            for node in _children_first(self, lambda node: node._hash is not None):
                node._hash = hash((type(node).__name__, node._key()))
        return self._hash

    def _order_key(self) -> tuple:
        # A total order over trees that is the same in every process (unlike
        # hash(), which is salted for strings): node type, then fields.
        if self._order is None:
            for node in _children_first(self, lambda node: node._order is not None):
                node._order = (type(node).__name__,) + tuple(
                    f._order if isinstance(f, Expr) else f for f in node._key())
        return self._order

    def __add__(self, other):
        return _add(self, other)

    def __mul__(self, other):
        return _mul(self, other)


class Const(Expr):
    _fields = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def _apply(self, x):
        return np.full(np.shape(x), self.value)

    def _diff(self):
        return Const(0.0)

    def is_const(self, value=None):
        return value is None or self.value == value

    def _text(self):
        return repr(self.value)


class Var(Expr):
    def _apply(self, x):
        return np.asarray(x, dtype=float)

    def _diff(self):
        return Const(1.0)

    def _text(self):
        return "x"


class Add(Expr):
    _fields = ("a", "b")

    def _apply(self, x, a, b):
        return a + b

    def _diff(self):
        return _add(self.a.diff(), self.b.diff())

    def _text(self, a, b):
        return f"({a} + {b})"


class Mul(Expr):
    _fields = ("a", "b")

    def _apply(self, x, a, b):
        return a * b

    def _diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))

    def _text(self, a, b):
        return f"({a} * {b})"


class Pow(Expr):
    """Power with a constant exponent; the restriction keeps diff closed-form."""

    _fields = ("base", "exponent")

    def __init__(self, base, exponent: float):
        super().__init__(base, float(exponent))

    def _apply(self, x, base):
        return base ** self.exponent

    def _diff(self):
        c = self.exponent
        if c == 1:
            return self.base.diff()
        return _mul(_mul(Const(c), Pow(self.base, c - 1)), self.base.diff())

    def _text(self, base):
        return f"({base} ^ {self.exponent!r})"


class Func(Expr):
    """``name(a)`` for a function of the grammar: ``sin``, ``cos`` or ``exp``."""

    _fields = ("name", "a")

    def _apply(self, x, a):
        return _VALUES[self.name](a)

    def _diff(self):
        # chain rule: name'(a) * a'
        return _mul(_DERIVATIVES[self.name](self.a), self.a.diff())

    def _text(self, a):
        return f"{self.name}({a})"


_VALUES = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_DERIVATIVES = {
    "sin": lambda a: Func("cos", a),
    "cos": lambda a: _mul(Const(-1.0), Func("sin", a)),
    "exp": lambda a: Func("exp", a),
}


def _children_first(root, done):
    """Yield the nodes under ``root``, each once and after its children.

    A node for which ``done(node)`` holds is skipped with its subtree.  The
    walk keeps its own stack, so it takes one frame at any depth.
    """
    stack, seen = [(root, False)], set()
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        elif id(node) not in seen and not done(node):
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node._children()))


def _fold(root, combine):
    """The root's ``combine(node, *results of its children)``, each node's computed once."""
    results = {}
    for node in _children_first(root, lambda node: False):
        results[id(node)] = combine(node, *(results[id(c)] for c in node._children()))
    return results[id(root)]


def _add(a, b):
    if a.is_const(0.0):
        return b
    if b.is_const(0.0):
        return a
    if a.is_const() and b.is_const():
        return Const(a.value + b.value)
    if b._order_key() < a._order_key():
        # canonical operand order, so that ``x + 1`` and ``1 + x`` build equal
        # trees; IEEE + commutes exactly, so no value changes
        a, b = b, a
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
    if b._order_key() < a._order_key():
        # canonical operand order, as in _add; IEEE * commutes exactly
        a, b = b, a
    return Mul(a, b)


def _nesting(tree) -> int:
    # the depth of a syntax tree, walked level by level without recursion
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [child for node in level for child in ast.iter_child_nodes(node)]
    return depth


def _convert(node, source):
    # One Python frame per nesting level, so a tree within MAX_NESTING
    # converts from any caller.  Every constant built here, written or
    # folded, must be a finite real.
    try:
        if isinstance(node, ast.Expression):
            expr = _convert(node.body, source)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ExpressionError(f"non-numeric constant {node.value!r} in {source!r}")
            expr = Const(node.value)
        elif isinstance(node, ast.Name):
            if node.id != "x":
                raise ExpressionError(
                    f"unknown name {node.id!r} in {source!r} (only 'x' is allowed)"
                )
            expr = Var()
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            expr = _mul(Const(-1.0), _convert(node.operand, source))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            expr = _add(_convert(node.left, source), _convert(node.right, source))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            expr = _mul(_convert(node.left, source), _convert(node.right, source))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = _convert(node.right, source)
            if not exponent.is_const():
                raise ExpressionError(
                    f"exponent must be a constant in {source!r} "
                    f"(got {ast.get_source_segment(source, node.right)!r})"
                )
            base = _convert(node.left, source)
            if base.is_const():
                value = base.value**exponent.value  # complex for (-1)^0.5
                expr = Const(value if isinstance(value, float) else math.nan)
            else:
                expr = Pow(base, exponent.value)
        elif isinstance(node, ast.BinOp):
            raise ExpressionError(
                f"operator {type(node.op).__name__} not in the grammar "
                f"(allowed: +, *, ^) in {source!r}"
            )
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _VALUES
                    and len(node.args) == 1 and not node.keywords):
                raise ExpressionError(
                    f"only sin(...), cos(...), exp(...) calls are allowed in {source!r}"
                )
            expr = Func(node.func.id, _convert(node.args[0], source))
        else:
            raise ExpressionError(
                f"syntax element {type(node).__name__} not in the grammar in {source!r}"
            )
    except ArithmeticError:  # a pole, or an overflow on the way to a float
        expr = Const(math.nan)
    if expr.is_const() and not math.isfinite(expr.value):
        raise ExpressionError(f"constant in {source!r} is not a finite real number")
    return expr


def parse_expression(source) -> Expr:
    """Parse an expression string (or bare number) into an :class:`Expr`.

    Raises :class:`ExpressionError` with position information on malformed
    input, on a constant that is not a finite real number, and on input whose
    syntax tree is more than ``MAX_NESTING`` levels deep (a sum of 480
    terms).  The bound is checked before the tree is converted, so the same
    strings parse or fail from any caller.
    """
    if isinstance(source, (int, float)) and not isinstance(source, bool):
        return _convert(ast.Constant(source), repr(source))
    if not isinstance(source, str):
        raise ExpressionError(f"expected an expression string, got {type(source).__name__}")
    # '^' is exponentiation in this grammar; '**' is not part of it.
    if "**" in source:
        raise ExpressionError(f"use '^' for powers, not '**', in {source!r}")
    translated = source.replace("^", "**")
    try:
        tree = ast.parse(translated, mode="eval")
    except SyntaxError as exc:
        lineno = exc.lineno or 1
        column = _source_column(source.split("\n")[lineno - 1], exc.offset)
        raise ExpressionError(
            f"cannot parse {source!r}: {exc.msg} at line {lineno}, column {column}"
        ) from None
    except RecursionError:  # ast.parse's own depth limit, far deeper than MAX_NESTING
        tree = None
    if tree is None or _nesting(tree) > MAX_NESTING:
        raise ExpressionError(f"expression of {len(source)} characters nests too deeply to parse")
    return _convert(tree, source)


def _source_column(line: str, offset) -> int:
    """1-based column in ``line`` of a syntax error at ``offset`` of its translation.

    Each '^' is two characters ('**') in the parsed text.  An offset of 0 or
    past the end (Python's report when the input ends mid-expression) maps to
    one past the last character.
    """
    cols = [i + 1 for i, ch in enumerate(line) for _ in range(2 if ch == "^" else 1)]
    return cols[offset - 1] if 0 < (offset or 0) <= len(cols) else len(line) + 1


def evaluate_finite(expr: Expr, x, kind: str, label) -> np.ndarray:
    """``expr`` on ``x``, broadcast to its shape.

    Raises :class:`EvaluationError` naming ``kind``, ``label`` and the first
    point where the value is not finite, with numpy's warnings silenced.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = np.broadcast_to(np.asarray(expr(x), dtype=float), x.shape)
    bad = ~np.isfinite(out)
    if bad.any():
        raise EvaluationError(f"{kind} {label!r} is not finite at x = {float(x[bad][0])!r}")
    return out
