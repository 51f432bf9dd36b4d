import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpops.errors import ExpressionError
from gpops.expressions import parse_expression


def test_basic_values():
    assert parse_expression("1")(0.0) == 1.0
    assert parse_expression("x")(3.5) == 3.5
    assert parse_expression("x^2")(3.0) == 9.0
    assert parse_expression("2*x + 1")(2.0) == 5.0
    assert parse_expression("-1.5")(0.0) == -1.5
    assert parse_expression("(-2)^3")(0.0) == -8.0
    assert parse_expression("sin(x)")(0.0) == 0.0
    assert np.isclose(parse_expression("cos(x)")(0.0), 1.0)
    assert np.isclose(parse_expression("exp(x)")(1.0), np.e)


def test_precedence():
    # ^ binds tighter than *, which binds tighter than +
    assert parse_expression("2*x^2")(3.0) == 18.0
    assert parse_expression("1 + 2*x")(3.0) == 7.0
    assert parse_expression("2^3^2")(0.0) == 512.0  # right-associative


def test_vectorized_evaluation():
    x = np.linspace(-1, 1, 11)
    f = parse_expression("sin(2*x) + x^2")
    np.testing.assert_allclose(f(x), np.sin(2 * x) + x**2, rtol=1e-15)


def test_accepts_bare_numbers():
    assert parse_expression(2)(123.0) == 2.0
    assert parse_expression(0.25)(0.0) == 0.25


def test_symbolic_derivatives():
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(parse_expression("sin(x)").diff()(x), np.cos(x), rtol=1e-15)
    np.testing.assert_allclose(parse_expression("x^3").diff()(x), 3 * x**2, rtol=1e-15)
    np.testing.assert_allclose(
        parse_expression("x*sin(x)").diff()(x), np.sin(x) + x * np.cos(x), rtol=1e-14
    )
    np.testing.assert_allclose(
        parse_expression("exp(2*x)").diff()(x), 2 * np.exp(2 * x), rtol=1e-14
    )


def test_derivative_of_constant_vanishes():
    d = parse_expression("3.5").diff()
    assert np.all(d(np.arange(4.0)) == 0.0)


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.floats(-2, 2, allow_nan=False))
def test_quadratic_derivative_matches_calculus(a, b, c, x):
    f = parse_expression(f"{a} + {b}*x + {c}*x^2")
    assert f.diff()(x) == pytest.approx(b + 2 * c * x, abs=1e-10)


@pytest.mark.parametrize("bad", [
    "x**2",          # ** is not in the grammar
    "y",             # unknown name
    "sin(x, x)",     # wrong arity
    "x^x",           # non-constant exponent
    "1/2",           # no division
    "x -",           # syntax error
    "tan(x)",        # unknown function
    "'a'",           # non-numeric constant
])
def test_rejects_out_of_grammar(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


@pytest.mark.parametrize("bad", [
    "(-1)^0.5",      # a complex power
    "0^-1",          # a pole
    "10^400",        # a power past the float range
    "1e999",         # a literal that reads as inf
    pytest.param("1" + "0" * 400, id="integer-literal-past-the-float-range"),
    "1e308*10",      # a product that folds to inf
    "1e308 + 1e308", # a sum that folds to inf
    "-1e999*x",      # inside a larger expression
    "x^1e999",       # an exponent
    float("inf"),
    float("nan"),
    pytest.param(10**400, id="integer-past-the-float-range"),
])
def test_rejects_constants_that_are_not_finite_reals(bad):
    with pytest.raises(ExpressionError, match="not a finite real number"):
        parse_expression(bad)


@pytest.mark.parametrize("deep", [" + ".join(["x"] * 5000), "-" * 5000 + "x",
                                  " + ".join(["x"] * 600)],
                         ids=["5000-term-sum", "5000-unary-minuses", "600-term-sum"])
def test_rejects_expressions_nested_past_the_recursion_limit(deep):
    # the first two are thousands of levels deep, where ast.parse may stop at
    # its own recursion limit; the third, 600 levels, parses and is past
    # MAX_NESTING.  Each is refused with the same one-line message
    with pytest.raises(ExpressionError, match=f"^expression of {len(deep)} characters "
                                              "nests too deeply to parse$"):
        parse_expression(deep)


def _from_deep_caller(frames, fn):
    # fn() called under ``frames`` further Python frames
    return fn() if frames == 0 else _from_deep_caller(frames - 1, fn)


@pytest.mark.parametrize("terms", [480, 481, 600])
def test_nesting_bound_does_not_depend_on_the_caller(terms):
    # a sum of 480 terms is MAX_NESTING levels deep; the same strings parse,
    # or fail with the same message, 200 frames further down
    source = " + ".join(["x"] * terms)
    outcomes = []
    for frames in (0, 200):
        try:
            expr = _from_deep_caller(frames, lambda: parse_expression(source))
            outcomes.append(type(expr).__name__)
        except ExpressionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("Add" if terms <= 480 else
                           f"expression of {len(source)} characters nests too deeply to parse")


def test_canonical_order_of_a_deep_tree_does_not_depend_on_the_caller():
    # the 199-deep chain is ordered against `1` when the sum is built; that
    # walk keeps its own stack, so it parses 600 frames down as at the top
    source = "sin(" * 199 + "x" + ")" * 199 + " + 1"
    deep = _from_deep_caller(600, lambda: parse_expression(source))
    top = parse_expression(source)
    assert deep == top
    assert hash(deep) == hash(top)


def test_structural_equality_and_cached_derivatives():
    e = parse_expression("x*sin(x) + 2")
    assert e == parse_expression("x * sin(x) + 2.0")
    assert hash(e) == hash(parse_expression("x * sin(x) + 2.0"))
    assert e == parse_expression("sin(x)*x + 2")
    assert parse_expression("cos(x)") != parse_expression("sin(x)")
    assert e.diff(3) is e.diff().diff().diff()
    x = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(e.diff(2)(x), 2 * np.cos(x) - x * np.sin(x), rtol=1e-14)
    assert e.diff(0) is e
