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


def test_structural_equality_and_cached_derivatives():
    e = parse_expression("x*sin(x) + 2")
    assert e == parse_expression("x * sin(x) + 2.0")
    assert hash(e) == hash(parse_expression("x * sin(x) + 2.0"))
    assert e != parse_expression("sin(x)*x + 2")
    assert parse_expression("cos(x)") != parse_expression("sin(x)")
    assert e.diff(3) is e.diff().diff().diff()
    x = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(e.diff(2)(x), 2 * np.cos(x) - x * np.sin(x), rtol=1e-14)
    assert e.diff(0) is e
