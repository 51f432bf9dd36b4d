"""Operator algebra: application to functions and kernel arguments.

Derived expectations are produced by plain nested finite differences of the
raw evaluators inside the tests, so the checks do not reuse the library's own
derivative bookkeeping.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpops import operators
from gpops.errors import DomainViolationError, EvaluationError, ParameterError
from gpops.expressions import Const, Expr
from gpops.grids import Grid
from gpops.kernels import MATERN_ORDERS, matern_kernel, se_kernel
from gpops.means import mean_from_expression
from gpops.operators import (ARG1, ARG2, KernelBifunction, LinearOperator, add, apply_arg,
                             apply_both, apply_to_function, commutator_residual,
                             compose, derivative_operator, identity, scale)

from fd_reference import bifunction_fd, commutator_residual_fd

D1 = derivative_operator(1)
D2 = derivative_operator(2)
XDX = LinearOperator([(1, "x")], label="x*d/dx")
XDX_PLUS_1 = LinearOperator([(1, "x"), (0, 1.0)], label="x*d/dx + 1")


def central(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def nested_partial11(k, x1, x2, h=1e-4):
    def inner(a):
        return (k(a, x2 + h) - k(a, x2 - h)) / (2 * h)

    return (inner(x1 + h) - inner(x1 - h)) / (2 * h)


# ----------------------------------------------------- operator structure

def test_operator_construction_and_order():
    assert D1.order == 1
    assert identity().order == 0
    assert identity().terms == ((0, Const(1.0)),)
    op = LinearOperator([(2, 1.0), (0, "sin(x)"), (2, 2.0)])
    assert op.order == 2
    assert len(op.terms) == 2  # duplicate orders merged


def test_zero_coefficients_dropped():
    op = LinearOperator([(3, 0.0), (1, 1.0)])
    assert op.order == 1


def test_operators_compare_by_value():
    assert derivative_operator(1) == derivative_operator(1)
    assert hash(derivative_operator(1)) == hash(derivative_operator(1))
    assert compose(D1, D1) == derivative_operator(2)
    assert hash(compose(D1, D1)) == hash(derivative_operator(2))
    assert LinearOperator([(1, "1")], label="slope") == D1  # the label is ignored
    assert LinearOperator([(1, "x")]) == XDX
    assert LinearOperator([(1, "2*x")]) != XDX
    assert LinearOperator([(1, 2.0)]) != D1
    assert XDX_PLUS_1 != XDX
    assert len({D1, derivative_operator(1), compose(identity(), D1)}) == 1


def test_coefficients_are_expressions():
    op = LinearOperator([(1, "x"), (0, 2)])
    assert all(isinstance(c, Expr) for _, c in op.terms)
    with pytest.raises(ParameterError):
        LinearOperator([(1, mean_from_expression("x"))])


def test_order_must_be_an_integer():
    for order in (1.5, 1.0, 0.0, "2", True, False, None):
        with pytest.raises(ParameterError, match="must be an integer >= 0"):
            LinearOperator([(order, 1.0)])
        with pytest.raises(ParameterError, match="must be an integer >= 0"):
            derivative_operator(order)
    # any integer type is an order
    assert derivative_operator(np.int64(2)) == derivative_operator(2)
    assert LinearOperator([(np.int32(1), "x")]) == XDX
    with pytest.raises(ParameterError, match="must be an integer >= 0"):
        derivative_operator(-1)


@pytest.mark.parametrize("coefficient", [
    float("nan"), float("inf"), -float("inf"),
    pytest.param(10**400, id="integer-past-the-float-range"),
])
def test_numeric_coefficient_must_be_finite(coefficient):
    with pytest.raises(ParameterError, match="not a finite number"):
        LinearOperator([(1, coefficient)])


def test_scale_factor_must_be_a_finite_real():
    # a scale factor multiplies every coefficient, so it is checked like one
    for factor in (float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ParameterError, match="not a finite number"):
            scale(factor, D1)
        with pytest.raises(ParameterError, match="not a finite number"):
            factor * D1
    for factor in ("2", "x", None):
        with pytest.raises(ParameterError, match="must be a real number"):
            scale(factor, D1)
    assert scale(np.int64(3), D1) == LinearOperator([(1, 3.0)])
    assert (0.5 * XDX).terms == LinearOperator([(1, "0.5*x")]).terms


# ------------------------------------------------- application to functions

def test_apply_to_function_polynomial():
    f = mean_from_expression("x^2")
    g = apply_to_function(D1, f)
    assert g(3.0) == pytest.approx(6.0, rel=1e-14)


def test_apply_identity_is_pointwise_identical():
    f = mean_from_expression("sin(x) + x^2")
    g = apply_to_function(identity(), f)
    x = np.linspace(-2, 2, 21)
    np.testing.assert_array_equal(g(x), f(x))


def test_apply_first_order_with_coefficient():
    # (x d/dx + 1) sin = x cos(x) + sin(x); FD oracle confirms the value at 0
    f = mean_from_expression("sin(x)")
    g = apply_to_function(XDX_PLUS_1, f)
    oracle = 0.0 * central(np.sin, 0.0) + np.sin(0.0)
    assert g(0.0) == pytest.approx(oracle, abs=1e-12)
    assert g(0.0) == pytest.approx(0.0, abs=1e-15)
    x = 0.7
    assert g(x) == pytest.approx(x * math.cos(x) + math.sin(x), rel=1e-12)


def test_result_smoothness_drops_by_order():
    # kernels track the derivative budget via sample_smoothness
    k = matern_kernel(3.5, 1.0, 1.0)
    assert k.sample_smoothness == 3
    assert apply_both(D2, k).sample_smoothness == 1


# -------------------------------------------------- application to kernels

def test_apply_arg_zero_lag_odd_term_vanishes():
    k = se_kernel(1.0, 1.0)
    t2k = apply_arg(D1, ARG2, k)
    assert t2k(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_apply_arg_value_from_fd_oracle():
    # d k / d x2 at (0, 1): the oracle decides the sign, not hand algebra.
    k = se_kernel(1.0, 1.0)
    h = 1e-6
    oracle = (k(0.0, 1.0 + h) - k(0.0, 1.0 - h)) / (2 * h)
    t2k = apply_arg(D1, ARG2, k)
    assert t2k(0.0, 1.0) == pytest.approx(oracle, abs=1e-9)
    assert t2k(0.0, 1.0) == pytest.approx(-math.exp(-0.5), rel=1e-12)


def test_apply_arg_rejects_rough_kernel():
    k = matern_kernel(0.5, 1.0, 1.0)
    for slot in (ARG1, ARG2):
        with pytest.raises(DomainViolationError):
            apply_arg(D1, slot, k)


def test_apply_both_identity_unchanged():
    k = se_kernel(1.0, 1.0)
    bf = apply_both(identity(), k)
    x1, x2 = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
    np.testing.assert_allclose(bf(x1, x2), k(x1, x2), rtol=0, atol=0)


def test_apply_both_matches_nested_fd_oracle():
    for ell, expected in ((1.0, 1.0), (2.0, 0.25)):
        k = se_kernel(ell, 1.0)
        oracle = nested_partial11(k, 0.0, 0.0)
        got = apply_both(D1, k)(0.0, 0.0)
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got == pytest.approx(expected, rel=1e-12)


def test_remaining_budget_bookkeeping():
    k = matern_kernel(2.5, 1.0, 1.0)  # sample smoothness 2
    bf = apply_arg(D2, ARG2, k)
    assert bf.remaining_budget(ARG2) == 0
    assert bf.remaining_budget(ARG1) == 2
    with pytest.raises(DomainViolationError):
        apply_arg(D1, ARG2, bf)  # second-argument budget exhausted
    apply_arg(D2, ARG1, bf)  # first argument still has budget


def test_forced_fd_path_matches_closed_form():
    bf = apply_both(D1, se_kernel(1.0, 1.0))
    pts = np.linspace(0, 1, 9)
    diff = np.abs(bf(pts[:, None], pts[None, :]) - bifunction_fd(bf, pts[:, None], pts[None, :]))
    assert diff.max() <= 1e-6


def test_no_silent_fd_within_the_smoothness_budget():
    # every partial an operator application can reach is closed-form, and the
    # package has no finite-difference path for kernels that one could take
    assert not hasattr(operators, "fd_mixed_partial")
    assert not hasattr(KernelBifunction, "fd")
    x = np.linspace(-1.0, 1.0, 9)
    cases = [(se_kernel(0.5, 1.0), q) for q in range(1, 5)]
    materns = [matern_kernel(nu, 0.8, 1.0) for nu in MATERN_ORDERS]
    cases += [(k, k.sample_smoothness) for k in materns]
    for k, q in cases:
        op = LinearOperator([(q, "1 + x^2"), (0, 1.0)])
        values = apply_both(op, k)(x[:, None], x[None, :])
        assert np.all(np.isfinite(values))


def test_key_beyond_the_profile_raises_evaluation_error():
    # apply_arg never builds such a key (the smoothness guard stops it first);
    # only a directly constructed bifunction can ask for one
    k = matern_kernel(2.5, 1.0, 1.0)  # profile order 2p = 4
    one = Const(1.0)
    KernelBifunction(k.base, [(2, one)], [(2, one)])
    with pytest.raises(EvaluationError):
        KernelBifunction(k.base, [(0, one), (3, one)], [(0, one), (2, one)])


# ------------------------------------------------------------- commutation

def test_commutator_identity_exact_zero():
    g = Grid.uniform_on(0, 1, 9)
    assert commutator_residual(identity(), se_kernel(1, 1), g) == 0.0
    assert commutator_residual_fd(identity(), se_kernel(1, 1), g) == 0.0


def test_commutator_closed_path():
    g = Grid.uniform_on(0, 1, 33)
    assert commutator_residual(D1, se_kernel(1, 1), g) == 0.0


def test_commutator_fd_path_with_variable_coefficient():
    g = Grid.uniform_on(0, 1, 33)
    assert commutator_residual_fd(XDX, se_kernel(1, 1), g) <= 1e-4


X_COEFFICIENTS = ["x", "1 + x^2", "cos(x)", "exp(-0.5*x)", "sin(2*x) + x", "-3*x^2"]


def _term_multiset(bf):
    return Counter(((d1, d2), c1, c2) for d1, c1 in bf.terms1 for d2, c2 in bf.terms2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(X_COEFFICIENTS)),
                min_size=1, max_size=3),
       st.sampled_from(["se", "matern52"]))
def test_argument_applications_commute_by_construction(terms, kernel):
    # An operator on argument 1 touches only c1 and the first partial order,
    # one on argument 2 only c2 and the second, so both application orders
    # build the same (key, c1, c2) multiset, in the same order: the tables
    # are equal bit for bit.
    op = LinearOperator(terms)
    k = se_kernel(0.5, 1.0) if kernel == "se" else matern_kernel(2.5, 0.5, 1.0)
    a12 = apply_arg(op, ARG1, apply_arg(op, ARG2, k))
    a21 = apply_arg(op, ARG2, apply_arg(op, ARG1, k))
    assert _term_multiset(a12) == _term_multiset(a21)
    x = Grid.uniform_on(-1.0, 1.0, 33).points
    assert np.array_equal(a12(x[:, None], x[None, :]), a21(x[:, None], x[None, :]))


VERIFY_SMALL = LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")])


@pytest.mark.parametrize("op", [XDX_PLUS_1, VERIFY_SMALL], ids=["x*d/dx+1", "three-term"])
@pytest.mark.parametrize("k", [se_kernel(0.5, 1.0), matern_kernel(2.5, 0.5, 1.0)],
                         ids=["se", "matern52"])
def test_both_application_orders_build_one_kernel(op, k):
    # each argument carries one operator, and applying op to an argument
    # composes op with it; both orders compose op onto the identity in each
    # argument, so they build the same kernel and the residual is exactly 0
    a12 = apply_arg(op, ARG1, apply_arg(op, ARG2, k))
    a21 = apply_arg(op, ARG2, apply_arg(op, ARG1, k))
    assert (a12.terms1, a12.terms2) == (a21.terms1, a21.terms2) == (op.terms, op.terms)
    g = Grid.uniform_on(-1.0, 1.0, 33)
    x1, x2 = g.points[:, None], g.points[None, :]
    assert np.array_equal(a12(x1, x2), a21(x1, x2))
    assert commutator_residual(op, k, g) == 0.0


def test_mixed_partial_orders_interchange_pointwise():
    # The analytic content behind the residual: nested one-argument FD in the
    # two possible orders agrees with the closed-form mixed partial.
    k = se_kernel(1.0, 1.0)
    h = 1e-4
    pts = [(0.0, 0.5), (0.3, 0.9), (-1.0, 0.2)]
    closed = apply_both(D1, k)
    for x1, x2 in pts:
        d12 = ((k(x1 + h, x2 + h) - k(x1 + h, x2 - h))
               - (k(x1 - h, x2 + h) - k(x1 - h, x2 - h))) / (4 * h * h)
        assert closed(x1, x2) == pytest.approx(d12, abs=1e-6)


def test_slot_independence_pointwise():
    k = se_kernel(1.0, 1.0)
    a = apply_arg(XDX_PLUS_1, ARG1, apply_arg(XDX_PLUS_1, ARG2, k))
    b = apply_arg(XDX_PLUS_1, ARG2, apply_arg(XDX_PLUS_1, ARG1, k))
    x = np.linspace(0, 1, 17)
    va, vb = a(x[:, None], x[None, :]), b(x[:, None], x[None, :])
    assert np.max(np.abs(va - vb)) <= 1e-12


def test_transformed_kernel_symmetric_output():
    x = np.linspace(0, 1, 17)
    for k in (se_kernel(1, 1), matern_kernel(2.5, 1, 1)):
        bf = apply_both(XDX_PLUS_1, k)
        v = bf(x[:, None], x[None, :])
        assert np.max(np.abs(v - v.T)) <= 1e-12


# --------------------------------------------------------------- algebra

def test_compose_pure_derivatives():
    dd = compose(D1, D1)
    assert dd.order == 2
    f = mean_from_expression("x^3")
    assert apply_to_function(dd, f)(1.0) == pytest.approx(6.0, rel=1e-13)


def test_add_operators():
    op = add(D1, identity())
    f = mean_from_expression("exp(x)")
    assert apply_to_function(op, f)(0.0) == pytest.approx(2.0, rel=1e-13)


def test_compose_with_variable_coefficient_leibniz():
    # (x d/dx) o (d/dx) = x d^2/dx^2; cross-checked by a nested FD oracle
    op = compose(XDX, D1)
    assert op.order == 2
    f = mean_from_expression("x^2")
    got = apply_to_function(op, f)(1.0)

    def fprime(x):
        return central(lambda t: t**2, x, h=1e-5)

    oracle = 1.0 * central(fprime, 1.0, h=1e-4)
    assert got == pytest.approx(oracle, abs=1e-5)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_compose_differentiates_inner_coefficients():
    # (d/dx) o (x d/dx) = x d^2/dx^2 + d/dx by the product rule
    op = compose(D1, XDX)
    f = mean_from_expression("x^2")
    # at x = 1: 1 * 2 + 2 * 1 = 4
    assert apply_to_function(op, f)(1.0) == pytest.approx(4.0, rel=1e-12)


def test_compose_order_adds_and_guards_lazily():
    op = compose(D2, D1)
    assert op.order == 3
    # construction succeeded; the domain guard fires at application
    with pytest.raises(DomainViolationError):
        apply_arg(op, ARG2, matern_kernel(2.5, 1.0, 1.0))


def test_operator_sugar():
    f = mean_from_expression("exp(x)")
    assert apply_to_function(D1 + identity(), f)(0.0) == pytest.approx(2.0)
    assert apply_to_function(3.0 * D1, f)(0.0) == pytest.approx(3.0)
    assert apply_to_function(D1 @ D1, f)(0.0) == pytest.approx(1.0)


def test_mean_not_finite_where_evaluated_names_the_mean():
    # a named error, not a numpy warning, where a mean or its image has a pole
    f = mean_from_expression("x^-1")
    assert f(0.5) == 2.0
    with pytest.raises(EvaluationError, match=r"mean 'x\^-1' is not finite at x = 0.0"):
        f(np.array([0.5, 0.0, -1.0]))
    image = apply_to_function(LinearOperator([(1, "x^-0.5")]), mean_from_expression("sin(x)"))
    with pytest.raises(EvaluationError, match=r"x\^-0.5\*d/dx\[sin\(x\)\]' is not finite at x = -1.0"):
        image(np.array([[1.0, -1.0], [0.0, 2.0]]))


# ------------------------------------------------------ linearity properties

def _operator_catalog():
    return [identity(), D1, D2, XDX_PLUS_1]


def test_linearity_of_kernel_application_closed():
    rng = np.random.default_rng(5)
    k = se_kernel(1.0, 1.0)
    x1, x2 = rng.uniform(-1, 1, size=(2, 25))
    ops = _operator_catalog()
    for s in ops:
        for t in ops:
            both = apply_arg(add(s, t), ARG2, k)(x1, x2)
            split = apply_arg(s, ARG2, k)(x1, x2) + apply_arg(t, ARG2, k)(x1, x2)
            assert np.max(np.abs(both - split)) <= 1e-10
    for c in (-2.0, 0.5):
        scaled = apply_arg(scale(c, D1), ARG2, k)(x1, x2)
        direct = c * apply_arg(D1, ARG2, k)(x1, x2)
        assert np.max(np.abs(scaled - direct)) <= 1e-10


def test_linearity_on_fd_path():
    rng = np.random.default_rng(6)
    k = se_kernel(1.0, 1.0)
    x1, x2 = rng.uniform(-1, 1, size=(2, 10))
    both = bifunction_fd(apply_arg(add(D1, XDX_PLUS_1), ARG2, k), x1, x2)
    split = (bifunction_fd(apply_arg(D1, ARG2, k), x1, x2)
             + bifunction_fd(apply_arg(XDX_PLUS_1, ARG2, k), x1, x2))
    assert np.max(np.abs(both - split)) <= 1e-4


def test_linearity_of_function_application():
    rng = np.random.default_rng(7)
    f = mean_from_expression("sin(x)*exp(x)")
    x = rng.uniform(-1, 1, size=20)
    for s in _operator_catalog():
        for t in _operator_catalog():
            lhs = apply_to_function(add(s, t), f)(x)
            rhs = apply_to_function(s, f)(x) + apply_to_function(t, f)(x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_commuted_sums_are_equal_operators():
    a = LinearOperator([(1, "x + 1")])
    b = LinearOperator([(1, "1 + x")])
    assert a == b and hash(a) == hash(b)
    assert LinearOperator([(0, "cos(x) + x^2 + 2")]) == LinearOperator([(0, "2 + (x^2 + cos(x))")])
    # IEEE + commutes, so the canonical operand order leaves values unchanged
    x = np.linspace(-2.0, 2.0, 9)
    c = a.terms[0][1]
    assert np.array_equal(c(x), x + 1.0)
