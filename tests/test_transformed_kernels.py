"""Transformed kernels: the one-series evaluator against a per-term oracle.

``KernelBifunction`` sums every partial a transformed kernel needs as one
weighted derivative series per row group.  The oracle here is the plain
per-term sum ``sum c1(x1) c2(x2) * partial(d1, d2) k`` over the
bifunction's terms, with each base partial evaluated on its own as the
signed profile derivative ``(-1)^d2 f^(d1+d2)(x1 - x2)`` of the per-order
reference (``tests/kernel_reference.py``).  The two must agree to 1e-12
relative to max|value|.
"""

import tracemalloc

import numpy as np
import pytest

from gpops import kernels
from gpops.errors import DomainViolationError, ParameterError
from gpops.expressions import evaluate_finite
from gpops.kernels import matern_kernel, se_kernel
from gpops.means import zero_mean
from gpops.operators import (ARG1, ARG2, LinearOperator, apply_arg, compose,
                             derivative_operator)
from gpops.processes import GaussianProcessPrior
from gpops.transform import pushforward

from fd_reference import per_term_sum
from kernel_reference import matern_profile, se_profile, series_derivative

RNG_SEED = 20240917
RTOL = 1e-12

COEFFICIENTS = ["1", "-2", "x", "1 + x^2", "cos(x)", "exp(-0.5*x)", "sin(2*x) + x"]


def random_operator(rng, order):
    # top-order term always present; lower orders with probability 0.7
    terms = [(o, COEFFICIENTS[rng.integers(len(COEFFICIENTS))])
             for o in range(order + 1) if o == order or rng.random() < 0.7]
    return LinearOperator(terms)


# the per-order reference profile of each catalog base the tests build
PROFILES = {}


def se(ell, var):
    k = se_kernel(ell, var)
    PROFILES[k.base] = se_profile(ell, var)
    return k


def matern(nu, ell, var):
    k = matern_kernel(nu, ell, var)
    PROFILES[k.base] = matern_profile(nu, ell, var)
    return k


def per_term(bf, x1, x2):
    profile = PROFILES[bf.base]
    return per_term_sum(bf, x1, x2, lambda d1, d2: lambda a, b: (
        (-1.0) ** d2 * profile(a - b, d1 + d2)[d1 + d2]))


def outer_points():
    # more rows than one block holds, and not a whole number of blocks
    m = 64
    rows_per_block = kernels.BLOCK_ENTRIES // m
    n = 2 * rows_per_block + 37
    return np.linspace(-1.5, 1.5, n)[:, None], np.linspace(-1.2, 1.4, m)[None, :]


def assert_matches_per_term(bf):
    x1, x2 = outer_points()
    want = per_term(bf, x1, x2)
    scale = np.max(np.abs(want))
    assert scale > 0
    got = bf(x1, x2)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * scale

    x = np.linspace(-1.0, 1.0, 50)
    got = bf(x, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - per_term(bf, x, x))) <= RTOL * scale

    got = bf(0.3, -0.45)
    assert isinstance(got, float)
    assert abs(got - float(per_term(bf, np.float64(0.3), np.float64(-0.45)))) <= RTOL * scale


def transformed(k, rng, order1, order2):
    op1, op2 = random_operator(rng, order1), random_operator(rng, order2)
    return apply_arg(op1, ARG1, apply_arg(op2, ARG2, k))


@pytest.mark.parametrize("case", range(4))
def test_se_matches_per_term_sum(case):
    rng = np.random.default_rng([RNG_SEED, case])
    bf = transformed(se(0.7, 1.3), rng, int(rng.integers(0, 3)), 2)
    assert_matches_per_term(bf)


@pytest.mark.parametrize("nu", [1.5, 2.5, 3.5])
def test_matern_matches_per_term_sum(nu):
    k = matern(nu, 0.8, 1.1)
    p = k.sample_smoothness
    for case in range(2):
        rng = np.random.default_rng([RNG_SEED, int(2 * nu), case])
        assert_matches_per_term(transformed(k, rng, p, int(rng.integers(0, p + 1))))


def test_nested_pushforward_expands_onto_the_catalog_kernel():
    # an image kernel is a bifunction over the catalog kernel, so pushing the
    # image forward again keeps every key within the base profile
    rng = np.random.default_rng([RNG_SEED, 99])
    x1, x2 = outer_points()
    for k, inner_order, outer_order in ((se(0.6, 0.9), 2, 1),
                                        (matern(3.5, 1.1, 1.0), 1, 2)):
        prior = GaussianProcessPrior(mean=zero_mean(), kernel=k)
        t, s = random_operator(rng, inner_order), random_operator(rng, outer_order)
        nested = pushforward(pushforward(prior, t), s).kernel
        assert nested.base is k.base
        assert nested.order(ARG1) + nested.order(ARG2) <= 2 * k.sample_smoothness
        assert_matches_per_term(nested)
        want = pushforward(prior, compose(s, t)).kernel(x1, x2)
        assert np.max(np.abs(nested(x1, x2) - want)) <= RTOL * np.max(np.abs(want))


def test_se_keys_past_total_order_six_are_closed_form():
    # total order 3 + 4 = 7: the squared exponential's profile has no order
    # limit, so the top keys are summed in one series with the lower ones
    rng = np.random.default_rng([RNG_SEED, 7])
    k = se(0.9, 1.0)
    op2 = random_operator(rng, 2)
    bf = apply_arg(random_operator(rng, 3), ARG1, apply_arg(op2, ARG2, apply_arg(op2, ARG2, k)))
    assert bf.order(ARG1) + bf.order(ARG2) == 7
    assert min(d for d, _ in bf.terms1) + min(d for d, _ in bf.terms2) <= 6
    assert_matches_per_term(bf)


def test_catalog_partials_are_signed_profile_derivatives():
    # the bifunction of d^d1 on argument 1 and d^d2 on argument 2, for every
    # pair within the per-argument budget, is (-1)^d2 f^(d1+d2), bit for bit
    s = np.linspace(-2.0, 2.0, 41)
    for k in (se_kernel(0.7, 1.3), matern_kernel(2.5, 0.8, 1.1), matern_kernel(3.5, 0.6, 0.9)):
        top = min(2 * k.sample_smoothness, 9)  # the squared exponential has no top order
        derivs = [series_derivative(k, s, m) for m in range(top + 1)]
        assert np.array_equal(derivs[0], k(s, np.zeros_like(s)))
        budget = min(k.sample_smoothness, top)
        for d1 in range(budget + 1):
            for d2 in range(min(budget, top - d1) + 1):
                bf = apply_arg(derivative_operator(d1), ARG1,
                               apply_arg(derivative_operator(d2), ARG2, k))
                assert np.array_equal(bf(s, 0.0), (-1.0) ** d2 * derivs[d1 + d2])
        if top == 2 * k.sample_smoothness:
            with pytest.raises(DomainViolationError):
                apply_arg(derivative_operator(k.sample_smoothness + 1), ARG1, k)


def _square_block_size():
    # the n whose row block of the n x n table holds exactly n rows
    n = 1
    while kernels.BLOCK_ENTRIES // (n + 1) >= n + 1:
        n += 1
    return n


@pytest.mark.parametrize("size", ["1", "2", "step-1", "step", "step+1", "2002"])
@pytest.mark.parametrize("kernel", ["se", "matern"])
def test_fill_lower_is_the_lower_triangle_of_the_table(size, kernel):
    step = _square_block_size()
    n = {"1": 1, "2": 2, "step-1": step - 1, "step": step, "step+1": step + 1,
         "2002": 2002}[size]
    rng = np.random.default_rng([RNG_SEED, 13, n])
    k = se_kernel(0.4, 1.2) if kernel == "se" else matern_kernel(3.5, 0.5, 0.9)
    bf = transformed(k, rng, 2, 1)  # not symmetric, so the triangle is not a mirror
    x = np.sort(rng.uniform(-1.0, 1.0, n)) ** 3  # non-uniform spacing
    full = bf(x[:, None], x[None, :])
    sentinel = -7.25
    out = np.full((n, n), sentinel)
    assert bf.fill_lower(x, out) is out
    lower = np.tril_indices(n)
    assert np.array_equal(out[lower], full[lower])
    assert np.all(out[np.triu_indices(n, 1)] == sentinel)


def test_fill_lower_evaluates_each_coefficient_once(monkeypatch):
    # 2002 points are 126 row blocks; both coefficients of the second
    # argument's operator are the first's too, so the arguments share values
    evaluated = []

    def spy(expr, x, kind, label):
        evaluated.append(expr)
        return evaluate_finite(expr, x, kind, label)

    monkeypatch.setattr(kernels, "evaluate_finite", spy)
    op1 = LinearOperator([(2, "cos(x)"), (1, "x"), (0, "1 + x^2")])
    op2 = LinearOperator([(1, "x"), (0, "cos(x)")])
    bf = apply_arg(op1, ARG1, apply_arg(op2, ARG2, se_kernel(0.4, 1.2)))
    x = np.linspace(-1.0, 1.0, 2002)
    bf.fill_lower(x, np.empty((x.size, x.size)))
    assert sorted(map(repr, evaluated)) == ["(1.0 + (x ^ 2.0))", "cos(x)", "x"]


def _targets(shape, layout):
    # an empty table of ``shape`` in a layout, and the array it is a view of
    n, m = shape
    if layout in "CF":
        base = np.full(shape, -7.25, order=layout)
        return base, base
    if layout == "strided-F":
        # a column-major view with a leading dimension larger than its rows,
        # as the leading columns of a packed Gram are
        base = np.full((n + 3, m + 2), -7.25, order="F")
        return base[1:n + 1, 2:], base
    # a row-major view of a Fortran array, as the trailing triangle of a
    # packed Gram is
    base = np.full((m + 2, n + 3), -7.25, order="F")
    return base[2:, 1:n + 1].T, base


@pytest.mark.parametrize("layout", ["C", "F", "strided-F", "strided-T"])
@pytest.mark.parametrize("kernel", ["se", "matern"])
def test_call_and_fill_lower_give_the_same_bits_in_every_layout(layout, kernel):
    # the tables are tabulated along the slow axis of their target, out.T for
    # a column-major one, with the same arithmetic per entry
    rng = np.random.default_rng([RNG_SEED, 19])
    k = se_kernel(0.4, 1.2) if kernel == "se" else matern_kernel(3.5, 0.5, 0.9)
    bf = transformed(k, rng, 2, 1)
    step = _square_block_size()
    x = np.sort(rng.uniform(-1.0, 1.0, 2 * step + 5)) ** 3
    y = np.sort(rng.uniform(-1.0, 1.0, step + 3))
    full = bf(x[:, None], x[None, :])
    rect = bf(x[:, None], y[None, :])

    out, base = _targets(rect.shape, layout)
    assert bf(x[:, None], y[None, :], out=out) is out
    assert np.array_equal(out, rect)
    out, base = _targets(full.shape, layout)
    before = base.copy()
    assert bf.fill_lower(x, out) is out
    lower, upper = np.tril_indices(x.size), np.triu_indices(x.size, 1)
    assert np.array_equal(out[lower], full[lower])
    assert np.all(out[upper] == -7.25)
    # nothing outside the view is written
    out[...] = -7.25
    assert np.array_equal(base, before)


def test_tabulating_into_a_fortran_target_holds_only_block_temporaries():
    # a column-major 2000 x 2000 target is tabulated as its transpose, a few
    # blocks at a time: measured 8 blocks of BLOCK_ENTRIES doubles at the
    # traced peak (2.0 MB), for the full table and its lower triangle alike,
    # against 32 MB for a temporary of the whole table
    op = LinearOperator([(2, 1.0), (1, "x"), (0, 1.0)])
    bf = apply_arg(op, ARG1, apply_arg(op, ARG2, se_kernel(0.5)))
    x = np.linspace(0.0, 1.0, 2000)
    out = np.empty((2000, 2000), order="F")
    bf.fill_lower(x, out)  # warm-up: first-call caches are not counted
    for fill in (lambda: bf.fill_lower(x, out), lambda: bf(x[:, None], x[None, :], out=out)):
        tracemalloc.start()
        try:
            fill()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * kernels.BLOCK_ENTRIES


def test_call_writes_into_a_given_out_array():
    rng = np.random.default_rng([RNG_SEED, 17])
    bf = transformed(se_kernel(0.6, 1.0), rng, 1, 2)
    x1, x2 = outer_points()
    target = np.full((x1.shape[0], x2.shape[1] + 3), np.nan)
    view = target[:, 1:-2]
    assert bf(x1, x2, out=view) is view
    assert np.array_equal(view, bf(x1, x2))
    assert np.isnan(target[:, [0, -2, -1]]).all()
    with pytest.raises(ParameterError):
        bf(x1, x2, out=target)
