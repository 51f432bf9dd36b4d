"""Kernel tables as one weighted derivative series against the per-order reference.

Every table is ``sum_g c1_g(x1) sum_m g_m(x2) f^(m)(x1 - x2)``, summed by
one recurrence per row group under one envelope.  The reference
(``tests/kernel_reference.py``) forms every profile order as a table of its
own and multiplies it by a table of weights.  The two agree to 1e-14 of
each table's maximum.  Measured over the cases below: at worst 1.3e-15 for
SE (ell = 0.01), 4.7e-16 for the benchmark operators, and the Matern
partials bit for bit.
"""

import numpy as np
import pytest

from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.linalg import gram
from gpops.operators import ARG1, ARG2, LinearOperator, apply_arg, derivative_operator
from kernel_reference import matern_profile, reference_table, se_profile

TOL = 1e-14


def partial(k, d1, d2):
    return apply_arg(derivative_operator(d1), ARG1, apply_arg(derivative_operator(d2), ARG2, k))


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("ell", [0.01, 0.1, 0.5, 1.0, 3.0])
def test_se_partials_agree_with_the_per_order_reference(ell):
    # every partial pair up to (32, 32), variance 2, on 401 points over
    # +-6 ell; the reference of one pair is its signed profile order, the
    # per-order sum with the one weight (-1)^d2
    k = se_kernel(ell, 2.0)
    s = np.linspace(-6.0 * ell, 6.0 * ell, 401)
    f = se_profile(ell, 2.0)(s, 64)
    for d1 in range(33):
        for d2 in range(33):
            got = partial(k, d1, d2)(s, 0.0)
            assert relative_error(got, (-1.0) ** d2 * f[d1 + d2]) <= TOL, (d1, d2)


@pytest.mark.parametrize("nu", [1.5, 2.5, 3.5])
def test_matern_partials_agree_with_the_per_order_reference(nu):
    # every pair within the budget, on 401 points over +-6 ell, across the
    # kink at s = 0
    k = matern_kernel(nu, 0.7, 1.3)
    s = np.linspace(-4.2, 4.2, 401)
    p = k.sample_smoothness
    f = matern_profile(nu, 0.7, 1.3)(s, 2 * p)
    for d1 in range(p + 1):
        for d2 in range(p + 1):
            got = partial(k, d1, d2)(s, 0.0)
            assert relative_error(got, (-1.0) ** d2 * f[d1 + d2]) <= TOL, (d1, d2)


@pytest.mark.parametrize("name, op, n", [
    ("verify-small", LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")]), 33),
    ("solve-colloc", LinearOperator([(2, 1.0), (1, "x"), (0, 1.0)]), 401),
])
def test_benchmark_operator_tables_agree_with_the_per_order_reference(name, op, n):
    # T1 k, T2 k and T1 T2 k of the benchmark's SE prior on its grid, and the
    # image Gram, whose lower triangle fill_lower tabulates
    k, profile = se_kernel(0.5), se_profile(0.5, 1.0)
    x = Grid.uniform_on(0.0, 1.0, n).points
    x1, x2 = x[:, None], x[None, :]
    t2k = apply_arg(op, ARG2, k)
    for bf in (apply_arg(op, ARG1, k), t2k, apply_arg(op, ARG1, t2k)):
        want = reference_table(bf, profile, x1, x2)
        assert relative_error(bf(x1, x2), want) <= TOL
    image = apply_arg(op, ARG1, t2k)
    lower = np.tri(n, dtype=bool)
    want = reference_table(image, profile, x1, x2)
    assert relative_error(gram(image, Grid(x))[lower], want[lower]) <= TOL


def test_prescaled_series_of_a_large_coefficient_is_finite():
    # 1e154 d/dx on both arguments: T1 T2 k = 1e308 (1 - t^2) exp(-t^2 / 2),
    # finite, with |t| up to 30 on the grid.  Unscaled, the series would
    # reach -1e308 t^2 = -inf before its envelope; its coefficients are
    # scaled by 2^-1023 first and the table by 2^1023 last
    op = LinearOperator([(1, 1.0e154)])
    bf = apply_arg(op, ARG1, apply_arg(op, ARG2, se_kernel(1.0)))
    grid = Grid.uniform_on(0.0, 30.0, 61)
    x = grid.points
    table = bf(x[:, None], x[None, :])
    assert np.isfinite(table).all()
    t = x[:, None] - x[None, :]
    want = 1.0e308 * ((1.0 - t * t) * np.exp(-0.5 * t * t))
    assert relative_error(table, want) <= TOL
    g = gram(bf, grid)
    assert np.isfinite(g).all() and np.array_equal(g, g.T)
