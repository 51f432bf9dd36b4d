"""Kernel catalog: values, symmetry, positive semidefiniteness, derivatives.

Derivative oracles are independent of the implementation: the squared
exponential is checked against sympy's symbolic differentiation, the Matern
family against high-precision finite differences (mpmath) of a separate
re-implementation of the textbook formula, and the zero-lag values against
scikit-learn's Matern kernel.
"""

import math
from math import factorial

import mpmath
import numpy as np
import pytest
import sympy as sp

from gpops.errors import DomainViolationError, NotPositiveDefiniteError, ParameterError
from gpops.grids import Grid
from gpops.expressions import Const
from gpops.kernels import MATERN_ORDERS, Kernel, KernelBifunction, matern_kernel, se_kernel
from gpops.linalg import chol_psd, gram
from gpops.operators import ARG1, ARG2, apply_arg, derivative_operator

RNG_SEED = 20240811


def partial(k, d1, d2):
    """d^(d1+d2) k / dx1^d1 dx2^d2 as the package evaluates it: one derivative per argument."""
    return apply_arg(derivative_operator(d1), ARG1, apply_arg(derivative_operator(d2), ARG2, k))


def catalog():
    return [
        se_kernel(1.0, 1.0),
        se_kernel(0.5, 2.0),
        matern_kernel(0.5, 1.0, 1.0),
        matern_kernel(1.5, 0.7, 1.3),
        matern_kernel(2.5, 1.0, 1.0),
        matern_kernel(3.5, 1.3, 0.8),
    ]


# ---------------------------------------------------------------- values

def test_se_values():
    k = se_kernel(1.0, 1.0)
    assert k(0.0, 0.0) == 1.0
    assert k(0.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert k.sample_smoothness == math.inf


def test_se_partial_11_at_origin_vs_stated_fd_oracle():
    # Oracle: central differences of the evaluator at h = 1e-4 with one
    # Richardson step, nested over the two arguments.
    k = se_kernel(1.0, 1.0)
    h = 1e-4

    def d_arg2(x1, x2, f):
        return (f(x1, x2 + h) - f(x1, x2 - h)) / (2 * h)

    def nested(x1, x2, step):
        def inner(a, b):
            return (k(a, b + step) - k(a, b - step)) / (2 * step)

        return (inner(x1 + step, x2) - inner(x1 - step, x2)) / (2 * step)

    coarse, fine = nested(0.0, 0.0, h), nested(0.0, 0.0, h / 2)
    oracle = (4 * fine - coarse) / 3  # Richardson for the O(h^2) scheme
    value = partial(k, 1, 1)(np.float64(0.0), np.float64(0.0))
    assert value == pytest.approx(oracle, abs=1e-7)
    assert value == pytest.approx(1.0, abs=1e-12)  # 1/ell^2


def test_matern_values_and_smoothness():
    assert matern_kernel(0.5, 1.0, 1.0)(0.0, 0.0) == pytest.approx(1.0)
    for nu, smooth in zip(MATERN_ORDERS, (0, 1, 2, 3)):
        assert matern_kernel(nu, 1.0, 1.0).sample_smoothness == smooth


def test_matern52_at_unit_lag_three_routes():
    # Frozen from the closed form (1 + sqrt5 + 5/3) e^{-sqrt5}, cross-checked
    # against an independent direct evaluation and sklearn's Matern kernel.
    k = matern_kernel(2.5, 1.0, 1.0)
    direct = (1 + math.sqrt(5) + 5 / 3) * math.exp(-math.sqrt(5))
    assert k(0.0, 1.0) == pytest.approx(0.5239941088318203, rel=1e-15)
    assert k(0.0, 1.0) == pytest.approx(direct, rel=1e-14)
    sklearn = pytest.importorskip("sklearn.gaussian_process.kernels")
    ref = sklearn.Matern(length_scale=1.0, nu=2.5)(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
    assert k(0.0, 1.0) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("k", [se_kernel(0.6, 1.3)] + [matern_kernel(nu, 0.8, 1.1)
                                                        for nu in MATERN_ORDERS],
                         ids=["se"] + [f"matern{nu}" for nu in MATERN_ORDERS])
def test_catalog_kernel_is_the_identity_key_over_its_profile(k):
    # a catalog kernel is the identity operator in both arguments; its table
    # is the profile value, bit for bit, and its Gram is that table
    assert isinstance(k, KernelBifunction) and isinstance(k.base, Kernel)
    assert k.terms1 == k.terms2 == ((0, Const(1.0)),) and not callable(k.base)
    assert k.sample_smoothness == k.base.sample_smoothness
    value = k(0.3, -0.45)
    assert isinstance(value, float)
    assert value == k.base.profile(np.float64(0.3) - np.float64(-0.45), 0)[0]
    grid = Grid.uniform_on(-1.0, 2.0, 257)  # more rows than one block holds
    x = grid.points
    table = k(x[:, None], x[None, :])
    want = k.base.profile(x[:, None] - x[None, :], 0)[0]
    assert np.array_equal(table, want)
    assert np.array_equal(gram(k, grid), want)


def test_non_kernel_is_refused_as_a_bifunction_base_and_by_apply_arg():
    k = se_kernel(1.0, 1.0)
    for bad in (k, lambda x1, x2: 0.0, "se", None):
        with pytest.raises(ParameterError):
            KernelBifunction(bad)
    for bad in (k.base, lambda x1, x2: 0.0, "se", None):
        with pytest.raises(ParameterError):
            apply_arg(derivative_operator(1), ARG1, bad)


@pytest.mark.parametrize("bad_args", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                      (math.inf, 1.0), (1.0, math.inf)])
def test_se_parameter_domain(bad_args):
    with pytest.raises(ParameterError):
        se_kernel(*bad_args)


def test_matern_parameter_domain():
    with pytest.raises(ParameterError):
        matern_kernel(2.0, 1.0, 1.0)  # not half-integer
    with pytest.raises(ParameterError):
        matern_kernel(1.5, -1.0, 1.0)
    for bad_args in ((math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ParameterError):
            matern_kernel(1.5, *bad_args)


def test_matern_lengthscale_whose_coefficients_overflow():
    # nu = 7/2 at 1e-40: the sixth derivative's coefficients reach a^9 = 1e364;
    # RuntimeWarning is an error here, so an overflow warning fails the test
    with pytest.raises(ParameterError, match="lengthscale 1e-40"):
        matern_kernel(3.5, 1e-40)
    matern_kernel(3.5, 1e-30)


# ------------------------------------------------------------- invariants

def test_symmetry_thousand_random_pairs():
    rng = np.random.default_rng(RNG_SEED)
    x1, x2 = rng.uniform(-3, 3, size=(2, 1000))
    for k in catalog():
        assert np.max(np.abs(k(x1, x2) - k(x2, x1))) <= 1e-14


def test_partial_argument_exchange_symmetry():
    # For symmetric kernels, partial(d1,d2)(x1,x2) = partial(d2,d1)(x2,x1),
    # at every key within the per-argument smoothness budget.
    rng = np.random.default_rng(RNG_SEED + 1)
    x1, x2 = rng.uniform(-3, 3, size=(2, 200))
    for k in catalog():
        for d1 in range(4):
            for d2 in range(4):
                if max(d1, d2) > k.sample_smoothness:
                    continue
                pa, pb = partial(k, d1, d2), partial(k, d2, d1)
                assert np.max(np.abs(pa(x1, x2) - pb(x2, x1))) <= 1e-12


def test_psd_on_random_grids():
    rng = np.random.default_rng(RNG_SEED + 2)
    for k in catalog():
        for _ in range(20):
            n = int(rng.integers(2, 65))
            pts = np.sort(rng.uniform(-3, 3, size=n))
            pts = np.unique(pts)
            if pts.size < 2:
                continue
            _, delta = chol_psd(gram(k, Grid(pts)), max_jitter=1e-8)
            assert delta <= 1e-8


def test_gram_psd_on_dense_grid():
    # 256 distinct points stays factorizable up to jitter.
    g = Grid.uniform_on(-3, 3, 256)
    for k in catalog():
        chol_psd(gram(k, g), max_jitter=1e-8)


# --------------------------------------------- derivatives vs oracles

def test_se_partials_match_sympy_oracle():
    ell, var = 0.7, 1.8
    k = se_kernel(ell, var)
    x1s, x2s = sp.symbols("x1 x2")
    expr = var * sp.exp(-((x1s - x2s) ** 2) / (2 * ell**2))
    rng = np.random.default_rng(RNG_SEED + 3)
    pts = rng.uniform(-3, 3, size=(100, 2))
    for d1 in range(4):
        for d2 in range(4):
            oracle = sp.lambdify((x1s, x2s), sp.diff(expr, x1s, d1, x2s, d2), "numpy")
            own = partial(k, d1, d2)
            err = max(abs(own(a, b) - oracle(a, b)) for a, b in pts)
            assert err <= 1e-5, (d1, d2, err)


def test_se_partials_to_order_16_match_mpmath():
    # every total order is closed-form; the Hermite recurrence keeps the
    # roundoff of order m within 1e-15 of max|f^(m)|
    ell, var = 0.7, 1.3
    k = se_kernel(ell, var)
    assert 2 * k.sample_smoothness == math.inf
    s = np.linspace(-3.0, 3.0, 61)
    with mpmath.workdps(50):
        def f(x):
            return var * mpmath.exp(-x * x / (2 * mpmath.mpf(ell) ** 2))

        taylor = [mpmath.taylor(f, mpmath.mpf(v), 16) for v in s]
    for m in range(17):
        want = np.array([float(c[m] * factorial(m)) for c in taylor])
        scale = np.max(np.abs(want))
        for d1 in range(m + 1):
            got = partial(k, d1, m - d1)(s, 0.0) * (-1.0) ** (m - d1)
            assert np.max(np.abs(got - want)) <= 1e-15 * scale, (d1, m - d1)


@pytest.mark.parametrize("ell", [0.01, 0.123456789, 0.3, 0.5, 1.0, 2.7])
def test_se_profile_overflows_to_inf_and_keeps_its_finite_values(ell):
    # the profile's ell^-m is numpy's power, which overflows to inf where
    # Python's float power raised OverflowError (from order 155 at ell = 0.01);
    # both call C pow, so every finite value is Python's bit for bit
    for m in range(1, 150):
        if m * math.log10(1 / ell) < 300:  # Python's power is finite
            assert np.float64(ell) ** (-m) == ell ** (-m), m
    s = np.linspace(-1.0, 1.0, 17)
    with np.errstate(all="ignore"):
        out = se_kernel(ell).base.profile(s, 400)
    assert len(out) == 401 and np.all(np.isfinite(out[2]))
    assert not np.all(np.isfinite(out[400]))


def _matern_reference_mp(nu, ell, var):
    # Independent implementation of the half-integer Matern closed form,
    # evaluated in arbitrary precision for mpmath.diff.
    p = int(round(nu - 0.5))
    a = mpmath.sqrt(2 * mpmath.mpf(nu)) / ell

    def k(x1, x2):
        r = abs(x1 - x2)
        c0 = mpmath.mpf(factorial(p)) / factorial(2 * p)
        s = sum(
            mpmath.mpf(factorial(p + i)) / (factorial(i) * factorial(p - i)) * (2 * a * r) ** (p - i)
            for i in range(p + 1)
        )
        return var * c0 * s * mpmath.exp(-a * r)

    return k


@pytest.mark.parametrize("nu", [1.5, 2.5, 3.5])
def test_matern_partials_match_mpmath_fd_oracle(nu):
    ell, var = 1.3, 0.8
    k = matern_kernel(nu, ell, var)
    ref = _matern_reference_mp(nu, ell, var)
    p = k.sample_smoothness
    rng = np.random.default_rng(RNG_SEED + 4)
    pts = rng.uniform(-3, 3, size=(100, 2))
    # keep clear of the |x1 - x2| kink where derivatives beyond the budget jump
    pts = pts[np.abs(pts[:, 0] - pts[:, 1]) > 1e-2]
    with mpmath.workdps(40):
        for d1 in range(p + 1):
            for d2 in range(p + 1):
                if d1 + d2 > 2 * p:
                    continue
                own = partial(k, d1, d2)
                worst = 0.0
                for a, b in pts:
                    oracle = float(mpmath.diff(ref, (mpmath.mpf(a), mpmath.mpf(b)), (d1, d2)))
                    worst = max(worst, abs(own(a, b) - oracle))
                assert worst <= 1e-5, (d1, d2, worst)


def test_matern_partials_beyond_budget_absent():
    k = matern_kernel(1.5, 1.0, 1.0)
    assert np.isfinite(partial(k, 1, 1)(0.2, -0.3))
    with pytest.raises(DomainViolationError):
        partial(k, 2, 1)
    with pytest.raises(DomainViolationError):
        partial(matern_kernel(0.5, 1.0, 1.0), 0, 1)


def test_indefinite_matrix_is_refused():
    with pytest.raises(NotPositiveDefiniteError):
        chol_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), max_jitter=1e-6)
