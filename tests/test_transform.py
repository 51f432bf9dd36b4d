"""Process-level pushforward and the finite-dimensional bridge."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gpops.errors import DimensionError, DomainViolationError
from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.linalg import chol_psd, gram
from gpops.means import mean_from_expression
from gpops.operators import (ARG1, ARG2, LinearOperator, add, apply_arg,
                             compose, derivative_operator, identity)
from gpops.processes import GaussianProcessPrior
from gpops.stencils import differentiation_matrix, interior_mask
from gpops.transform import finite_dim_pushforward, joint_blocks, pushforward

D1 = derivative_operator(1)


def gp(mean="0", kernel=None):
    return GaussianProcessPrior(mean=mean_from_expression(mean),
                                kernel=kernel or se_kernel(1.0, 1.0))


# -------------------------------------------------------------- pushforward

def test_pushforward_identity_is_the_same_process():
    p = gp("sin(x)")
    img = pushforward(p, identity())
    x = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(img.mean(x), p.mean(x))
    np.testing.assert_array_equal(img.kernel(x[:, None], x[None, :]),
                                  p.kernel(x[:, None], x[None, :]))


def test_pushforward_derivative_of_centered_prior():
    p = gp("0")
    img = pushforward(p, D1)
    assert img.mean(0.37) == 0.0
    # oracle: nested central differences of the base kernel
    h = 1e-4
    k = p.kernel

    def inner(a, b):
        return (k(a, b + h) - k(a, b - h)) / (2 * h)

    oracle = (inner(h, 0.0) - inner(-h, 0.0)) / (2 * h)
    assert img.kernel(0.0, 0.0) == pytest.approx(oracle, abs=1e-6)
    assert img.kernel(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_pushforward_mean_claim_on_closed_form():
    img = pushforward(gp("sin(x)"), D1)
    assert img.mean(0.0) == pytest.approx(1.0, rel=1e-14)


def test_pushforward_smoothness_bookkeeping():
    p = gp("0", matern_kernel(3.5, 1.0, 1.0))
    img = pushforward(p, D1)
    assert img.kernel.sample_smoothness == 2
    img2 = pushforward(img, derivative_operator(2))
    assert img2.kernel.sample_smoothness == 0
    with pytest.raises(DomainViolationError):
        pushforward(img2, D1)


def test_pushforward_rejects_rough_prior():
    p = gp("0", matern_kernel(0.5, 1.0, 1.0))
    with pytest.raises(DomainViolationError):
        pushforward(p, D1)


def test_pushforward_composes():
    # pushing forward twice equals pushing forward by the composition
    p = gp("sin(x)")
    s = LinearOperator([(1, "x"), (0, 1.0)], label="x*d/dx + 1")
    once = pushforward(p, D1)
    twice = pushforward(once, s)
    direct = pushforward(p, compose(s, D1))
    x = np.linspace(0, 1, 9)
    np.testing.assert_allclose(twice.mean(x), direct.mean(x), atol=1e-8)
    np.testing.assert_allclose(
        twice.kernel(x[:, None], x[None, :]),
        direct.kernel(x[:, None], x[None, :]),
        atol=1e-8,
    )


@pytest.mark.parametrize("k, t, s", [
    (se_kernel(0.5, 1.0), LinearOperator([(1, "x"), (0, 1.0)]),
     LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")])),
    (matern_kernel(3.5, 0.9, 1.0), LinearOperator([(1, "x"), (0, 1.0)]),
     LinearOperator([(1, "cos(x)"), (0, "x")])),
], ids=["se", "matern72"])
def test_pushing_twice_is_the_composition_bit_for_bit(k, t, s):
    # the second push composes s with the operator t already on each
    # argument, so both kernels carry compose(s, t) in each argument
    p = gp("sin(x)", k)
    twice = pushforward(pushforward(p, t), s).kernel
    direct = pushforward(p, compose(s, t)).kernel
    assert (twice.terms1, twice.terms2) == (direct.terms1, direct.terms2)
    x = np.linspace(-1.0, 1.0, 33)
    assert np.array_equal(twice(x[:, None], x[None, :]), direct(x[:, None], x[None, :]))


COEFFICIENTS = ["1", "-2", "x", "1 + x^2", "cos(x)", "exp(-0.5*x)"]


def operators(max_order):
    term = st.tuples(st.integers(0, max_order), st.sampled_from(COEFFICIENTS))
    return st.lists(term, min_size=1, max_size=3).map(LinearOperator)


@settings(max_examples=25, deadline=None)
@given(operators(2), operators(2), st.sampled_from(["sin(x)", "x^3 + exp(x)", "x*cos(2*x)"]))
def test_pushing_twice_is_pushing_the_composition(t, s, mean):
    # Matern 7/2 paths have 3 derivatives: the budget spent by the first two
    # pushes carries through the bifunction kernels and stops the third.  A
    # zero operator (terms 1 + 1 - 2) has order 0, and so has its composition
    # with any operator, so the order bookkeeping below does not describe it.
    assume(LinearOperator([(0, 0.0)]) not in (t, s))
    k = matern_kernel(3.5, 0.9, 1.0)
    once = pushforward(gp(mean, k), t)
    if t.order + s.order > k.sample_smoothness:
        with pytest.raises(DomainViolationError):
            pushforward(once, s)
        return
    twice = pushforward(once, s)
    direct = pushforward(gp(mean, k), compose(s, t))
    x = np.linspace(-1.0, 1.0, 21)
    want = direct.mean(x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(twice.mean(x) - want)) <= 1e-12 * scale
    left = k.sample_smoothness - t.order - s.order
    assert twice.kernel.sample_smoothness == left
    assert direct.kernel.sample_smoothness == left
    with pytest.raises(DomainViolationError):
        pushforward(twice, derivative_operator(left + 1))


def test_pushforward_kernel_bilinear_in_operator():
    # kernel of (S+T) expands into the four cross applications
    p = gp("0")
    s = LinearOperator([(1, "x")], label="x*d/dx")
    t = D1
    k = p.kernel
    x = np.linspace(0.1, 0.9, 7)
    x1, x2 = x[:, None], x[None, :]
    combined = pushforward(p, add(s, t)).kernel(x1, x2)

    def cross(a, b):
        return apply_arg(a, ARG1, apply_arg(b, ARG2, k))(x1, x2)

    expanded = cross(s, s) + cross(s, t) + cross(t, s) + cross(t, t)
    assert np.max(np.abs(combined - expanded)) <= 1e-10


# ---------------------------------------------- finite-dimensional transport

def test_finite_dim_identity():
    mean = np.array([1.0, 2.0])
    cov = np.eye(2)
    m2, c2 = finite_dim_pushforward(mean, cov, np.eye(2))
    np.testing.assert_array_equal(m2, mean)
    np.testing.assert_array_equal(c2, cov)


def test_finite_dim_sum_functional():
    m, c = finite_dim_pushforward(np.array([1.0, 2.0]), np.eye(2), np.array([[1.0, 1.0]]))
    assert m[0] == 3.0
    assert c[0, 0] == 2.0


def test_finite_dim_first_difference_oracle():
    t = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    mean = np.zeros(3)
    cov = np.eye(3)
    # oracle: the plain matrix product, written out independently
    oracle = np.array([[t[i] @ cov @ t[j] for j in range(2)] for i in range(2)])
    m, c = finite_dim_pushforward(mean, cov, t)
    np.testing.assert_array_equal(m, np.zeros(2))
    np.testing.assert_allclose(c, oracle, rtol=1e-15)
    np.testing.assert_allclose(c, [[2.0, -1.0], [-1.0, 2.0]], rtol=1e-15)


def test_finite_dim_shape_errors():
    with pytest.raises(DimensionError):
        finite_dim_pushforward(np.zeros(3), np.eye(2), np.eye(2))
    with pytest.raises(DimensionError):
        finite_dim_pushforward(np.zeros(2), np.eye(2), np.ones((2, 3)))


def test_grid_transport_converges_to_kernel_transport():
    # 4th-order differentiation matrices drive the finite-dimensional image
    # law to the transformed kernel at interior points at rate ~4
    p = gp("0")
    kv = apply_arg(D1, ARG1, apply_arg(D1, ARG2, p.kernel))
    errs = []
    for n in (17, 33, 65):
        g = Grid.uniform_on(0.0, 1.0, n)
        d = differentiation_matrix(g, 1)
        _, cov_disc = finite_dim_pushforward(np.zeros(n), gram(p.kernel, g), d)
        exact = kv(g.points[:, None], g.points[None, :])
        inner = interior_mask(n, 1)
        block = np.outer(inner, inner)
        errs.append(np.max(np.abs(cov_disc - exact)[block]))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 3.5), (errs, rates)


# ---------------------------------------------------------------- blocks

def test_joint_blocks_identity_operator():
    p = gp("0")
    g = Grid.uniform_on(0, 1, 9)
    jb = joint_blocks(p, identity(), g, g)
    base = gram(p.kernel, g)
    for block in (jb.k_uu, jb.k_uv, jb.k_vu, jb.k_vv):
        np.testing.assert_allclose(block, base, atol=1e-15)


def test_joint_blocks_transpose_relation_and_psd():
    p = gp("0")
    g = Grid.uniform_on(0, 1, 17)
    jb = joint_blocks(p, D1, g, g)
    assert np.array_equal(jb.k_vu, jb.k_uv.T)
    assert jb.k_uv[0, 0] == pytest.approx(0.0, abs=1e-15)
    stacked = jb.stacked()
    assert stacked.shape == (34, 34)
    _, delta = chol_psd(stacked, max_jitter=1e-8)
    assert delta <= 1e-8


def test_joint_blocks_different_grids():
    p = gp("0")
    gx = Grid.uniform_on(0, 1, 5)
    gy = Grid.uniform_on(0, 1, 8)
    jb = joint_blocks(p, D1, gx, gy)
    assert jb.k_uu.shape == (5, 5)
    assert jb.k_uv.shape == (5, 8)
    assert jb.k_vu.shape == (8, 5)
    assert jb.k_vv.shape == (8, 8)
