"""Conditioning on operator observations; high-precision oracle cross-checks.

The reference for the derivative-data regression problem evaluates the same
conditioning formulas with 50-digit arithmetic, with kernel partials derived
independently by sympy, so the double-precision path is validated end to end
before the frozen error bound is asserted.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from gpops.conditioning import (NOISE_FLOOR_VARIANCE, Observation,
                                PosteriorSummary, _group_by_operator, condition,
                                solve_linear_ode)
from gpops.errors import ParameterError
from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.linalg import gram
from gpops.means import mean_from_expression, zero_mean
from gpops.operators import (ARG1, ARG2, LinearOperator, apply_arg,
                             derivative_operator, identity)
from gpops.processes import GaussianProcessPrior

D1 = derivative_operator(1)


def make_prior(ell=0.5, var=1.0, mean="0"):
    return GaussianProcessPrior(mean=mean_from_expression(mean),
                                kernel=se_kernel(ell, var))


def derivative_problem():
    # u' = cos observed at 20 uniform points (noise 1e-4) plus u(0) = 0
    obs = [Observation(D1, float(x), math.cos(x), 1e-4)
           for x in np.linspace(0.0, 1.0, 20)]
    obs.append(Observation(identity(), 0.0, 0.0, 0.0))
    return obs


# ----------------------------------------------------------- basic contracts

def test_noiseless_interpolation():
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 33)
    x0, y0 = 0.5, 0.7
    post = condition(p, [Observation(identity(), x0, y0, 0.0)], g)
    i = np.argmin(np.abs(g.points - x0))
    assert abs(post.mean[i] - y0) <= 1e-6
    assert post.variance[i] <= 1e-6


def test_no_observations_returns_prior_tabulation():
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 9)
    post = condition(p, [], g)
    np.testing.assert_array_equal(post.mean, p.mean(g.points))
    np.testing.assert_array_equal(post.cov, gram(p.kernel, g))
    assert post.log_marginal == 0.0


def test_observation_validation():
    with pytest.raises(ParameterError):
        Observation(identity(), 0.0, 0.0, -1.0)
    with pytest.raises(ParameterError):
        Observation(identity(), math.nan, 0.0, 0.0)
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 9)
    with pytest.raises(ParameterError):
        condition(p, [Observation(identity(), 2.0, 0.0, 0.0)], g)  # outside span


# ------------------------------------------------- derivative-data regression

def test_derivative_data_recovers_sine():
    # measured attainable error at this configuration is ~6e-7 (see the
    # oracle test below); 1e-2 is the frozen acceptance-level bound
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 65)
    post = condition(p, derivative_problem(), g)
    assert np.abs(post.mean - np.sin(g.points)).max() <= 1e-2


def test_high_precision_oracle_agrees():
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 65)
    post = condition(p, derivative_problem(), g)

    # same formulas, 50-digit arithmetic, sympy-derived kernel partials
    ell = 0.5
    x1s, x2s = sp.symbols("x1 x2")
    kexpr = sp.exp(-((x1s - x2s) ** 2) / (2 * ell**2))
    pf = {}
    for d1 in range(2):
        for d2 in range(2):
            pf[(d1, d2)] = sp.lambdify((x1s, x2s), sp.diff(kexpr, x1s, d1, x2s, d2),
                                       "mpmath")
    obs = derivative_problem()
    locs = [o.location for o in obs]
    orders = [1] * 20 + [0]
    values = [o.value for o in obs]
    noise = [o.noise_sd**2 + NOISE_FLOOR_VARIANCE for o in obs]
    q = len(obs)
    with mpmath.workdps(50):
        kmat = mpmath.matrix(q, q)
        for i in range(q):
            for j in range(q):
                kmat[i, j] = pf[(orders[i], orders[j])](mpmath.mpf(locs[i]), mpmath.mpf(locs[j]))
            kmat[i, i] += noise[i]
        alpha = mpmath.lu_solve(kmat, mpmath.matrix([mpmath.mpf(v) for v in values]))
        ref_mean = []
        for xg in g.points:
            s = mpmath.mpf(0)
            for j in range(q):
                s += pf[(0, orders[j])](mpmath.mpf(xg), mpmath.mpf(locs[j])) * alpha[j]
            ref_mean.append(float(s))
    ref_mean = np.array(ref_mean)
    # double-precision linear algebra tracks the 50-digit reference
    assert np.abs(post.mean - ref_mean).max() <= 1e-9
    # and the reference itself confirms the frozen bound is attainable
    assert np.abs(ref_mean - np.sin(g.points)).max() <= 1e-2


def test_posterior_variance_never_exceeds_prior():
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 65)
    post = condition(p, derivative_problem(), g)
    prior_var = np.diag(gram(p.kernel, g))
    assert np.all(post.variance <= prior_var + 1e-10)
    assert np.all(post.variance >= -1e-10)


def test_posterior_covariance_is_psd_up_to_jitter():
    from gpops.linalg import chol_psd

    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 33)
    post = condition(p, derivative_problem(), g)
    _, delta = chol_psd(post.cov, max_jitter=1e-8)
    assert delta <= 1e-8


def test_adding_observations_shrinks_variance():
    # well-conditioned setting (generous noise) so rounding stays far below
    # the asserted monotonicity slack
    p = make_prior(ell=0.7)
    g = Grid.uniform_on(0.0, 1.0, 33)
    obs = [Observation(identity(), x, math.sin(x), 0.1) for x in (0.2, 0.5, 0.8)]
    prev = condition(p, [], g).variance
    for count in range(1, len(obs) + 1):
        cur = condition(p, obs[:count], g).variance
        assert np.all(cur <= prev + 1e-10)
        prev = cur


def test_identity_observations_match_textbook_regression():
    # direct implementation without any operator machinery
    p = make_prior(ell=0.6)
    g = Grid.uniform_on(0.0, 1.0, 21)
    xs = np.array([0.1, 0.4, 0.55, 0.9])
    ys = np.sin(3 * xs)
    noise = 1e-2
    obs = [Observation(identity(), float(a), float(b), noise) for a, b in zip(xs, ys)]
    post = condition(p, obs, g)

    kfun = p.kernel
    k_obs = kfun(xs[:, None], xs[None, :]) + (noise**2 + NOISE_FLOOR_VARIANCE) * np.eye(4)
    k_x = kfun(g.points[:, None], xs[None, :])
    solve = np.linalg.solve
    ref_mean = k_x @ solve(k_obs, ys)
    ref_cov = kfun(g.points[:, None], g.points[None, :]) - k_x @ solve(k_obs, k_x.T)
    np.testing.assert_allclose(post.mean, ref_mean, atol=1e-10)
    np.testing.assert_allclose(post.cov, ref_cov, atol=1e-10)
    # log marginal against the standard closed form
    sign, logdet = np.linalg.slogdet(k_obs)
    ref_lml = -0.5 * ys @ solve(k_obs, ys) - 0.5 * logdet - 2 * math.log(2 * math.pi)
    assert post.log_marginal == pytest.approx(ref_lml, rel=1e-10)


def test_observation_gram_order_equivalence():
    # entries built as S applied first to one argument then the other agree
    s = LinearOperator([(1, "x"), (0, 1.0)], label="x*d/dx + 1")
    t = D1
    k = se_kernel(1.0, 1.0)
    locs = np.linspace(0.1, 0.9, 6)
    a = apply_arg(s, ARG1, apply_arg(t, ARG2, k))(locs[:, None], locs[None, :])
    b = apply_arg(t, ARG2, apply_arg(s, ARG1, k))(locs[:, None], locs[None, :])
    assert np.max(np.abs(a - b)) <= 1e-12


def test_mixed_operator_observations():
    # value + derivative observations together pin both level and slope
    p = make_prior(ell=0.8)
    g = Grid.uniform_on(0.0, 1.0, 33)
    obs = [Observation(identity(), 0.5, math.sin(0.5), 1e-6),
           Observation(D1, 0.5, math.cos(0.5), 1e-6)]
    post = condition(p, obs, g)
    i = np.argmin(np.abs(g.points - 0.5))
    assert abs(post.mean[i] - math.sin(0.5)) <= 1e-4
    slope = np.gradient(post.mean, g.points)[i]
    assert abs(slope - math.cos(0.5)) <= 1e-2


def test_condition_guards_operator_domain():
    from gpops.errors import DomainViolationError

    p = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(0.5, 1.0, 1.0))
    g = Grid.uniform_on(0.0, 1.0, 9)
    with pytest.raises(DomainViolationError):
        condition(p, [Observation(D1, 0.5, 0.0, 0.1)], g)


# ------------------------------------------------------------------ ODE solve

def test_ode_first_order():
    # u' = cos with u(0) = 0, solved as a convenience wrapper around condition
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 65)
    post = solve_linear_ode(D1, lambda x: math.cos(x),
                            [Observation(identity(), 0.0, 0.0, 0.0)], g, p,
                            collocation=Grid(np.linspace(0, 1, 20)),
                            collocation_noise_sd=1e-4)
    assert np.abs(post.mean - np.sin(g.points)).max() <= 1e-2


def test_ode_second_order_boundary_value_problem():
    # u'' = -sin on [0, pi] with u(0) = u(pi) = 0; measured error at this
    # configuration is ~4e-5, frozen bound 5e-2
    prior = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(3.5, 1.5, 1.0))
    g = Grid.uniform_on(0.0, math.pi, 65)
    bcs = [Observation(identity(), 0.0, 0.0, 0.0),
           Observation(identity(), math.pi, 0.0, 0.0)]
    post = solve_linear_ode(derivative_operator(2), lambda x: -math.sin(x), bcs, g,
                            prior, collocation=Grid(np.linspace(0.0, math.pi, 40)),
                            collocation_noise_sd=1e-4)
    assert np.abs(post.mean - np.sin(g.points)).max() <= 5e-2


def test_ode_identity_operator_is_regression():
    p = make_prior(ell=0.4)
    g = Grid.uniform_on(0.0, 1.0, 33)
    post = solve_linear_ode(identity(), lambda x: math.sin(3 * x), [], g, p,
                            collocation_noise_sd=1e-4)
    assert np.abs(post.mean - np.sin(3 * g.points)).max() <= 1e-2


def test_posterior_serialization():
    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 9)
    post = condition(p, derivative_problem()[:3], g)
    doc = post.to_dict()
    assert doc["kind"] == "posterior"
    assert len(doc["mean"]) == 9
    csv = post.to_csv()
    assert csv.splitlines()[0] == ",".join(PosteriorSummary.CSV_HEADER)
    assert len(csv.splitlines()) == 10


def _observed_operator(kind):
    # a fresh object on every call
    if kind == 0:
        return identity()
    if kind == 1:
        return derivative_operator(1)
    return LinearOperator([(0, "x"), (1, 1.0)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)), min_size=1, max_size=8))
def test_equal_operators_condition_alike_as_distinct_objects(rows):
    p = make_prior()
    grid = Grid.uniform_on(0.0, 1.0, 11)
    shared = [_observed_operator(k) for k in range(3)]
    fresh_obs = [Observation(_observed_operator(k), x, math.sin(3 * x), 1e-3) for k, x in rows]
    shared_obs = [Observation(shared[k], x, math.sin(3 * x), 1e-3) for k, x in rows]

    groups = _group_by_operator(fresh_obs)
    assert len(groups) == len({k for k, _ in rows})
    assert [idx for _, idx in groups] == [idx for _, idx in _group_by_operator(shared_obs)]

    a = condition(p, fresh_obs, grid)
    b = condition(p, shared_obs, grid)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)
    assert a.log_marginal == b.log_marginal
