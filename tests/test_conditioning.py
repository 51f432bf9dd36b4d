"""Conditioning on operator observations; high-precision oracle cross-checks.

The reference for the derivative-data regression problem evaluates the same
conditioning formulas with 50-digit arithmetic, with kernel partials derived
independently by sympy, so the double-precision path is validated end to end
before the frozen error bound is asserted.
"""

import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve

import gpops.conditioning
from gpops.conditioning import (NOISE_FLOOR_VARIANCE, Observation,
                                PosteriorSummary, _group_by_operator, condition,
                                solve_linear_ode)
from gpops.errors import ParameterError
from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.linalg import PackedLower, blas_threads, chol_psd, gram, jitter_ladder
from gpops.means import mean_from_expression, zero_mean
from gpops.operators import (ARG1, ARG2, LinearOperator, apply_arg,
                             apply_to_function, derivative_operator, identity)
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


@pytest.mark.parametrize("span", [1e-6, 1.0, 1e6])
def test_location_tolerance_is_relative_to_the_span(span):
    # 0.5e-12 of the span past either end is roundoff and accepted; 2e-12 is
    # outside.  An absolute floor of 1e-12 once accepted 5e-7 of a 1e-6 span
    p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5 * span))
    g = Grid.uniform_on(0.0, span, 5)
    for location in (-0.5e-12 * span, span + 0.5e-12 * span):
        condition(p, [Observation(identity(), location, 0.0, 0.1)], g)
    for location in (-2e-12 * span, span + 2e-12 * span):
        with pytest.raises(ParameterError, match="lies outside the grid span"):
            condition(p, [Observation(identity(), location, 0.0, 0.1)], g)


@pytest.mark.parametrize("location, value", [
    (10**400, 0.0),   # an int no float holds
    (0.0, -10**400),
    ("0.5", 0.0),     # a string is refused, not parsed
    (0.5, "nan"),
    (None, 0.0),
    (np.float64(np.inf), 0.0),
])
def test_observation_refuses_a_location_or_value_that_is_no_finite_float(location, value):
    # the int and string cases escaped numpy's isfinite as a bare TypeError
    with pytest.raises(ParameterError, match="observation location and value must be finite"):
        Observation(identity(), location, value)


@pytest.mark.parametrize("noise_sd, message", [
    ("0.1", "noise_sd must be >= 0"),
    (None, "noise_sd must be >= 0"),
    (-10**400, "noise_sd must be >= 0"),
    (10**400, "finite variance"),
])
def test_observation_refuses_a_noise_sd_that_is_no_float(noise_sd, message):
    # the string and None cases escaped as a bare TypeError from the comparison
    with pytest.raises(ParameterError, match=message):
        Observation(identity(), 0.5, 0.0, noise_sd)


def test_observation_accepts_numpy_and_python_reals():
    for location in (0.5, 1, np.float64(0.5), np.float32(0.25), np.int64(1), np.array(0.5)):
        Observation(identity(), location, np.float64(-2.0))


@pytest.mark.parametrize("noise_sd", [math.inf, 1e200])
def test_observation_rejects_noise_without_a_finite_variance(noise_sd):
    # once these reached condition() and died in scipy (inf) or in noise_sd**2
    with pytest.raises(ParameterError, match="finite variance"):
        Observation(identity(), 0.5, 0.0, noise_sd)


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
    # u' = cos with u(0) = 0, solved as a convenience wrapper around condition;
    # rhs is called once, on the collocation array
    calls = []

    def rhs(x):
        calls.append(np.array(x))
        return np.cos(x)

    p = make_prior()
    g = Grid.uniform_on(0.0, 1.0, 65)
    colloc = Grid(np.linspace(0, 1, 20))
    post = solve_linear_ode(D1, rhs, [Observation(identity(), 0.0, 0.0, 0.0)], g, p,
                            collocation=colloc, collocation_noise_sd=1e-4)
    assert np.abs(post.mean - np.sin(g.points)).max() <= 1e-2
    assert len(calls) == 1
    assert np.array_equal(calls[0], colloc.points)


def test_ode_second_order_boundary_value_problem():
    # u'' = -sin on [0, pi] with u(0) = u(pi) = 0; measured error at this
    # configuration is ~4e-5, frozen bound 5e-2
    prior = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(3.5, 1.5, 1.0))
    g = Grid.uniform_on(0.0, math.pi, 65)
    bcs = [Observation(identity(), 0.0, 0.0, 0.0),
           Observation(identity(), math.pi, 0.0, 0.0)]
    post = solve_linear_ode(derivative_operator(2), lambda x: -np.sin(x), bcs, g,
                            prior, collocation=Grid(np.linspace(0.0, math.pi, 40)),
                            collocation_noise_sd=1e-4)
    assert np.abs(post.mean - np.sin(g.points)).max() <= 5e-2


def test_ode_identity_operator_is_regression():
    p = make_prior(ell=0.4)
    g = Grid.uniform_on(0.0, 1.0, 33)
    post = solve_linear_ode(identity(), lambda x: np.sin(3 * x), [], g, p,
                            collocation_noise_sd=1e-4)
    assert np.abs(post.mean - np.sin(3 * g.points)).max() <= 1e-2


def test_condition_makes_one_triangular_solve():
    calls = []
    solve = gpops.conditioning.solve_triangular

    def spy(*args, **kwargs):
        assert isinstance(args[0], PackedLower)  # the factor, packed as it was factored
        calls.append(args[1].shape)
        return solve(*args, **kwargs)

    # two operator groups; the right-hand sides are [residual | K_obs,x]
    obs, grid = derivative_problem(), Grid.uniform_on(0.0, 1.0, 17)
    with mock.patch("gpops.conditioning.solve_triangular", spy):
        condition(make_prior(), obs, grid)
    assert calls == [(len(obs), 1 + len(grid))]


def test_collocation_solve_holds_one_observation_gram():
    # the solve-colloc problem: u'' + x u' + u = rhs at 2000 collocation
    # points plus two boundary values, so a 2002 x 2002 observation Gram
    # (a "Gram" below is 8 q^2 bytes).  condition() fills only its lower
    # triangle, packed in half a Gram, and chol_psd factors it in place, so
    # the traced peak of a solve measured 0.72 Grams and must stay below
    # 0.85; a dense Gram alone would be 1, and the dense in-place factor
    # peaked at 1.23.  numpy reports its buffers to tracemalloc.  numpy's
    # fallback factors an unpacked copy, so the bound holds only where
    # LAPACK is reached through numpy's bundled OpenBLAS.
    if blas_threads() is None:
        pytest.skip("no bundled OpenBLAS found")
    a = 1.1135580497358988
    op = LinearOperator([(2, 1.0), (1, "x"), (0, 1.0)])
    bcs = [Observation(identity(), 0.0, 0.0), Observation(identity(), 1.0, math.sin(a))]
    grid, collocation = Grid.uniform_on(0.0, 1.0, 201), Grid.uniform_on(0.0, 1.0, 2000)

    def solve():
        return solve_linear_ode(op, lambda x: (1 - a * a) * np.sin(a * x) + a * x * np.cos(a * x),
                                bcs, grid, make_prior(), collocation=collocation,
                                collocation_noise_sd=1e-4)

    solve()  # warm-up: first-call caches and the BLAS lookup are not counted
    tracemalloc.start()
    try:
        post = solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    q = 2002
    assert peak < 0.85 * 8 * q * q
    assert np.max(np.abs(post.mean - np.sin(a * grid.points))) <= 1e-5


@pytest.mark.parametrize("max_jitter", [math.inf, math.nan, -1.0])
def test_max_jitter_must_be_finite_and_non_negative(max_jitter):
    with pytest.raises(ParameterError, match="max_jitter must be finite and >= 0"):
        jitter_ladder(max_jitter)
    with pytest.raises(ParameterError, match="max_jitter must be finite and >= 0"):
        chol_psd(np.eye(2), max_jitter=max_jitter)
    with pytest.raises(ParameterError, match="max_jitter must be finite and >= 0"):
        condition(make_prior(), derivative_problem(), Grid.uniform_on(0.0, 1.0, 11),
                  max_jitter=max_jitter)


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


# ------------------------------------------------------------ reported jitter

def _condition_capturing_gram(p, obs, grid, **kwargs):
    # condition(), plus every (Gram, keyword arguments) it handed to chol_psd;
    # the Gram is packed, and is captured as a packed copy
    captured = []

    def spy(matrix, **kw):
        captured.append((PackedLower.from_dense(matrix.unpack()), kw))
        return chol_psd(matrix, **kw)

    with mock.patch("gpops.conditioning.chol_psd", spy):
        post = condition(p, obs, grid, **kwargs)
    return post, captured


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1.0, 1e8]),
       st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.sampled_from([0.0, 1e-3]))
def test_condition_reports_the_jitter_chol_psd_used(variance, rows, noise_sd):
    p = make_prior(var=variance)
    obs = [Observation(_observed_operator(k), x, math.sin(3 * x), noise_sd) for k, x in rows]
    post, captured = _condition_capturing_gram(p, obs, Grid.uniform_on(0.0, 1.0, 11),
                                               max_jitter=1e-2)
    (gram_obs, kw), = captured
    assert post.jitter == chol_psd(gram_obs, **kw)[1]
    assert "jitter" not in post.to_dict()
    assert np.array_equal(post.cov, post.cov.T)


def test_reported_jitter_is_zero_when_well_conditioned_and_positive_when_not():
    grid = Grid.uniform_on(0.0, 1.0, 11)
    assert condition(make_prior(), derivative_problem(), grid).jitter == 0.0
    # 40 noiseless values under a kernel variance of 1e8: the 1e-8 floor is
    # below the Gram's roundoff, so the factorization needs the ladder
    obs = [Observation(identity(), float(x), 0.0) for x in np.linspace(0.0, 1.0, 40)]
    post, captured = _condition_capturing_gram(make_prior(var=1e8), obs, grid, max_jitter=1e-2)
    assert post.jitter > 0.0
    assert post.jitter == chol_psd(captured[0][0], max_jitter=1e-2)[1]


def _scipy_solve(L, b):
    return scipy.linalg.solve_triangular(L.unpack(), b, lower=True)


def test_ill_conditioned_posterior_matches_the_scipy_solve():
    # 200 noiseless slopes 0.005 apart under a kernel variance of 1e6 (and a
    # value at 0): the Gram needs the ladder, and the blocked numpy forward
    # solve must give the posterior of LAPACK's triangular solve
    p = make_prior(var=1e6)
    obs = [Observation(D1, float(x), math.cos(3 * x)) for x in np.linspace(0.0, 1.0, 200)]
    obs.append(Observation(identity(), 0.0, 0.0))
    grid = Grid.uniform_on(0.0, 1.0, 21)
    post = condition(p, obs, grid, max_jitter=1e-2)
    with mock.patch("gpops.conditioning.solve_triangular", _scipy_solve):
        ref = condition(p, obs, grid, max_jitter=1e-2)
    assert post.jitter > 0.0
    assert post.jitter == ref.jitter
    scale = p.kernel(0.0, 0.0)
    assert np.max(np.abs(post.mean - ref.mean)) <= 1e-9 * math.sqrt(scale)
    assert np.max(np.abs(post.cov - ref.cov)) <= 1e-12 * scale
    assert post.log_marginal == pytest.approx(ref.log_marginal, rel=1e-9)
    assert np.max(np.abs(post.mean - np.sin(3 * grid.points) / 3)) <= 1e-6


# ---------------------------------------------------------- commuted operands

def _assert_spellings_form_one_group_and_condition_alike(spelled):
    p = make_prior()
    grid = Grid.uniform_on(0.0, 1.0, 11)
    xs = np.linspace(0.1, 0.9, 6)
    mixed = [Observation(spelled[i % 2], float(x), math.cos(x), 1e-3) for i, x in enumerate(xs)]
    shared = [Observation(spelled[0], float(x), math.cos(x), 1e-3) for x in xs]
    assert len(_group_by_operator(mixed)) == 1
    a = condition(p, mixed, grid)
    b = condition(p, shared, grid)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)
    assert a.log_marginal == b.log_marginal


def test_commuted_coefficients_form_one_group_and_condition_alike():
    _assert_spellings_form_one_group_and_condition_alike(
        [LinearOperator([(1, "x + 1")]), LinearOperator([(1, "1 + x")])])


def test_commuted_products_form_one_group_and_condition_alike():
    _assert_spellings_form_one_group_and_condition_alike(
        [LinearOperator([(1, "x*sin(x)"), (0, 1.0)]),
         LinearOperator([(1, "sin(x)*x"), (0, 1.0)])])


# ------------------------------------------------- group-order Gram assembly

def _dense_reference(p, obs, grid, max_jitter):
    # every (i, j) pair evaluated on its own in the caller's order, the full
    # table symmetrised and factored: the assembly condition() replaces
    k, x, q = p.kernel, grid.points, len(obs)
    kmat = np.empty((q, q))
    for i, a in enumerate(obs):
        for j, b in enumerate(obs):
            bf = apply_arg(a.operator, ARG1, apply_arg(b.operator, ARG2, k))
            kmat[i, j] = bf(a.location, b.location)
    kmat = 0.5 * (kmat + kmat.T)
    kmat[np.diag_indices(q)] += [o.noise_sd**2 + NOISE_FLOOR_VARIANCE for o in obs]
    # factored as condition() factors, packed, so both take the same rung
    L, jitter = chol_psd(PackedLower.from_dense(kmat), max_jitter=max_jitter)
    L = L.unpack()
    k_x = np.column_stack([apply_arg(o.operator, ARG2, k)(x, o.location) for o in obs])
    residual = np.array([o.value - float(apply_to_function(o.operator, p.mean)(o.location))
                         for o in obs])
    alpha = cho_solve((L, True), residual)
    mean = p.mean(x) + k_x @ alpha
    cov = gram(k, grid) - k_x @ cho_solve((L, True), k_x.T)
    log_marginal = (-0.5 * residual @ alpha - np.sum(np.log(np.diag(L)))
                    - 0.5 * q * math.log(2.0 * math.pi))
    return mean, cov, log_marginal, jitter


def _interleaved_three_operators():
    # kinds 0, 1, 2, 0, 1, 2, ... as in the condition-perobs benchmark
    xs = np.random.default_rng(5).uniform(0.0, 1.0, 30)
    return make_prior(mean="sin(x)"), [
        Observation(_observed_operator(i % 3), float(x), math.sin(3 * x), 1e-2)
        for i, x in enumerate(xs)]


def _retry_case():
    # the variance-1e8 Gram of the reported-jitter test, which needs the ladder
    return make_prior(var=1e8), [Observation(identity(), float(x), 0.0)
                                 for x in np.linspace(0.0, 1.0, 40)]


@pytest.mark.parametrize("case", ["interleaved", "shuffled", "retry"])
def test_group_order_assembly_matches_a_dense_reference(case):
    p, obs = _retry_case() if case == "retry" else _interleaved_three_operators()
    if case == "shuffled":
        obs = [obs[i] for i in np.random.default_rng(6).permutation(len(obs))]
    grid = Grid.uniform_on(0.0, 1.0, 21)
    post = condition(p, obs, grid, max_jitter=1e-2)
    mean, cov, log_marginal, jitter = _dense_reference(p, obs, grid, max_jitter=1e-2)
    assert (post.jitter > 0.0) == (case == "retry")
    assert post.jitter == jitter
    scale = p.kernel(0.0, 0.0)
    assert np.max(np.abs(post.mean - mean)) <= 1e-9 * math.sqrt(scale)
    assert np.max(np.abs(post.variance - np.diag(cov))) <= 1e-12 * scale
    assert np.max(np.abs(post.cov - cov)) <= 1e-12 * scale
    assert post.log_marginal == pytest.approx(log_marginal, rel=1e-8)
