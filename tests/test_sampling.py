"""Seeded ensembles: reproducibility, statistics, pathwise operator action."""

import threading

import numpy as np
import pytest
from scipy.special import ndtri

from gpops.errors import GridSizeError, ParameterError
from gpops.grids import Grid
from gpops.kernels import se_kernel
from gpops.means import mean_from_expression, zero_mean
from gpops.operators import LinearOperator, derivative_operator, identity
import gpops.sampling
from gpops.processes import GaussianProcessPrior
from gpops.sampling import (BLOCK_WORDS, SampleEnsemble, _standard_normals,
                            _uniform_block, apply_operator_pathwise, empirical_cov,
                            empirical_mean, sample_paths)
from gpops.stencils import interior_mask
from gpops.transform import pushforward

PRIOR = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))


def test_same_seed_is_bit_identical():
    g = Grid.uniform_on(0, 1, 9)
    a = sample_paths(PRIOR, g, 200, 42)
    b = sample_paths(PRIOR, g, 200, 42)
    assert np.array_equal(a.paths, b.paths)
    c = sample_paths(PRIOR, g, 200, 43)
    assert not np.array_equal(a.paths, c.paths)


def test_thread_count_does_not_change_draws():
    g = Grid.uniform_on(0, 1, 13)
    a = sample_paths(PRIOR, g, 501, 7, threads=1)
    b = sample_paths(PRIOR, g, 501, 7, threads=3)
    c = sample_paths(PRIOR, g, 501, 7, threads=8)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.paths, c.paths)


def test_thread_count_does_not_change_tiny_ensembles():
    # more threads than paths: some workers get no block
    g = Grid.uniform_on(0, 1, 5)
    a = sample_paths(PRIOR, g, 3, 11, threads=1)
    for threads in (2, 5):
        assert np.array_equal(a.paths, sample_paths(PRIOR, g, 3, 11, threads=threads).paths)
    with pytest.raises(ParameterError):
        sample_paths(PRIOR, g, 3, 11, threads=0)


@pytest.mark.parametrize("threads", [1, 3])
def test_block_splits_do_not_change_normals(threads):
    # three paths past two full blocks, against one unsplit draw
    n_points = 5
    n_paths = 2 * (BLOCK_WORDS // 8) + 3  # 8 Philox words per 5-point path
    whole = ndtri(_uniform_block(11, 0, n_paths, n_points))
    assert np.array_equal(_standard_normals(11, n_paths, n_points, threads), whole)


def test_one_thread_draws_every_block_in_the_caller(monkeypatch):
    # a single thread starts no helper, so no block is handed to another thread
    drawn_by = set()

    def spy(*args):
        drawn_by.add(threading.get_ident())
        return _uniform_block(*args)

    monkeypatch.setattr(gpops.sampling, "_uniform_block", spy)
    z = _standard_normals(11, 3 * (BLOCK_WORDS // 8), 5, 1)
    assert drawn_by == {threading.get_ident()}
    assert np.array_equal(z, ndtri(_uniform_block(11, 0, z.shape[0], 5)))


def test_path_substreams_depend_only_on_seed_and_index():
    # growing the ensemble must not disturb earlier paths
    g = Grid.uniform_on(0, 1, 9)
    small = sample_paths(PRIOR, g, 50, 13)
    big = sample_paths(PRIOR, g, 200, 13)
    assert np.array_equal(big.paths[:50], small.paths)


def test_single_point_variance():
    # spread of 1000 unit-variance draws; the +-0.09 band (~2 standard errors
    # of the sample variance) was confirmed by a pilot run at this seed
    e = sample_paths(PRIOR, Grid([0.0]), 1000, 42)
    var = e.paths.var(ddof=1)
    assert 0.91 <= var <= 1.09


def test_degenerate_kernel_collapses_to_mean():
    p = GaussianProcessPrior(mean=mean_from_expression("1 + x"),
                             kernel=se_kernel(1.0, 1e-30))
    g = Grid.uniform_on(0, 1, 5)
    e = sample_paths(p, g, 300, 3)
    spread = np.abs(e.paths - p.mean(g.points))
    assert spread.max() <= 1e-4


def test_mean_vector_enters_paths():
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))
    g = Grid.uniform_on(0, 1, 9)
    e = sample_paths(p, g, 20000, 11)
    dev = np.abs(empirical_mean(e) - np.sin(g.points))
    assert dev.max() <= 5.0 / np.sqrt(20000)


def test_sample_paths_validation():
    with pytest.raises(ParameterError):
        sample_paths(PRIOR, Grid([0.0]), 1, 0)


# ------------------------------------------------------- pathwise operators

def test_pathwise_identity_unchanged():
    g = Grid.uniform_on(0, 1, 9)
    e = sample_paths(PRIOR, g, 50, 1)
    out = apply_operator_pathwise(identity(), e)
    np.testing.assert_array_equal(out.paths, e.paths)
    assert out.seed == e.seed


def test_pathwise_derivative_exact_on_quadratics():
    g = Grid.uniform_on(0, 1, 65)
    x = g.points
    e = SampleEnsemble(grid=g, paths=np.tile(x**2, (3, 1)), seed=0)
    out = apply_operator_pathwise(derivative_operator(1), e)
    assert np.abs(out.paths - 2 * x).max() <= 1e-10


def test_pathwise_second_derivative_of_sin():
    # measured truncation at this grid is ~5e-10; 1e-6 is the frozen bound
    g = Grid.uniform_on(0, 1, 65)
    x = g.points
    e = SampleEnsemble(grid=g, paths=np.tile(np.sin(x), (2, 1)), seed=0)
    out = apply_operator_pathwise(derivative_operator(2), e)
    err = np.abs(out.paths[0] - (-np.sin(x)))
    assert err[interior_mask(65, 2)].max() <= 1e-6


def test_pathwise_operator_with_coefficients():
    g = Grid.uniform_on(0, 1, 33)
    x = g.points
    e = SampleEnsemble(grid=g, paths=np.tile(np.sin(x), (2, 1)), seed=0)
    op = LinearOperator([(1, "x"), (0, 1.0)], label="x*d/dx + 1")
    out = apply_operator_pathwise(op, e)
    expected = x * np.cos(x) + np.sin(x)
    assert np.abs(out.paths[0] - expected)[interior_mask(33, 1)].max() <= 1e-6


def test_pathwise_grid_requirements():
    small = Grid.uniform_on(0, 1, 4)
    e = SampleEnsemble(grid=small, paths=np.zeros((2, 4)) + [0.0, 1, 2, 3], seed=0)
    with pytest.raises(GridSizeError):
        apply_operator_pathwise(derivative_operator(1), e)
    ragged = Grid([0.0, 0.1, 0.3, 0.6, 1.0, 1.5])
    e2 = SampleEnsemble(grid=ragged, paths=np.zeros((2, 6)), seed=0)
    with pytest.raises(GridSizeError):
        apply_operator_pathwise(derivative_operator(1), e2)


def test_pathwise_order_cap():
    g = Grid.uniform_on(0, 1, 33)
    e = SampleEnsemble(grid=g, paths=np.zeros((2, 33)), seed=0)
    with pytest.raises(ParameterError):
        apply_operator_pathwise(derivative_operator(5), e)


# -------------------------------------------------------------- statistics

def test_empirical_stats_constant_paths():
    g = Grid.uniform_on(0, 1, 4)
    e = SampleEnsemble(grid=g, paths=np.full((5, 4), 2.5), seed=0)
    np.testing.assert_array_equal(empirical_mean(e), np.full(4, 2.5))
    np.testing.assert_array_equal(empirical_cov(e), np.zeros((4, 4)))


def test_empirical_stats_two_path_hand_example():
    g = Grid.uniform_on(0, 1, 2)
    e = SampleEnsemble(grid=g, paths=np.array([[0.0, 0.0], [2.0, 2.0]]), seed=0)
    np.testing.assert_array_equal(empirical_mean(e), [1.0, 1.0])
    np.testing.assert_array_equal(empirical_cov(e), [[2.0, 2.0], [2.0, 2.0]])


def test_empirical_cov_approaches_gram():
    # measured max deviation at this configuration is ~2e-3; the frozen
    # bound of 0.05 is ~3x the largest entrywise standard error
    from gpops.linalg import gram

    g = Grid.uniform_on(0, 1, 9)
    e = sample_paths(PRIOR, g, 50000, 42)
    dev = np.abs(empirical_cov(e) - gram(PRIOR.kernel, g))
    assert dev.max() <= 0.05


def test_expectation_commutes_with_pathwise_operator():
    # empirical mean of the operator-applied ensemble tracks the operator
    # applied to the mean function (MC noise + stencil truncation budget)
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))
    g = Grid.uniform_on(0, 1, 33)
    n = 20000
    e = sample_paths(p, g, n, 5)
    ve = apply_operator_pathwise(derivative_operator(1), e)
    predicted = pushforward(p, derivative_operator(1)).prior.mean(g.points)
    inner = interior_mask(33, 1)
    dev = np.abs(empirical_mean(ve) - predicted)[inner]
    assert dev.max() <= 5.0 / np.sqrt(n) + 1e-6


def test_ensemble_validation():
    g = Grid.uniform_on(0, 1, 3)
    with pytest.raises(ParameterError):
        SampleEnsemble(grid=g, paths=np.zeros((1, 3)), seed=0)  # one path
    with pytest.raises(ParameterError):
        SampleEnsemble(grid=g, paths=np.zeros((2, 4)), seed=0)  # wrong width
    bad = np.zeros((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ParameterError):
        SampleEnsemble(grid=g, paths=bad, seed=0)
