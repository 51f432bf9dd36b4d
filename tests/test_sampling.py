"""Seeded ensembles: reproducibility, statistics, pathwise operator action."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from gpops.errors import DimensionError, GridSizeError, ParameterError
from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.linalg import gram
from gpops.means import mean_from_expression, zero_mean
import gpops.linalg
from gpops.operators import LinearOperator, derivative_operator, identity
import gpops.sampling
from gpops.processes import GaussianProcessPrior
from gpops.sampling import (FactoredDraw, GaussianDraw, SampleEnsemble, apply_operator_pathwise,
                            draw_factored, empirical_cov, empirical_mean, sample_paths)
from gpops.stencils import interior_mask
from gpops.transform import pushforward

PRIOR = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))


def prior_draw(p, grid, n_paths, seed):
    # the draw of the prior's finite marginal on the grid, as sample_paths makes it
    return draw_factored(p.mean(grid.points), gram(p.kernel, grid), n_paths, seed)


def normals(seed, n_paths, n_points):
    # one unchunked draw of paths 0 .. n_paths
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal((n_paths, n_points))


@contextmanager
def ambient_blas_threads(count):
    # the process-wide OpenBLAS thread count a caller leaves set; every reader
    # of a draw holds it at one, so no path may depend on it.  When numpy's
    # BLAS is uncontrolled the count cannot be set and the body runs as is.
    blas = gpops.linalg._resolve_openblas()
    if not blas:
        yield
        return
    before = blas.get()
    blas.set(count)
    try:
        yield
    finally:
        blas.set(before)


def materialize(d):
    # the draw's chunks copied into one N x n array
    z = np.empty((d.n_paths, d.n_points))
    for lo, chunk in d.chunks():
        z[lo:lo + len(chunk)] = chunk
    return z


def test_same_seed_is_bit_identical():
    g = Grid.uniform_on(0, 1, 9)
    a = sample_paths(PRIOR, g, 200, 42)
    b = sample_paths(PRIOR, g, 200, 42)
    assert np.array_equal(a.paths, b.paths)
    c = sample_paths(PRIOR, g, 200, 43)
    assert not np.array_equal(a.paths, c.paths)


def test_sample_paths_is_mean_plus_factor_times_white_draw():
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"), kernel=se_kernel(0.5))
    g = Grid.uniform_on(0, 1, 9)
    d = prior_draw(p, g, 200, 42)
    z = materialize(d)
    assert np.array_equal(z, normals(42, 200, 9))
    assert np.array_equal(d.mean, np.sin(g.points))
    e = sample_paths(p, g, 200, 42)
    assert np.array_equal(e.paths, z @ d.factor.T + d.mean)
    assert (e.seed, e.jitter) == (d.seed, d.jitter) == (42, 0.0)


@pytest.mark.parametrize("n_points, n_paths", [(8, 300), (8, 1024), (8, 1025), (9, 911)],
                         ids=["below-one-chunk", "two-chunks", "two-chunks+1", "9-points"])
@pytest.mark.parametrize("chunk_entries", [2**12, 3 * 2**10])
def test_stream_chunks_are_the_unchunked_draw(monkeypatch, n_points, n_paths, chunk_entries):
    # 4096-entry chunks: 512 rows of 8 points, 455 rows of 9 points; 3072-entry
    # chunks: 384 and 341 rows.  Either way the chunks are the one whole draw.
    monkeypatch.setattr(gpops.sampling, "CHUNK_ENTRIES", chunk_entries)
    white = FactoredDraw(mean=np.zeros(n_points), factor=np.eye(n_points), n_paths=n_paths,
                         seed=3)
    rows = chunk_entries // n_points
    spans = [(lo, len(z)) for lo, z in white.chunks()]
    assert spans == [(lo, min(rows, n_paths - lo)) for lo in range(0, n_paths, rows)]
    assert np.array_equal(materialize(white), normals(3, n_paths, n_points))


def test_stream_draws_nothing_until_read():
    # 10^9 paths of 9 points are 72 GB of normals if drawn; the draw holds its
    # 9 x 9 factor until a chunk is read, and then one 8 MB chunk
    g = Grid.uniform_on(0, 1, 9)
    tracemalloc.start()
    try:
        chunks = prior_draw(PRIOR, g, 10**9, 1).chunks()
        _, unread = tracemalloc.get_traced_memory()
        lo, z = next(chunks)
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unread < 1e6
    assert lo == 0 and z.shape == (gpops.sampling.CHUNK_ENTRIES // 9, 9)
    assert read < 1e7


@pytest.mark.parametrize("ambient", [1, 3])
def test_sample_paths_multiplies_each_chunk_of_the_stream(monkeypatch, ambient):
    # 4096-entry chunks: 1000 paths of 9 points take chunks of 455, 455 and
    # 90 rows, drawn and multiplied whatever BLAS thread count the caller set
    monkeypatch.setattr(gpops.sampling, "CHUNK_ENTRIES", 2**12)
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"), kernel=matern_kernel(2.5, 0.5))
    g = Grid.uniform_on(0, 1, 9)
    with ambient_blas_threads(ambient):
        d = prior_draw(p, g, 1000, 42)
        z = materialize(d)
        e = sample_paths(p, g, 1000, 42)
    assert np.array_equal(z, normals(42, 1000, 9))
    by_chunk = np.concatenate([z[lo:lo + 455] @ d.factor.T for lo in (0, 455, 910)])
    assert np.array_equal(e.paths, by_chunk + d.mean)
    # one product over every row may round a row near a chunk boundary
    # differently in its last bit, where the BLAS kernel tiles rows otherwise
    whole = z @ d.factor.T + d.mean
    assert np.max(np.abs(e.paths - whole)) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("ambient", [1, 2])
def test_sample_paths_holds_one_path_array(ambient):
    # 20k x 257 paths are 41 MB and one chunk of normals 8 MB (55 MB traced
    # at peak); an N x n array of normals beside the paths would add 41 MB,
    # whatever BLAS thread count the caller set
    p = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(2.5, 0.5))
    g = Grid.uniform_on(0, 1, 257)
    tracemalloc.start()
    try:
        with ambient_blas_threads(ambient):
            sample_paths(p, g, 20_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60e6


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


def test_ensemble_keeps_the_sampling_jitter():
    # SE at lengthscale 0.5 on 33 points is numerically singular and takes the
    # first ladder step; Matern 5/2 on 257 points factors as given
    mean = mean_from_expression("sin(x)")
    se = GaussianProcessPrior(mean=mean, kernel=se_kernel(0.5, 1.0))
    e = sample_paths(se, Grid.uniform_on(0, 1, 33), 100, 1)
    assert e.jitter == 1e-12
    assert apply_operator_pathwise(derivative_operator(2), e).jitter == 1e-12
    matern = GaussianProcessPrior(mean=mean, kernel=matern_kernel(2.5, 0.5, 1.0))
    assert sample_paths(matern, Grid.uniform_on(0, 1, 257), 100, 1).jitter == 0.0


def test_sample_paths_validation():
    with pytest.raises(ParameterError):
        sample_paths(PRIOR, Grid([0.0]), 1, 0)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0])
def test_seed_outside_the_philox_key_range_raises(seed):
    # -1 once keyed Philox as 2^64 - 1: two seeds, one ensemble
    with pytest.raises(ParameterError, match="seed must be an integer in"):
        draw_factored(np.zeros(5), np.eye(5), 10, seed)


def test_draw_larger_than_any_array_raises():
    # refused before any allocation: 10^18 x 17 doubles exceed sys.maxsize bytes
    with pytest.raises(ParameterError, match="1000000000000000000 paths of 17 points"):
        draw_factored(np.zeros(17), np.eye(17), 10**18, 1)


def test_draw_refuses_a_mean_and_gram_of_different_sizes():
    with pytest.raises(DimensionError, match="a mean of 4 entries does not match a Gram of "
                                             "order 5"):
        draw_factored(np.zeros(4), np.eye(5), 10, 1)


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
    predicted = pushforward(p, derivative_operator(1)).mean(g.points)
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


# ------------------------------------------------ the moments' exact law

# Draws per side of each two-sample KS test, and the smallest p-value a
# statistic may show.  The seeds are fixed, so each test is deterministic on
# one platform; on another numpy or LAPACK the draws change, and about 45
# statistics at 1e-6 fail by chance with probability 5e-5.  Bartlett degrees
# of freedom off by one, or a dropped w2^t U block or G G^t term, gave p-values
# below 1e-12.
LAW_DRAWS = 6000
LAW_MIN_P = 1e-6


def _white(n_points, n_paths, seed):
    return GaussianDraw(mean=np.zeros(n_points), factor=np.eye(n_points), n_paths=n_paths,
                        seed=seed)


def collect_moments(d, c):
    # (zbar, cov(z), z c): the draw's moments, with the blocks of z c that it
    # passes on collected into one array; each row must come once, in order
    zc, rows = np.empty((d.n_paths, c.shape[1])), [0]

    def collect(lo, block):
        assert lo == rows[0]
        zc[lo:lo + len(block)] = block
        rows[0] += len(block)

    zbar, cov = d.moments(c, collect)
    assert rows[0] == d.n_paths
    return zbar, cov, zc


def _mixed_statistics(zbar, cov, zc):
    # per draw, statistics of sum z, z^t z and z c, alone and mixed across
    # them; the batch axis leads
    n_paths = zc.shape[-2]
    ztz00 = (n_paths - 1) * cov[..., 0, 0] + n_paths * zbar[..., 0] ** 2
    return np.stack([
        zbar[..., 0],
        n_paths * np.sum(zbar ** 2, axis=-1),
        np.trace(cov, axis1=-2, axis2=-1),
        cov[..., 0, 1],
        cov[..., -1, -1],
        np.sum(cov ** 2, axis=(-2, -1)),
        np.sum(zc[..., 0] ** 4, axis=-1) * ztz00,
        np.sum(zc[..., 0] * zc[..., -1], axis=-1) * zbar[..., -1],
        np.einsum("...i,...ij,...j", zbar, cov, zbar),
    ], axis=-1)


def _law_pvalues(n_points, n_paths, c, draws=LAW_DRAWS):
    # each statistic of the drawn moments against the same of explicit draws
    from scipy.stats import ks_2samp

    drawn = np.array([_mixed_statistics(*collect_moments(_white(n_points, n_paths, seed), c))
                      for seed in range(draws)])
    z = np.random.default_rng(2023).standard_normal((draws, n_paths, n_points))
    zbar = z.mean(axis=1)
    centred = z - zbar[:, None, :]
    cov = np.einsum("sni,snj->sij", centred, centred) / (n_paths - 1)
    explicit = _mixed_statistics(zbar, cov, z @ c)
    return [ks_2samp(a, b).pvalue for a, b in zip(drawn.T, explicit.T)]


def _assert_moment_identities(n_points, n_paths, c, seed):
    # c^t sum z = sum of the rows of z c, and c^t z^t z c = (z c)^t (z c)
    zbar, cov, zc = collect_moments(_white(n_points, n_paths, seed), c)
    ztz = (n_paths - 1) * cov + n_paths * np.outer(zbar, zbar)
    scale = n_paths * max(1.0, float(np.max(np.abs(c))) ** 2)
    assert zc.shape == (n_paths, c.shape[1])
    assert np.max(np.abs(c.T @ zbar * n_paths - zc.sum(axis=0))) <= 1e-12 * scale
    assert np.max(np.abs(c.T @ ztz @ c - zc.T @ zc)) <= 1e-12 * scale


def test_drawn_moments_follow_the_law_of_explicit_draws():
    # 30 paths of 6 points read through two columns: the rotation, the cross
    # block w2^t U and the Bartlett factor are all drawn
    c = np.random.default_rng(1).standard_normal((6, 2))
    _assert_moment_identities(6, 30, c, 7)
    assert min(_law_pvalues(6, 30, c)) > LAW_MIN_P


@pytest.mark.parametrize("c", [
    np.column_stack([np.arange(6.0), np.arange(6.0), np.zeros(6), 2.0 * np.arange(6.0) + 1.0]),
    np.zeros((6, 2)),
    np.random.default_rng(2).standard_normal((6, 9)),
], ids=["rank-2-of-4", "rank-0", "more-columns-than-points"])
def test_drawn_moments_follow_the_law_for_rank_deficient_columns(c):
    _assert_moment_identities(6, 30, c, 7)
    assert min(_law_pvalues(6, 30, c, draws=2000)) > LAW_MIN_P


def test_drawn_moments_follow_the_law_with_no_more_paths_than_points():
    # 8 paths of 8 points: no Wishart remainder, the paths' normals are drawn
    c = np.random.default_rng(3).standard_normal((8, 2))
    _assert_moment_identities(8, 8, c, 7)
    assert min(_law_pvalues(8, 8, c, draws=2000)) > LAW_MIN_P
    # they are the normals of the paths that sample draws, reduced in one chunk
    z = normals(7, 8, 8)
    zbar = z.sum(axis=0) / 8
    reduced = (zbar, (z.T @ z - 8 * np.outer(zbar, zbar)) / 7, z @ c)
    assert all(np.array_equal(a, b) for a, b in zip(collect_moments(_white(8, 8, 7), c), reduced))


def test_drawn_moments_depend_on_the_seed_alone():
    c = np.random.default_rng(4).standard_normal((9, 3))
    one = collect_moments(_white(9, 500, 11), c)
    again = collect_moments(GaussianDraw(mean=np.ones(9), factor=2.0 * np.eye(9), n_paths=500,
                                         seed=11), c)
    other = collect_moments(_white(9, 500, 12), c)
    assert all(np.array_equal(a, b) for a, b in zip(one, again))
    assert not np.array_equal(one[0], other[0])


def _moments_of_one_whole_draw(d, c):
    # the drawn moments with w1 drawn in one call and z c formed at once: the
    # blocked draw must read the generator in this order
    rng = np.random.Generator(np.random.Philox(key=d.seed))
    n_paths, n = d.n_paths, d.n_points
    q, sv, vt = np.linalg.svd(c)
    r = int(np.count_nonzero(sv > sv[:1] * max(c.shape) * np.finfo(float).eps))
    w1 = rng.standard_normal((n_paths, r))
    w1sum = w1.sum(axis=0)
    utu = np.block([[np.array([[float(n_paths)]]), w1sum[None, :]],
                    [w1sum[:, None], w1.T @ w1]])
    g = rng.standard_normal((n - r, r + 1))
    w2u = g @ np.linalg.cholesky(utu).T
    bartlett = np.tril(rng.standard_normal((n - r, n - r)), -1)
    bartlett[np.diag_indices(n - r)] = np.sqrt(rng.chisquare(n_paths - r - 1 - np.arange(n - r)))
    wtw = np.block([[utu[1:, 1:], w2u[:, 1:].T], [w2u[:, 1:], g @ g.T + bartlett @ bartlett.T]])
    zbar = q @ np.concatenate([w1sum, w2u[:, 0]]) / n_paths
    ztz = q @ wtw @ q.T
    cov = (ztz - n_paths * np.outer(zbar, zbar)) / (n_paths - 1)
    return zbar, cov, w1 @ (sv[:r, None] * vt[:r])


@pytest.mark.parametrize("n_points, n_paths, columns, block_entries", [
    (9, 5000, 3, 2**10), (9, 5000, 3, 2**15), (6, 1001, 9, 50), (6, 300, 2, 1)],
    ids=["many-blocks", "one-block", "more-columns-than-points", "one-row-blocks"])
def test_drawn_moments_in_blocks_are_the_moments_of_one_whole_draw(monkeypatch, n_points,
                                                                  n_paths, columns,
                                                                  block_entries):
    # w1 is drawn block by block, before G and the Bartlett factor: the same
    # normals, so the moments move only by the regrouped sums, at roundoff
    monkeypatch.setattr(gpops.sampling, "BLOCK_ENTRIES", block_entries)
    c = np.random.default_rng(n_paths).standard_normal((n_points, columns))
    d = _white(n_points, n_paths, 3)
    for got, ref in zip(collect_moments(d, c), _moments_of_one_whole_draw(d, c), strict=True):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_normal_blocks_are_one_whole_draw():
    d = _white(4, 1000, 9)
    rng = np.random.Generator(np.random.Philox(key=9))
    blocks = [(lo, w.copy()) for lo, w in d.normal_blocks(rng, 3, 128)]
    assert [lo for lo, _ in blocks] == list(range(0, 1000, 128))
    assert np.array_equal(np.concatenate([w for _, w in blocks]), normals(9, 1000, 3))


def test_draw_factored_returns_the_gaussian_draw_whose_paths_are_chunked():
    d = prior_draw(PRIOR, Grid.uniform_on(0.0, 1.0, 9), 300, 5)
    assert type(d) is GaussianDraw
    assert np.array_equal(d.paths(), FactoredDraw(**vars(d)).paths())
