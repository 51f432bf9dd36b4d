"""Partition enumeration and plug-in cumulant estimation.

The partition oracle is independent: counts come from the Bell-triangle
recurrence, and for small n the full partition sets are rebuilt by brute
force over all block assignments.
"""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpops.cumulants import (CumulantEstimate, Partition, default_cumulant_tuples,
                             empirical_cumulant, enumerate_partitions)
from gpops.errors import ParameterError
from gpops.grids import Grid
from gpops.kernels import se_kernel
from gpops.means import zero_mean
from gpops.processes import GaussianProcessPrior
from gpops.sampling import SampleEnsemble, empirical_cov, empirical_mean, sample_paths

PRIOR = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))


def bell_numbers(n_max):
    # Bell triangle recurrence, independent of the enumerator under test:
    # each row starts with the previous row's last entry; entries add the
    # value above; Bell(n) is the last entry of row n.
    rows = [[1]]
    for _ in range(n_max - 1):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [row[-1] for row in rows]


def brute_force_partitions(n):
    # canonicalized set of all block-assignment functions {1..n} -> {0..n-1}
    seen = set()
    for assignment in np.ndindex(*([n] * n)):
        blocks = {}
        for i, b in enumerate(assignment):
            blocks.setdefault(b, []).append(i + 1)
        seen.add(frozenset(frozenset(v) for v in blocks.values()))
    return seen


# ------------------------------------------------------------- partitions

def test_partition_counts_match_bell_numbers():
    frozen = [1, 2, 5, 15, 52, 203, 877, 4140]
    oracle = bell_numbers(8)
    assert oracle == frozen
    for n in range(1, 9):
        assert len(enumerate_partitions(n)) == frozen[n - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_partitions_match_brute_force_sets(n):
    ours = {frozenset(frozenset(b) for b in p.blocks) for p in enumerate_partitions(n)}
    assert ours == brute_force_partitions(n)


def test_partitions_distinct_and_valid():
    for n in (3, 5, 7):
        parts = enumerate_partitions(n)
        reprs = {tuple(sorted(tuple(sorted(b)) for b in p.blocks)) for p in parts}
        assert len(reprs) == len(parts)
        for p in parts:
            flat = sorted(i for b in p.blocks for i in b)
            assert flat == list(range(1, n + 1))


def test_partition_order_is_rgs_lexicographic():
    parts = enumerate_partitions(3)
    as_tuples = [tuple(tuple(b) for b in p.blocks) for p in parts]
    assert as_tuples == [
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    ]


def test_partition_bounds():
    with pytest.raises(ParameterError):
        enumerate_partitions(0)
    with pytest.raises(ParameterError):
        enumerate_partitions(9)


def test_partition_type_validation():
    with pytest.raises(ParameterError):
        Partition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ParameterError):
        Partition(((1,), (3,)))  # gap
    with pytest.raises(ParameterError):
        Partition(((1,), ()))  # empty block


@given(st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_partition_block_count_extremes(n):
    parts = enumerate_partitions(n)
    sizes = [len(p) for p in parts]
    assert min(sizes) == 1 and max(sizes) == n


# -------------------------------------------------------------- cumulants

def _gaussian_ensemble(n_paths=2000, n_points=9, seed=42):
    return sample_paths(PRIOR, Grid.uniform_on(0, 1, n_points), n_paths, seed)


def test_order_one_is_exactly_the_mean():
    e = _gaussian_ensemble()
    est = empirical_cumulant(e, (3,))
    assert est.value == empirical_mean(e)[3]


def test_order_two_is_exactly_the_covariance_entry():
    e = _gaussian_ensemble()
    cov = empirical_cov(e)
    for idx in [(0, 0), (2, 5), (8, 8), (5, 2)]:
        est = empirical_cumulant(e, idx)
        assert est.value == cov[idx]  # identical floating-point result


def test_partition_formula_reduction_at_order_two():
    # hand-check of the two-partition expansion on a tiny deterministic set
    paths = np.array([[1.0, 2.0], [3.0, 5.0], [2.0, 2.0], [0.0, 1.0]] * 30)
    e = SampleEnsemble(grid=Grid([0.0, 1.0]), paths=paths, seed=0)
    u1, u2 = paths[:, 0], paths[:, 1]
    n = len(u1)
    plugin = np.mean(u1 * u2) - np.mean(u1) * np.mean(u2)
    unbiased = plugin * n / (n - 1)
    est = empirical_cumulant(e, (0, 1))
    assert est.value == pytest.approx(unbiased, rel=1e-12)


def test_third_cumulant_of_exponential_hits_two():
    # kappa_3 of Exp(1) is 2 (third central moment of the unit exponential);
    # the ensemble itself is generated by an independent route
    rng = np.random.default_rng(20240811)
    draws = rng.exponential(size=(100000, 1))
    e = SampleEnsemble(grid=Grid([0.0]), paths=draws, seed=0)
    est = empirical_cumulant(e, (0, 0, 0))
    assert abs(est.value - 2.0) <= 5.0 * est.standard_error
    assert est.standard_error > 0


def test_fourth_cumulant_of_exponential_hits_six():
    rng = np.random.default_rng(99)
    draws = rng.exponential(size=(200000, 1))
    e = SampleEnsemble(grid=Grid([0.0]), paths=draws, seed=0)
    est = empirical_cumulant(e, (0, 0, 0, 0))
    assert abs(est.value - 6.0) <= 5.0 * est.standard_error


def test_gaussian_null_across_seeds():
    # pure sampling ensembles: standardized 3rd/4th cumulants stay below 5
    # for at least 19 of 20 seeds (measured: 20 of 20)
    fails = 0
    for seed in range(100, 120):
        e = _gaussian_ensemble(n_paths=5000, seed=seed)
        worst = 0.0
        for order in (3, 4):
            for tup in default_cumulant_tuples(9, order, count=5):
                worst = max(worst, empirical_cumulant(e, tup).standardized)
        if worst > 5.0:
            fails += 1
    assert fails <= 1


def _leave_block_out_oracle(paths, indices, folds=50):
    # The estimator recomputed on each leave-one-block-out sample from raw
    # moments, one boolean mask per block.
    cols = paths[:, list(indices)]
    n = len(indices)

    def estimate(x):
        if n == 1:
            return x[:, 0].mean()
        if n == 2:
            a, b = x[:, 0] - x[:, 0].mean(), x[:, 1] - x[:, 1].mean()
            return a @ b / (len(x) - 1)
        total = 0.0
        for part in enumerate_partitions(n):
            term = (-1.0) ** (len(part) - 1) * factorial(len(part) - 1)
            for block in part.blocks:
                term *= np.mean(np.prod(x[:, [i - 1 for i in block]], axis=1))
            total += term
        return total

    bounds = np.linspace(0, len(cols), folds + 1).astype(int)
    fold_vals = []
    for j in range(folds):
        keep = np.ones(len(cols), dtype=bool)
        keep[bounds[j]:bounds[j + 1]] = False
        fold_vals.append(estimate(cols[keep]))
    fold_vals = np.array(fold_vals)
    se = np.sqrt((folds - 1) / folds * np.sum((fold_vals - fold_vals.mean()) ** 2))
    return estimate(cols), se


@pytest.mark.parametrize("indices", [(0,), (3,), (1, 4), (2, 2), (0, 1, 2), (1, 1, 4),
                                     (0, 2, 3, 4), (2, 2, 4, 4), (3, 3, 3, 3)])
def test_jackknife_matches_leave_block_out_oracle(indices):
    # correlated, skewed columns with nonzero means; 1013 paths give blocks
    # of unequal size
    rng = np.random.default_rng(314)
    base = rng.exponential(size=(1013, 5))
    paths = base @ (np.eye(5) + 0.3 * rng.random((5, 5))) + np.linspace(-1.0, 1.0, 5)
    e = SampleEnsemble(grid=Grid(np.linspace(0, 1, 5)), paths=paths, seed=0)
    value, se = _leave_block_out_oracle(paths, indices)
    est = empirical_cumulant(e, indices)
    assert se > 0
    assert abs(est.value - value) <= 1e-10 * se
    assert abs(est.standard_error - se) <= 1e-10 * se


@pytest.mark.parametrize("shift", [1e3, 1e6])
def test_higher_cumulants_do_not_move_under_a_mean_shift(shift):
    # raw moments would cancel catastrophically once |mean| >> sd
    prior = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5, 1.0))
    e = sample_paths(prior, Grid.uniform_on(0, 1, 9), 20000, 5)
    shifted = SampleEnsemble(grid=e.grid, paths=e.paths + shift, seed=e.seed)
    tuples = [(2, 2, 6, 6), (1, 4, 7)] + default_cumulant_tuples(9, 3, count=5) \
        + default_cumulant_tuples(9, 4, count=5)
    for t in tuples:
        ref = empirical_cumulant(e, t)
        moved = empirical_cumulant(shifted, t)
        assert abs(moved.value - ref.value) <= 1e-6 * ref.standard_error
        assert abs(moved.standard_error - ref.standard_error) <= 1e-6 * ref.standard_error


def test_cumulant_estimate_metadata():
    e = _gaussian_ensemble()
    est = empirical_cumulant(e, (1, 2, 3))
    assert est.order == 3
    assert est.points == tuple(e.grid.points[[1, 2, 3]])
    assert isinstance(est, CumulantEstimate)


def test_cumulant_preconditions():
    e = _gaussian_ensemble(n_paths=150)
    with pytest.raises(ParameterError):
        empirical_cumulant(e, (0,) * 7)  # order above the cap
    small = SampleEnsemble(grid=Grid([0.0]), paths=np.zeros((50, 1)) + np.arange(50)[:, None], seed=0)
    with pytest.raises(ParameterError):
        empirical_cumulant(small, (0, 0))  # too few paths


def test_default_tuples_deterministic_and_in_range():
    a = default_cumulant_tuples(33, 3, count=10, lo=2, hi=30)
    b = default_cumulant_tuples(33, 3, count=10, lo=2, hi=30)
    assert a == b
    assert len(a) == 10 and len(set(a)) == 10
    for t in a:
        assert all(2 <= i <= 30 for i in t)
    quads = default_cumulant_tuples(33, 4, count=10, lo=2, hi=30)
    assert len(quads) == 10 and all(len(t) == 4 for t in quads)
