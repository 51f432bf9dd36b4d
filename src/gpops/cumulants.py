"""Set partitions and empirical joint cumulants of path ensembles.

The n-th joint cumulant of random variables ``u(x_1), ..., u(x_n)`` is the
alternating sum over set partitions

    sum_P (-1)^(|P|-1) (|P|-1)!  prod_{S in P}  E[ prod_{i in S} u(x_i) ],

estimated here by plugging sample means into the moments.  Cumulants of order
three and above vanish exactly for Gaussian ensembles, which is what the
verification harness tests.

The moments are taken of columns centred on their full-sample means.  That
shift leaves every cumulant of order two and above unchanged, and it keeps
the moments free of cancellation when a column's mean is large against its
spread.  Standard errors come from a jackknife over a fixed number of
contiguous path blocks (``JACKKNIFE_FOLDS``).

``empirical_cumulants`` serves many index tuples from one table of centred
column products, one row per distinct index subset; ``empirical_cumulant`` is
its one-tuple case.

Estimates of orders one and two are delegated to the empirical mean and the
unbiased empirical covariance, so they match those estimators to the last
bit; the partition formula reduces to them up to the (N-1 vs N)
normalization, whose bias is far below Monte-Carlo noise at the sample sizes
used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import factorial

import numpy as np

from .errors import EvaluationError, ParameterError
from .sampling import SampleEnsemble, empirical_cov, empirical_mean

__all__ = [
    "Partition",
    "enumerate_partitions",
    "CumulantEstimate",
    "empirical_cumulant",
    "empirical_cumulants",
    "default_cumulant_tuples",
]

MAX_PARTITION_SIZE = 8
MAX_CUMULANT_ORDER = 6
JACKKNIFE_FOLDS = 50
# fewest paths the cumulant estimates accept
MIN_PATHS = 100
FOLDS_PER_CHUNK = 5


@dataclass(frozen=True)
class Partition:
    """A partition of {1, ..., n} into disjoint non-empty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ParameterError("partition blocks must be non-empty")
            if seen & set(block):
                raise ParameterError("partition blocks must be disjoint")
            seen |= set(block)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ParameterError("blocks must cover {1, ..., n} exactly")

    def __len__(self):
        return len(self.blocks)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of {1, ..., n}, in restricted-growth-string order.

    A partition corresponds to the string ``a`` with ``a[i]`` the block index
    of element i+1, subject to ``a[0] = 0`` and ``a[i] <= max(a[:i]) + 1``;
    partitions are emitted in lexicographic order of these strings, so the
    output order is deterministic.  There are Bell(n) of them.
    """
    if not (1 <= n <= MAX_PARTITION_SIZE):
        raise ParameterError(f"n must be in 1..{MAX_PARTITION_SIZE}, got {n}")
    out = []
    rgs = [0] * n

    def rec(i, mx):
        if i == n:
            blocks = [[] for _ in range(mx + 1)]
            for idx, b in enumerate(rgs):
                blocks[b].append(idx + 1)
            out.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        for v in range(mx + 2):
            rgs[i] = v
            rec(i + 1, max(mx, v))

    rec(1, 0)
    return out


@dataclass(frozen=True)
class CumulantEstimate:
    """A plug-in cumulant value with a resampled standard error."""

    order: int
    indices: tuple[int, ...]
    points: tuple[float, ...]
    value: float
    standard_error: float

    @property
    def standardized(self) -> float:
        """|value| in units of its standard error (inf if the error is zero)."""
        if self.standard_error == 0.0:
            return 0.0 if self.value == 0.0 else float("inf")
        return abs(self.value) / self.standard_error


def _plugin_kappa(moments, row, t, partitions):
    # moments[row[key]]: the moment of the entries of tuple t at one block's positions
    total = 0.0
    for part in partitions:
        term = (-1.0) ** (len(part) - 1) * factorial(len(part) - 1)
        for block in part.blocks:
            term *= moments[row[tuple(t[i - 1] for i in block)]]
        total += term
    return total


# Paths far from unit scale overflow the moment products of the higher orders
# (and the jackknife squares them again): each estimate is checked, and named
# where it is made, instead of numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def empirical_cumulants(e: SampleEnsemble, tuples) -> list[CumulantEstimate]:
    """Plug-in cumulants of the ensemble columns picked by each index tuple.

    Indices may repeat (diagonal cumulants).  The standard error comes from a
    grouped jackknife over ``JACKKNIFE_FOLDS`` contiguous path blocks: the
    estimator is recomputed leaving each block out, and the spread of the
    leave-one-out values is scaled by ``(J-1)/J``.  All leave-one-out moments
    come at once from per-block sums of the centred column products.

    The tuples share those products: one row per distinct subset of a
    tuple's entries, multiplied in position order, so each estimate is
    bit-identical to the one its tuple gets on its own.

    Orders 1 and 2 reproduce ``empirical_mean`` / ``empirical_cov`` entries
    exactly (identical floating-point values); their jackknife uses the mean
    and the unbiased covariance of the kept paths.

    Raises :class:`EvaluationError` naming the first estimate whose value or
    standard error is not finite, as when the paths are so large that their
    moment products overflow.
    """
    tuples = [tuple(int(i) for i in t) for t in tuples]
    for t in tuples:
        if not (1 <= len(t) <= MAX_CUMULANT_ORDER):
            raise ParameterError(
                f"cumulant order must be in 1..{MAX_CUMULANT_ORDER}, got {len(t)}")
    if e.n_paths < MIN_PATHS:
        raise ParameterError(f"need at least {MIN_PATHS} paths, got {e.n_paths}")
    n_paths = e.n_paths

    # Rows by key length: the first rows are the centred columns, every later
    # row is its prefix's row times one column.  They are built and summed a
    # few folds at a time, so the table never holds every path at once.
    keys = sorted(dict.fromkeys(s for t in tuples for r in range(1, len(t) + 1)
                                for s in combinations(t, r)), key=len)
    row = {s: k for k, s in enumerate(keys)}
    n_cols = sum(len(s) == 1 for s in keys)
    centred = np.ascontiguousarray(e.paths[:, [s[0] for s in keys[:n_cols]]].T)
    centred -= centred.mean(axis=1, keepdims=True)

    bounds = np.linspace(0, n_paths, JACKKNIFE_FOLDS + 1).astype(int)
    kept = n_paths - np.diff(bounds)
    block_sums = np.empty((len(keys), JACKKNIFE_FOLDS))
    for f in range(0, JACKKNIFE_FOLDS, FOLDS_PER_CHUNK):
        edges = bounds[f:f + FOLDS_PER_CHUNK + 1]  # the chunk's folds and its end
        prods = np.empty((len(keys), edges[-1] - edges[0]))
        prods[:n_cols] = centred[:, edges[0]:edges[-1]]
        for k, s in enumerate(keys[n_cols:], n_cols):
            np.multiply(prods[row[s[:-1]]], prods[row[s[-1:]]], out=prods[k])
        block_sums[:, f:f + FOLDS_PER_CHUNK] = np.add.reduceat(prods, edges[:-1] - edges[0],
                                                              axis=1)
    totals = block_sums.sum(axis=1)
    moments = totals / n_paths
    fold_moments = (totals[:, None] - block_sums) / kept
    orders = {len(t) for t in tuples}
    partitions = {n: enumerate_partitions(n) for n in orders}
    mean = empirical_mean(e) if 1 in orders else None
    cov = empirical_cov(e) if 2 in orders else None

    out = []
    for t in tuples:
        n = len(t)
        value = _plugin_kappa(moments, row, t, partitions[n])
        fold_vals = _plugin_kappa(fold_moments, row, t, partitions[n])
        if n == 1:
            value = mean[t[0]]
        elif n == 2:
            value = cov[t[0], t[1]]
            fold_vals = fold_vals * kept / (kept - 1)
        centered = fold_vals - fold_vals.mean()
        se = float(np.sqrt((JACKKNIFE_FOLDS - 1) / JACKKNIFE_FOLDS * np.sum(centered**2)))
        points = tuple(float(e.grid.points[i]) for i in t)
        if not (math.isfinite(value) and math.isfinite(se)):
            raise EvaluationError(
                f"empirical cumulant of order {n} at x = {points} or its standard error is "
                f"not finite: the paths are too large for its moment products")
        out.append(CumulantEstimate(order=n, indices=t, points=points,
                                    value=float(value), standard_error=se))
    return out


def empirical_cumulant(e: SampleEnsemble, indices) -> CumulantEstimate:
    """Plug-in cumulant of the columns picked by ``indices``: the one-tuple
    case of :func:`empirical_cumulants`."""
    return empirical_cumulants(e, [indices])[0]


def default_cumulant_tuples(n_points: int, order: int, count: int = 10,
                            lo: int = 0, hi: int | None = None) -> list[tuple[int, ...]]:
    """A deterministic set of index tuples for cumulant checks.

    Takes ``order + 2`` evenly spaced indices inside [lo, hi] and returns
    the first ``count`` combinations in lexicographic order; when too few
    distinct-index combinations exist, repeated indices are allowed
    (diagonal cumulants are equally valid).  No randomness: the same
    geometry always yields the same tuples.
    """
    hi = n_points - 1 if hi is None else hi
    if not (0 <= lo <= hi < n_points):
        raise ParameterError(f"invalid index range [{lo}, {hi}] for {n_points} points")
    basis_size = min(order + 2, hi - lo + 1)
    basis = np.unique(np.round(np.linspace(lo, hi, basis_size)).astype(int)).tolist()
    tuples = list(combinations(basis, order))
    if len(tuples) < count:
        tuples = list(combinations_with_replacement(basis, order))
    if len(tuples) < count:
        raise ParameterError(
            f"only {len(tuples)} tuples are constructible from indices "
            f"[{lo}, {hi}], need {count}"
        )
    return [tuple(int(i) for i in t) for t in tuples[:count]]
