"""Set partitions and empirical joint cumulants of path ensembles.

The n-th joint cumulant of random variables ``u(x_1), ..., u(x_n)`` is the
alternating sum over set partitions

    sum_P (-1)^(|P|-1) (|P|-1)!  prod_{S in P}  E[ prod_{i in S} u(x_i) ],

estimated here by plugging sample means into the moments.  Cumulants of order
three and above vanish exactly for Gaussian ensembles, which is what the
verification harness tests.

Every estimate is read from per-fold sums of column products, one row per
distinct index subset of the tuples, built by one :class:`FoldSums`.  It
takes the columns in runs of consecutive paths, so no path array is needed:
verify feeds it the image columns while they are drawn, and
``empirical_cumulants`` feeds it a copy of an ensemble's columns;
``empirical_cumulant`` is the one-tuple case of the latter.  Standard errors
come from a jackknife over a fixed number of contiguous path blocks
(``JACKKNIFE_FOLDS``).

Centring: every cumulant of order two and above is unchanged by a shift of
its columns.  ``empirical_cumulants`` centres an ensemble's columns on their
sample means, which keeps the moments free of cancellation when a column's
mean is large against its spread.  Verify's columns ``z c`` of the white
draw are taken about 0, their mean in law, so their moment sums about 0 do
not cancel either.

``empirical_cumulants`` delegates estimates of orders one and two to the
empirical mean and the unbiased empirical covariance, so they match those
estimators to the last bit; the partition formula reduces to them up to the
(N-1 vs N) normalization, whose bias is far below Monte-Carlo noise at the
sample sizes used here.
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
    "FoldSums",
    "default_cumulant_tuples",
]

MAX_PARTITION_SIZE = 8
MAX_CUMULANT_ORDER = 6
JACKKNIFE_FOLDS = 50
# fewest paths the cumulant estimates accept
MIN_PATHS = 100
# Paths per block of the product table: 73 products of 1024 paths are 0.6 MB.
# A fixed count, not one sized by the table, so that a key's sums are grouped
# the same whichever tuples share the table.
BLOCK_ROWS = 2**10


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


class FoldSums:
    """Per-fold sums of column products: all that the jackknife reads of the paths.

    Built from the index tuples and the path count N.  Its table has one row
    per distinct subset of a tuple's entries (a key), the product of the
    columns at the subset's positions, multiplied in position order, so a
    key's sums do not depend on which other tuples share the table.
    :meth:`add` takes the rows of the ``columns`` (the distinct indices the
    tuples read, in increasing order) in any runs of consecutive paths, and
    :meth:`estimates` turns the sums into one :class:`CumulantEstimate` per
    tuple.  The paths themselves are never held.
    """

    def __init__(self, tuples, n_paths: int):
        self.tuples = [tuple(int(i) for i in t) for t in tuples]
        for t in self.tuples:
            if not (1 <= len(t) <= MAX_CUMULANT_ORDER):
                raise ParameterError(
                    f"cumulant order must be in 1..{MAX_CUMULANT_ORDER}, got {len(t)}")
        if n_paths < MIN_PATHS:
            raise ParameterError(f"need at least {MIN_PATHS} paths, got {n_paths}")
        self.n_paths = int(n_paths)
        # Rows by key length: the first rows are the columns, in index order,
        # and every later row is its prefix's row times one column
        keys = sorted({s for t in self.tuples for r in range(1, len(t) + 1)
                       for s in combinations(t, r)}, key=lambda s: (len(s), s))
        self._row = {s: k for k, s in enumerate(keys)}
        self.columns = [s[0] for s in keys if len(s) == 1]
        self._products = [(k, self._row[s[:-1]], self._row[s[-1:]])
                          for k, s in enumerate(keys) if len(s) > 1]
        self._bounds = np.linspace(0, self.n_paths, JACKKNIFE_FOLDS + 1).astype(int)
        self._sums = np.zeros((len(keys), JACKKNIFE_FOLDS))
        self._table = np.empty((len(keys), min(BLOCK_ROWS, self.n_paths)))

    # Paths far from unit scale overflow the moment products of the higher
    # orders (and the jackknife squares them again): each estimate is
    # checked, and named where it is made, instead of numpy warning.
    @np.errstate(over="ignore", invalid="ignore")
    def add(self, lo: int, block: np.ndarray):
        """Add paths ``lo .. lo + len(block)`` to their folds' sums.

        ``block[:, j]`` is column ``columns[j]``.  The run is cut at the fold
        bounds and at the multiples of ``BLOCK_ROWS``, so runs that end at
        those multiples give the sums of one run bit for bit.
        """
        table, bounds, hi = self._table, self._bounds, lo + len(block)
        a = lo
        while a < hi:
            b = min(hi, (a // BLOCK_ROWS + 1) * BLOCK_ROWS)
            prods = table[:, :b - a]
            prods[:len(self.columns)] = block[a - lo:b - lo].T
            for k, i, j in self._products:
                np.multiply(prods[i], prods[j], out=prods[k])
            # the folds that [a, b) reaches, and where each starts in it
            f, g = np.searchsorted(bounds, a, "right") - 1, np.searchsorted(bounds, b, "left")
            self._sums[:, f:g] += np.add.reduceat(prods, np.maximum(bounds[f:g], a) - a, axis=1)
            a = b

    @np.errstate(over="ignore", invalid="ignore")
    def estimates(self, points, mean=None, cov=None) -> list[CumulantEstimate]:
        """The plug-in cumulant of each tuple, with its grouped-jackknife standard error.

        The estimator is recomputed leaving each of the ``JACKKNIFE_FOLDS``
        contiguous path blocks out, from the per-fold sums, and the spread of
        the leave-one-out values is scaled by ``(J-1)/J``.  The jackknife of
        order 2 uses the unbiased covariance of the kept paths; orders 1 and 2
        take their values from ``mean`` and ``cov`` when given.  A tuple's
        points are ``points[i]`` for its indices ``i``.

        Raises :class:`EvaluationError` naming the first estimate whose value
        or standard error is not finite, as when the paths are so large that
        their moment products overflow.
        """
        n_paths = self.n_paths
        kept = n_paths - np.diff(self._bounds)
        totals = self._sums.sum(axis=1)
        moments = totals / n_paths
        fold_moments = (totals[:, None] - self._sums) / kept
        partitions = {n: enumerate_partitions(n) for n in {len(t) for t in self.tuples}}

        out = []
        for t in self.tuples:
            n = len(t)
            value = _plugin_kappa(moments, self._row, t, partitions[n])
            fold_vals = _plugin_kappa(fold_moments, self._row, t, partitions[n])
            if n == 1 and mean is not None:
                value = mean[t[0]]
            elif n == 2:
                if cov is not None:
                    value = cov[t[0], t[1]]
                fold_vals = fold_vals * kept / (kept - 1)
            centered = fold_vals - fold_vals.mean()
            se = float(np.sqrt((JACKKNIFE_FOLDS - 1) / JACKKNIFE_FOLDS * np.sum(centered**2)))
            at = tuple(float(points[i]) for i in t)
            if not (math.isfinite(value) and math.isfinite(se)):
                raise EvaluationError(
                    f"empirical cumulant of order {n} at x = {at} or its standard error is "
                    f"not finite: the paths are too large for its moment products")
            out.append(CumulantEstimate(order=n, indices=t, points=at,
                                        value=float(value), standard_error=se))
        return out


# An ensemble far from unit scale overflows its column means and covariance
# too; the estimates name it
@np.errstate(over="ignore", invalid="ignore")
def empirical_cumulants(e: SampleEnsemble, tuples) -> list[CumulantEstimate]:
    """Plug-in cumulants of the ensemble columns picked by each index tuple.

    Indices may repeat (diagonal cumulants).  The columns the tuples read are
    copied once, centred on their sample means, and reduced by one
    :class:`FoldSums`, whose jackknife gives the standard errors.  The tuples
    share its product table, so each estimate is bit-identical to the one its
    tuple gets on its own.

    Orders 1 and 2 reproduce ``empirical_mean`` / ``empirical_cov`` entries
    exactly (identical floating-point values); their jackknife uses the mean
    and the unbiased covariance of the kept paths.

    Raises :class:`EvaluationError` naming the first estimate whose value or
    standard error is not finite.
    """
    sums = FoldSums(tuples, e.n_paths)
    centred = e.paths.T[sums.columns]
    centred -= centred.mean(axis=1, keepdims=True)
    sums.add(0, centred.T)
    orders = {len(t) for t in sums.tuples}
    return sums.estimates(e.grid.points, mean=empirical_mean(e) if 1 in orders else None,
                          cov=empirical_cov(e) if 2 in orders else None)


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
