import contextlib
import glob
import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import gpops.linalg
import gpops.sampling
import gpops.verify
from gpops.errors import DimensionError, NotPositiveDefiniteError, ParameterError
from gpops.grids import Grid
from gpops.kernels import Kernel, KernelBifunction, matern_kernel, se_kernel
from gpops.linalg import (PackedLower, blas_threads, chol_psd, gram, jitter_ladder,
                          one_blas_thread, solve_lower)
from gpops.means import zero_mean
from gpops.operators import LinearOperator, apply_both, derivative_operator
from gpops.processes import GaussianProcessPrior


def test_gram_single_point():
    k = se_kernel(1.0, 1.0)
    m = gram(k, Grid([0.0]))
    assert m.shape == (1, 1)
    assert m[0, 0] == 1.0


def test_gram_two_points():
    k = se_kernel(1.0, 1.0)
    m = gram(k, Grid([0.0, 1.0]))
    e = math.exp(-0.5)
    np.testing.assert_allclose(m, [[1.0, e], [e, 1.0]], rtol=1e-15)
    assert np.array_equal(m, m.T)  # the upper triangle mirrors the lower


def _verify_small_image(k):
    # the image kernel of perfbench's verify-small operator: three terms with
    # variable coefficients on each argument
    op = LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")])
    return apply_both(op, k)


def _counting(k, counts):
    # k over a base whose series records how many entries it evaluates
    def series(s, a):
        counts.append(np.size(s))
        return k.base.series(s, a)

    base = Kernel(series, k.base.sample_smoothness, k.base.label, k.base.fold)
    return KernelBifunction(base, k.terms1, k.terms2, label=k.label)


@pytest.mark.parametrize("n", [1, 2, 64, 65, 513])
@pytest.mark.parametrize("kernel", ["matern52", "verify-small-image"])
def test_gram_is_the_lower_triangle_of_the_table_mirrored(kernel, n):
    # the lower triangle is __call__'s bit for bit, the table exactly
    # symmetric, and each entry below the diagonal is evaluated about once:
    # only the diagonal squares of fill_lower's row blocks are evaluated whole
    k = matern_kernel(2.5, 0.5)
    if kernel == "verify-small-image":
        k = _verify_small_image(se_kernel(0.5))
    grid = Grid.uniform_on(0.0, 1.0, n)
    x = grid.points
    counts = []
    m = gram(_counting(k, counts), grid)
    lower = np.tri(n, dtype=bool)
    assert np.array_equal(m[lower], k(x[:, None], x[None, :])[lower])
    assert np.array_equal(m, m.T)
    if n == 513:
        assert sum(counts) <= 0.6 * n * n


def test_gram_mirror_holds_no_table_sized_temporary():
    # a stub kernel writes a precomputed lower triangle, so the peak is the
    # table plus what the mirror holds: two 64-row band pieces, no index
    # array or mask of n^2 entries (that would be n^2 bytes or more)
    n = 513
    x = Grid.uniform_on(0.0, 1.0, n)
    table = se_kernel(0.3)(x.points[:, None], x.points[None, :])
    lower = np.tri(n, dtype=bool)

    class Stub:
        def fill_lower(self, points, out):
            np.copyto(out, table, where=lower)
            return out

    tracemalloc.start()
    try:
        m = gram(Stub(), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(m, table)
    assert peak - m.nbytes < n * n / 2


def test_chol_psd_identity_needs_no_jitter():
    L, delta = chol_psd(np.eye(2), max_jitter=1e-6)
    assert delta == 0.0
    np.testing.assert_array_equal(L, np.eye(2))


def test_chol_psd_rank_deficient_succeeds_on_ladder():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    L, delta = chol_psd(m, max_jitter=1e-6)
    assert 0.0 < delta <= 1e-6
    recon = L @ L.T - m - delta * np.eye(2)
    assert np.max(np.abs(recon)) <= 1e-12


def test_chol_psd_indefinite_error_reports_ladder():
    # eigenvalues 3 and -1; and a finite matrix whose partial factor
    # overflows, which is restored (a packed one refilled) before it is
    # checked for an entry that is not finite
    indefinite = ([[1.0, 2.0], [2.0, 1.0]], [[1e-300, 1e300], [1e300, 1.0]])
    for rows, layout in itertools.product(indefinite, ["C", "F", "packed"]):
        m = (PackedLower.from_dense(rows) if layout == "packed"
             else np.array(rows, order=layout))
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite") as err:
            chol_psd(m, max_jitter=1e-6)
        assert err.value.tried[0] == 0.0
        assert err.value.tried[1] == 1e-12
        assert err.value.tried[-1] == pytest.approx(1e-6)


def test_jitter_ladder_decade_steps():
    ladder = jitter_ladder(1e-8)
    assert ladder == [0.0] + [10.0**k for k in range(-12, -7)]
    assert jitter_ladder(0.0) == [0.0]
    # a non-power endpoint is appended
    assert jitter_ladder(5e-9)[-1] == 5e-9
    # the decades stop at the largest finite power of ten
    assert jitter_ladder(1.5e308)[-2:] == [1e308, 1.5e308]


def test_jitter_is_added_to_the_diagonal_of_a_copy_only():
    # rank one, so the ladder must step past 0; the factor must equal that
    # of the dense "+ delta * I" form bit for bit
    v = np.linspace(-1.0, 2.0, 6)
    m = np.outer(v, v)
    before = m.copy()
    L, delta = chol_psd(m, max_jitter=1e-6)
    assert delta > 0.0
    assert np.array_equal(m, before)
    assert np.array_equal(L, np.linalg.cholesky(m + delta * np.eye(6)))


@pytest.mark.parametrize("case", ["rung0", "retry"])
def test_chol_psd_reads_only_the_lower_triangle(case):
    # condition() fills only the lower triangle of its Gram and relies on this
    rng = np.random.default_rng(7)
    if case == "rung0":
        m = gram(se_kernel(0.3, 1.0), Grid(np.sort(rng.uniform(0.0, 1.0, 40))))
        m[np.diag_indices_from(m)] += 1e-6
    else:
        v = rng.standard_normal(12)
        m = np.outer(v, v)
    L, delta = chol_psd(m, max_jitter=1e-4)
    assert (delta == 0.0) == (case == "rung0")
    for lower in (np.tril(m), np.tril(m) + np.triu(np.full_like(m, np.nan), 1)):
        for order in "CF":
            L_lower, delta_lower = chol_psd(np.array(lower, order=order), max_jitter=1e-4)
            assert delta_lower == delta
            assert np.array_equal(L_lower, L)


@pytest.mark.parametrize("case", ["rung0", "retry"])
def test_chol_psd_factors_c_and_fortran_layouts_alike(monkeypatch, case):
    # condition() builds its Gram in Fortran order, the layout LAPACK reads;
    # chol_psd factors a Fortran copy of any layout, a retry included
    rng = np.random.default_rng(11)
    if case == "rung0":
        m = gram(se_kernel(0.3, 1.0), Grid(np.sort(rng.uniform(0.0, 1.0, 40))))
        m[np.diag_indices_from(m)] += 1e-6
    else:
        v = rng.standard_normal(12)
        m = np.outer(v, v)
    m += np.triu(np.full_like(m, np.nan), 1)  # only the lower triangle is read
    factored = []
    factor = gpops.linalg._factor_lower
    monkeypatch.setattr(gpops.linalg, "_factor_lower", lambda a: factored.append(a) or factor(a))
    L, delta = chol_psd(m, max_jitter=1e-4)
    L_f, delta_f = chol_psd(np.asfortranarray(m), max_jitter=1e-4)
    assert (delta_f, delta == 0.0) == (delta, case == "rung0")
    assert np.array_equal(L_f, L)
    # one factorization per rung tried, on each of the two calls
    assert len(factored) == 2 * (jitter_ladder(1e-4).index(delta) + 1)
    assert all(a.flags.f_contiguous for a in factored)


@pytest.fixture(params=["openblas", "numpy"])
def lapack(request, monkeypatch):
    """The factor and solve through numpy's bundled OpenBLAS, or through numpy's fallback."""
    if request.param == "openblas" and blas_threads() is None:
        pytest.skip("no bundled OpenBLAS found")
    if request.param == "numpy":
        monkeypatch.setattr(gpops.linalg, "_openblas", False)
    return request.param


def test_the_bundled_openblas_is_found():
    # a failed lookup would fall back to numpy silently, so every test would
    # still pass on the fallback alone
    pkg = os.path.dirname(np.__file__)
    if not (glob.glob(os.path.join(pkg + ".libs", "*openblas*"))
            + glob.glob(os.path.join(pkg, ".dylibs", "*openblas*"))):
        pytest.skip("numpy bundles no OpenBLAS here")
    assert blas_threads() is not None


def _gram_case(kernel, q, case):
    # rung0: a 1e-6 noise floor, factored as it is; retry: none, so the ladder
    # must step past 0
    rng = np.random.default_rng(q)
    k = se_kernel(0.3, 1.0) if kernel == "se" else matern_kernel(2.5, 0.5)
    m = gram(k, Grid(np.sort(rng.uniform(0.0, 1.0, q))))
    if case == "rung0":
        m[np.diag_indices_from(m)] += 1e-6
    return m


@pytest.mark.parametrize("case", ["rung0", "retry"])
@pytest.mark.parametrize("kernel, q", [("se", 2002), ("matern52", 257)])
def test_chol_psd_equals_numpy_cholesky_bit_for_bit(lapack, kernel, q, case):
    # a dense input is factored in a Fortran copy of any layout, a retry
    # included, and is left as it was
    m = _gram_case(kernel, q, case)
    for threads in (one_blas_thread, contextlib.nullcontext):
        with threads():
            L_ref = None
            for order in "CF":
                layout = np.array(m, order=order)
                before = layout.copy(order="K")
                L, delta = chol_psd(layout)
                assert (delta == 0.0) == (case == "rung0")
                if L_ref is None:
                    L_ref = np.linalg.cholesky(m + delta * np.eye(q))
                assert np.array_equal(L, L_ref)
                assert L.flags.f_contiguous
                assert np.array_equal(layout, before)


@pytest.mark.parametrize("where", ["nan-diagonal", "nan-below", "inf-below"])
def test_chol_psd_refuses_a_non_finite_lower_triangle(lapack, where):
    # neither LAPACK nor numpy flags a NaN: it would reach the factor silently.
    # An infinity below the diagonal makes every rung fail, so it is found
    # only after the ladder is exhausted, in the restored lower triangle.
    # A packed matrix is refused alike, and holds the matrix again after.
    i, j, value = {"nan-diagonal": (1, 1, np.nan), "nan-below": (2, 0, np.nan),
                   "inf-below": (2, 1, np.inf)}[where]
    for layout in ["C", "F", "packed"]:
        m = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]], order="F")
        m[i, j] = value
        given = PackedLower.from_dense(m) if layout == "packed" else np.array(m, order=layout)
        with pytest.raises(NotPositiveDefiniteError, match="not finite") as err:
            chol_psd(given)
        exhausted = err.value.tried == tuple(jitter_ladder(1e-8))
        assert exhausted == (where == "inf-below")
        if layout == "packed":
            assert np.array_equal(given.unpack(), np.tril(m), equal_nan=True)


@pytest.mark.parametrize("kind", ["c-ordered", "read-only", "integer", "strided"])
def test_chol_psd_leaves_a_dense_input_untouched(kind):
    m = _gram_case("se", 40, "rung0")
    if kind == "c-ordered":
        given = np.ascontiguousarray(m)
    elif kind == "read-only":
        given = np.asfortranarray(m)
        given.flags.writeable = False
    elif kind == "integer":
        # rounding moves the spectrum by at most 40 * 0.5
        given = np.asfortranarray(np.rint(1e3 * m).astype(np.int64) + 40 * np.eye(40, dtype=int))
        m = given.astype(float)
    else:
        given = np.zeros((40, 80))[:, ::2]
        given[...] = m
    before = given.copy()
    L, delta = chol_psd(given)
    assert L is not given
    assert np.array_equal(given, before)
    assert np.array_equal(L, chol_psd(np.asfortranarray(m))[0])
    assert L.flags.f_contiguous


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_chol_psd_refuses_a_matrix_that_is_not_square(shape):
    # a shape fault, as in solve_lower, before any jitter is tried
    with pytest.raises(DimensionError, match="square"):
        chol_psd(np.ones(shape))
    with pytest.raises(DimensionError, match="square"):
        PackedLower.from_dense(np.ones(shape))


# ------------------------------------------------ the packed layout and solve

def _lower_sample(q, seed):
    # a dense lower triangle whose every entry is distinct, zero above
    return np.tril(np.random.default_rng(seed).uniform(1.0, 2.0, (q, q)))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 2002])
def test_packed_pieces_hold_the_lower_triangle(q):
    # writing a known triangle through the piece views and unpacking it gives
    # it back; the packed array is LAPACK's own RFP layout (TRANSR='N',
    # UPLO='L'), as scipy's dtrttf lays out the same triangle
    m = _lower_sample(q, q)

    def fill(packed):
        for rows, cols, view in packed.pieces(slice(0, q), slice(0, q)):
            assert view.shape == (rows.stop - rows.start, cols.stop - cols.start)
            if rows == cols:
                np.copyto(view, m[rows, cols], where=np.tri(view.shape[0], dtype=bool))
            else:
                view[...] = m[rows, cols]

    packed = PackedLower(q, fill)
    assert packed.shape == (q, q)
    assert packed.data.size == q * (q + 1) // 2
    assert packed.data.flags.f_contiguous
    assert np.array_equal(packed.unpack(), m)
    assert np.array_equal(packed.diagonal(), np.diag(m))
    rfp, info = scipy.linalg.lapack.dtrttf(m, transr="N", uplo="L")
    assert info == 0
    assert np.array_equal(packed.data.reshape(-1, order="F"), rfp)


@pytest.mark.parametrize("q", [7, 8])
def test_packed_pieces_split_a_block_at_the_packed_column(q):
    # a group pair's block is split where the packed columns change over:
    # every entry of the triangle is held by exactly one piece of one block
    m = _lower_sample(q, 3)
    edges = [0, 2, q // 2 + 1, q]
    spans = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    seen = np.zeros((q, q), dtype=int)

    def fill(packed):
        seen[...] = 0
        for i, rows in enumerate(spans):
            for cols in spans[:i + 1]:
                for r, c, view in packed.pieces(rows, cols):
                    keep = np.tri(view.shape[0], dtype=bool) if r == c else True
                    np.copyto(view, m[r, c], where=keep)
                    seen[r, c] += keep
    packed = PackedLower(q, fill)
    assert np.array_equal(seen, np.tri(q, dtype=int))
    assert np.array_equal(packed.unpack(), m)


def _packed_gram(q, seed, noise=1e-6):
    # an SE Gram on random points with a noise floor, the kind of Gram
    # condition() factors, packed; and the dense matrix
    rng = np.random.default_rng(seed)
    m = gram(se_kernel(0.3, 1.0), Grid(np.sort(rng.uniform(0.0, 1.0, q))))
    m[np.diag_indices_from(m)] += noise
    return PackedLower.from_dense(m), m, rng


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 41, 257, 2002])
def test_packed_factor_and_solve_match_scipy(lapack, q):
    # dpftrf and dtfsm against scipy's dense Cholesky and triangular solve.
    # Both factors are backward stable: max |L L' - A| / max |A| measured at
    # most 2.4e-15 on both paths over these orders, bound 1e-14.  They differ
    # by the Gram's conditioning, at most q / 1e-6 with the 1e-6 floor: the
    # factors by at most 4.2e-10 relative to max |L| and the solutions by at
    # most 1.6e-8 normwise (q = 2002), against a bound of (q / 1e-6) * eps,
    # 4.4e-7 there; numpy's own cholesky differs from scipy's alike.
    packed, m, rng = _packed_gram(q, q)
    L_ref = scipy.linalg.cholesky(m, lower=True)
    L, delta = chol_psd(packed)
    assert L is packed
    assert delta == 0.0
    dense = L.unpack()
    eps = np.finfo(float).eps
    assert np.max(np.abs(dense @ dense.T - m)) <= 1e-14 * np.max(np.abs(m))
    assert np.max(np.abs(dense - L_ref)) <= q / 1e-6 * eps * np.max(np.abs(L_ref))
    b = rng.standard_normal((q, 7))
    ref = scipy.linalg.solve_triangular(L_ref, b, lower=True)
    x = solve_lower(L, b.copy(order="F"))
    assert np.linalg.norm(dense @ x - b) <= 1e-15 * np.linalg.norm(dense) * np.linalg.norm(x)
    assert np.linalg.norm(x - ref) <= q / 1e-6 * eps * np.linalg.norm(ref)
    # one dtfsm shape: neither the layout of b nor its width reaches the bits
    if lapack == "openblas":
        assert np.array_equal(solve_lower(L, b.copy(order="C")), x)
        assert np.array_equal(solve_lower(L, b[:, 0].copy()), x[:, 0])


@pytest.mark.parametrize("q", [12, 13])
def test_packed_retry_refills_and_reports_the_first_rung_that_factors(lapack, q):
    # rank one, so the ladder must step past 0.  Each retry refills the packed
    # array (dpftrf has overwritten it), so the factor is that of a fresh
    # pack of m + delta I, bit for bit, at the first rung on which a fresh
    # pack factors
    v = np.random.default_rng(q).standard_normal(q)
    m = np.outer(v, v)
    fills = []
    packed = PackedLower(q, lambda p: fills.append(1) or p._write(m))
    L, delta = chol_psd(packed, max_jitter=1e-4)
    ladder = jitter_ladder(1e-4)
    first = next(d for d in ladder
                 if gpops.linalg._factor_packed(PackedLower.from_dense(m + d * np.eye(q))))
    assert delta == first > 0.0
    assert len(fills) == ladder.index(delta) + 1
    fresh = PackedLower.from_dense(m + delta * np.eye(q))
    assert gpops.linalg._factor_packed(fresh)
    assert np.array_equal(L.data, fresh.data)


def test_packed_factor_of_a_gram_that_needs_the_ladder(lapack):
    # the 40 noiseless values under a kernel variance of 1e8 of the
    # reported-jitter test: the jitter is the first rung on which the packed
    # factor succeeds, and the factor reconstructs the shifted Gram
    m = 1e8 * np.exp(-0.5 * np.subtract.outer(*2 * [np.linspace(0.0, 1.0, 40)]) ** 2 / 0.25)
    m[np.diag_indices(40)] += 1e-8
    L, delta = chol_psd(PackedLower.from_dense(m), max_jitter=1e-2)
    assert delta > 0.0
    for d in jitter_ladder(1e-2)[:jitter_ladder(1e-2).index(delta)]:
        assert not gpops.linalg._factor_packed(PackedLower.from_dense(m + d * np.eye(40)))
    dense = L.unpack()
    assert np.max(np.abs(dense @ dense.T - m - delta * np.eye(40))) <= 1e-14 * 1e8


@pytest.mark.parametrize("q, rhs", [
    (50, 7),
    (256, 7),
    (257, 7),
    (300, None),  # a single right-hand side, as a vector
    (300, 1),     # a single right-hand side, as a column
    (2002, 202),  # the solve-colloc shape: 2000 + 2 rows, 201 + 1 columns
])
def test_solve_lower_matches_scipy(q, rhs):
    packed, _, rng = _packed_gram(q, q)
    L, _ = chol_psd(packed)
    dense = L.unpack()
    b = rng.standard_normal(q if rhs is None else (q, rhs))
    ref = scipy.linalg.solve_triangular(dense, b, lower=True)
    # dtfsm reads b in Fortran order; other layouts are solved in copies
    for b_layout in "CF":
        x = solve_lower(L, b.copy(order=b_layout))
        assert x.shape == b.shape
        # normwise relative residual (backward error), about 1e-17 here
        assert np.linalg.norm(dense @ x - b) <= 1e-12 * np.linalg.norm(dense) * np.linalg.norm(x)
        # both solves are backward stable, so they differ by at most about
        # cond(L) (here below 1e5) times the rounding unit
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("rhs", [None, 5])
def test_solve_lower_matches_scipy_on_either_path(lapack, rhs):
    packed, _, rng = _packed_gram(257, 5)
    L, _ = chol_psd(packed)
    b = rng.standard_normal(257 if rhs is None else (257, rhs))
    ref = scipy.linalg.solve_triangular(L.unpack(), b, lower=True)
    solved = []
    for b_layout in "CF":
        x = solve_lower(L, b.copy(order=b_layout))
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        solved.append(x)
    # one dtfsm shape: the layout of b does not reach the bits
    if lapack == "openblas":
        assert all(np.array_equal(x, solved[0]) for x in solved)


@pytest.mark.parametrize("kind", ["integer", "list", "read-only"])
def test_solve_lower_refuses_a_right_hand_side_that_cannot_hold_the_solution(lapack, kind):
    # an integer b would get the solution truncated in place, [0, 0] here
    L = PackedLower.from_dense([[2.0, 0.0], [1.0, 3.0]])
    b = {"integer": np.array([1, 2]), "list": [1.0, 2.0],
         "read-only": np.array([1.0, 2.0])}[kind]
    if kind == "read-only":
        b.flags.writeable = False
    with pytest.raises(ParameterError, match="writeable float64"):
        solve_lower(L, b)
    assert list(b) == [1, 2]
    assert np.array_equal(solve_lower(L, np.array([1.0, 2.0])), [0.5, 0.5])
    # a dense factor is not read: the one factor layout is the packed one
    with pytest.raises(ParameterError, match="PackedLower"):
        solve_lower(L.unpack(), np.array([1.0, 2.0]))


def test_solve_lower_reads_only_the_lower_triangle_and_solves_in_place():
    packed, m, rng = _packed_gram(257, 3)
    L, _ = chol_psd(packed)
    b = np.asfortranarray(rng.standard_normal((257, 5)))
    x = solve_lower(L, b.copy(order="F"))
    # a packed factor made from a dense one with garbage above its diagonal
    garbled = PackedLower.from_dense(L.unpack() + np.triu(np.full_like(m, np.nan), 1))
    assert np.array_equal(solve_lower(garbled, b.copy(order="F")), x)
    # a strided view is solved in a copy and written back
    wide = np.zeros((257, 10))
    wide[:, ::2] = b
    assert solve_lower(L, wide[:, ::2]).base is wide
    assert np.array_equal(wide[:, ::2], x)
    assert not wide[:, 1::2].any()
    assert solve_lower(L, b) is b
    assert np.array_equal(b, x)


# ------------------------------------------------ the one-BLAS-thread seam

@pytest.fixture
def blas3():
    """numpy's OpenBLAS at 3 threads for the test, then at its count before."""
    if blas_threads() is None:
        pytest.skip("no bundled OpenBLAS found: numpy's BLAS thread count is uncontrolled")
    blas = gpops.linalg._openblas
    before = blas.get()
    blas.set(3)
    yield
    blas.set(before)


def test_one_blas_thread_restores_the_count_on_exit_and_on_raise(blas3):
    with one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == 3
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            assert blas_threads() == 1
            1 / 0
    assert blas_threads() == 3


def test_one_blas_thread_holds_one_until_the_last_caller_leaves(blas3):
    # the count is process-wide: a caller that leaves first must not restore
    # it under one that is still inside, in this thread or another
    with one_blas_thread():
        with one_blas_thread():
            pass
        assert blas_threads() == 1
    inside, leave, seen = threading.Event(), threading.Event(), []

    def other():
        with one_blas_thread():
            inside.set()
            leave.wait(10)
        seen.append(blas_threads())

    t = threading.Thread(target=other)
    with one_blas_thread():
        t.start()
        assert inside.wait(10)
    assert blas_threads() == 1
    leave.set()
    t.join(10)
    assert not t.is_alive()
    assert seen == [3]
    assert blas_threads() == 3


def test_verify_and_sample_run_at_one_blas_thread_and_restore_the_count(blas3, monkeypatch):
    seen = []

    def spy(fn):
        def read_count(*args, **kwargs):
            seen.append(blas_threads())
            return fn(*args, **kwargs)
        return read_count

    monkeypatch.setattr(gpops.verify, "finite_dim_pushforward",
                        spy(gpops.verify.finite_dim_pushforward))
    monkeypatch.setattr(gpops.sampling, "draw_factored", spy(gpops.sampling.draw_factored))
    p = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(2.5, 0.5))
    grid = Grid.uniform_on(0.0, 1.0, 33)
    gpops.verify.verify_theorem(p, derivative_operator(2), grid, 200, 1)
    assert seen == [1]
    assert blas_threads() == 3
    gpops.sampling.sample_paths(p, grid, 20, 1)
    assert seen == [1, 1]
    assert blas_threads() == 3
