"""The verification harness: reports, determinism, rejection contract."""

import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import gpops.linalg
import gpops.sampling
import gpops.verify
from gpops.cumulants import FoldSums, default_cumulant_tuples, empirical_cumulant
from gpops.errors import DomainViolationError, EvaluationError, GridSizeError, ParameterError
from gpops.grids import Grid
from gpops.kernels import Kernel, KernelBifunction, matern_kernel, se_kernel
from gpops.linalg import gram
from gpops.means import mean_from_expression, zero_mean
from gpops.operators import LinearOperator, derivative_operator, identity
from gpops.processes import GaussianProcessPrior
from gpops.sampling import (FactoredDraw, GaussianDraw, SampleEnsemble, apply_operator_pathwise,
                            draw_factored, empirical_cov, empirical_mean, sample_paths)
from gpops.stencils import interior_mask
from gpops.transform import finite_dim_pushforward, pushforward
from gpops.verify import DISCRETIZATION_MIN_RATE, VerificationTolerances, verify_theorem
from test_sampling import collect_moments

GRID = Grid.uniform_on(0.0, 1.0, 17)
PRIOR = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))


def test_identity_operator_report_passes():
    rep = verify_theorem(PRIOR, identity(), GRID, 2000, 42)
    assert rep.mode == "verification"
    assert rep.passed
    assert rep.mean_check["passed"]
    assert rep.cov_check["passed"]
    assert rep.cumulant_check["passed"]


def test_derivative_operator_report_passes():
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))
    rep = verify_theorem(p, derivative_operator(1), GRID, 5000, 42)
    assert rep.passed
    assert rep.mean_check["max_interior_standardized"] <= 5.0


def test_rejection_contract_pass():
    p = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(0.5, 1.0, 1.0))
    rep = verify_theorem(p, derivative_operator(1), GRID, 100, 1, expect_rejection=True)
    assert rep.mode == "rejection"
    assert rep.passed
    assert rep.rejection["occurred"]


def test_rejection_contract_failure_when_operator_is_fine():
    rep = verify_theorem(PRIOR, identity(), GRID, 200, 1, expect_rejection=True)
    assert rep.mode == "rejection"
    assert not rep.passed


def test_unexpected_rejection_propagates():
    p = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(0.5, 1.0, 1.0))
    with pytest.raises(DomainViolationError):
        verify_theorem(p, derivative_operator(1), GRID, 100, 1)


def test_report_numbers_are_bit_identical_across_runs():
    a = verify_theorem(PRIOR, derivative_operator(1), GRID, 1500, 9)
    b = verify_theorem(PRIOR, derivative_operator(1), GRID, 1500, 9)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_report_json_schema_and_roundtrip():
    rep = verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 3)
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == 4
    assert doc["kind"] == "verification"
    assert set(doc) >= {"mode", "config", "tolerances", "discretization_check", "mean_check",
                        "cov_check", "cumulant_check", "passed"}
    # 17-significant-digit serialization round-trips the exact double
    assert doc["mean_check"]["max_interior_standardized"] == \
        rep.mean_check["max_interior_standardized"]
    assert doc["config"]["seed"] == 3


def test_report_csv_layout():
    rep = verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 3)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == ",".join(rep.CSV_HEADER)
    assert len(lines) == 1 + len(GRID)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "false"  # boundary column flagged non-interior


def test_z_gate_divides_a_zero_standard_error_as_the_smallest_normal():
    mask = np.array([True, True, False])
    se = np.array([0.0, 0.5, 0.0])
    ok = gpops.verify._z_gate(np.array([0.0, 0.25, 9.0]), se, mask, 3.0)
    assert (ok["max_interior_standardized"], ok["passed"]) == (0.5, True)
    bad = gpops.verify._z_gate(np.array([1e-300, 0.25, 9.0]), se, mask, 3.0)
    assert bad["max_interior_standardized"] == 1e-300 / np.finfo(float).tiny
    assert bad["passed"] is False
    assert se.tolist() == [0.0, 0.5, 0.0]  # the caller's SEs are not rewritten


def test_boundary_deviations_reported_separately():
    rep = verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 3)
    assert "max_boundary_abs_deviation" in rep.mean_check
    assert rep.mean_check["max_boundary_abs_deviation"] >= 0.0


def test_tolerances_enter_pass_fail():
    strict = VerificationTolerances(mean_z=1e-9, cov_z=1e-9, cumulant_z=1e-9)
    rep = verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 3, strict)
    assert not rep.passed


def test_cumulant_section_contents():
    rep = verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 3)
    orders = [sec["order"] for sec in rep.cumulant_check["per_order"]]
    assert orders == [3, 4]
    for sec in rep.cumulant_check["per_order"]:
        assert len(sec["tuples"]) == 10
        assert sec["max_standardized"] >= 0.0


@pytest.mark.parametrize("op, grid, error", [
    (derivative_operator(5), GRID, ParameterError),
    (derivative_operator(2), Grid.uniform_on(0.0, 1.0, 5), GridSizeError),
    # interiors of 6 points, but coarsenings of 6 and 7 points, one short of
    # the stencil footprints 7 and 8
    (derivative_operator(3), Grid.uniform_on(0.0, 1.0, 12), GridSizeError),
    (derivative_operator(4), Grid.uniform_on(0.0, 1.0, 13), GridSizeError),
], ids=["order-5", "5-points-under-d2", "12-points-under-d3", "13-points-under-d4"])
def test_refused_stencil_builds_no_image_gram(monkeypatch, op, grid, error):
    # A and the coarsening's size come before the image Gram, so an operator
    # without a stencil on the grid or on its coarsening costs no kernel table
    calls = []
    monkeypatch.setattr(gpops.verify, "gram", lambda *args: calls.append(args))
    with pytest.raises(error):
        verify_theorem(PRIOR, op, grid, 1000, 1)
    assert calls == []


def test_negative_image_variance_is_an_error_naming_the_grid_point():
    # the negated SE "kernel": every closed-form image variance is -1
    se = se_kernel(1.0).base
    negated = Kernel(lambda s, m: [-v for v in se.profile(s, m)], math.inf, "-se")
    p = GaussianProcessPrior(mean=zero_mean(), kernel=KernelBifunction(negated))
    with pytest.raises(EvaluationError, match=r"image variance -1 at grid point 0 \(x = 0\)"):
        verify_theorem(p, identity(), GRID, 1000, 1)


@pytest.mark.parametrize("relative, raises", [(-1e-9, True), (-1e-14, False)])
def test_negative_variance_is_clipped_only_within_roundoff(monkeypatch, relative, raises):
    def gram_with_one_negative_variance(kernel, grid):
        k = gram(kernel, grid)
        k[10, 10] = relative * np.max(np.abs(k))
        return k

    monkeypatch.setattr(gpops.verify, "gram", gram_with_one_negative_variance)
    if raises:
        with pytest.raises(EvaluationError, match="at grid point 10"):
            verify_theorem(PRIOR, identity(), GRID, 1000, 1)
    else:
        # accepted, and compared with the discrete law, whose Gram carries the
        # same entry; the draw, which would factor that entry too, factors the
        # prior's own Gram on the grid
        monkeypatch.setattr(gpops.verify, "draw_factored", lambda mean, _, *args: draw_factored(
            mean, gram(PRIOR.kernel, GRID), *args))
        rep = verify_theorem(PRIOR, identity(), GRID, 1000, 1)
        assert rep.discretization_check["passed"]


def test_verify_tabulates_each_gram_once_on_the_grid(monkeypatch):
    # the coarsening's points are the grid's even points, so its tables are
    # the grid's even entries: one verification builds the image Gram and the
    # prior Gram once each, on the grid's n points, and the draw factors the
    # prior Gram itself, tabulating none of its own
    points = []

    def counting_gram(kernel, grid):
        points.append(len(grid))
        return gram(kernel, grid)

    monkeypatch.setattr(gpops.verify, "gram", counting_gram)
    monkeypatch.setattr(gpops.sampling, "gram", counting_gram)
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"), kernel=matern_kernel(2.5, 0.5))
    verify_theorem(p, derivative_operator(2), Grid.uniform_on(0.0, 1.0, 257), 2000, 1)
    assert points == [257, 257]


def test_matern52_under_d2_passes_the_discretization_gate_on_1025_points():
    # the top of the smoothness budget converges at rate 1; judged against a
    # 2n - 1 point refinement, roundoff on 4097 points failed 2049, so the CI
    # runs that grid from the console.  The Monte-Carlo gates are not read
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"), kernel=matern_kernel(2.5, 0.5))
    rep = verify_theorem(p, derivative_operator(2), Grid.uniform_on(0.0, 1.0, 1025), 200, 1)
    disc = rep.discretization_check
    assert disc["grid_points"] == [513, 1025]
    assert disc["passed"] and disc["cov"]["rate"] >= DISCRETIZATION_MIN_RATE


def test_verdict_does_not_depend_on_kernel_variance():
    op = LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")])
    grid = Grid.uniform_on(0.0, 1.0, 33)
    reports = []
    for variance in (1.0, 1e4):
        p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5, variance))
        reports.append(verify_theorem(p, op, grid, 2000, 7))
    small, large = reports
    assert small.passed
    assert large.passed == small.passed
    assert large.cov_check["passed"] == small.cov_check["passed"]


# Negative controls: each injects one defect into the factored draw that
# verify takes, on the setup of the benchmark's verify-small workload, and must
# fail exactly the gate that tests for it.
CONTROL_PRIOR = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                                     kernel=se_kernel(0.5))
CONTROL_OP = LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")])
CONTROL_GRID = Grid.uniform_on(0.0, 1.0, 33)
CONTROL_PATHS = 100_000


def _shift_mean(mean, prior_gram, n_paths, seed):
    # a constant c added to m: its image c (1 + x^2) is at least 8 Monte-Carlo
    # standard errors of the image mean at every interior point
    d = draw_factored(mean, prior_gram, n_paths, seed)
    image = pushforward(CONTROL_PRIOR, CONTROL_OP)
    se = np.sqrt(np.diag(gram(image.kernel, CONTROL_GRID)) / n_paths)
    interior = interior_mask(len(CONTROL_GRID), CONTROL_OP.order)
    c = 8.0 * np.max(se[interior] / (1.0 + CONTROL_GRID.points[interior] ** 2))
    return dataclasses.replace(d, mean=d.mean + c)


def _longer_lengthscale(mean, prior_gram, n_paths, seed):
    # the factor of a kernel 5% off the one whose image the gates predict
    return draw_factored(mean, gram(se_kernel(0.525), CONTROL_GRID), n_paths, seed)


class _Edited:
    # every block of normals the draw reads passes through edit(lo, z) on its
    # way out
    def normal_blocks(self, *args):
        for lo, z in super().normal_blocks(*args):
            yield lo, self.edit(lo, z)


@dataclasses.dataclass(frozen=True)
class EditedStream(_Edited, FactoredDraw):
    # the base draw: its chunks of the paths' normals are edited
    edit: object = None


@dataclasses.dataclass(frozen=True)
class EditedGaussian(_Edited, GaussianDraw):
    # the drawn moments: the blocks of their rotated columns w1 are edited
    edit: object = None


def _chunked_draw(*args, **kwargs):
    # the draw with the base class's moments, reduced from chunks of paths
    return FactoredDraw(**vars(draw_factored(*args, **kwargs)))


def _edit_white(d, edit):
    return EditedStream(**vars(d), edit=edit)


def _scale_mixture(mean, prior_gram, n_paths, seed):
    # rows of z scaled by sqrt(W) with E W = 1: the prior's mean and
    # covariance, not Gaussian
    d = draw_factored(mean, prior_gram, n_paths, seed)
    w = np.random.default_rng(seed).gamma(4.0, 0.25, size=(n_paths, 1))
    return _edit_white(d, lambda lo, z: np.sqrt(w[lo:lo + len(z)]) * z)


def _failed_gates(rep):
    gates = {"discretization": rep.discretization_check["passed"],
             "mean": rep.mean_check["passed"], "cov": rep.cov_check["passed"]}
    gates.update((f"cumulant{sec['order']}", sec["passed"])
                 for sec in rep.cumulant_check["per_order"])
    return {name for name, passed in gates.items() if not passed}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("patch, failed", [
    (_shift_mean, {"mean"}),
    (_longer_lengthscale, {"cov"}),
    (_scale_mixture, {"cumulant4"}),
    (None, set()),
], ids=["mean-shift", "lengthscale", "scale-mixture", "null"])
def test_negative_control_fails_exactly_its_gate(monkeypatch, seed, patch, failed):
    if patch is not None:
        monkeypatch.setattr(gpops.verify, "draw_factored", patch)
    rep = verify_theorem(CONTROL_PRIOR, CONTROL_OP, CONTROL_GRID, CONTROL_PATHS, seed)
    assert _failed_gates(rep) == failed
    assert rep.passed == (not failed)


# Transport defects: each builds the closed-form image wrongly, as a defect in
# the transport code would, while the prior, its discrete law and the draw stay
# right.  Only the discretization gate may fail: the Monte-Carlo gates compare
# the draw with the discrete law, which no transport code builds.
PUSHED_PRIOR = pushforward(CONTROL_PRIOR, LinearOperator([(1, "x")]))
WRONG_COEFFICIENT_OP = LinearOperator([(0, "1 + x^2"), (1, "1.01*cos(x)"), (2, "exp(-0.5*x)")])


def _odd_orders_negated(kernel):
    # the profile with the sign of every odd derivative flipped
    base = kernel.base
    return KernelBifunction(Kernel(lambda s, m: [-v if k % 2 else v
                                                 for k, v in enumerate(base.profile(s, m))],
                                   base.sample_smoothness, "odd-negated " + base.label))


def _wrong_coefficient(monkeypatch):
    monkeypatch.setattr(gpops.verify, "pushforward",
                        lambda p, op: pushforward(p, WRONG_COEFFICIENT_OP))


def _profile_sign(monkeypatch):
    monkeypatch.setattr(gpops.verify, "pushforward", lambda p, op: pushforward(
        GaussianProcessPrior(mean=p.mean, kernel=_odd_orders_negated(p.kernel)), op))


def _leibniz_without_coefficient_derivatives(monkeypatch):
    # (b d^j) o (a d^i) without the terms in which a is differentiated: the
    # image of PUSHED_PRIOR, whose kernel carries x d/dx, loses a term
    leibniz = gpops.operators._leibniz
    monkeypatch.setattr(gpops.operators, "_leibniz", lambda b, j, a, i: [
        term for term in leibniz(b, j, a, i) if term[0] == i + j])


@pytest.mark.parametrize("defect, p, op", [
    (_wrong_coefficient, CONTROL_PRIOR, CONTROL_OP),
    (_profile_sign, CONTROL_PRIOR, CONTROL_OP),
    (_leibniz_without_coefficient_derivatives, PUSHED_PRIOR, derivative_operator(1)),
    (None, CONTROL_PRIOR, CONTROL_OP),
    (None, PUSHED_PRIOR, derivative_operator(1)),
], ids=["wrong-coefficient", "profile-sign", "leibniz-term", "null", "null-pushed-prior"])
def test_transport_defect_fails_the_discretization_gate_alone(monkeypatch, defect, p, op):
    if defect is not None:
        defect(monkeypatch)
    rep = verify_theorem(p, op, CONTROL_GRID, 2000, 1)
    disc = rep.discretization_check
    assert _failed_gates(rep) == ({"discretization"} if defect else set())
    assert disc["grid_points"] == [17, 33]
    if defect:
        # the error does not fall from the coarsening to the grid
        assert disc["cov"]["relative_error"][1] > 1e-3
        assert disc["cov"]["rate"] < DISCRETIZATION_MIN_RATE


def _nan_in_last_path(lo, z):
    z[-1, 3] = np.nan
    return z


def test_normals_that_are_not_finite_are_refused(monkeypatch):
    # through the base draw's chunks and through the drawn moments' blocks
    for edited, n_paths in [(EditedStream, 10), (EditedGaussian, 200)]:
        def poisoned(*args, **kwargs):
            return edited(**vars(draw_factored(*args, **kwargs)), edit=_nan_in_last_path)

        monkeypatch.setattr(gpops.verify, "draw_factored", poisoned)
        with pytest.raises(ParameterError, match="ensemble paths must be finite"):
            verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 1)
        # the moments themselves refuse it, whatever reduces the image columns
        white = edited(mean=np.zeros(5), factor=np.eye(5), n_paths=n_paths, seed=1,
                       edit=_nan_in_last_path)
        with pytest.raises(ParameterError, match="ensemble paths must be finite"):
            white.moments(np.eye(5), lambda lo, block: None)


# 4096-entry chunks: 512 rows of 8 points, 455 rows of 9 points
SMALL_CHUNK = 2**12


@pytest.mark.parametrize("n_points, n_paths", [(8, 300), (8, 1024), (8, 1025), (9, 911)],
                         ids=["below-one-chunk", "two-chunks", "two-chunks+1", "9-points"])
def test_streamed_moments_match_the_materialized_draw(monkeypatch, n_points, n_paths):
    monkeypatch.setattr(gpops.sampling, "CHUNK_ENTRIES", SMALL_CHUNK)
    white = FactoredDraw(mean=np.zeros(n_points), factor=np.eye(n_points), n_paths=n_paths,
                         seed=5)
    t_cols = np.random.default_rng(n_paths).standard_normal((n_points, 3))
    zbar, zcov, thin = collect_moments(white, t_cols)

    z = np.random.Generator(np.random.Philox(key=5)).standard_normal((n_paths, n_points))
    e = SampleEnsemble(Grid.uniform_on(0.0, 1.0, n_points), z, 5)
    ref_thin = z @ t_cols
    # relative to the unit scale of white normals, of cov(z) and of z t_cols
    assert np.max(np.abs(zbar - empirical_mean(e))) <= 1e-12
    assert np.max(np.abs(zcov - empirical_cov(e))) <= 1e-12 * np.max(np.abs(empirical_cov(e)))
    assert np.max(np.abs(thin - ref_thin)) <= 1e-12 * np.max(np.abs(ref_thin))


def test_verify_reduces_the_draw_through_one_moments_call_at_one_blas_thread(monkeypatch):
    # verify draws its moments once, from their law: no chunk of normals is
    # drawn at all
    calls, readers = [], []
    moments, chunks = GaussianDraw.moments, FactoredDraw.chunks

    def spy_moments(self, c, reduce):
        calls.append(c.shape)
        return moments(self, c, reduce)

    def spy_chunks(self):
        readers.append(sys._getframe(1).f_code.co_name)
        return chunks(self)

    monkeypatch.setattr(GaussianDraw, "moments", spy_moments)
    monkeypatch.setattr(FactoredDraw, "chunks", spy_chunks)
    verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 1)
    assert len(calls) == 1 and readers == []
    monkeypatch.undo()

    # moments runs its chunks at one BLAS thread whoever calls it, and
    # restores the count after
    if gpops.linalg.blas_threads() is None:
        pytest.skip("no bundled OpenBLAS found: numpy's BLAS thread count is uncontrolled")
    seen = []
    white = EditedStream(mean=np.zeros(8), factor=np.eye(8), n_paths=300, seed=1,
                         edit=lambda lo, z: seen.append(gpops.linalg.blas_threads()) or z)
    blas = gpops.linalg._openblas
    before = blas.get()
    blas.set(3)
    try:
        white.moments(np.zeros((8, 1)), lambda lo, block: None)
        assert seen == [1] and blas.get() == 3
    finally:
        blas.set(before)


def test_verify_holds_one_chunk_of_normals_not_the_whole_draw():
    # the whole draw of 60k x 129 normals is 62 MB, and a chunk of the base
    # draw is 8 MB; verify draws the moments' 60k x 9 normals in blocks of
    # 256 KB and holds none of their rows (traced: 4.2 MB; 18.5 MB when it
    # held the 60k x 9 image columns)
    p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5))
    grid = Grid.uniform_on(0.0, 1.0, 129)
    tracemalloc.start()
    try:
        verify_theorem(p, derivative_operator(1), grid, 60_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# verify pushes the moments of the white normals through T = A L and builds
# only the image columns that the cumulants read; the reference stencils every
# path and takes its statistics from the whole transformed ensemble.  Both
# read the paths' normals: verify's draw is the chunked base FactoredDraw here,
# injected as the negative controls inject theirs.
EQUIVALENCE_RTOL = 1e-9


@pytest.mark.parametrize("p, op, grid", [
    (CONTROL_PRIOR, CONTROL_OP, CONTROL_GRID),
    (GaussianProcessPrior(mean=mean_from_expression("sin(x)"), kernel=matern_kernel(2.5, 0.5)),
     derivative_operator(2), Grid.uniform_on(0.0, 1.0, 257)),
    (PRIOR, derivative_operator(4), Grid.uniform_on(0.0, 1.0, 65)),
], ids=["verify-small", "matern52-d2-257", "se-d4-65"])
def test_moment_pushforward_matches_pathwise_reference(monkeypatch, p, op, grid):
    n_paths, seed = 20_000, 1
    pushed = []

    def spy(*args):
        pushed.append(finite_dim_pushforward(*args))
        return pushed[-1]

    monkeypatch.setattr(gpops.verify, "finite_dim_pushforward", spy)
    monkeypatch.setattr(gpops.verify, "draw_factored", _chunked_draw)
    rep = verify_theorem(p, op, grid, n_paths, seed)
    ref = apply_operator_pathwise(op, sample_paths(p, grid, n_paths, seed))
    ref_mean, ref_cov = empirical_mean(ref), empirical_cov(ref)
    sd = np.sqrt(np.diag(ref_cov))

    # sizes the differences are relative to: of the columns, of the covariance,
    # and of a product of columns for a cumulant
    mean = np.array([row[3] for row in rep.per_point])
    assert np.max(np.abs(mean - ref_mean)) <= EQUIVALENCE_RTOL * np.max(np.abs(ref_mean) + sd)
    (_, cov), = pushed
    assert np.max(np.abs(cov - ref_cov)) <= EQUIVALENCE_RTOL * np.max(np.abs(ref_cov))
    var = np.array([row[7] for row in rep.per_point])
    assert np.array_equal(var, np.diag(cov))

    interior = np.flatnonzero(interior_mask(len(grid), op.order))
    for sec in rep.cumulant_check["per_order"]:
        tuples = default_cumulant_tuples(len(grid), sec["order"],
                                         count=gpops.verify.TUPLES_PER_ORDER,
                                         lo=int(interior[0]), hi=int(interior[-1]))
        assert [tuple(t["indices"]) for t in sec["tuples"]] == tuples
        for t in sec["tuples"]:
            est = empirical_cumulant(ref, t["indices"])
            assert abs(t["value"] - est.value) <= EQUIVALENCE_RTOL * np.prod(sd[t["indices"]])
            assert abs(t["standard_error"] - est.standard_error) <= \
                EQUIVALENCE_RTOL * np.prod(sd[t["indices"]])


def test_verify_makes_one_cumulant_call_bit_identical_to_one_tuple_at_a_time(monkeypatch):
    # the 20 tuples verify reads on the verify-small setup, summed in one
    # FoldSums as the image columns are drawn, and again one tuple at a time
    # from the same blocks of columns
    built, blocks = [], []

    class Recorded(FoldSums):
        def __init__(self, tuples, n_paths):
            super().__init__(tuples, n_paths)
            built.append(self)

        def add(self, lo, block):
            blocks.append((lo, block.copy()))
            super().add(lo, block)

    monkeypatch.setattr(gpops.verify, "FoldSums", Recorded)
    rep = verify_theorem(CONTROL_PRIOR, CONTROL_OP, CONTROL_GRID, CONTROL_PATHS, 1)
    (shared,) = built
    assert len(shared.tuples) == 20 and len(blocks) > 1
    assert sum(len(block) for _, block in blocks) == CONTROL_PATHS
    reported = [(t["value"], t["standard_error"])
                for sec in rep.cumulant_check["per_order"] for t in sec["tuples"]]
    alone = []
    for t in shared.tuples:
        one = FoldSums([t], CONTROL_PATHS)
        picks = [shared.columns.index(i) for i in one.columns]
        for lo, block in blocks:
            one.add(lo, block[:, picks])
        (est,) = one.estimates(CONTROL_GRID.points)
        alone.append((est.value, est.standard_error))
    assert reported == alone


def _traced_peak(n_paths):
    tracemalloc.start()
    try:
        verify_theorem(CONTROL_PRIOR, CONTROL_OP, CONTROL_GRID, n_paths, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_the_path_count():
    # on the verify-small setup verify holds no array with N rows: the image
    # columns are reduced block by block as they are drawn.  Holding the 9
    # image columns alone would take 29 MB at 400k paths (traced peak 104.5 MB
    # when they, their centred copies and their products were held)
    small, large = _traced_peak(20_000), _traced_peak(400_000)
    assert large < 8e6
    assert large < small + 2e6
