"""The verification harness: reports, determinism, rejection contract."""

import json

import pytest

from gpops.errors import DomainViolationError
from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.means import mean_from_expression, zero_mean
from gpops.operators import LinearOperator, derivative_operator, identity
from gpops.processes import GaussianProcessPrior
from gpops.verify import VerificationTolerances, verify_theorem

GRID = Grid.uniform_on(0.0, 1.0, 17)
PRIOR = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))


def test_identity_operator_report_passes():
    rep = verify_theorem(PRIOR, identity(), GRID, 2000, 42)
    assert rep.mode == "verification"
    assert rep.passed
    assert rep.mean_check["passed"]
    assert rep.cov_check["passed"]
    assert rep.cumulant_check["passed"]
    # identity transport reproduces the pure-sampling baseline
    assert rep.cov_check["commutator_residual_closed"] == 0.0


def test_derivative_operator_report_passes():
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))
    rep = verify_theorem(p, derivative_operator(1), GRID, 5000, 42)
    assert rep.passed
    assert rep.mean_check["max_interior_standardized"] <= 5.0
    assert rep.cov_check["commutator_residual_closed"] <= 1e-12
    assert rep.cov_check["commutator_residual_fd"] <= 1e-4


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
    c = verify_theorem(PRIOR, derivative_operator(1), GRID, 1500, 9, threads=4)
    assert a.to_json() == c.to_json()


def test_report_json_schema_and_roundtrip():
    rep = verify_theorem(PRIOR, derivative_operator(1), GRID, 1000, 3)
    doc = json.loads(rep.to_json())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "verification"
    assert set(doc) >= {"mode", "config", "tolerances", "mean_check", "cov_check",
                        "cumulant_check", "passed"}
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


def test_verdict_does_not_depend_on_kernel_variance():
    # The commutator gate is relative to max|T1 T2 k|: rescaling the kernel
    # variance rescales the residuals and the image Gram together, so the
    # verdict for a given seed must not change.
    op = LinearOperator([(0, "1 + x^2"), (1, "cos(x)"), (2, "exp(-0.5*x)")])
    grid = Grid.uniform_on(0.0, 1.0, 33)
    reports = []
    for variance in (1.0, 1e4):
        p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5, variance))
        reports.append(verify_theorem(p, op, grid, 2000, 7))
    small, large = reports
    assert large.cov_check["commutator_residual_closed"] > \
        small.cov_check["commutator_residual_closed"]
    assert small.passed
    assert large.passed == small.passed
    assert large.cov_check["passed"] == small.cov_check["passed"]
