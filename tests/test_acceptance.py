"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is stated next to its oracle: analytic Monte-Carlo
standard errors, stencil truncation measurements, exact combinatorics, or the
high-precision conditioning reference (exercised in test_conditioning.py).
"""

import math
import time

import numpy as np
import pytest

from gpops.cli import main as cli_main
from gpops.cumulants import default_cumulant_tuples, empirical_cumulant, enumerate_partitions
from gpops.conditioning import Observation, condition
from gpops.errors import DomainViolationError
from gpops.grids import Grid
from gpops.kernels import matern_kernel, se_kernel
from gpops.linalg import gram
from gpops.means import mean_from_expression, zero_mean
from gpops.operators import (ARG1, ARG2, apply_arg, apply_both,
                             commutator_residual, derivative_operator, identity)
from gpops.processes import GaussianProcessPrior
from gpops.sampling import (SampleEnsemble, apply_operator_pathwise,
                            empirical_cov, empirical_mean, sample_paths)
from gpops.stencils import differentiation_matrix, interior_mask
from gpops.transform import finite_dim_pushforward, pushforward

from fd_reference import commutator_residual_fd

GRID33 = Grid.uniform_on(0.0, 1.0, 33)
D1 = derivative_operator(1)
N_PATHS = 50_000
SEED = 42


def report(line):
    print(f"\n{line}")


def test_criterion_1_mean_transport():
    """Empirical mean of the transformed ensemble matches the transformed mean."""
    p = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))
    t0 = time.monotonic()
    ensemble = sample_paths(p, GRID33, N_PATHS, SEED)
    transformed = apply_operator_pathwise(D1, ensemble)
    emean = empirical_mean(transformed)
    elapsed = time.monotonic() - t0

    x = GRID33.points
    image = pushforward(p, D1)
    predicted = image.mean(x)
    np.testing.assert_allclose(predicted, np.cos(x), atol=1e-12)
    k_v_diag = np.array([image.kernel(v, v) for v in x])
    se = np.sqrt(k_v_diag / N_PATHS)  # analytic MC standard error of the mean
    inner = interior_mask(len(GRID33), 1)
    z = np.abs(emean - np.cos(x))[inner] / se[inner]
    assert z.max() <= 5.0, f"standardized mean deviation {z.max():.3f} > 5"
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s > 30s"
    report(f"ACCEPTANCE 1 (mean transport): PASS  max|dev|/se = {z.max():.3f}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_2_covariance_transport_and_commutation():
    """Empirical covariance matches the transformed kernel; orders commute."""
    p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))
    ensemble = sample_paths(p, GRID33, N_PATHS, SEED)
    transformed = apply_operator_pathwise(D1, ensemble)
    ecov = empirical_cov(transformed)

    k_v = gram(pushforward(p, D1).kernel, GRID33)
    var = np.diag(k_v)
    se = np.sqrt((np.outer(var, var) + k_v**2) / N_PATHS)
    inner = interior_mask(len(GRID33), 1)
    block = np.outer(inner, inner)
    z = (np.abs(ecov - k_v) / se)[block]
    assert z.max() <= 5.0, f"standardized covariance deviation {z.max():.3f} > 5"

    resid_closed = commutator_residual(D1, p.kernel, GRID33)
    resid_fd = commutator_residual_fd(D1, p.kernel, GRID33)
    assert resid_closed <= 1e-12
    assert resid_fd <= 1e-4
    report(f"ACCEPTANCE 2 (covariance transport): PASS  max|dev|/se = {z.max():.3f}, "
           f"commutator closed {resid_closed:.2e} / fd {resid_fd:.2e}")


def test_criterion_3_higher_cumulants_vanish():
    """Standardized 3rd/4th cumulants of the image ensemble stay below 5."""
    p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))
    inner_idx = np.flatnonzero(interior_mask(len(GRID33), 1))
    lo, hi = int(inner_idx[0]), int(inner_idx[-1])
    failures = 0
    worsts = []
    for seed in range(SEED, SEED + 20):
        ensemble = sample_paths(p, GRID33, N_PATHS, seed)
        transformed = apply_operator_pathwise(D1, ensemble)
        worst = 0.0
        for order in (3, 4):
            for tup in default_cumulant_tuples(len(GRID33), order, count=10, lo=lo, hi=hi):
                worst = max(worst, empirical_cumulant(transformed, tup).standardized)
        worsts.append(worst)
        if worst > 5.0:
            failures += 1
    assert failures <= 2, f"{failures}/20 seeds exceeded the cumulant threshold"
    report(f"ACCEPTANCE 3 (Gaussianity via cumulants): PASS  "
           f"{20 - failures}/20 seeds, worst standardized {max(worsts):.3f}")


def test_criterion_4_discrete_transport_convergence():
    """Matrix-level image law converges to the kernel transport at order >= 3.5."""
    kernel = se_kernel(1.0, 1.0)
    k_v_fn = apply_both(D1, kernel)
    errs = []
    for n in (17, 33, 65, 129):
        g = Grid.uniform_on(0.0, 1.0, n)
        d = differentiation_matrix(g, 1)
        _, cov_disc = finite_dim_pushforward(np.zeros(n), gram(kernel, g), d)
        exact = k_v_fn(g.points[:, None], g.points[None, :])
        inner = interior_mask(n, 1)
        errs.append(np.max(np.abs(cov_disc - exact)[np.outer(inner, inner)]))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 3.5), f"observed orders {rates} below 3.5"
    report(f"ACCEPTANCE 4 (finite-dim consistency): PASS  observed orders "
           f"{np.round(rates, 3).tolist()}")


def test_criterion_5_partition_machinery():
    """Partition counts, the order-2 reduction, and the exponential third cumulant."""
    frozen = [1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(1, 9):
        assert len(enumerate_partitions(n)) == frozen[n - 1]

    p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(1.0, 1.0))
    e = sample_paths(p, Grid.uniform_on(0, 1, 9), 2000, SEED)
    cov = empirical_cov(e)
    assert empirical_cumulant(e, (2, 6)).value == cov[2, 6]  # bit-identical

    rng = np.random.default_rng(20240811)
    draws = rng.exponential(size=(100_000, 1))
    scalar = SampleEnsemble(grid=Grid([0.0]), paths=draws, seed=0)
    est = empirical_cumulant(scalar, (0, 0, 0))
    assert abs(est.value - 2.0) <= 5.0 * est.standard_error
    report(f"ACCEPTANCE 5 (partition machinery): PASS  Bell counts ok, "
           f"kappa3(Exp(1)) = {est.value:.4f} +- {est.standard_error:.4f}")


def test_criterion_6_domain_guard_rail():
    """Applications beyond sample-path smoothness are rejected; within, accepted."""
    d2 = derivative_operator(2)
    rejected = [(D1, matern_kernel(0.5, 1.0, 1.0)), (d2, matern_kernel(1.5, 1.0, 1.0))]
    accepted = [(D1, matern_kernel(1.5, 1.0, 1.0)), (d2, matern_kernel(2.5, 1.0, 1.0))]
    grid = Grid.uniform_on(0, 1, 9)

    def applications(op, k):
        prior = GaussianProcessPrior(mean=zero_mean(), kernel=k)
        yield lambda: apply_arg(op, ARG1, k)
        yield lambda: apply_arg(op, ARG2, k)
        yield lambda: apply_both(op, k)
        yield lambda: commutator_residual(op, k, grid)
        yield lambda: pushforward(prior, op)
        yield lambda: condition(prior, [Observation(op, 0.5, 0.0, 0.1)], grid)

    for op, k in rejected:
        for call in applications(op, k):
            with pytest.raises(DomainViolationError):
                call()
    for op, k in accepted:
        for call in applications(op, k):
            call()
    report("ACCEPTANCE 6 (domain guard rail): PASS  2 pairs rejected everywhere, "
           "2 pairs accepted everywhere")


def test_criterion_7_conditioning_on_derivative_data():
    """Derivative observations recover the antiderivative to 1e-2."""
    p = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5, 1.0))
    obs = [Observation(D1, float(x), math.cos(x), 1e-4)
           for x in np.linspace(0.0, 1.0, 20)]
    obs.append(Observation(identity(), 0.0, 0.0, 0.0))
    g = Grid.uniform_on(0.0, 1.0, 65)
    post = condition(p, obs, g)
    err = np.abs(post.mean - np.sin(g.points)).max()
    assert err <= 1e-2  # attainability confirmed by the 50-digit oracle test
    prior_var = np.diag(gram(p.kernel, g))
    assert np.all(post.variance <= prior_var + 1e-10)
    report(f"ACCEPTANCE 7 (conditioner): PASS  max error vs sin = {err:.2e}")


def test_criterion_8_byte_deterministic_cli(tmp_path):
    """cmd_verify output is byte-identical across runs and thread counts."""
    cfg_text = """\
kernel: {name: se, lengthscale: 1.0, variance: 1.0}
mean: "sin(x)"
operator: {label: "d/dx", terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 33}
samples: 2000
seed: 42
output: "%s"
"""
    cfg = tmp_path / "verify.yaml"
    cfg.write_text(cfg_text % (tmp_path / "r1"))
    assert cli_main(["verify", "--config", str(cfg)]) == 0
    assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r2"),
                     "--threads", "1"]) == 0
    assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r3"),
                     "--threads", "4"]) == 0
    r1 = (tmp_path / "r1" / "report.json").read_bytes()
    assert r1 == (tmp_path / "r2" / "report.json").read_bytes()
    assert r1 == (tmp_path / "r3" / "report.json").read_bytes()
    c1 = (tmp_path / "r1" / "deviations.csv").read_bytes()
    assert c1 == (tmp_path / "r2" / "deviations.csv").read_bytes()
    assert c1 == (tmp_path / "r3" / "deviations.csv").read_bytes()
    report("ACCEPTANCE 8 (byte determinism): PASS  report.json and "
           "deviations.csv identical across runs and thread counts")
