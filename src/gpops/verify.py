"""Monte-Carlo verification that operator transport matches pathwise reality.

``verify_theorem`` samples prior paths, applies the operator to each path by
grid stencils, and compares the resulting empirical statistics against the
closed-form image process:

(a) the empirical mean of the transformed ensemble against the transformed
    mean function, standardized by the per-point Monte-Carlo standard error;
(b) the empirical covariance against the transformed kernel's Gram matrix,
    standardized entrywise, together with the residual between the two
    argument-application orders of the kernel transport, gated relative to
    max|T1 T2 k|;
(c) standardized third- and fourth-order cumulants of the transformed
    ensemble, which must be statistically indistinguishable from zero if the
    image process is Gaussian.

Comparisons exclude the boundary rows whose stencils are one-sided (their
truncation constants are larger and say nothing about the process itself);
boundary deviations are still reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cumulants import default_cumulant_tuples, empirical_cumulant
from .errors import DomainViolationError, EvaluationError
from .grids import Grid
from .linalg import gram
from .operators import LinearOperator, commutator_residual
from .processes import GaussianProcessPrior
from .reportio import csv_lines, dumps_json
from .sampling import (apply_operator_pathwise, empirical_cov, empirical_mean,
                       sample_paths)
from .stencils import interior_mask
from .transform import pushforward

__all__ = ["VerificationTolerances", "VerificationReport", "verify_theorem"]

SCHEMA_VERSION = 1
CUMULANT_ORDERS = (3, 4)
TUPLES_PER_ORDER = 10


@dataclass(frozen=True)
class VerificationTolerances:
    """Pass thresholds; the z-style bounds are in standard-error units.

    The commutator tolerances are relative to max|T1 T2 k| on the grid.
    """

    mean_z: float = 5.0
    cov_z: float = 5.0
    cumulant_z: float = 5.0
    commutator_closed: float = 1e-12
    commutator_fd: float = 1e-4

    def to_dict(self):
        return {
            "mean_z": self.mean_z,
            "cov_z": self.cov_z,
            "cumulant_z": self.cumulant_z,
            "commutator_closed": self.commutator_closed,
            "commutator_fd": self.commutator_fd,
        }


@dataclass
class VerificationReport:
    """Outcome of one verification run; serializes to JSON and CSV."""

    config: dict
    tolerances: VerificationTolerances
    mode: str  # "verification" or "rejection"
    passed: bool
    mean_check: dict | None = None
    cov_check: dict | None = None
    cumulant_check: dict | None = None
    rejection: dict | None = None
    per_point: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification",
            "mode": self.mode,
            "config": self.config,
            "tolerances": self.tolerances.to_dict(),
            "mean_check": self.mean_check,
            "cov_check": self.cov_check,
            "cumulant_check": self.cumulant_check,
            "rejection": self.rejection,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return dumps_json(self.to_dict())

    CSV_HEADER = ("index", "x", "interior", "mean_empirical", "mean_predicted",
                  "mean_deviation", "mean_se", "var_empirical", "var_predicted",
                  "var_deviation", "var_se")

    def to_csv(self) -> str:
        return csv_lines(self.CSV_HEADER, self.per_point)


def _standardized_max(dev, se, mask):
    if not np.any(mask):
        return 0.0
    z = np.abs(dev[mask]) / se[mask]
    return float(np.max(z))


def verify_theorem(p: GaussianProcessPrior, op: LinearOperator, grid: Grid,
                   n_paths: int, seed: int,
                   tolerances: VerificationTolerances | None = None, *,
                   expect_rejection: bool = False, threads: int = 1,
                   config_echo: dict | None = None) -> VerificationReport:
    """Run the full empirical check of the operator-transport claims.

    Returns a report whose numbers are bit-identical across runs with equal
    inputs.  When the operator is outside the prior's smoothness budget, the
    rejection itself is the contract: pass ``expect_rejection=True`` and the
    guard firing is reported as a pass (anything else as a failure).
    """
    tol = tolerances or VerificationTolerances()
    config = dict(config_echo or {})
    config.setdefault("prior", p.label)
    config.setdefault("operator", op.label)
    config.setdefault("grid_points", len(grid))
    config.setdefault("interval", [float(grid.points[0]), float(grid.points[-1])])
    config.setdefault("n_paths", int(n_paths))
    config.setdefault("seed", int(seed))

    try:
        image = pushforward(p, op)
    except DomainViolationError as exc:
        rejection = {"expected": expect_rejection, "occurred": True, "message": str(exc)}
        if expect_rejection:
            rejection["passed"] = True
            return VerificationReport(config=config, tolerances=tol, mode="rejection",
                                      passed=True, rejection=rejection)
        raise
    if expect_rejection:
        rejection = {"expected": True, "occurred": False,
                     "message": "operator was accepted but rejection was expected",
                     "passed": False}
        return VerificationReport(config=config, tolerances=tol, mode="rejection",
                                  passed=False, rejection=rejection)

    x = grid.points
    mean_v = image.prior.mean(x)
    k_v = gram(image.prior.kernel, grid)
    var_v = np.clip(np.diag(k_v), 0.0, None)

    ensemble = sample_paths(p, grid, n_paths, seed, threads=threads)
    transformed = apply_operator_pathwise(op, ensemble)
    emean = empirical_mean(transformed)
    ecov = empirical_cov(transformed)

    interior = interior_mask(len(grid), op.order)

    # (a) mean: per-point MC standard error sqrt(k_v(x,x)/N)
    mean_se = np.sqrt(var_v / n_paths)
    mean_se = np.where(mean_se == 0.0, np.finfo(float).tiny, mean_se)
    mean_dev = emean - mean_v
    mean_zmax = _standardized_max(mean_dev, mean_se, interior)
    mean_check = {
        "max_interior_standardized": mean_zmax,
        "max_interior_abs_deviation": float(np.max(np.abs(mean_dev[interior]))),
        "max_boundary_abs_deviation": float(np.max(np.abs(mean_dev[~interior]))) if np.any(~interior) else 0.0,
        "mc_se_interior_max": float(np.max(mean_se[interior])),
        "threshold": tol.mean_z,
        "passed": bool(mean_zmax <= tol.mean_z),
    }

    # (b) covariance: entrywise SE sqrt((k_ii k_jj + k_ij^2)/N), interior block
    cov_se = np.sqrt((np.outer(var_v, var_v) + k_v**2) / n_paths)
    var_se = cov_se.diagonal()
    cov_se = np.where(cov_se == 0.0, np.finfo(float).tiny, cov_se)
    cov_dev = ecov - k_v
    block = np.outer(interior, interior)
    cov_zmax = _standardized_max(cov_dev, cov_se, block)
    try:
        resid_closed = commutator_residual(op, p.kernel, grid, method="closed")
    except EvaluationError:
        resid_closed = None  # kernel lacks closed-form partials; FD path only
    resid_fd = commutator_residual(op, p.kernel, grid, method="fd")
    # Residuals are reported absolute but gated relative to the image kernel's
    # scale, so the verdict does not depend on the kernel variance.
    k_scale = float(np.max(np.abs(k_v)))
    commutator_ok = (resid_closed is None or resid_closed <= tol.commutator_closed * k_scale) \
        and resid_fd <= tol.commutator_fd * k_scale
    cov_check = {
        "max_interior_standardized": cov_zmax,
        "max_interior_abs_deviation": float(np.max(np.abs(cov_dev[block]))),
        "commutator_residual_closed": resid_closed,
        "commutator_residual_fd": resid_fd,
        "threshold": tol.cov_z,
        "passed": bool(cov_zmax <= tol.cov_z and commutator_ok),
    }

    # (c) higher cumulants over a deterministic tuple set, interior indices
    interior_idx = np.flatnonzero(interior)
    per_order = []
    cum_passed = True
    for order in CUMULANT_ORDERS:
        tuples = default_cumulant_tuples(len(grid), order, count=TUPLES_PER_ORDER,
                                         lo=int(interior_idx[0]), hi=int(interior_idx[-1]))
        entries = []
        worst = 0.0
        for t in tuples:
            est = empirical_cumulant(transformed, t)
            worst = max(worst, est.standardized)
            entries.append({
                "indices": list(est.indices),
                "value": est.value,
                "standard_error": est.standard_error,
                "standardized": est.standardized,
            })
        ok = worst <= tol.cumulant_z
        cum_passed = cum_passed and ok
        per_order.append({"order": order, "max_standardized": worst,
                          "threshold": tol.cumulant_z, "passed": bool(ok),
                          "tuples": entries})
    cumulant_check = {"orders": list(CUMULANT_ORDERS), "per_order": per_order,
                      "passed": bool(cum_passed)}

    evar = np.diag(ecov)
    per_point = [
        (int(i), float(x[i]), bool(interior[i]), float(emean[i]), float(mean_v[i]),
         float(mean_dev[i]), float(mean_se[i]), float(evar[i]), float(var_v[i]),
         float(evar[i] - var_v[i]), float(var_se[i]))
        for i in range(len(grid))
    ]

    passed = mean_check["passed"] and cov_check["passed"] and cumulant_check["passed"]
    return VerificationReport(config=config, tolerances=tol, mode="verification",
                              passed=bool(passed), mean_check=mean_check,
                              cov_check=cov_check, cumulant_check=cumulant_check,
                              per_point=per_point)
