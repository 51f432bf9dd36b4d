"""Verification of operator transport: a discretization gate and a Monte-Carlo check.

``verify_theorem`` checks the closed-form image process ``(T m, T1 T2 k)``
of a prior ``GP(m, k)`` on a grid with stencil matrix ``A`` in two steps.

The transport claim rests on a deterministic gate.  The discrete law of the
stencilled prior, ``A m`` and ``A K A^t`` with ``K`` the prior's Gram, must
approach ``T m`` and ``T1 T2 k`` as the grid refines: on the grid's
coarsening ``x[::2]`` to ceil(n/2) points and on the grid itself, the
interior error relative to ``max |T1 T2 k|`` (the mean's relative to its
square root) must fall at an observed rate of at least 0.8 per halving of the
spacing, or lie within a roundoff floor of 1e-5 on one of the two grids.
Under a defect in the transport the error does not fall.  Each mean and
kernel table is tabulated once, on the grid; the coarsening's are its even
entries, bit for bit, since tables are evaluated entry by entry, and its law
is ``A_c K[::2, ::2] A_c^t``.  So the coarsening, like the grid, must hold
the stencil footprint of ``order + 4`` points: a grid of fewer than
``2 (order + 4) - 1`` points is refused before any kernel table.

A seeded ensemble of prior paths ``u = m + L z``, ``L`` factored from that
one prior table, then tests the sampler against the law it samples, ``A m``
and ``A (K + delta I) A^t`` (``delta`` the sampling jitter), never against
the factor or mean of the draw:

(a) the empirical mean of the transformed ensemble, standardized by the
    per-point Monte-Carlo standard error;
(b) the empirical covariance, standardized entrywise;
(c) standardized third- and fourth-order cumulants of the transformed
    ensemble, which must be statistically indistinguishable from zero if the
    image process is Gaussian.

The law is the reference because the stencil's O(h) bias at the top of the
smoothness budget (Matern 5/2 under d^2: 1.3% of the variance on 257 points)
is about two standard errors at 50k paths, and ``delta`` amplified by a
high-order stencil can exceed ``T1 T2 k`` itself.

Neither the prior paths nor their images are formed.  With ``T = A L``, the
image ensemble is ``A m + z T^t``, so its mean is ``A m + T zbar`` and its
covariance ``T cov(z) T^t``: the moments of the white normals pushed through
:func:`~gpops.transform.finite_dim_pushforward`.  ``cov(z)`` is close to the
identity, so this product loses nothing to cancellation, where
``A cov(u) A^t`` cancels under a high-order stencil over a smooth prior.
Against the covariance of 20k stencilled paths (relative to its largest
entry), ``T cov(z) T^t`` agreed to 6e-12 and ``A cov(u) A^t`` only to 3.5e-4
for SE with lengthscale 1 under d^4 on 65 points.

The cumulants read only a few image columns, and only through per-fold sums
of their products.  The moments come from one call of the draw's
:meth:`~gpops.sampling.GaussianDraw.moments`, which draws ``(zbar, cov(z))``
from their exact law, keyed by the seed alone, and passes the image columns
``z T[cols]^t`` block by block, as they are drawn, to a
:class:`~gpops.cumulants.FoldSums`.  Its ``columns`` are in increasing index
order: the SVD of ``T[cols]^t`` fixes the rotation of the draw, so the order
of the columns fixes which paths are drawn.  The constant ``(A m)[cols]`` is
not added: cumulants of order 3 and 4 do not move under a shift.  So the N
paths are seeded but never formed, no array with N rows is held, and
verify's memory is O(n^2) plus blocks of about 1 MB, whatever N.
``verify_theorem`` runs its whole body inside
:func:`~gpops.linalg.one_blas_thread`, so the Choleskys, the discrete laws,
``T = A L`` and the pushforward do not depend on the BLAS thread count
either.

Comparisons exclude the boundary rows whose stencils are one-sided (their
truncation constants are larger and say nothing about the process itself);
boundary deviations are still reported separately.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .cumulants import FoldSums, default_cumulant_tuples
# empirical_cumulant is not called here; it stays importable because
# perfbench/tracing.py rebinds it
from .cumulants import empirical_cumulant  # noqa: F401
from .errors import DomainViolationError, EvaluationError, GridSizeError
from .grids import Grid
from .linalg import check_finite, gram, one_blas_thread
# commutator_residual is not called here; it stays importable because
# perfbench/tracing.py rebinds it
from .operators import LinearOperator, commutator_residual  # noqa: F401
from .processes import GaussianProcessPrior
from .reportio import csv_lines, dumps_json
from .sampling import draw_factored, operator_matrix
# sample_paths, apply_operator_pathwise, empirical_mean and empirical_cov are
# not called here; they stay importable because perfbench/tracing.py rebinds
# them
from .sampling import (apply_operator_pathwise, empirical_cov,  # noqa: F401
                       empirical_mean, sample_paths)
from .stencils import interior_mask, stencil_width
from .transform import finite_dim_pushforward, pushforward

__all__ = ["VerificationTolerances", "VerificationReport", "verify_theorem"]

SCHEMA_VERSION = 4
CUMULANT_ORDERS = (3, 4)
TUPLES_PER_ORDER = 10
# 3 interior points give TUPLES_PER_ORDER tuples of order 3 (with repeats), 2 only 4
MIN_INTERIOR_POINTS = 3
# A closed-form image variance within VARIANCE_RTOL * max|k_v| below 0 (about
# 4500 ulps of that entry) is roundoff; one below that means the image
# kernel is not a covariance.
VARIANCE_RTOL = 1e-12
# The discretization gate: the stencilled prior law must approach the closed
# form at an observed rate of at least DISCRETIZATION_MIN_RATE per halving of
# the spacing, or agree with it within DISCRETIZATION_FLOOR (relative), where
# roundoff in the stencils stops the error from falling further.
DISCRETIZATION_MIN_RATE = 0.8
DISCRETIZATION_FLOOR = 1e-5


@dataclass(frozen=True)
class VerificationTolerances:
    """Pass thresholds in standard-error units."""

    mean_z: float = 5.0
    cov_z: float = 5.0
    cumulant_z: float = 5.0

    def to_dict(self):
        return asdict(self)


@dataclass
class VerificationReport:
    """Outcome of one verification run; serializes to JSON and CSV."""

    config: dict
    tolerances: VerificationTolerances
    mode: str  # "verification" or "rejection"
    passed: bool
    discretization_check: dict | None = None
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
            "discretization_check": self.discretization_check,
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


def _z_gate(dev, se, mask, threshold, **extra) -> dict:
    """Max ``|dev| / se`` over ``mask`` against ``threshold``; ``extra`` keys precede the verdict.

    A zero ``se`` divides as the smallest normal float, so a zero deviation
    there reads z = 0 and any other reads as far beyond the threshold.
    """
    dev, se = np.abs(dev[mask]), se[mask]
    z = float(np.max(dev / np.where(se == 0.0, np.finfo(float).tiny, se)))
    return {"max_interior_standardized": z,
            "max_interior_abs_deviation": float(np.max(dev)),
            **extra, "threshold": threshold, "passed": bool(z <= threshold)}


def _interior_slice(n_points: int, order: int) -> slice:
    """The interior rows of :func:`~gpops.stencils.interior_mask`, one contiguous run."""
    idx = np.flatnonzero(interior_mask(n_points, order))
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _discretization_errors(law_mean, law_cov, mean_v, k_v, inner: slice):
    """Interior max ``|A m - T m|`` and ``|A K A^t - T1 T2 k|`` relative to ``max |T1 T2 k|``.

    The mean's error is relative to the square root of that maximum.  The
    interior ``inner`` is a slice, so the covariance block is read as a view.
    """
    scale = max(float(np.max(np.abs(k_v))), np.finfo(float).tiny)
    return (float(np.max(np.abs(law_mean[inner] - mean_v[inner])) / np.sqrt(scale)),
            float(np.max(np.abs(law_cov[inner, inner] - k_v[inner, inner])) / scale))


def _discretization_gate(points, errors) -> dict:
    """The mean and covariance errors on a grid's coarsening and on the grid, judged by their rate.

    The rate is ``log2`` of the coarse error over the fine one.  Each part
    passes if its smaller error is within ``DISCRETIZATION_FLOOR`` or its rate
    is at least ``DISCRETIZATION_MIN_RATE``.
    """
    out = {"grid_points": points}
    for name, (coarse, fine) in zip(("mean", "cov"), zip(*errors)):
        rate = float(np.log2(coarse / fine)) if coarse > 0.0 and fine > 0.0 else None
        out[name] = {"relative_error": [coarse, fine], "rate": rate,
                     "passed": bool(min(coarse, fine) <= DISCRETIZATION_FLOOR
                                    or (rate is not None and rate >= DISCRETIZATION_MIN_RATE))}
    out.update(min_rate=DISCRETIZATION_MIN_RATE, floor=DISCRETIZATION_FLOOR,
               passed=out["mean"]["passed"] and out["cov"]["passed"])
    return out


@one_blas_thread()
def verify_theorem(p: GaussianProcessPrior, op: LinearOperator, grid: Grid,
                   n_paths: int, seed: int,
                   tolerances: VerificationTolerances | None = None, *,
                   expect_rejection: bool = False,
                   config_echo: dict | None = None) -> VerificationReport:
    """Run the full empirical check of the operator-transport claims.

    Returns a report whose numbers are bit-identical across runs with equal
    inputs, whatever the BLAS thread count.  When the
    operator is outside the prior's smoothness budget, the rejection itself
    is the contract: pass ``expect_rejection=True`` and the guard firing is
    reported as a pass (anything else as a failure).
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
        occurred, message = False, "operator was accepted but rejection was expected"
    except DomainViolationError as exc:
        if not expect_rejection:
            raise
        occurred, message = True, str(exc)
    if expect_rejection:
        rejection = {"expected": True, "occurred": occurred, "message": message,
                     "passed": occurred}
        return VerificationReport(config=config, tolerances=tol, mode="rejection",
                                  passed=occurred, rejection=rejection)

    # each table is tabulated once, on the grid: the coarsening's are its even entries
    x = grid.points
    image_mean = image.mean(x)
    # A, the interior and the coarsening come before the image Gram: an operator
    # without a stencil on the grid, too small an interior, or a coarsening
    # smaller than the stencil footprint fails before any kernel table
    a_mat = operator_matrix(op, grid)
    interior = interior_mask(len(grid), op.order)
    interior_idx = np.flatnonzero(interior)
    if interior_idx.size < MIN_INTERIOR_POINTS:
        raise GridSizeError(f"the grid of {len(grid)} points leaves an interior of "
                            f"{interior_idx.size} under an operator of order {op.order}; the "
                            f"cumulant gate needs at least {MIN_INTERIOR_POINTS} interior points")
    coarse = Grid(x[::2])
    if op.order and len(coarse) < stencil_width(op.order):
        width = stencil_width(op.order)
        raise GridSizeError(f"the grid of {len(grid)} points coarsens to {len(coarse)}, fewer "
                            f"than the stencil footprint {width} for derivative order "
                            f"{op.order}; the discretization gate needs at least "
                            f"{2 * width - 1} grid points")
    image_gram = gram(image.kernel, grid)
    # image.mean names a value that is not finite itself
    check_finite([("image Gram T1 T2 k", "kernel", image_gram)])
    var_v = image_gram.diagonal()
    below = np.flatnonzero(var_v < -VARIANCE_RTOL * np.max(np.abs(image_gram)))
    if below.size:
        i = int(below[0])
        raise EvaluationError(f"image variance {var_v[i]:.6g} at grid point {i} (x = {x[i]:g}) "
                              f"is negative beyond roundoff: the image kernel is not a covariance")

    tuples = {order: default_cumulant_tuples(len(grid), order, count=TUPLES_PER_ORDER,
                                             lo=int(interior_idx[0]), hi=int(interior_idx[-1]))
              for order in CUMULANT_ORDERS}
    # the per-fold product sums of the image columns the cumulants read, and
    # their bound on the paths, checked before the Gram is factored and drawn
    cumulant_sums = FoldSums([t for order in CUMULANT_ORDERS for t in tuples[order]], n_paths)

    # the prior's discrete law (A m, A K A^t) against the closed form, on the
    # coarsening and on the grid; a law that overflows is named before any gate or draw
    prior_mean, prior_gram = p.mean(x), gram(p.kernel, grid)
    a_coarse = operator_matrix(op, coarse)
    with np.errstate(over="ignore", invalid="ignore"):
        law_mean, law_cov = a_mat @ prior_mean, a_mat @ prior_gram @ a_mat.T
        coarse_mean = a_coarse @ prior_mean[::2]
        coarse_cov = a_coarse @ prior_gram[::2, ::2] @ a_coarse.T
    check_finite([("discrete law A m", "mean", law_mean),
                  ("discrete law A K A^t", "kernel", law_cov),
                  ("discrete law A m on the coarsening", "mean", coarse_mean),
                  ("discrete law A K A^t on the coarsening", "kernel", coarse_cov)])
    errors = [_discretization_errors(coarse_mean, coarse_cov, image_mean[::2],
                                     image_gram[::2, ::2],
                                     _interior_slice(len(coarse), op.order)),
              _discretization_errors(law_mean, law_cov, image_mean, image_gram,
                                     _interior_slice(len(grid), op.order))]
    discretization_check = _discretization_gate([len(coarse), len(grid)], errors)
    # the draw factors the prior table itself; then the tables the gate alone
    # reads (var_v is a view of one) are freed
    draw = draw_factored(prior_mean, prior_gram, n_paths, seed)
    del image_mean, image_gram, var_v, prior_mean, prior_gram, a_coarse, coarse_mean, coarse_cov

    # the image ensemble A u = A m + z T^t, from the moments of z, and its
    # columns' product sums from z T[cols]^t as it is drawn (module docstring)
    t_mat = a_mat @ draw.factor
    zbar, zcov = draw.moments(t_mat[cumulant_sums.columns].T, cumulant_sums.add)
    t_zbar, ecov = finite_dim_pushforward(zbar, zcov, t_mat)
    emean = a_mat @ draw.mean + t_zbar

    # the sampled vector's law is A (K + delta I) A^t, delta the draw's jitter
    law_cov = law_cov + draw.jitter * (a_mat @ a_mat.T)
    law_var = np.clip(np.diag(law_cov), 0.0, None)

    # (a) mean: per-point MC standard error sqrt(var/N)
    mean_se = np.sqrt(law_var / n_paths)
    mean_dev = emean - law_mean
    mean_check = _z_gate(
        mean_dev, mean_se, interior, tol.mean_z,
        max_boundary_abs_deviation=float(np.max(np.abs(mean_dev[~interior]))) if np.any(~interior) else 0.0,
        mc_se_interior_max=float(np.max(mean_se[interior])))

    # (b) covariance: entrywise SE sqrt((c_ii c_jj + c_ij^2)/N), interior block
    # c_ii c_jj + c_ij^2 squares the law: a law beyond about 1e154 overflows
    # here first, and is named here
    with np.errstate(over="ignore", invalid="ignore"):
        law_square = np.outer(law_var, law_var) + law_cov**2
    check_finite([("squared discrete law c_ii c_jj + c_ij^2 of the covariance gate", "kernel",
                   law_square)])
    cov_se = np.sqrt(law_square / n_paths)
    var_se = cov_se.diagonal()
    cov_check = _z_gate(ecov - law_cov, cov_se, np.outer(interior, interior), tol.cov_z)

    # (c) higher cumulants over a deterministic tuple set, interior grid indices,
    # all estimated from the one set of sums
    ests = iter(cumulant_sums.estimates(x))
    per_order = []
    for order in CUMULANT_ORDERS:
        order_ests = [next(ests) for _ in tuples[order]]
        worst = max(est.standardized for est in order_ests)
        per_order.append({"order": order, "max_standardized": worst,
                          "threshold": tol.cumulant_z, "passed": bool(worst <= tol.cumulant_z),
                          "tuples": [{"indices": list(t), "value": est.value,
                                      "standard_error": est.standard_error,
                                      "standardized": est.standardized}
                                     for t, est in zip(tuples[order], order_ests)]})
    cumulant_check = {"orders": list(CUMULANT_ORDERS), "per_order": per_order,
                      "passed": all(sec["passed"] for sec in per_order)}

    evar = np.diag(ecov)
    per_point = [
        (int(i), float(x[i]), bool(interior[i]), float(emean[i]), float(law_mean[i]),
         float(mean_dev[i]), float(mean_se[i]), float(evar[i]), float(law_var[i]),
         float(evar[i] - law_var[i]), float(var_se[i]))
        for i in range(len(grid))
    ]

    passed = (discretization_check["passed"] and mean_check["passed"]
              and cov_check["passed"] and cumulant_check["passed"])
    return VerificationReport(config=config, tolerances=tol, mode="verification",
                              passed=bool(passed), discretization_check=discretization_check,
                              mean_check=mean_check, cov_check=cov_check,
                              cumulant_check=cumulant_check, per_point=per_point)
