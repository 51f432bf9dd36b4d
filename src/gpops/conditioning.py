"""Gaussian conditioning on operator observations.

Observing ``(S u)(y) = value + noise`` for operators ``S`` from the catalog
needs exactly the cross-covariances the transport machinery provides:
``Cov(u(x), (S u)(y))`` applies ``S`` to the second kernel argument, and
``Cov((S u)(y), (T u)(y'))`` applies one operator per argument.  With those
blocks in hand the posterior is standard Gaussian conditioning; the formulas
themselves are textbook practice, not something this package claims as new.

The observation Gram diagonal always receives a variance floor of ``1e-8``
on top of the declared noise, because noiseless derivative interpolation is
notoriously ill-conditioned; reported noise levels do not include the floor.

The observation Gram is held in half its q² memory: only its lower
triangle, in LAPACK's rectangular full packed format
(:class:`gpops.linalg.PackedLower`, q(q+1)/2 numbers).  Each group pair is
evaluated straight into the pieces of that array, ``dpftrf`` factors it in
place and one ``dtfsm`` call solves against the factor, all read from the
OpenBLAS that numpy bundles (:func:`gpops.linalg.chol_psd` and
:func:`gpops.linalg.solve_lower`).  A jitter retry refills the array from
the bifunctions, so no copy of the Gram is kept.  So conditioning loads no
scipy module, and neither does any other part of the runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NotPositiveDefiniteError, ParameterError
from .grids import Grid
from .linalg import PackedLower, check_finite, chol_psd, gram, jitter_ladder
from .linalg import solve_lower as solve_triangular  # the name perfbench traces
from .operators import ARG1, ARG2, LinearOperator, apply_arg, apply_to_function
from .processes import GaussianProcessPrior
from .reportio import csv_lines

__all__ = ["Observation", "PosteriorSummary", "condition", "solve_linear_ode",
           "NOISE_FLOOR_VARIANCE"]

NOISE_FLOOR_VARIANCE = 1e-8


@dataclass(frozen=True)
class Observation:
    """One noisy observation of (operator u) at a location."""

    operator: LinearOperator
    location: float
    value: float
    noise_sd: float = 0.0

    def __post_init__(self):
        location, value, noise_sd = map(_real, (self.location, self.value, self.noise_sd))
        if not (math.isfinite(location) and math.isfinite(value)):
            raise ParameterError("observation location and value must be finite")
        if not (noise_sd >= 0.0):
            raise ParameterError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not math.isfinite(noise_sd * noise_sd):
            raise ParameterError(f"noise_sd must have a finite variance, got {self.noise_sd}")


def _real(v) -> float:
    # v as a float: an integer too large for one is an infinity, and anything
    # but a real number a NaN (a string is refused, not parsed)
    if isinstance(v, (str, bytes)):
        return math.nan
    try:
        return float(v)
    except OverflowError:
        return -math.inf if v < 0 else math.inf
    except (TypeError, ValueError):
        return math.nan


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean/covariance tabulated on a grid, plus the data evidence.

    ``jitter`` is the diagonal shift the observation Gram's Cholesky
    factorization needed (0 when it factored as is).  It is a diagnostic and
    stays out of :meth:`to_dict`, so serialized posteriors keep their bytes.
    """

    grid: Grid
    mean: np.ndarray
    cov: np.ndarray
    log_marginal: float
    jitter: float = 0.0

    @property
    def variance(self) -> np.ndarray:
        return np.diag(self.cov)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "posterior",
            "grid": [float(v) for v in self.grid.points],
            "mean": [float(v) for v in self.mean],
            "variance": [float(v) for v in self.variance],
            "log_marginal": float(self.log_marginal),
        }

    CSV_HEADER = ("index", "x", "mean", "variance")

    def to_csv(self) -> str:
        rows = [(i, float(x), float(m), float(v)) for i, (x, m, v) in
                enumerate(zip(self.grid.points, self.mean, self.variance))]
        return csv_lines(self.CSV_HEADER, rows)


def _group_by_operator(observations):
    # Group observation indices by operator value (equal operators share a
    # group even as distinct objects) so cross-blocks can be built with one
    # vectorized bifunction evaluation per operator (pair).
    groups: dict[LinearOperator, list[int]] = {}
    for idx, obs in enumerate(observations):
        groups.setdefault(obs.operator, []).append(idx)
    return list(groups.items())


def condition(p: GaussianProcessPrior, observations, grid: Grid, *,
              max_jitter: float = 1e-8) -> PosteriorSummary:
    """Condition the prior on operator observations; tabulate on ``grid``.

    Every observation operator must be applicable to the prior (the same
    smoothness guard as the pushforward), and observation locations must lie
    within the grid's span.  Returns the posterior mean and covariance on the
    grid, the log marginal likelihood of the observations under the prior and
    the jitter that ``chol_psd`` added to the observation Gram.

    The observations are put in group order (one group per distinct
    operator, in order of first appearance), which leaves the posterior
    unchanged.  The Gram's lower triangle is then filled into one
    :class:`~gpops.linalg.PackedLower`: each group pair below or on the
    diagonal is evaluated once, straight into the pieces of the packed array
    that hold it, and ``chol_psd`` factors that array in place (a retry
    refills it from the same bifunctions).  With its factor ``L``, one
    forward solve ``L [v | W] = [y - m_obs | K_obs,x]`` gives the mean
    ``m(x) + W'v``, the covariance ``K_xx - W'W`` (exactly symmetric: BLAS
    forms ``W'W`` once) and, from ``v'v``, the log marginal.  A
    ``max_jitter`` that is not finite and >= 0 raises ``ParameterError``.
    """
    jitter_ladder(max_jitter)  # rejects a bad max_jitter before any work
    observations = list(observations)
    x = grid.points
    k_xx = gram(p.kernel, grid)
    if not observations:
        return PosteriorSummary(grid=grid, mean=p.mean(x), cov=k_xx, log_marginal=0.0)

    lo, hi = x[0], x[-1]
    tol = 1e-12 * (hi - lo)  # relative to the span, whatever its units
    for obs in observations:
        if not (lo - tol <= obs.location <= hi + tol):
            raise ParameterError(
                f"observation location {obs.location} lies outside the grid span "
                f"[{lo}, {hi}]"
            )

    # Group order: every group pair is one slice of the Gram.
    groups = _group_by_operator(observations)
    observations = [observations[i] for _, idx in groups for i in idx]
    bounds = np.cumsum([0] + [len(idx) for _, idx in groups]).tolist()
    spans = [(op, slice(a, b)) for (op, _), a, b in zip(groups, bounds[:-1], bounds[1:])]
    q = len(observations)
    locs = np.array([obs.location for obs in observations])
    values = np.array([obs.value for obs in observations])
    noise_var = np.array([obs.noise_sd**2 for obs in observations]) + NOISE_FLOOR_VARIANCE

    # b = [y - m_obs | K_obs,x] in Fortran order, so that the cross-covariance
    # k_x_obs = b[:, 1:].T is a row-major table the bifunctions fill in place.
    b = np.empty((q, 1 + x.size), order="F")
    k_x_obs = b[:, 1:].T
    s2k = [apply_arg(op_j, ARG2, p.kernel) for op_j, _ in spans]
    for (op_j, cols), s2k_j in zip(spans, s2k):
        s2k_j(x[:, None], locs[None, cols], out=k_x_obs[:, cols])
        with np.errstate(over="ignore", invalid="ignore"):
            b[cols, 0] = values[cols] - apply_to_function(op_j, p.mean)(locs[cols])
    # a misfit that overflows is named here, before the Gram is built
    check_finite([(f"misfit y - m of the {q} observations", "observed value, the mean", b[:, 0])])

    # Observation Gram, lower triangle only, packed: one operator applied
    # per argument, each group pair i >= j evaluated straight into the pieces
    # of the packed array that hold its block, diagonal pieces below their
    # diagonal.  chol_psd factors the array in place and calls fill again for
    # a jitter retry; the solve reads the factor as it is.
    pairs = [(rows, cols, apply_arg(op_i, ARG1, s2k_j))
             for i, (op_i, rows) in enumerate(spans)
             for (_, cols), s2k_j in zip(spans[:i + 1], s2k)]

    def fill(k_obs):
        for rows, cols, k_ij in pairs:
            for r, c, view in k_obs.pieces(rows, cols):
                if r == c:
                    k_ij.fill_lower(locs[r], view)
                else:
                    k_ij(locs[r, None], locs[None, c], out=view)
        k_obs.add_to_diagonal(noise_var)

    k_obs = PackedLower(q, fill)
    try:
        L, jitter = chol_psd(k_obs, max_jitter=max_jitter)
    except NotPositiveDefiniteError:
        # chol_psd leaves the Gram filled again; one that is not finite is named
        check_finite([(f"observation Gram of the {q} observations", "kernel", k_obs.data)])
        raise
    vw = solve_triangular(L, b)
    v, w = vw[:, 0], vw[:, 1:]
    # v @ v is not finite when v is not, or when it overflows: a huge mean or
    # value is named here, not left to the log marginal and the serializer
    with np.errstate(over="ignore", invalid="ignore"):
        vv = v @ v
    if not math.isfinite(vv):
        raise EvaluationError(f"the whitened misfit v = L^-1 (y - m) of the {q} observations "
                              f"or its square v @ v is not finite")
    post_mean = p.mean(x) + w.T @ v
    post_cov = k_xx - w.T @ w
    log_marginal = float(-0.5 * vv - np.sum(np.log(L.diagonal()))
                         - 0.5 * q * math.log(2.0 * math.pi))
    return PosteriorSummary(grid=grid, mean=post_mean, cov=post_cov,
                            log_marginal=log_marginal, jitter=jitter)


def solve_linear_ode(op: LinearOperator, rhs, boundary, grid: Grid,
                     p: GaussianProcessPrior, *, collocation: Grid | None = None,
                     collocation_noise_sd: float = 0.0) -> PosteriorSummary:
    """Solve ``op u = rhs`` with boundary observations by GP collocation.

    Builds observations ``(op u)(x_i) = rhs(x_i)`` at the collocation points
    (by default the interior of the output grid, leaving endpoints to the
    boundary conditions), appends the boundary observations, and conditions
    the prior on all of them.  ``rhs`` is called once, on the array of
    collocation points, so it must be vectorized (a
    :class:`~gpops.means.MeanFunction` or a numpy expression).
    """
    pts = grid.points[1:-1] if collocation is None else collocation.points
    if pts.size == 0:
        raise ParameterError("grid too small to derive collocation points")
    values = np.broadcast_to(np.asarray(rhs(pts), dtype=float), pts.shape)
    obs = [Observation(operator=op, location=float(xi), value=float(vi),
                       noise_sd=collocation_noise_sd)
           for xi, vi in zip(pts, values)]
    obs.extend(boundary)
    return condition(p, obs, grid)
