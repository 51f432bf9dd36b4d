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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ParameterError
from .grids import Grid
from .linalg import chol_psd, gram
from .operators import ARG1, ARG2, LinearOperator, apply_arg, apply_to_function
from .processes import GaussianProcessPrior
from .reportio import csv_lines, dumps_json

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
        if not (np.isfinite(self.location) and np.isfinite(self.value)):
            raise ParameterError("observation location and value must be finite")
        if not (self.noise_sd >= 0.0):
            raise ParameterError(f"noise_sd must be >= 0, got {self.noise_sd}")


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean/covariance tabulated on a grid, plus the data evidence."""

    grid: Grid
    mean: np.ndarray
    cov: np.ndarray
    log_marginal: float

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

    def to_json(self) -> str:
        return dumps_json(self.to_dict())

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
    grid and the log marginal likelihood of the observations under the prior.
    """
    observations = list(observations)
    x = grid.points
    k_xx = gram(p.kernel, grid)
    if not observations:
        return PosteriorSummary(grid=grid, mean=p.mean(x), cov=k_xx, log_marginal=0.0)

    lo, hi = x[0], x[-1]
    span = hi - lo
    for obs in observations:
        if not (lo - 1e-12 * max(1.0, span) <= obs.location <= hi + 1e-12 * max(1.0, span)):
            raise ParameterError(
                f"observation location {obs.location} lies outside the grid span "
                f"[{lo}, {hi}]"
            )

    q = len(observations)
    locs = np.array([obs.location for obs in observations])
    values = np.array([obs.value for obs in observations])
    noise_var = np.array([obs.noise_sd**2 for obs in observations]) + NOISE_FLOOR_VARIANCE
    groups = _group_by_operator(observations)

    # Cross-covariance of the grid values with each observed functional.
    k_x_obs = np.empty((x.size, q))
    prior_obs_mean = np.empty(q)
    for op_j, idx_j in groups:
        s2k = apply_arg(op_j, ARG2, p.kernel)
        cols = np.asarray(idx_j)
        k_x_obs[:, cols] = s2k(x[:, None], locs[cols][None, :])
        t_mean = apply_to_function(op_j, p.mean)
        prior_obs_mean[cols] = t_mean(locs[cols])

    # Observation Gram: one operator applied per argument, pair by pair.
    k_obs = np.empty((q, q))
    for op_i, idx_i in groups:
        for op_j, idx_j in groups:
            bf = apply_arg(op_i, ARG1, apply_arg(op_j, ARG2, p.kernel))
            rows = np.asarray(idx_i)
            cols = np.asarray(idx_j)
            k_obs[np.ix_(rows, cols)] = bf(locs[rows][:, None], locs[cols][None, :])
    k_obs = 0.5 * (k_obs + k_obs.T) + np.diag(noise_var)

    L, _ = chol_psd(k_obs, max_jitter=max_jitter)
    residual = values - prior_obs_mean
    alpha = solve_triangular(L.T, solve_triangular(L, residual, lower=True), lower=False)
    w = solve_triangular(L, k_x_obs.T, lower=True)
    post_mean = p.mean(x) + k_x_obs @ alpha
    post_cov = k_xx - w.T @ w
    post_cov = 0.5 * (post_cov + post_cov.T)
    log_marginal = float(-0.5 * residual @ alpha - np.sum(np.log(np.diag(L)))
                         - 0.5 * q * math.log(2.0 * math.pi))
    return PosteriorSummary(grid=grid, mean=post_mean, cov=post_cov,
                            log_marginal=log_marginal)


def solve_linear_ode(op: LinearOperator, rhs, boundary, grid: Grid,
                     p: GaussianProcessPrior, *, collocation: Grid | None = None,
                     collocation_noise_sd: float = 0.0) -> PosteriorSummary:
    """Solve ``op u = rhs`` with boundary observations by GP collocation.

    Builds observations ``(op u)(x_i) = rhs(x_i)`` at the collocation points
    (by default the interior of the output grid, leaving endpoints to the
    boundary conditions), appends the boundary observations, and conditions
    the prior on all of them.
    """
    if collocation is None:
        pts = grid.points[1:-1]
        if pts.size == 0:
            raise ParameterError("grid too small to derive collocation points")
        collocation = Grid(pts)
    obs = [Observation(operator=op, location=float(xi), value=float(rhs(xi)),
                       noise_sd=collocation_noise_sd)
           for xi in collocation.points]
    obs.extend(boundary)
    return condition(p, obs, grid)
