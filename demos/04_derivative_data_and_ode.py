"""Conditioning on derivative data and solving a boundary value problem.

The covariance blocks of (u, Tu) make observations of Tu as usable as
observations of u itself.  First a derivative-data regression (observe u',
recover u), then a second-order boundary value problem by collocation.

Run:  python demos/04_derivative_data_and_ode.py
"""

import math

import numpy as np

from gpops import (GaussianProcessPrior, Grid, Observation, condition,
                   derivative_operator, identity, matern_kernel, se_kernel,
                   solve_linear_ode, zero_mean)

# --- observe the derivative, recover the function ---------------------------

prior = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5, 1.0))
d = derivative_operator(1)

observations = [Observation(d, float(x), math.cos(x), noise_sd=1e-4)
                for x in np.linspace(0.0, 1.0, 20)]
observations.append(Observation(identity(), 0.0, 0.0, noise_sd=0.0))  # pin u(0)

grid = Grid.uniform_on(0.0, 1.0, 65)
post = condition(prior, observations, grid)

err = np.abs(post.mean - np.sin(grid.points)).max()
print("observed u' = cos plus u(0) = 0")
print("posterior mean max error vs sin :", f"{err:.2e}")
print("posterior sd range              :",
      f"[{np.sqrt(post.variance.min()):.2e}, {np.sqrt(post.variance.max()):.2e}]")
print("log marginal likelihood         :", round(post.log_marginal, 3))

# --- boundary value problem: u'' = -sin, u(0) = u(pi) = 0 -------------------

bvp_prior = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(3.5, 1.5, 1.0))
bvp_grid = Grid.uniform_on(0.0, math.pi, 65)
bcs = [Observation(identity(), 0.0, 0.0), Observation(identity(), math.pi, 0.0)]

solution = solve_linear_ode(derivative_operator(2), lambda x: -np.sin(x), bcs,
                            bvp_grid, bvp_prior,
                            collocation=Grid(np.linspace(0.0, math.pi, 40)),
                            collocation_noise_sd=1e-4)

bvp_err = np.abs(solution.mean - np.sin(bvp_grid.points)).max()
print("\nboundary value problem u'' = -sin on [0, pi]")
print("posterior mean max error vs sin :", f"{bvp_err:.2e}")

# conditioning never inflates uncertainty
from gpops import gram

prior_var = np.diag(gram(bvp_prior.kernel, bvp_grid))
print("posterior variance <= prior everywhere:",
      bool(np.all(solution.variance <= prior_var + 1e-10)))
