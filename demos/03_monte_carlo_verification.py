"""Monte-Carlo verification of the operator transport, end to end.

First checks that the stencilled prior law converges to the closed-form
image process as the grid refines (the discretization gate).  Then it draws
the statistics of seeded prior paths under grid stencils and checks them
against that law: the mean, the covariance, and vanishing third/fourth
cumulants.  This is the library-level equivalent of the `gpops verify`
subcommand.

Run:  python demos/03_monte_carlo_verification.py
"""

import numpy as np

from gpops import (GaussianProcessPrior, Grid, derivative_operator,
                   matern_kernel, mean_from_expression, se_kernel,
                   verify_theorem, zero_mean)

grid = Grid.uniform_on(0.0, 1.0, 33)
d = derivative_operator(1)

prior = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))

report = verify_theorem(prior, d, grid, n_paths=20_000, seed=42)

print("mode       :", report.mode)
disc = report.discretization_check
print("discretize : cov error", [f"{e:.2e}" for e in disc["cov"]["relative_error"]],
      "on", disc["grid_points"], "points, rate", round(disc["cov"]["rate"], 2))
print("mean check : standardized max =",
      round(report.mean_check["max_interior_standardized"], 3),
      "(threshold", report.mean_check["threshold"], ")")
print("cov check  : standardized max =",
      round(report.cov_check["max_interior_standardized"], 3),
      "(threshold", report.cov_check["threshold"], ")")
for sec in report.cumulant_check["per_order"]:
    print(f"cumulants  : order {sec['order']} standardized max =",
          round(sec["max_standardized"], 3))
print("PASSED     :", report.passed)

# the report serializes deterministically; same seed, same bytes
assert report.to_json() == verify_theorem(prior, d, grid, 20_000, 42).to_json()
print("\nreport bytes are reproducible at fixed seed")

# an operator outside the prior's smoothness is rejected, and that rejection
# is itself a verifiable contract
rough = GaussianProcessPrior(mean=zero_mean(), kernel=matern_kernel(0.5, 1.0, 1.0))
rejection = verify_theorem(rough, d, grid, 100, 0, expect_rejection=True)
print("\nrough prior:", rejection.mode, "passed =", rejection.passed)
