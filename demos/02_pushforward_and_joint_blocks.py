"""Pushing a GP prior through an operator, and the joint covariance blocks.

Shows the image prior (transformed mean and kernel), repeated application,
the finite-dimensional bridge via differentiation matrices, and the four
blocks that make operator observations conditionable.

Run:  python demos/02_pushforward_and_joint_blocks.py
"""

import numpy as np

from gpops import (GaussianProcessPrior, Grid, compose, derivative_operator,
                   differentiation_matrix, finite_dim_pushforward, gram,
                   interior_mask, joint_blocks, mean_from_expression,
                   pushforward, se_kernel)

prior = GaussianProcessPrior(mean=mean_from_expression("sin(x)"),
                             kernel=se_kernel(1.0, 1.0))
d = derivative_operator(1)

# --- the image prior --------------------------------------------------------

image = pushforward(prior, d)
x = np.linspace(0.0, 1.0, 5)
print("prior mean   :", np.round(prior.mean(x), 4))
print("image mean   :", np.round(image.mean(x), 4), " (should be cos)")
print("image k(0,0) :", image.kernel(0.0, 0.0))

# pushing forward twice equals pushing forward by the composition
twice = pushforward(image, d)
direct = pushforward(prior, compose(d, d))
print("second push vs composed operator, mean at 0.4:",
      twice.mean(0.4), direct.mean(0.4))

# --- finite-dimensional bridge ----------------------------------------------

print("\ngrid transport converges to the kernel transport (interior max error):")
for n in (17, 33, 65):
    g = Grid.uniform_on(0.0, 1.0, n)
    d_mat = differentiation_matrix(g, 1)
    _, cov_disc = finite_dim_pushforward(prior.mean(g.points), gram(prior.kernel, g), d_mat)
    exact = gram(image.kernel, g)
    inner = interior_mask(n, 1)
    err = np.abs(cov_disc - exact)[np.outer(inner, inner)].max()
    print(f"  n = {n:3d}:  {err:.3e}")

# --- joint blocks -----------------------------------------------------------

g = Grid.uniform_on(0.0, 1.0, 9)
jb = joint_blocks(prior, d, g, g)
print("\njoint block shapes:", jb.k_uu.shape, jb.k_uv.shape, jb.k_vu.shape, jb.k_vv.shape)
print("K_vu equals K_uv^T exactly:", np.array_equal(jb.k_vu, jb.k_uv.T))
stacked = jb.stacked()
print("stacked joint covariance is", stacked.shape, "and exactly symmetric:",
      np.array_equal(stacked, stacked.T))
