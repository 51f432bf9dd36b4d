"""Kernels, their derivatives, and differential operators acting on them.

Walks through the kernel catalog, shows closed-form mixed partials against
brute finite differences, and applies operators to single kernel arguments.

Run:  python demos/01_kernels_and_operators.py
"""

import numpy as np

from gpops import (ARG2, LinearOperator, apply_arg, apply_both,
                   derivative_operator, matern_kernel, se_kernel)

# --- the catalog ------------------------------------------------------------

se = se_kernel(lengthscale=1.0, variance=1.0)
m12 = matern_kernel(0.5, 1.0, 1.0)   # Ornstein-Uhlenbeck: rough paths
m52 = matern_kernel(2.5, 1.0, 1.0)   # twice-differentiable paths

print("squared exponential k(0,1)      =", se(0.0, 1.0))
print("matern 1/2 k(0,1)               =", m12(0.0, 1.0))
print("matern 5/2 k(0,1)               =", m52(0.0, 1.0))
print("sample smoothness (se, m12, m52) =",
      se.sample_smoothness, m12.sample_smoothness, m52.sample_smoothness)

# --- closed-form partials vs. a quick finite-difference check ---------------

h = 1e-5
fd = (se(0.3, 0.7 + h) - se(0.3, 0.7 - h)) / (2 * h)
closed = apply_arg(derivative_operator(1), ARG2, se)(0.3, 0.7)  # d/dx on argument 2
print("\nd k/d x2 at (0.3, 0.7): closed =", closed, " fd =", fd)

# --- operators --------------------------------------------------------------

d = derivative_operator(1)
advect = LinearOperator([(1, "x"), (0, 1.0)], label="x*d/dx + 1")
print("\noperators:", d.label, "|", advect.label, "(order", advect.order, ")")

# apply to the second kernel argument: the cross-covariance ingredient
t2k = apply_arg(d, ARG2, se)
print("T2 k at (0.0, 1.0) =", t2k(0.0, 1.0))
print("remaining budget per argument:", t2k.remaining_budget(1), t2k.remaining_budget(2))

# apply to both arguments: the covariance of the transformed process
t1t2k = apply_both(d, se)
x = np.linspace(0.0, 1.0, 5)
print("\nT1 T2 k on a small grid:")
print(np.array_str(t1t2k(x[:, None], x[None, :]), precision=4, suppress_small=True))

# --- the domain guard -------------------------------------------------------

try:
    apply_arg(d, ARG2, m12)
except Exception as exc:
    print("\nrough kernel refused, as it must be:")
    print(" ", exc)
