"""Gaussian process priors under linear differential operators.

The package computes the image of a GP prior under an operator
``T = sum_i a_i(x) d^i/dx^i`` (mean ``T m``, kernel with ``T`` applied to
each argument), verifies that transport empirically against seeded
Monte-Carlo ensembles (means, covariances, and vanishing higher cumulants),
and uses the same covariance blocks to condition on observations of ``T u``
-- including solving linear ODEs by collocation.
"""

from .conditioning import Observation, PosteriorSummary, condition, solve_linear_ode
from .cumulants import (CumulantEstimate, Partition, default_cumulant_tuples,
                        empirical_cumulant, empirical_cumulants, enumerate_partitions)
from .errors import (ConfigError, DimensionError, DomainViolationError,
                     EvaluationError, ExpressionError, GpopsError, GridSizeError,
                     NotPositiveDefiniteError, ParameterError)
from .expressions import parse_expression
from .grids import Grid
from .kernels import Kernel, KernelBifunction, matern_kernel, se_kernel
from .linalg import chol_psd, gram
from .means import MeanFunction, constant_mean, mean_from_expression, zero_mean
from .operators import (ARG1, ARG2, LinearOperator, add, apply_arg, apply_both,
                        apply_to_function, commutator_residual, compose,
                        derivative_operator, identity, scale)
from .processes import GaussianProcessPrior
from .sampling import (FactoredDraw, GaussianDraw, SampleEnsemble, apply_operator_pathwise,
                       draw_factored, empirical_cov, empirical_mean, operator_matrix,
                       sample_paths)
from .stencils import differentiation_matrix, fd_weights, interior_mask
from .transform import JointBlocks, finite_dim_pushforward, joint_blocks, pushforward
from .verify import VerificationReport, VerificationTolerances, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "ARG1", "ARG2",
    "ConfigError", "CumulantEstimate", "DimensionError", "DomainViolationError",
    "EvaluationError", "ExpressionError", "FactoredDraw", "GaussianDraw",
    "GaussianProcessPrior",
    "GpopsError", "Grid", "GridSizeError", "JointBlocks", "Kernel", "KernelBifunction",
    "LinearOperator", "MeanFunction", "NotPositiveDefiniteError",
    "Observation", "ParameterError", "Partition", "PosteriorSummary",
    "SampleEnsemble", "VerificationReport", "VerificationTolerances",
    "add", "apply_arg", "apply_both", "apply_operator_pathwise",
    "apply_to_function", "chol_psd", "commutator_residual", "compose",
    "condition", "constant_mean", "default_cumulant_tuples",
    "derivative_operator", "differentiation_matrix", "draw_factored", "empirical_cov",
    "empirical_cumulant", "empirical_cumulants", "empirical_mean", "enumerate_partitions",
    "fd_weights", "finite_dim_pushforward",
    "gram", "identity", "interior_mask", "joint_blocks", "matern_kernel",
    "mean_from_expression", "operator_matrix",
    "parse_expression", "pushforward", "sample_paths", "scale", "se_kernel",
    "solve_linear_ode", "verify_theorem", "zero_mean",
]
