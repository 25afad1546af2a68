"""Proximal calculus, action functionals, and variational convergence
experiments for lambda-convex functions on R^d.

The core objects are the five function kinds (Quadratic, MaxLinear,
LogSumExp, Indicator, SquaredDistance), the resolvent/envelope machinery
built on them, discrete action functionals over piecewise-linear paths, an
endpoint-constrained action minimizer, and a seeded verification suite that
exercises the package's own identities and inequalities.
"""

from .action import (ActionBreakdown, Path, alt_action,
                     coarsened_interpolation_bound, discrete_action,
                     dubois_reymond_residual, interpolation_bound,
                     interpolation_path, recovery_action_bound, recovery_path,
                     recovery_tolerance, upper_gradient_quadrature_bound,
                     upper_gradient_residual)
from .convex import (Indicator, LogSumExp, MaxLinear, ProxResult, Quadratic,
                     ResolventSlopeEstimate, SquaredDistance, evaluate,
                     min_norm_subgradient, moreau_gradient, prox,
                     resolvent_slope, sampled_slope_lower_bound, slope)
from .errors import (ActionLabError, ConfigError, DimensionMismatchError,
                     InadmissibleTauError, OutsideDomainError, SolverError)
from .experiments import (ExperimentReport, gamma_limsup_experiment,
                          gamma_value_experiment, resolvent_convergence_table,
                          slope_semicontinuity_table)
from .families import (FamilyMember, MoscoFamily, constant_family,
                       eventually_decreasing, family_logsumexp_to_max,
                       family_penalty_to_indicator, permutation_vectors)
from .minimize import (MinimizeConfig, MinimizeResult, closed_form_value,
                       minimize_action)
from .minnorm import (hull_projection, hull_projection_with_gap,
                      min_norm_point, min_norm_point_with_gap)
from .oracle import GridSpec, grid_oracle, speed_quantization_bias
from .sets import Ball, Box, Halfspace, contains, project
from .verify import CheckResult, VerifyReport, verify_suite

__version__ = "0.1.0"

__all__ = [
    "ActionBreakdown",
    "ActionLabError",
    "Ball",
    "Box",
    "CheckResult",
    "ConfigError",
    "DimensionMismatchError",
    "ExperimentReport",
    "FamilyMember",
    "GridSpec",
    "Halfspace",
    "InadmissibleTauError",
    "Indicator",
    "LogSumExp",
    "MaxLinear",
    "MinimizeConfig",
    "MinimizeResult",
    "MoscoFamily",
    "OutsideDomainError",
    "Path",
    "ProxResult",
    "Quadratic",
    "ResolventSlopeEstimate",
    "SolverError",
    "SquaredDistance",
    "VerifyReport",
    "alt_action",
    "closed_form_value",
    "coarsened_interpolation_bound",
    "constant_family",
    "contains",
    "discrete_action",
    "dubois_reymond_residual",
    "evaluate",
    "eventually_decreasing",
    "family_logsumexp_to_max",
    "family_penalty_to_indicator",
    "gamma_limsup_experiment",
    "gamma_value_experiment",
    "grid_oracle",
    "hull_projection",
    "hull_projection_with_gap",
    "interpolation_bound",
    "interpolation_path",
    "min_norm_point",
    "min_norm_point_with_gap",
    "min_norm_subgradient",
    "minimize_action",
    "moreau_gradient",
    "permutation_vectors",
    "project",
    "prox",
    "recovery_action_bound",
    "recovery_path",
    "recovery_tolerance",
    "resolvent_convergence_table",
    "resolvent_slope",
    "sampled_slope_lower_bound",
    "slope",
    "slope_semicontinuity_table",
    "speed_quantization_bias",
    "upper_gradient_quadrature_bound",
    "upper_gradient_residual",
    "verify_suite",
    "__version__",
]
