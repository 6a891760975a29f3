"""Gaussian process posterior-variance bounds, convergence diagnostics,
and averaged learning-curve estimates for one-dimensional inputs."""

from .kernels import (ALL_KINDS, ISOTROPIC_KINDS, KERNEL_PARAMS, MATERN_HALF,
                      NEURAL_NETWORK, PERIODIC, POLYNOMIAL, RATIONAL_QUADRATIC,
                      SQUARED_EXPONENTIAL, Kernel, KernelError, kernel_matrix,
                      lipschitz_constant, matern_half, neural_network,
                      periodic, polynomial, rational_quadratic,
                      squared_exponential)
from .gp import FactorizationError, GPPosterior, TrainingSet
from .bounds import (BoundError, BoundReport, RadiusSchedule, ball_count,
                     bound_report, isotropic_bound, lipschitz_bound,
                     one_point_bound, radius_at, two_point_bound)
from .convergence import (ConvergenceVerdict, Density, DensityError, GrowthRow,
                          ball_probability, bernoulli_central_moment,
                          binomial_moment_bound, check_corollary33,
                          check_theorem32, empirical_ball_growth, uniform,
                          vanishing)
from .curves import (CurveError, CurveRow, LearningCurveTable, QuadratureError,
                     SegmentPlan, e1_bound, e2_bound, e_rho_bound,
                     greedy_select_n, monte_carlo_curve, segment_plan)
from .experiments import (BoundViolationError, ConfigError, ExperimentConfig,
                          PRESETS, log_grid, load_config, parse_config_text,
                          plot_script, preset_config, run_convergence_check,
                          run_learning_curve, run_variance_experiment)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS", "ISOTROPIC_KINDS", "KERNEL_PARAMS", "MATERN_HALF", "NEURAL_NETWORK",
    "PERIODIC", "POLYNOMIAL", "RATIONAL_QUADRATIC", "SQUARED_EXPONENTIAL",
    "Kernel", "KernelError", "kernel_matrix",
    "lipschitz_constant", "matern_half", "neural_network",
    "periodic", "polynomial", "rational_quadratic", "squared_exponential",
    "FactorizationError", "GPPosterior", "TrainingSet",
    "BoundError", "BoundReport", "RadiusSchedule", "ball_count",
    "bound_report", "isotropic_bound", "lipschitz_bound", "one_point_bound",
    "radius_at", "two_point_bound",
    "ConvergenceVerdict", "Density", "DensityError", "GrowthRow",
    "ball_probability", "bernoulli_central_moment", "binomial_moment_bound",
    "check_corollary33", "check_theorem32", "empirical_ball_growth",
    "uniform", "vanishing",
    "CurveError", "CurveRow", "LearningCurveTable", "QuadratureError",
    "SegmentPlan", "e1_bound", "e2_bound", "e_rho_bound", "greedy_select_n",
    "monte_carlo_curve", "segment_plan",
    "BoundViolationError", "ConfigError", "ExperimentConfig", "PRESETS",
    "log_grid", "load_config", "parse_config_text", "plot_script", "preset_config",
    "run_convergence_check", "run_learning_curve", "run_variance_experiment",
    "__version__",
]
