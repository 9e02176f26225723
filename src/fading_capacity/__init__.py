"""Numerical toolkit for the noncoherent (T=1) MIMO Rayleigh fading channel.

Evaluates the conditional channel law, optimizes discrete input measures
under an average power constraint, certifies first-order optimality with
KKT scans (radial quadrature, SE 0, on isotropic channels; seeded Monte
Carlo on dense ones) and analytic shell bounds, and builds the
shell-decoder witness showing the power multiplier stays positive (hence
the optimal input support is bounded). All information quantities are in
nats; all stochastic results are seeded and reproducible.
"""

from .channel import (ChannelModel, ConditionalCovariance, conditional_covariance,
                      conditional_entropy, eigen_bounds, input_norm_sq,
                      log_density, sample_output)
from .errors import (AnalysisError, ConfigError, InsufficientMassError,
                     InvalidCovarianceError, NotConvergedError,
                     ScaleOverflowError, SlopeNonPositiveError)
from .estimate import (McConfig, McEstimate, OutputShell, chi_square_tail,
                       cross_term, derive_seed, log_chi_square_tail,
                       mutual_information, shell_probability)
from .fano import (FanoConstruction, FanoReport, build_construction,
                   detection_report, find_sufficient_K, lambda_constant)
from .kkt import (KktContext, KktPoint, KktReport, Lemma1Bound, certified_pi_bar,
                  kkt_lower_bound, kkt_scan, kkt_value, lemma1_bound,
                  lemma1_lower_bound, radial_scan_grid, support_radius_bound)
from .measure import (DiscreteMeasure, InputShell, PowerConstraint,
                      average_power, mixture_log_density, prune_weights,
                      shell_mass)
from .optimizer import (CurvePoint, OptimizerConfig, Optimum, capacity_curve,
                        insert_atom, optimize_measure, optimize_weights)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "ChannelModel", "ConditionalCovariance", "ConfigError",
    "CurvePoint", "DiscreteMeasure", "FanoConstruction", "FanoReport",
    "InputShell", "InsufficientMassError", "InvalidCovarianceError",
    "KktContext", "KktPoint", "KktReport", "Lemma1Bound", "McConfig",
    "McEstimate", "NotConvergedError", "OptimizerConfig", "Optimum",
    "OutputShell", "PowerConstraint", "ScaleOverflowError",
    "SlopeNonPositiveError", "average_power", "build_construction",
    "capacity_curve", "certified_pi_bar", "chi_square_tail",
    "conditional_covariance", "conditional_entropy", "cross_term",
    "derive_seed", "detection_report", "eigen_bounds", "find_sufficient_K",
    "input_norm_sq", "insert_atom", "kkt_lower_bound",
    "kkt_scan", "kkt_value", "lambda_constant", "lemma1_bound",
    "lemma1_lower_bound", "log_chi_square_tail", "log_density",
    "mixture_log_density", "mutual_information", "optimize_measure",
    "optimize_weights", "prune_weights", "radial_scan_grid", "sample_output",
    "shell_mass", "shell_probability", "support_radius_bound",
]
