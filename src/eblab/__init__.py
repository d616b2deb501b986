"""Numerical laboratory for Gaussian-noise empirical-Bayes denoising.

Core objects: discrete priors and their Gaussian-convolution marginals
(``mixtures``), divergence and regret functionals between two such models
(``metrics``), adaptive line quadrature (``quadrature``), Hermite moment
expansions of density gaps (``hermite``), orthonormal polynomials and
derivative-operator norms for phi^2/f weights (``orthopoly``), benchmark
prior families (``families``), a grid maximum-likelihood prior solver
(``npmle``), and a CSV/JSON reporting CLI (``cli``).
"""

from .families import (
    LowerBoundInstance,
    MomentFamilyInstance,
    build_lowerbound_instance,
    build_moment_instance,
    lowerbound_ratio_sweep,
    moment_family_sweep,
    regularization_necessity_demo,
)
from .hermite import (
    HermiteSeries,
    MomentGapTable,
    alpha_bounds,
    alpha_bounds_hold,
    expansion_coefficients,
    hermite_eval,
    moment_gap_table,
    prior_moment,
    split_prior_tail,
    truncation_error,
)
from .metrics import (
    Delta_stat,
    FormMismatch,
    MetricReport,
    compute_metric_report,
    decomposition_residual,
    delta_stat,
    hellinger_rate_normalizer,
    hellinger_sq,
    integration_window,
    pair_integrals,
    regret,
    regret_regularized,
    regret_score_form,
)
from .mixtures import (
    DiscretePrior,
    MarginalModel,
    QuadraturePrior,
    check_class_membership,
    class_exp_moment,
    log_phi,
    log_weight_w,
    phi,
    weight_w,
)
from .npmle import (
    NotConverged,
    NpmleProblem,
    NpmleSolution,
    cell_rng,
    empirical_regret_experiment,
    gradient_certificate,
    sample_observations,
    solve_npmle,
)
from .orthopoly import (
    DegreeUnstable,
    HypothesisViolated,
    JacobiBoundReport,
    NoConvergence,
    OperatorMatrices,
    RecurrenceTable,
    bernstein_constant,
    build_operators,
    jacobi_norm_bound_check,
    operator_norm,
    recurrence_for_weight,
)
from .quadrature import (
    IntegrationSpec,
    QuadratureRule,
    ToleranceNotMet,
    arcsine_moment,
    chebyshev_rule,
    gaussian_tail_radius,
    hermite_rule,
    integrate_line,
)
from .reports import ExperimentReport, ExperimentSpec, InvalidParameter, UnknownExperiment

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quadrature
    "IntegrationSpec",
    "QuadratureRule",
    "ToleranceNotMet",
    "arcsine_moment",
    "chebyshev_rule",
    "gaussian_tail_radius",
    "hermite_rule",
    "integrate_line",
    # mixtures
    "DiscretePrior",
    "MarginalModel",
    "QuadraturePrior",
    "check_class_membership",
    "class_exp_moment",
    "log_phi",
    "log_weight_w",
    "phi",
    "weight_w",
    # metrics
    "Delta_stat",
    "FormMismatch",
    "MetricReport",
    "compute_metric_report",
    "decomposition_residual",
    "delta_stat",
    "hellinger_rate_normalizer",
    "hellinger_sq",
    "integration_window",
    "pair_integrals",
    "regret",
    "regret_regularized",
    "regret_score_form",
    # hermite
    "HermiteSeries",
    "MomentGapTable",
    "alpha_bounds",
    "alpha_bounds_hold",
    "expansion_coefficients",
    "hermite_eval",
    "moment_gap_table",
    "prior_moment",
    "split_prior_tail",
    "truncation_error",
    # orthopoly
    "DegreeUnstable",
    "HypothesisViolated",
    "JacobiBoundReport",
    "NoConvergence",
    "OperatorMatrices",
    "RecurrenceTable",
    "bernstein_constant",
    "build_operators",
    "jacobi_norm_bound_check",
    "operator_norm",
    "recurrence_for_weight",
    # families
    "LowerBoundInstance",
    "MomentFamilyInstance",
    "build_lowerbound_instance",
    "build_moment_instance",
    "lowerbound_ratio_sweep",
    "moment_family_sweep",
    "regularization_necessity_demo",
    # npmle
    "NotConverged",
    "NpmleProblem",
    "NpmleSolution",
    "cell_rng",
    "empirical_regret_experiment",
    "gradient_certificate",
    "sample_observations",
    "solve_npmle",
    # reports
    "ExperimentReport",
    "ExperimentSpec",
    "InvalidParameter",
    "UnknownExperiment",
]
