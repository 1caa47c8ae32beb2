"""Worst-case-robust linear estimation under a Gaussian subspace model.

Closed-form robust and jittering-trained estimators, exact inner-maximum
evaluation via a one-dimensional dual, PGD attacks, minibatch training,
and Monte-Carlo robust-risk certification.
"""

from .attack import AttackConfig, pgd_attack, pgd_perturb_batch
from .errors import (
    AttackDivergenceError,
    ConfigError,
    DegenerateInputError,
    EvaluationError,
    InvalidDimensionError,
    InvalidParameterError,
    JitterlabError,
    OutOfRegimeError,
    TrainingDivergenceError,
)
from .estimators import (
    LinearEstimator,
    ShrinkageProfile,
    conjectured_robust_estimator,
    jitter_level_for_eps,
    jittering_denoiser_alpha,
    mmse_estimator,
    optimal_jittering_estimator,
    optimal_robust_alpha,
    optimal_robust_denoiser,
    ridge_estimator,
)
from .model import (
    ForwardOperator,
    NoiseModel,
    SubspaceModel,
    draw_latents,
    draw_sample_arrays,
    make_diagonal_operator,
    make_subspace,
    rng_stream,
)
from .risk import (
    CI_SCALE,
    RiskReport,
    best_jitter_level_analytic,
    certify,
    dual_values_batch,
    inner_max_dual,
    jittering_risk_closed_form,
    residuals,
    robust_risk_exact,
    robust_risk_mode_form,
    standard_risk_closed_form,
    worst_case_perturbation_projection,
)
from .training import (
    SweepResult,
    TrainConfig,
    TrainTrace,
    sweep_jitter_levels,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CI_SCALE",
    "AttackConfig",
    "AttackDivergenceError",
    "ConfigError",
    "DegenerateInputError",
    "EvaluationError",
    "ForwardOperator",
    "InvalidDimensionError",
    "InvalidParameterError",
    "JitterlabError",
    "LinearEstimator",
    "NoiseModel",
    "OutOfRegimeError",
    "RiskReport",
    "ShrinkageProfile",
    "SubspaceModel",
    "SweepResult",
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergenceError",
    "best_jitter_level_analytic",
    "certify",
    "conjectured_robust_estimator",
    "draw_latents",
    "draw_sample_arrays",
    "dual_values_batch",
    "inner_max_dual",
    "jitter_level_for_eps",
    "jittering_denoiser_alpha",
    "jittering_risk_closed_form",
    "make_diagonal_operator",
    "make_subspace",
    "mmse_estimator",
    "optimal_jittering_estimator",
    "optimal_robust_alpha",
    "optimal_robust_denoiser",
    "pgd_attack",
    "pgd_perturb_batch",
    "residuals",
    "ridge_estimator",
    "rng_stream",
    "robust_risk_exact",
    "robust_risk_mode_form",
    "standard_risk_closed_form",
    "sweep_jitter_levels",
    "train",
    "worst_case_perturbation_projection",
]
