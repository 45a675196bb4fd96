"""wavelogit: wavelet-domain penalized logistic classification of curves.

Sampled curves are wavelet-transformed; a logistic model on the
coefficients is fit with an l1 penalty on the detail block (wnet), with a
PCA/PLS subspace constraint (wpcr/wpls), or unpenalized on a PCA or
(optionally sparse) PLS reduced design (wcr/wls). Tuning is by stratified
cross-validation or corrected AIC, and discrimination is judged by ROC AUC.
"""

from .dataio import (
    CurveDataset,
    export_beta,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    to_coefficients,
)
from .exceptions import (
    ConvergenceError,
    CriterionUndefinedError,
    DataError,
    DimensionError,
    ModelFileError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
    SelectionError,
    SeparationError,
    SingularityError,
    SparsityError,
    WavelogitError,
)
from .glm import (
    LabeledCoefficients,
    irls_fit,
    link_logistic,
    neg_log_likelihood,
    nll_gradient,
)
from .metrics import RocCurve, auc, discrimination_verdict, roc_curve
from .model import FittedModel, model_from_fit
from .penalized import (
    ESTIMATORS,
    FitConfig,
    PenalizedSolution,
    build_reduction,
    fit_estimator,
    fit_wnet,
    lambda_max,
)
from .reduce import pca_fit, pls_fit, sparse_component_fit
from .select import (
    FoldPlan,
    SelectionResult,
    aicc,
    cross_validate,
    default_lambda_grid,
    default_q_grid,
    default_tau_grid,
    make_folds,
    select_by_aicc,
)
from .simulate import SynthSpec, default_spec, generate_beta, generate_dataset
from .wavelet import (
    FILTERS,
    WaveletBasis,
    coefficient_levels,
    dwt_forward,
    dwt_inverse,
    make_basis,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CriterionUndefinedError",
    "CurveDataset",
    "DataError",
    "DimensionError",
    "ESTIMATORS",
    "FILTERS",
    "FitConfig",
    "FittedModel",
    "FoldPlan",
    "LabeledCoefficients",
    "ModelFileError",
    "NumericalError",
    "ParseError",
    "PenalizedSolution",
    "RankDeficiencyError",
    "RocCurve",
    "SelectionError",
    "SelectionResult",
    "SeparationError",
    "SingularityError",
    "SparsityError",
    "SynthSpec",
    "WaveletBasis",
    "WavelogitError",
    "aicc",
    "auc",
    "build_reduction",
    "coefficient_levels",
    "cross_validate",
    "default_lambda_grid",
    "default_q_grid",
    "default_spec",
    "default_tau_grid",
    "discrimination_verdict",
    "dwt_forward",
    "dwt_inverse",
    "export_beta",
    "fit_estimator",
    "fit_wnet",
    "generate_beta",
    "generate_dataset",
    "irls_fit",
    "lambda_max",
    "link_logistic",
    "load_dataset",
    "load_model",
    "make_basis",
    "make_folds",
    "model_from_fit",
    "neg_log_likelihood",
    "nll_gradient",
    "pca_fit",
    "pls_fit",
    "roc_curve",
    "save_dataset",
    "save_model",
    "select_by_aicc",
    "sparse_component_fit",
    "to_coefficients",
]
