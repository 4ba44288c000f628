"""Bayesian matrix-product-state classifiers.

Chains of contracted tensors as classifiers, with variance-calibrated Gaussian
initialization, MAP training, low-rank Laplace posteriors with moderated
predictions, and utility-based decisions.
"""

__version__ = "0.1.0"

from .baseline import LogisticBaseline
from .data import (
    DatasetSplit,
    data_dir,
    load_csv,
    load_mnist,
    make_blobs,
    minmax_scale,
    split,
)
from .decision import UtilityMatrix, classify_map, classify_utility
from .errors import (
    BmpsError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
    TrainingDiverged,
)
from .initializer import (
    InitSpec,
    init_model,
    init_variance,
    output_stats,
    response_variance_law,
)
from .laplace import (
    GgnFactors,
    LaplacePosterior,
    PredictiveBatch,
    ggn_factors,
    kappa,
    load_posterior,
    predictive,
    predictive_batch,
    save_posterior,
)
from .mps import (
    MpsModel,
    MpsShape,
    embed,
    forward_batch,
    load_model,
    save_model,
    weight_norm_sq,
)
from .trainer import (
    EpochRecord,
    PriorSpec,
    TrainConfig,
    TrainHistory,
    accuracy,
    grad_loss,
    loss,
    predict_labels,
    predict_logits,
    predict_proba,
    train_map,
)

__all__ = [
    "LogisticBaseline",
    "DatasetSplit",
    "data_dir",
    "load_csv",
    "load_mnist",
    "make_blobs",
    "minmax_scale",
    "split",
    "UtilityMatrix",
    "classify_map",
    "classify_utility",
    "GgnFactors",
    "LaplacePosterior",
    "PredictiveBatch",
    "ggn_factors",
    "kappa",
    "load_posterior",
    "predictive",
    "predictive_batch",
    "save_posterior",
    "InitSpec",
    "init_model",
    "init_variance",
    "output_stats",
    "response_variance_law",
    "EpochRecord",
    "PriorSpec",
    "TrainConfig",
    "TrainHistory",
    "accuracy",
    "grad_loss",
    "loss",
    "predict_labels",
    "predict_logits",
    "predict_proba",
    "train_map",
    "BmpsError",
    "DataError",
    "NumericError",
    "ParseError",
    "ShapeError",
    "TrainingDiverged",
    "MpsModel",
    "MpsShape",
    "embed",
    "forward_batch",
    "load_model",
    "save_model",
    "weight_norm_sq",
    "__version__",
]
