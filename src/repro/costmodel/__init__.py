"""Vectorization cost models: the static baseline and the fitted family."""

from .base import (
    EPS,
    CostModel,
    FittedModel,
    Sample,
    measured_speedups,
    predict_all,
    sample_from_measurement,
)
from .featurize import (
    FEATURE_NAMES,
    N_FEATURES,
    class_count,
    describe,
    feature_vector,
    features_matrix,
    rated,
)
from .llvm_like import LLVMLikeCostModel, SCALAR_COSTS, VECTOR_COSTS
from .matrix import (
    MatrixBundle,
    clear_matrix_cache,
    design_matrix,
    get_bundle,
    matrix_cache_info,
    samples_fingerprint,
)
from .linear import LinearCostModel
from .speedup import SpeedupModel, count_features, vector_count_features
from .rated import RatedSpeedupModel, rated_features, rated_with_vf
from .extended import EXTENDED_SUFFIX, ExtendedSpeedupModel, extended_features

# Importing the ``.rated`` submodule shadows the ``rated`` function from
# featurize at package level; restore the function binding.
from .featurize import rated  # noqa: E402,F811

__all__ = [
    "EPS",
    "CostModel",
    "FittedModel",
    "Sample",
    "measured_speedups",
    "predict_all",
    "sample_from_measurement",
    "FEATURE_NAMES",
    "N_FEATURES",
    "class_count",
    "describe",
    "feature_vector",
    "features_matrix",
    "rated",
    "LLVMLikeCostModel",
    "SCALAR_COSTS",
    "VECTOR_COSTS",
    "MatrixBundle",
    "clear_matrix_cache",
    "design_matrix",
    "get_bundle",
    "matrix_cache_info",
    "samples_fingerprint",
    "LinearCostModel",
    "SpeedupModel",
    "count_features",
    "vector_count_features",
    "RatedSpeedupModel",
    "EXTENDED_SUFFIX",
    "ExtendedSpeedupModel",
    "extended_features",
    "rated_features",
    "rated_with_vf",
]
