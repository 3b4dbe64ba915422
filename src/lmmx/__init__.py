"""Linear-min-max-plus (tropical) classifiers with built-in explainability.

The package covers the full pipeline: network definition and traced
forward pass (:mod:`lmmx.network`), nearest-medoid initialization
(:mod:`lmmx.medoids`), sparse subgradient training and temperature
calibration (:mod:`lmmx.training`), pixel-fragility and baseline
explainers (:mod:`lmmx.explain`), explanation-quality metrics
(:mod:`lmmx.metrics`), and file formats (:mod:`lmmx.data`).
"""

from .data import Dataset, export_map, load_model, load_npz_dataset, save_model, synth_dataset
from .errors import (CalibrationError, DataError, DimensionError, FormatError, LmmError,
                     NumericError, ParameterError, UnsupportedConfigError)
from .explain import ImportanceMap, integrated_gradients, pixel_fragility, shapley_sampling
from .medoids import MedoidSet, init_params, nearest_medoid_predict, select_medoids
from .metrics import (MetricsReport, compute_report, confusion_matrix, fidelity,
                      stability, timing)
from .network import (SCALE_FLOOR, ForwardTrace, LmmParams, batch_logits, batch_predict,
                      forward, linear_layer)
from .training import TrainConfig, calibrate_temperature, cross_entropy, subgradient, train

__version__ = "0.1.0"

__all__ = [
    "CalibrationError", "DataError", "Dataset", "DimensionError", "FormatError",
    "ForwardTrace", "ImportanceMap", "LmmError", "LmmParams", "MedoidSet",
    "MetricsReport", "NumericError", "ParameterError",
    "SCALE_FLOOR", "TrainConfig", "UnsupportedConfigError",
    "batch_logits", "batch_predict", "calibrate_temperature", "compute_report",
    "confusion_matrix", "cross_entropy", "export_map", "fidelity", "forward",
    "init_params", "integrated_gradients", "linear_layer", "load_model", "load_npz_dataset",
    "nearest_medoid_predict", "pixel_fragility", "save_model", "select_medoids",
    "shapley_sampling", "stability", "subgradient", "synth_dataset", "timing", "train",
]
