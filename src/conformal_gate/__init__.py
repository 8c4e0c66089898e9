"""Model-agnostic split conformal prediction sets for multiclass classifiers.

Calibrates a nonconformity threshold from held-out classifier
probabilities, produces per-sample prediction sets at a target coverage
level, and evaluates coverage, set size, recall, and confusion, with a
built-in synthetic-data oracle for the coverage guarantee.
"""

from .calibration import (
    Alpha,
    CalibrationResult,
    calibrate,
    calibrate_scores,
    export_calibration_curve,
)
from .core_types import ClassUniverse, DataError, Dataset
from .io import SplitSpec, split, write_dataset
from .metrics import evaluate
from .predictor import PredictionSet, PredictionSets, predict_batch

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "CalibrationResult",
    "ClassUniverse",
    "DataError",
    "Dataset",
    "PredictionSet",
    "PredictionSets",
    "SplitSpec",
    "calibrate",
    "calibrate_scores",
    "evaluate",
    "export_calibration_curve",
    "predict_batch",
    "split",
    "write_dataset",
]
