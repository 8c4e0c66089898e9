"""Model-agnostic split conformal prediction sets for multiclass classifiers.

Calibrates a nonconformity threshold from held-out classifier
probabilities, produces per-sample prediction sets at a target coverage
level, and evaluates coverage, set size, recall, and confusion, with a
built-in synthetic-data oracle for the coverage guarantee.
"""

from .calibration import (
    ALL_INCLUSIVE,
    Alpha,
    CalibrationResult,
    CurveData,
    calibrate,
    calibrate_scores,
    export_calibration_curve,
    quantile_level,
)
from .core_types import (
    ClassUniverse,
    DataError,
    Dataset,
    DimensionMismatchError,
    EmptyCalibrationError,
    EmptyDatasetError,
    InvalidDatasetError,
    LengthMismatchError,
    Violation,
    require_valid,
    validate_dataset,
)
from .io import (
    ParseError,
    SplitSpec,
    UnknownLabelError,
    load_probabilities,
    load_universe,
    read_report,
    split,
    write_dataset,
    write_report,
    write_universe,
)
from .metrics import (
    ConfusionMatrix,
    EvaluationReport,
    avg_set_size,
    confusion_and_recall,
    evaluate,
    marginal_coverage,
    strict_coverage,
    uncertain_histogram,
)
from .predictor import PredictionSet, PredictionSets, predict_batch
from .synth import CoverageTrialResult, SyntheticSpec, coverage_trial, generate

__version__ = "0.1.0"

__all__ = [
    "ALL_INCLUSIVE",
    "Alpha",
    "CalibrationResult",
    "ClassUniverse",
    "ConfusionMatrix",
    "CoverageTrialResult",
    "CurveData",
    "DataError",
    "Dataset",
    "DimensionMismatchError",
    "EmptyCalibrationError",
    "EmptyDatasetError",
    "EvaluationReport",
    "InvalidDatasetError",
    "LengthMismatchError",
    "ParseError",
    "PredictionSet",
    "PredictionSets",
    "SplitSpec",
    "SyntheticSpec",
    "UnknownLabelError",
    "Violation",
    "avg_set_size",
    "calibrate",
    "calibrate_scores",
    "confusion_and_recall",
    "coverage_trial",
    "evaluate",
    "export_calibration_curve",
    "generate",
    "load_probabilities",
    "load_universe",
    "marginal_coverage",
    "predict_batch",
    "quantile_level",
    "read_report",
    "require_valid",
    "split",
    "strict_coverage",
    "uncertain_histogram",
    "validate_dataset",
    "write_dataset",
    "write_report",
    "write_universe",
]
