"""Model-agnostic split conformal prediction sets for multiclass classifiers.

Calibrates a nonconformity threshold from held-out classifier
probabilities, produces per-sample prediction sets at a target coverage
level, and evaluates coverage, set size, recall, and confusion, with a
built-in synthetic-data oracle for the coverage guarantee.

The names below, and the layer submodules themselves, load on first use,
so importing the package (and the CLI's argument parser) does not import
numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    "Alpha": "calibration",
    "CalibrationResult": "calibration",
    "ClassUniverse": "core_types",
    "DataError": "core_types",
    "Dataset": "core_types",
    "PredictionSet": "predictor",
    "PredictionSets": "predictor",
    "SplitSpec": "io",
    "calibrate": "calibration",
    "calibrate_scores": "calibration",
    "evaluate": "metrics",
    "export_calibration_curve": "calibration",
    "predict_batch": "predictor",
    "split": "io",
    "write_dataset": "io",
}

__all__ = list(_SOURCES)

# Submodules that resolve as attributes, as ``conformal_gate.io`` does.
_LAYERS = ("calibration", "core_types", "io", "metrics", "predictor", "rng", "synth")


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
