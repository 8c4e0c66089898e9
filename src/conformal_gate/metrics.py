"""Evaluation of prediction sets and argmax point predictions.

Two coverage notions are computed side by side and must not be conflated:

* strict coverage  - a sample counts only when its prediction set is a
  correct singleton (set size 1 containing the true label);
* marginal coverage  - the true label is in the set regardless of size.
  This is the quantity the calibration guarantee bounds from below.

Strict coverage <= marginal coverage on every input.  :func:`evaluate`
checks its inputs once and computes the set metrics in one pass over the
sets' membership mask [n, K] and the labels: one vector of correct
singletons from ``mask[arange(n), labels]``, one ``np.bincount(labels)``
of per-class totals and one ``np.bincount`` of set sizes.  The marginal
rate comes from :func:`marginal_coverage`, and the confusion matrix,
recall and accuracy from :func:`confusion_and_recall`.  Counts are exact
integers divided once at the end.  Classes absent from the evaluated data
report None (not 0) for their per-class metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_types import (
    Dataset,
    DataError,
    DimensionMismatchError,
    EmptyDatasetError,
    LengthMismatchError,
    require_valid,
)
from .predictor import PredictionSets

PerClass = tuple[float | None, ...]


def _aligned_labels(sets: PredictionSets, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if len(sets) != len(labels):
        raise LengthMismatchError(f"{len(sets)} prediction sets vs {len(labels)} labels")
    if len(sets) == 0:
        raise EmptyDatasetError("no samples to evaluate")
    return labels


def _per_class(sums: np.ndarray, totals: np.ndarray) -> PerClass:
    return tuple((s / t) if t > 0 else None for s, t in zip(sums.tolist(), totals.tolist()))


def marginal_coverage(sets: PredictionSets, labels) -> float:
    """Fraction of samples whose prediction set contains the true label."""
    labels = _aligned_labels(sets, labels)
    return int(sets.mask[np.arange(len(labels)), labels].sum()) / len(labels)


def confusion_and_recall(data: Dataset) -> tuple[np.ndarray, PerClass, float]:
    """Argmax point predictions: confusion matrix, per-class recall, accuracy.

    The matrix is a read-only int64 K x K array; rows are true classes,
    columns argmax-predicted classes.  recall_i = counts[i, i] / row_sum_i
    (None when class i has no samples); accuracy = trace / total.
    """
    if len(data) == 0:
        raise EmptyDatasetError("cannot evaluate an empty dataset")
    require_valid(data)
    k = data.universe.k
    predicted = np.argmax(data.probability_matrix(), axis=1)
    counts = np.bincount(data.labels * k + predicted, minlength=k * k).reshape(k, k)
    counts.flags.writeable = False
    diagonal = counts.diagonal()
    recalls = _per_class(diagonal, counts.sum(axis=1))
    return counts, recalls, int(diagonal.sum()) / len(data)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Everything one evaluation run reports, with a stable JSON schema."""

    class_names: tuple[str, ...]
    n_test: int
    accuracy: float
    per_class_recall: PerClass
    overall_strict_coverage: float
    per_class_strict_coverage: PerClass
    marginal_coverage: float
    overall_avg_set_size: float
    per_class_avg_set_size: PerClass
    uncertain_counts: dict[int, int]
    uncertain_total: int
    confusion: np.ndarray

    def __post_init__(self):
        for name in ("accuracy", "overall_strict_coverage", "marginal_coverage"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DataError(f"{name} {rate!r} outside [0, 1]")
        if self.overall_strict_coverage > self.marginal_coverage:
            raise DataError("strict coverage cannot exceed marginal coverage")
        confusion = np.array(self.confusion, dtype=np.int64)
        confusion.flags.writeable = False
        object.__setattr__(self, "confusion", confusion)

    def to_json_obj(self) -> dict:
        """The report as JSON values; the last key is the confusion matrix."""
        return {
            "n_test": self.n_test,
            "class_names": list(self.class_names),
            "accuracy": self.accuracy,
            "marginal_coverage": self.marginal_coverage,
            "overall_strict_coverage": self.overall_strict_coverage,
            "overall_avg_set_size": self.overall_avg_set_size,
            "per_class_recall": list(self.per_class_recall),
            "per_class_strict_coverage": list(self.per_class_strict_coverage),
            "per_class_avg_set_size": list(self.per_class_avg_set_size),
            "uncertain_counts": {str(size): c for size, c in sorted(self.uncertain_counts.items())},
            "uncertain_total": self.uncertain_total,
            "confusion_matrix": self.confusion.tolist(),
        }


def evaluate(test: Dataset, sets: PredictionSets) -> EvaluationReport:
    """Full evaluation of prediction sets against a labeled test dataset.

    Sets are aligned with the dataset by position; when a set carries a
    sample_id it must match the example at its position.  The checks run in
    this order: the dataset is valid, the lengths match, there are samples,
    the class counts match, the ids align.
    """
    require_valid(test)
    labels = _aligned_labels(sets, test.labels)
    k = test.universe.k
    if sets.mask.shape[1] != k:
        raise DimensionMismatchError(
            f"prediction sets over {sets.mask.shape[1]} classes, the dataset has {k}"
        )
    row = sets.misaligned(test.ids)
    if row is not None:
        raise DataError(
            f"prediction for {sets.ids[row]!r} does not align with sample {test.ids[row]!r}"
        )
    n = len(labels)
    hit = sets.mask[np.arange(n), labels] & (sets.sizes == 1)
    totals = np.bincount(labels, minlength=k)
    by_size = {size: c for size, c in enumerate(np.bincount(sets.sizes).tolist()) if c}
    matrix, recalls, accuracy = confusion_and_recall(test)
    return EvaluationReport(
        class_names=test.universe.names,
        n_test=n,
        accuracy=accuracy,
        per_class_recall=recalls,
        overall_strict_coverage=int(hit.sum()) / n,
        per_class_strict_coverage=_per_class(np.bincount(labels[hit], minlength=k), totals),
        marginal_coverage=marginal_coverage(sets, labels),
        overall_avg_set_size=int(sets.sizes.sum()) / n,
        per_class_avg_set_size=_per_class(
            np.bincount(labels, weights=sets.sizes, minlength=k), totals
        ),
        uncertain_counts=by_size,
        uncertain_total=n - by_size.get(1, 0),
        confusion=matrix,
    )
