"""Evaluation battery for prediction sets and argmax point predictions.

Two coverage notions are computed side by side and must not be conflated:

* strict coverage  - a sample counts only when its prediction set is a
  correct singleton (set size 1 containing the true label);
* marginal coverage  - the true label is in the set regardless of size.
  This is the quantity the calibration guarantee bounds from below.

Strict coverage <= marginal coverage on every input.  All metrics
accumulate integer counters and divide once at the end, so aggregation is
exact and order-independent.  Classes absent from the evaluated data report
None (not 0) for their per-class metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_types import (
    Dataset,
    DataError,
    EmptyDatasetError,
    LengthMismatchError,
    require_valid,
)
from .predictor import PredictionSet

PerClass = tuple[float | None, ...]


def _check_aligned(sets: Sequence[PredictionSet], labels: Sequence[int]) -> None:
    if len(sets) != len(labels):
        raise LengthMismatchError(
            f"{len(sets)} prediction sets vs {len(labels)} labels"
        )
    if len(sets) == 0:
        raise EmptyDatasetError("no samples to evaluate")


def _rates(hits: list[int], totals: list[int]) -> PerClass:
    return tuple(
        (h / t) if t > 0 else None for h, t in zip(hits, totals)
    )


def strict_coverage(
    sets: Sequence[PredictionSet], labels: Sequence[int], n_classes: int
) -> tuple[PerClass, float]:
    """Fraction of samples whose prediction set is a correct singleton.

    Returns (per-class rates over true-class subsets, overall rate).
    """
    _check_aligned(sets, labels)
    hits = [0] * n_classes
    totals = [0] * n_classes
    covered = 0
    for ps, label in zip(sets, labels):
        totals[label] += 1
        if ps.set_size == 1 and label in ps.members:
            hits[label] += 1
            covered += 1
    return _rates(hits, totals), covered / len(sets)


def marginal_coverage(sets: Sequence[PredictionSet], labels: Sequence[int]) -> float:
    """Fraction of samples whose prediction set contains the true label."""
    _check_aligned(sets, labels)
    covered = sum(1 for ps, label in zip(sets, labels) if label in ps.members)
    return covered / len(sets)


def avg_set_size(
    sets: Sequence[PredictionSet], labels: Sequence[int], n_classes: int
) -> tuple[PerClass, float]:
    """Arithmetic mean of prediction-set sizes, per true class and overall."""
    _check_aligned(sets, labels)
    size_sums = [0] * n_classes
    totals = [0] * n_classes
    grand = 0
    for ps, label in zip(sets, labels):
        totals[label] += 1
        size_sums[label] += ps.set_size
        grand += ps.set_size
    per_class = tuple(
        (s / t) if t > 0 else None for s, t in zip(size_sums, totals)
    )
    return per_class, grand / len(sets)


@dataclass(frozen=True)
class SetSizeHistogram:
    """Exact counts per prediction-set size, plus the uncertain total."""

    by_size: dict[int, int]
    total_uncertain: int

    def __post_init__(self):
        object.__setattr__(self, "by_size", dict(sorted(self.by_size.items())))


def uncertain_histogram(sets: Sequence[PredictionSet]) -> SetSizeHistogram:
    """Histogram of set sizes; uncertain means any size diverging from 1."""
    counts = Counter(ps.set_size for ps in sets)
    uncertain = sum(c for size, c in counts.items() if size != 1)
    return SetSizeHistogram(by_size=dict(counts), total_uncertain=uncertain)


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns argmax-predicted classes."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "counts", tuple(tuple(int(c) for c in row) for row in self.counts)
        )

    @classmethod
    def from_predictions(
        cls, true_labels: Sequence[int], predicted: Sequence[int], n_classes: int
    ) -> "ConfusionMatrix":
        if len(true_labels) != len(predicted):
            raise LengthMismatchError(
                f"{len(true_labels)} labels vs {len(predicted)} predictions"
            )
        flat = np.bincount(
            np.asarray(true_labels, dtype=np.int64) * n_classes
            + np.asarray(predicted, dtype=np.int64),
            minlength=n_classes * n_classes,
        ).reshape(n_classes, n_classes)
        return cls(tuple(tuple(int(c) for c in row) for row in flat))

    @property
    def k(self) -> int:
        return len(self.counts)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(self.k))

    def total(self) -> int:
        return sum(self.row_sums())

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


def confusion_and_recall(
    data: Dataset,
) -> tuple[ConfusionMatrix, PerClass, float]:
    """Argmax point predictions: confusion matrix, per-class recall, accuracy.

    recall_i = counts[i][i] / row_sum_i (None when class i has no samples);
    accuracy = trace / total.
    """
    if len(data) == 0:
        raise EmptyDatasetError("cannot evaluate an empty dataset")
    require_valid(data)
    predicted = np.argmax(data.probability_matrix(), axis=1)
    matrix = ConfusionMatrix.from_predictions(data.labels, predicted, data.universe.k)
    recalls = tuple(
        (matrix.counts[i][i] / rs) if rs > 0 else None
        for i, rs in enumerate(matrix.row_sums())
    )
    accuracy = matrix.trace() / matrix.total()
    return matrix, recalls, accuracy


@dataclass(frozen=True)
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
    confusion: ConfusionMatrix

    def __post_init__(self):
        for name in ("accuracy", "overall_strict_coverage", "marginal_coverage"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise DataError(f"{name} {rate!r} outside [0, 1]")
        if self.overall_strict_coverage > self.marginal_coverage:
            raise DataError("strict coverage cannot exceed marginal coverage")

    def to_json_obj(self) -> dict:
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
            "confusion_matrix": [list(row) for row in self.confusion.counts],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EvaluationReport":
        def per_class(values) -> PerClass:
            return tuple(None if v is None else float(v) for v in values)

        return cls(
            class_names=tuple(obj["class_names"]),
            n_test=int(obj["n_test"]),
            accuracy=float(obj["accuracy"]),
            per_class_recall=per_class(obj["per_class_recall"]),
            overall_strict_coverage=float(obj["overall_strict_coverage"]),
            per_class_strict_coverage=per_class(obj["per_class_strict_coverage"]),
            marginal_coverage=float(obj["marginal_coverage"]),
            overall_avg_set_size=float(obj["overall_avg_set_size"]),
            per_class_avg_set_size=per_class(obj["per_class_avg_set_size"]),
            uncertain_counts={int(size): int(c) for size, c in obj["uncertain_counts"].items()},
            uncertain_total=int(obj["uncertain_total"]),
            confusion=ConfusionMatrix(tuple(tuple(row) for row in obj["confusion_matrix"])),
        )


def evaluate(test: Dataset, sets: Sequence[PredictionSet]) -> EvaluationReport:
    """Full evaluation of prediction sets against a labeled test dataset.

    Sets are aligned with the dataset by position; when a set carries a
    sample_id it must match the example at its position.
    """
    require_valid(test)
    labels = test.labels.tolist()
    _check_aligned(sets, labels)
    for ps, sample_id in zip(sets, test.ids):
        if ps.sample_id and ps.sample_id != sample_id:
            raise DataError(
                f"prediction for {ps.sample_id!r} does not align with sample {sample_id!r}"
            )
    k = test.universe.k
    per_strict, overall_strict = strict_coverage(sets, labels, k)
    marginal = marginal_coverage(sets, labels)
    per_size, overall_size = avg_set_size(sets, labels, k)
    histogram = uncertain_histogram(sets)
    matrix, recalls, accuracy = confusion_and_recall(test)
    return EvaluationReport(
        class_names=test.universe.names,
        n_test=len(test),
        accuracy=accuracy,
        per_class_recall=recalls,
        overall_strict_coverage=overall_strict,
        per_class_strict_coverage=per_strict,
        marginal_coverage=marginal,
        overall_avg_set_size=overall_size,
        per_class_avg_set_size=per_size,
        uncertain_counts=histogram.by_size,
        uncertain_total=histogram.total_uncertain,
        confusion=matrix,
    )
