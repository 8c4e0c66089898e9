"""Prediction sets under a calibrated threshold.

A class k joins the prediction set when its nonconformity score 1 - p_k is
less than or equal to the threshold (equivalently p_k >= 1 - threshold).
The comparison is inclusive; an all-inclusive threshold (math.inf) admits
every class, and an empty set is a legitimate "cannot decide" outcome that
is never replaced by the argmax singleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationResult, nonconformity
from .core_types import Dataset, require_valid


@dataclass(frozen=True)
class PredictionSet:
    """The set of class indices surviving the threshold test for one sample."""

    sample_id: str
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(m) for m in self.members))

    @property
    def set_size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def to_json_obj(self, true_label: int | None = None) -> dict:
        obj = {
            "sample_id": self.sample_id,
            "members": self.sorted_members(),
            "set_size": self.set_size,
        }
        if true_label is not None:
            obj["true_label"] = int(true_label)
        return obj


def _threshold_of(result: CalibrationResult | float) -> float:
    if isinstance(result, CalibrationResult):
        return result.threshold
    return float(result)


def predict_batch(
    test: Dataset, result: CalibrationResult | float
) -> list[PredictionSet]:
    """One prediction set per test example, in input order."""
    require_valid(test)
    admitted = nonconformity(test.probability_matrix()) <= _threshold_of(result)
    return [
        PredictionSet(sample_id=sample_id, members=frozenset(np.flatnonzero(row).tolist()))
        for sample_id, row in zip(test.ids, admitted)
    ]
