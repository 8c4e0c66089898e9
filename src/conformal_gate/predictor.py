"""Prediction sets under a calibrated threshold, as one membership mask.

A class k joins a sample's prediction set when its nonconformity score
1 - p_k is less than or equal to the threshold (equivalently
p_k >= 1 - threshold).  The comparison is inclusive; an all-inclusive
threshold (math.inf) admits every class, and an empty set is a legitimate
"cannot decide" outcome that is never replaced by the argmax singleton.

The sets of n samples are one read-only bool matrix of shape [n, K]: row i,
column k is True when class k is in sample i's set.  Metrics and the
prediction JSONL work on that matrix; a :class:`PredictionSet` is built only
when a caller indexes or iterates :class:`PredictionSets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calibration import CalibrationResult, nonconformity
from .core_types import DataError, Dataset, LengthMismatchError, require_valid


@dataclass(frozen=True)
class PredictionSet:
    """The class indices in one sample's prediction set."""

    sample_id: str
    members: frozenset[int]

    @property
    def set_size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class PredictionSets:
    """Prediction sets of n samples: ids and a read-only bool ``mask`` [n, K].

    ``sizes`` is each set's size, ``mask.sum(1)``.  An empty id matches any
    sample when the sets are evaluated.
    """

    ids: tuple[str, ...]
    mask: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2 or len(mask) != len(ids):
            raise LengthMismatchError(f"{len(ids)} sample ids, mask of shape {mask.shape}")
        sizes = mask.sum(axis=1)
        mask.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> PredictionSet:
        return PredictionSet(self.ids[i], frozenset(np.flatnonzero(self.mask[i]).tolist()))

    def __iter__(self):
        return map(PredictionSet, self.ids, map(frozenset, self.by_set(np.nonzero(self.mask)[1])))

    def misaligned(self, ids: Sequence[str]) -> int | None:
        """The position of the first set whose id is neither empty nor the one in ``ids`` there."""
        if self.ids != tuple(ids):
            for row, (given, expected) in enumerate(zip(self.ids, ids)):
                if given and given != expected:
                    return row
        return None

    def by_set(self, cells: np.ndarray) -> list[list]:
        """``cells``, one entry per member in ``np.nonzero(mask)`` order, as one list per set."""
        cells = cells.tolist()
        ends = np.cumsum(self.sizes).tolist()
        return [cells[end - size:end] for size, end in zip(self.sizes.tolist(), ends)]


def predict_batch(test: Dataset, result: CalibrationResult | float) -> PredictionSets:
    """The prediction sets of the test examples, in input order.  A NaN threshold is a DataError."""
    require_valid(test)
    threshold = result.threshold if isinstance(result, CalibrationResult) else float(result)
    if math.isnan(threshold):
        raise DataError("the threshold is NaN; no class can be compared with it")
    return PredictionSets(test.ids, nonconformity(test.probability_matrix()) <= threshold)
