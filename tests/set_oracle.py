"""The per-set prediction path and its loop metrics, kept as a test oracle.

This is the object-per-row code that the membership mask replaced: one
frozen ``frozenset`` per sample, and metrics that loop over those objects
with integer counters and divide once at the end.  Differential tests
require the mask metrics to return the same values, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class OracleSet:
    sample_id: str
    members: frozenset[int]

    @property
    def set_size(self) -> int:
        return len(self.members)


def sets_of(mask: np.ndarray, ids: Sequence[str]) -> list[OracleSet]:
    return [OracleSet(sid, frozenset(np.flatnonzero(row).tolist())) for sid, row in zip(ids, mask)]


def _rates(hits: list[int], totals: list[int]) -> tuple[float | None, ...]:
    return tuple((h / t) if t > 0 else None for h, t in zip(hits, totals))


def strict_coverage(sets, labels, n_classes):
    hits = [0] * n_classes
    totals = [0] * n_classes
    covered = 0
    for ps, label in zip(sets, labels):
        totals[label] += 1
        if ps.set_size == 1 and label in ps.members:
            hits[label] += 1
            covered += 1
    return _rates(hits, totals), covered / len(sets)


def marginal_coverage(sets, labels) -> float:
    covered = sum(1 for ps, label in zip(sets, labels) if label in ps.members)
    return covered / len(sets)


def avg_set_size(sets, labels, n_classes):
    size_sums = [0] * n_classes
    totals = [0] * n_classes
    grand = 0
    for ps, label in zip(sets, labels):
        totals[label] += 1
        size_sums[label] += ps.set_size
        grand += ps.set_size
    return _rates(size_sums, totals), grand / len(sets)


def uncertain_histogram(sets) -> tuple[dict[int, int], int]:
    counts = Counter(ps.set_size for ps in sets)
    uncertain = sum(c for size, c in counts.items() if size != 1)
    return dict(sorted(counts.items())), uncertain


def confusion_and_recall(labels: list[int], predicted: list[int], n_classes: int):
    """Counts as a tuple of tuples, recall per row, accuracy = trace / total."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for label, guess in zip(labels, predicted):
        counts[label][guess] += 1
    row_sums = [sum(row) for row in counts]
    recalls = tuple(
        (counts[i][i] / rs) if rs > 0 else None for i, rs in enumerate(row_sums)
    )
    trace = sum(counts[i][i] for i in range(n_classes))
    return tuple(tuple(row) for row in counts), recalls, trace / sum(row_sums)
