"""Shared builders for small hand-constructed datasets and prediction sets."""

from __future__ import annotations

import numpy as np
import pytest

from conformal_gate import ClassUniverse, Dataset, PredictionSets


def one_hot(k: int, index: int) -> tuple[float, ...]:
    return tuple(1.0 if i == index else 0.0 for i in range(k))


def make_dataset(k: int, rows) -> Dataset:
    """rows: iterable of (sample_id, true_label, probability sequence)."""
    rows = list(rows)
    probs = np.array([tuple(p) for _, _, p in rows], dtype=np.float64)
    return Dataset(
        ClassUniverse.generic(k),
        tuple(sid for sid, _, _ in rows),
        [label for _, label, _ in rows],
        probs if rows else np.empty((0, k)),
    )


def make_sets(k: int, members, ids=None) -> PredictionSets:
    """Sets over k classes from one collection of class indices per sample.

    Ids default to "", which evaluate aligns with any sample.
    """
    members = [sorted(m) for m in members]
    mask = np.zeros((len(members), k), dtype=bool)
    for row, columns in enumerate(members):
        mask[row, columns] = True
    return PredictionSets(("",) * len(members) if ids is None else ids, mask)


@pytest.fixture
def nine_class_universe() -> ClassUniverse:
    return ClassUniverse.generic(9)
