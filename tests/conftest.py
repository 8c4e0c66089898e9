"""Shared builders for small hand-constructed datasets."""

from __future__ import annotations

import numpy as np
import pytest

from conformal_gate import ClassUniverse, Dataset


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


@pytest.fixture
def nine_class_universe() -> ClassUniverse:
    return ClassUniverse.generic(9)
