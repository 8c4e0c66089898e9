"""Shared builders for small hand-constructed datasets and prediction sets."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import strategies as st

from conformal_gate.core_types import ClassUniverse, Dataset
from conformal_gate.predictor import PredictionSets


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fail a test that leaves a hidden ``.*.tmp`` file under its tmp_path.

    ``io.write_texts`` names its temp files so; a command that fails must unlink them.
    """
    root = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if root is not None:
        left = sorted(os.path.relpath(os.path.join(folder, name), root)
                      for folder, _, names in os.walk(root)
                      for name in names if name.startswith(".") and name.endswith(".tmp"))
        assert not left, f"temp files left behind: {left}"


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


def _normalized(rows) -> np.ndarray:
    weights = np.array(rows, dtype=np.float64)
    return weights / weights.sum(axis=1, keepdims=True)


def probability_matrices(max_rows: int = 30, max_k: int = 6):
    """Strategy: an [n, K] probability matrix, n >= 1 and K >= 2, from small integer weights.

    Rows such as (1, 1, 2) / 4 make equal probabilities, and so equal
    scores, common.
    """
    return st.integers(2, max_k).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any),
        min_size=1, max_size=max_rows,
    )).map(_normalized)


@pytest.fixture
def nine_class_universe() -> ClassUniverse:
    return ClassUniverse.generic(9)
