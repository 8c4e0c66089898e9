"""Seeded classifier exports for the benchmark, made without the code under test.

The model follows the README's synthetic generator: a label drawn from a
uniform prior, one unit exponential variate per class, the target variate
scaled by ``1 + sharpness`` and the vector normalised.  With probability
``noise`` the target is a uniformly chosen wrong class.  Randomness comes
from numpy's seeded ``Generator``, never from ``conformal_gate.rng``, so a
change to the package's generator cannot change these inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIES = 16  # test rows copied from around the calibration threshold rank


@dataclass(frozen=True)
class Shape:
    """One simulated classifier and how its export writes probabilities."""

    k: int
    sharpness: float
    noise: float
    float32: bool  # shortest float32 repr, as a softmax export writes it


def draw(rng: np.random.Generator, shape: Shape, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n labels and their (n, K) probability rows."""
    k = shape.k
    labels = rng.integers(0, k, size=n)
    wrong = rng.integers(0, k - 1, size=n)
    wrong += wrong >= labels
    target = np.where(rng.random(n) < shape.noise, wrong, labels)
    variates = rng.exponential(size=(n, k))
    variates[np.arange(n), target] *= 1.0 + shape.sharpness
    return labels, variates / variates.sum(axis=1, keepdims=True)


def cell_text(probs: np.ndarray, float32: bool) -> list[list[str]]:
    """Each probability as the export writes it."""
    if float32:
        return probs.astype(np.float32).astype(str).tolist()
    return [list(map(repr, row)) for row in probs.tolist()]


def csv_text(prefix: str, labels: list[int], cells: list[list[str]]) -> str:
    """A dataset CSV in the README layout, one row per sample."""
    header = "sample_id,true_label," + ",".join(f"p_{j}" for j in range(len(cells[0])))
    rows = [header]
    rows.extend(
        f"{prefix}{i:07d},{label}," + ",".join(row)
        for i, (label, row) in enumerate(zip(labels, cells))
    )
    return "\n".join(rows) + "\n"


def make_split(seed: int, shape: Shape, n_calib: int, n_test: int,
               alpha: float) -> tuple[str, str]:
    """Calibration and test CSV texts drawn from one seeded stream.

    The last ``TIES`` test rows copy the calibration rows whose scores lie
    nearest the threshold rank, as a repeated input would.  Some test
    scores then equal the threshold exactly, so the outputs show whether
    membership is the inclusive ``1 - p_k <= tau``.
    """
    rng = np.random.default_rng(seed)
    calib_labels, calib_probs = draw(rng, shape, n_calib)
    test_labels, test_probs = draw(rng, shape, n_test - TIES)
    calib_cells = cell_text(calib_probs, shape.float32)
    scores = 1.0 - calib_probs[np.arange(n_calib), calib_labels]
    rank = math.ceil((1.0 - alpha) * (n_calib + 1) / n_calib * n_calib)
    first = min(max(rank - 1 - TIES // 2, 0), n_calib - TIES)
    near = np.argsort(scores, kind="stable")[first:first + TIES]
    calib = csv_text("c", calib_labels.tolist(), calib_cells)
    test = csv_text("t", test_labels.tolist() + calib_labels[near].tolist(),
                    cell_text(test_probs, shape.float32) + [calib_cells[i] for i in near])
    return calib, test
