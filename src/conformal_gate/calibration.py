"""Threshold calibration from held-out nonconformity scores.

Given n calibration scores sorted ascending and a miscoverage rate alpha,
the finite-sample-corrected quantile level is

    qlevel = (1 - alpha) * (n + 1) / n

and the threshold tau is the score at 1-based rank ceil(qlevel * n), so at
least that many calibration scores are <= tau.  When qlevel exceeds 1 (small
n) no finite quantile exists and the threshold becomes all-inclusive: every
class enters every prediction set.  The all-inclusive sentinel is
represented as ``math.inf`` so that comparisons against it behave like the
conformal convention (quantile of level > 1 is +infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_types import (
    Dataset,
    DataError,
    EmptyCalibrationError,
    require_valid,
)

ALL_INCLUSIVE = math.inf


@dataclass(frozen=True)
class Alpha:
    """Miscoverage rate; target coverage is 1 - alpha."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        object.__setattr__(self, "value", value)
        if not 0.0 < value < 1.0 or not math.isfinite(value):
            raise DataError(f"alpha must lie strictly between 0 and 1, got {value!r}")


def _alpha_value(alpha: float | Alpha) -> float:
    if isinstance(alpha, Alpha):
        return alpha.value
    return Alpha(alpha).value


def quantile_level(n: int, alpha: float | Alpha) -> float:
    """(1 - alpha) * (n + 1) / n; may exceed 1 for small n."""
    if n < 1:
        raise EmptyCalibrationError(f"need at least one calibration sample, got n={n}")
    return (1.0 - _alpha_value(alpha)) * (n + 1) / n


@dataclass(frozen=True)
class CalibrationResult:
    """Everything calibration produced: quantile level, scores, threshold.

    ``threshold`` is either a score value in [0, 1] or ``math.inf``
    (all-inclusive).  Invariants are re-checked at construction.
    """

    alpha: float
    n: int
    qlevel: float
    sorted_scores: tuple[float, ...]
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "sorted_scores", tuple(self.sorted_scores))
        if len(self.sorted_scores) != self.n:
            raise DataError("sorted_scores length must equal n")
        if any(b < a for a, b in zip(self.sorted_scores, self.sorted_scores[1:])):
            raise DataError("sorted_scores must be nondecreasing")
        if self.qlevel != quantile_level(self.n, self.alpha):
            raise DataError("qlevel does not match (1 - alpha) * (n + 1) / n")
        if self.qlevel > 1.0:
            if self.threshold != ALL_INCLUSIVE:
                raise DataError("qlevel > 1 requires the all-inclusive threshold")
        else:
            expected = self.sorted_scores[math.ceil(self.qlevel * self.n) - 1]
            if self.threshold != expected:
                raise DataError(
                    f"threshold {self.threshold!r} does not match rank statistic {expected!r}"
                )

    @property
    def is_all_inclusive(self) -> bool:
        return self.threshold == ALL_INCLUSIVE

    def threshold_rank(self) -> int | None:
        """1-based rank of the threshold score, or None when all-inclusive."""
        if self.is_all_inclusive:
            return None
        return math.ceil(self.qlevel * self.n)


def nonconformity(probs: np.ndarray) -> np.ndarray:
    """Nonconformity scores 1 - p, elementwise; the only place they are computed."""
    return 1.0 - probs


def calibrate_scores(scores: Sequence[float], alpha: float | Alpha) -> CalibrationResult:
    """Calibrate directly from a multiset of nonconformity scores.

    Duplicate scores are kept (multiset semantics); the result depends only
    on the score values, never on their input order.
    """
    n = len(scores)
    if n == 0:
        raise EmptyCalibrationError("cannot calibrate on an empty score list")
    ordered = tuple(sorted(float(s) for s in scores))
    qlevel = quantile_level(n, alpha)
    if qlevel > 1.0:
        threshold = ALL_INCLUSIVE
    else:
        threshold = ordered[math.ceil(qlevel * n) - 1]
    return CalibrationResult(
        alpha=_alpha_value(alpha),
        n=n,
        qlevel=qlevel,
        sorted_scores=ordered,
        threshold=threshold,
    )


def calibrate(calib: Dataset, alpha: float | Alpha) -> CalibrationResult:
    """Compute true-class scores for every calibration example and calibrate.

    Deterministic: permuting the calibration examples leaves the result
    bitwise unchanged.
    """
    if len(calib) == 0:
        raise EmptyCalibrationError("calibration dataset is empty")
    require_valid(calib)
    scores = nonconformity(calib.probability_matrix()[np.arange(len(calib)), calib.labels])
    return calibrate_scores(scores.tolist(), alpha)


@dataclass(frozen=True)
class CurveData:
    """Sorted calibration scores as plot-ready (rank, score) pairs."""

    points: tuple[tuple[int, float], ...]
    threshold: float

    def to_csv_text(self) -> str:
        lines = ["rank,score"]
        lines.extend(f"{rank},{score!r}" for rank, score in self.points)
        lines.append("threshold," + ("inf" if self.threshold == ALL_INCLUSIVE else repr(self.threshold)))
        return "\n".join(lines) + "\n"


def export_calibration_curve(result: CalibrationResult) -> CurveData:
    """Ascending score distribution plus the threshold line, for plotting."""
    points = tuple((i, s) for i, s in enumerate(result.sorted_scores))
    return CurveData(points=points, threshold=result.threshold)
