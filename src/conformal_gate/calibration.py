"""Threshold calibration from held-out nonconformity scores.

Given n calibration scores sorted ascending and a miscoverage rate alpha,
the finite-sample-corrected quantile level is

    qlevel = (1 - alpha) * (n + 1) / n

and the threshold tau is the score at 1-based rank ceil((1 - alpha)(n + 1)),
so at least that many calibration scores are <= tau.  The rank is computed
exactly, with alpha read as the decimal its ``repr`` prints; the float
product ``qlevel * n`` can land just above an integer and give one rank too
many.  When the rank exceeds n (qlevel > 1, small n) no finite quantile
exists and the threshold becomes all-inclusive: every class enters every
prediction set.  The all-inclusive sentinel is represented as ``math.inf``
so that comparisons against it behave like the conformal convention
(quantile of level > 1 is +infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _conformal_rank(n: int, alpha: float) -> int:
    """ceil((1 - alpha)(n + 1)) computed exactly, alpha being the decimal its ``repr`` prints."""
    mantissa, _, exponent = repr(alpha).partition("e")
    whole, _, fraction = mantissa.partition(".")
    scale = 10 ** (len(fraction) - int(exponent or 0))  # alpha = digits / scale
    digits = int(whole + fraction)
    return -((digits - scale) * (n + 1) // scale)  # a ceiling by floor division


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Calibration's outcome: alpha and the ascending calibration scores.

    ``sorted_scores`` is a read-only float64 copy of the given scores, which
    must be finite and nondecreasing.  ``n``, ``qlevel`` and ``threshold``
    follow from the two fields.  ``threshold`` is either a score value or
    ``math.inf`` (all-inclusive).
    """

    alpha: float
    sorted_scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.sorted_scores, dtype=np.float64)
        if scores.ndim != 1 or not (
            np.isfinite(scores).all() and (scores[:-1] <= scores[1:]).all()
        ):
            raise DataError("sorted_scores must be a finite, nondecreasing 1-D array")
        if len(scores) == 0:
            raise EmptyCalibrationError("cannot calibrate on an empty score list")
        scores.flags.writeable = False
        object.__setattr__(self, "alpha", _alpha_value(self.alpha))
        object.__setattr__(self, "sorted_scores", scores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CalibrationResult):
            return NotImplemented
        return self.alpha == other.alpha and np.array_equal(self.sorted_scores, other.sorted_scores)

    @property
    def n(self) -> int:
        return len(self.sorted_scores)

    @property
    def qlevel(self) -> float:
        return quantile_level(self.n, self.alpha)

    def threshold_rank(self) -> int | None:
        """The threshold's 1-based rank ceil((1 - alpha)(n + 1)), or None when all-inclusive."""
        rank = _conformal_rank(self.n, self.alpha)
        return None if rank > self.n else rank

    @property
    def threshold(self) -> float:
        rank = self.threshold_rank()
        return ALL_INCLUSIVE if rank is None else float(self.sorted_scores[rank - 1])

    @property
    def is_all_inclusive(self) -> bool:
        return self.threshold_rank() is None


def nonconformity(probs: np.ndarray) -> np.ndarray:
    """Nonconformity scores 1 - p, elementwise; the only place they are computed."""
    return 1.0 - probs


def calibrate_scores(scores: np.typing.ArrayLike, alpha: float | Alpha) -> CalibrationResult:
    """Calibrate directly from a multiset of nonconformity scores.

    Duplicate scores are kept (multiset semantics); the result depends only
    on the score values, never on their input order.  The sort is stable,
    so equal scores such as -0.0 and 0.0 keep the order they came in.
    """
    return CalibrationResult(alpha, np.sort(np.asarray(scores, dtype=np.float64), kind="stable"))


def calibrate(calib: Dataset, alpha: float | Alpha) -> CalibrationResult:
    """Compute true-class scores for every calibration example and calibrate.

    Deterministic: permuting the calibration examples leaves the result
    bitwise unchanged.
    """
    if len(calib) == 0:
        raise EmptyCalibrationError("calibration dataset is empty")
    require_valid(calib)
    scores = nonconformity(calib.probability_matrix()[np.arange(len(calib)), calib.labels])
    return calibrate_scores(scores, alpha)


def export_calibration_curve(result: CalibrationResult) -> str:
    """The curve CSV for plotting: ``rank,score`` rows of the ascending scores, then the threshold.

    The all-inclusive threshold, ``math.inf``, prints as ``inf``.
    """
    rows = [f"{rank},{score!r}" for rank, score in enumerate(result.sorted_scores.tolist())]
    return "\n".join(["rank,score", *rows, f"threshold,{result.threshold!r}"]) + "\n"
