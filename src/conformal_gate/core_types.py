"""Shared domain types: class universe, violations and the columnar dataset.

A probability vector is the system boundary: any classifier is treated as an
opaque source of length-K probability vectors.  A :class:`Dataset` holds n
of them column-wise: a tuple of sample ids, a read-only int64 label array of
shape [n] and a read-only float64 probability matrix of shape [n, K].  Types
are immutable after construction and safe to share across threads.

Dataset construction applies one probability-mass policy to every row, with
``sum`` the row's exactly rounded ``math.fsum`` (settled by a certified array
sum where it can be, by ``math.fsum`` itself elsewhere):

* ``|sum - 1| <= 1e-9``  - treated as already normalized, values untouched
  (renormalizing float dust would break bit-exact round trips);
* ``1e-9 < |sum - 1| <= 1e-6``  - divided by ``sum`` silently;
* ``1e-6 < |sum - 1| <= 1e-3``  - divided by ``sum``; one WARNING line per
  dataset gives the count of such rows and where the first ones are;
* anything else (including NaN/inf)  - left as-is and reported; values are
  never silently clamped or repaired.

One pass applies the policy and records every violation, in ``violations``:
validation is a lookup, never a second pass over the rows.  ``math.fsum``
runs on the rows an ``np.sum`` screen cannot clear, and again only on the
renormalized rows with an entry outside [0, 1].
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

logger = logging.getLogger("conformal_gate.core_types")

NOOP_TOL = 1e-9
SILENT_TOL = 1e-6
WARN_TOL = 1e-3

DUPLICATE_ID = "duplicate sample_id"


class DataError(ValueError):
    """Base class for data and contract violations (CLI exit code 2)."""


class DimensionMismatchError(DataError):
    """A probability vector's length differs from the universe's class count."""


class EmptyCalibrationError(DataError):
    """Calibration requires at least one example."""


class EmptyDatasetError(DataError):
    """The operation requires a non-empty dataset."""


class LengthMismatchError(DataError):
    """Two aligned sequences have different lengths."""


class InvalidDatasetError(DataError):
    """Raised by operations that require a dataset with no violations."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} dataset violation(s): {lines}{extra}")


@dataclass(frozen=True)
class ClassUniverse:
    """The ordered set of K classes every dataset and matrix is indexed by."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise DataError("a class universe needs at least 2 classes")
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if index.setdefault(name, i) != i:
                raise DataError(f"duplicate class name {name!r}")
        object.__setattr__(self, "_index", index)

    @property
    def k(self) -> int:
        return len(self.names)

    @classmethod
    def generic(cls, k: int) -> "ClassUniverse":
        """K anonymous classes named class_0 ... class_{K-1}."""
        return cls(tuple(f"class_{i}" for i in range(k)))

    def index_of(self, name: str) -> int | None:
        return self._index.get(name)


@dataclass(frozen=True)
class Violation:
    """One invariant violation of a dataset row (``row`` is its 0-based index)."""

    sample_id: str | None
    reason: str
    row: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        where = self.sample_id if self.sample_id is not None else "<dataset>"
        return f"{where}: {self.reason}"


def _fsum_rows(rows: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each finite row, as ``math.fsum``; inf where the sum overflows.

    A pairwise TwoSum cascade leaves ``s`` and the exact rounding errors of
    its additions, whose array sum ``e`` is within ``bound`` of their exact
    sum.  Rounding is monotone, so where ``s`` plus either end of that
    interval, stepped one ulp outward, rounds to one float, that float is
    the exact sum rounded.  ``math.fsum`` runs only on the other rows.
    """
    if not len(rows):  # spare the cascade's fixed cost
        return np.zeros(0)
    level, e, mag = np.ascontiguousarray(rows.T), 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(level) > 1:
            half = len(level) // 2
            a, x = level[:half], level[half:2 * half]
            t = a + x
            b = t - a
            err = (a - (t - b)) + (x - b)  # t + err == a + x exactly
            e, mag = e + err.sum(axis=0), mag + np.abs(err).sum(axis=0)
            level = np.concatenate([t, level[2 * half:]]) if len(level) % 2 else t
        s, sums = level[0], level[0] + e
        bound = 2 * rows.shape[1] * 2.0**-53 * mag
        settled = (np.isfinite(sums) & np.isfinite(mag) & (sums > 0.5) & (sums < 1.5)
                   & (s + np.nextafter(e - bound, -np.inf) == sums)
                   & (s + np.nextafter(e + bound, np.inf) == sums))
    for i in np.flatnonzero(~settled).tolist():
        try:
            sums[i] = math.fsum(rows[i].tolist())
        except OverflowError:
            sums[i] = math.inf
    return sums


def _near_one(probs: np.ndarray) -> np.ndarray:
    """Rows whose ``math.fsum`` is surely within NOOP_TOL of 1, judged by ``np.sum``.

    Only rows with every entry in [0, 1] are judged.  For them, with mass
    below 2, ``np.sum`` in any order and ``fsum`` differ by less than
    K * 2**-52: each is within (K - 1) * 2**-53 * mass and 2**-53 of the
    exact sum.  A row is cleared when ``|np.sum - 1|`` plus that margin stays
    below ``NOOP_TOL / 2``; every other row is left to ``fsum``.
    """
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    sums = np.sum(probs, axis=1, where=in_range[:, None])
    return in_range & (np.abs(sums - 1.0) < NOOP_TOL / 2 - probs.shape[1] * 2.0**-52)


def _validate(
    ids: tuple[str, ...], labels: np.ndarray, probs: np.ndarray, lines: Sequence[int] | None
) -> tuple[Violation, ...]:
    """Apply the probability-mass policy to ``probs`` in place; return every violation.

    Violations come by row and then in a fixed order of checks.  ``lines``
    names rows by source line in the warning; without it rows are named by
    0-based index.
    """
    k = probs.shape[1]
    finite = np.isfinite(probs).all(axis=1)
    exact = finite & ~_near_one(probs)
    masses = np.full(len(probs), np.nan)
    masses[exact] = _fsum_rows(probs[exact])
    deviation = np.abs(masses - 1.0)
    renormalize = (deviation > NOOP_TOL) & (deviation <= WARN_TOL)
    warned = np.flatnonzero(renormalize & (deviation > SILENT_TOL))
    if warned.size:
        where, first = ("rows", warned[:5].tolist()) if lines is None else (
            "lines", [lines[i] for i in warned[:5]])
        logger.warning(
            "renormalizing %d probability vector(s) with mass off by more than %g;"
            " first at %s %s",
            warned.size, SILENT_TOL, where, ", ".join(map(str, first)),
        )
    probs[renormalize] /= masses[renormalize, None]
    outside = (probs < 0.0) | (probs > 1.0)
    out_of_range = finite & outside.any(axis=1)
    # A renormalized row with every entry in [0, 1] is on unit mass: its
    # divisor m is its correctly rounded sum and each x / m is rounded with
    # relative error at most 2**-53 (a subnormal quotient: 2**-1075 absolute),
    # so its exact sum is within 2 * 2**-53 of 1.  Only the other renormalized
    # rows are summed again.
    masses[renormalize] = 1.0
    resum = renormalize & out_of_range
    masses[resum] = _fsum_rows(probs[resum])
    off = np.abs(masses - 1.0) > SILENT_TOL
    duplicate = np.zeros(len(ids), dtype=bool)
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for i, sample_id in enumerate(ids):
            duplicate[i] = sample_id in seen
            seen.add(sample_id)
    bad_label = (labels < 0) | (labels >= k)

    found: list[Violation] = []
    for i in np.flatnonzero(duplicate | bad_label | ~finite | out_of_range | off).tolist():
        sample_id = ids[i]
        if duplicate[i]:
            found.append(Violation(sample_id, DUPLICATE_ID, i))
        if bad_label[i]:
            found.append(
                Violation(sample_id, f"true_label {int(labels[i])!r} outside [0, {k})", i)
            )
        if not finite[i]:
            found.append(Violation(sample_id, "non-finite probability entry", i))
            continue
        if out_of_range[i]:
            bad = float(probs[i][outside[i]][0])
            found.append(Violation(sample_id, f"probability {bad:.9g} outside [0, 1]", i))
        if off[i]:
            found.append(Violation(
                sample_id, f"probability mass {float(masses[i]):.9g} outside tolerance", i
            ))
    return tuple(found)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled probability rows over one class universe, stored column-wise.

    ``labels`` and ``probs`` are read-only copies of the given arrays, with
    the probability-mass policy applied to ``probs``.  Construction is
    permissive: invalid rows are stored, and ``violations`` lists every
    problem.  Operations that require a valid dataset call
    :func:`require_valid` first.  ``lines``, when given, is each row's
    1-based source line, used to name rows in the renormalization warning.
    """

    universe: ClassUniverse
    ids: tuple[str, ...]
    labels: np.ndarray
    probs: np.ndarray
    lines: InitVar[Sequence[int] | None] = None
    violations: tuple[Violation, ...] = field(init=False, repr=False)

    def __post_init__(self, lines: Sequence[int] | None):
        ids = tuple(self.ids)
        labels = np.array(self.labels, dtype=np.int64)
        probs = np.array(self.probs, dtype=np.float64)
        if labels.shape != (len(ids),) or probs.ndim != 2 or len(probs) != len(ids):
            raise LengthMismatchError(
                f"{len(ids)} sample ids, labels of shape {labels.shape},"
                f" probabilities of shape {probs.shape}"
            )
        k = self.universe.k
        if probs.shape[1] != k:
            raise DimensionMismatchError(f"expected {k} probabilities, got {probs.shape[1]}")
        object.__setattr__(self, "violations", _validate(ids, labels, probs, lines))
        labels.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.ids == other.ids
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.probs, other.probs)
        )

    def probability_matrix(self) -> np.ndarray:
        """Read-only (n, K) float matrix of all probability vectors: ``probs``.

        Operations read the matrix through this accessor, so that a tracer
        wrapping it sees every use.
        """
        return self.probs


def require_valid(dataset: Dataset) -> Dataset:
    """Raise InvalidDatasetError unless the dataset validates cleanly."""
    if dataset.violations:
        raise InvalidDatasetError(dataset.violations)
    return dataset
