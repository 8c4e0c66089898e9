"""Row-at-a-time code kept as test oracles for the columnar paths.

The probability-mass policy and validation loop that the columnar
:class:`Dataset` replaced: one frozen object per probability vector, the
mass policy applied in its constructor, and a Python loop over the rows that
collects violations.  Differential tests require the columnar construction
to store bit-identical probabilities and to report the same violations in
the same order.

:func:`load_csv_rows` is the CSV loader that the bulk parse replaced: one
row at a time, stopping at the first row it cannot parse.

:func:`load_predictions_rows` is the prediction JSONL loader before the
one-pass reader of the writer's layout: ``json.loads`` and the checks once
per line.

:func:`calibrate_scores_tuple` and :func:`curve_csv_tuple` are the
calibration and curve export that the sorted score array replaced: the
scores sorted into a tuple, the threshold picked from it at the rank
:func:`exact_rank` gives in rational arithmetic, and the curve built from
``(rank, score)`` pairs.

:func:`split_lists` is the split that one slicing loop over groups
replaced: per-class Python lists for a stratified split, and a second loop
over the shuffled order for a plain one.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from conformal_gate.core_types import ClassUniverse, Dataset, DimensionMismatchError, Violation
from conformal_gate.io import (
    ParseError,
    SplitSpec,
    UnknownLabelError,
    _shuffled_indices,
    largest_remainder_sizes,
)
from conformal_gate.predictor import PredictionSets

ALL_INCLUSIVE = math.inf
NOOP_TOL = 1e-9
SILENT_TOL = 1e-6
WARN_TOL = 1e-3


@dataclass(frozen=True)
class ProbVector:
    """A length-K probability vector with the mass policy applied.

    ``warned`` records whether the renormalization was one that warns.
    """

    values: tuple[float, ...]
    warned: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if values and all(math.isfinite(v) for v in values):
            mass = math.fsum(values)
            deviation = abs(mass - 1.0)
            if NOOP_TOL < deviation <= WARN_TOL:
                object.__setattr__(self, "warned", deviation > SILENT_TOL)
                values = tuple(v / mass for v in values)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LabeledExample:
    sample_id: str
    true_label: int
    probs: ProbVector


def validate_examples(examples: list[LabeledExample], k: int) -> list[Violation]:
    """Every invariant violation, row by row; empty list iff valid."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for ex in examples:
        if ex.sample_id in seen:
            violations.append(Violation(ex.sample_id, "duplicate sample_id"))
        seen.add(ex.sample_id)

        if not isinstance(ex.true_label, (int, np.integer)) or not 0 <= ex.true_label < k:
            violations.append(
                Violation(ex.sample_id, f"true_label {ex.true_label!r} outside [0, {k})")
            )

        values = ex.probs.values
        if len(values) != k:
            violations.append(
                Violation(ex.sample_id, f"expected {k} probabilities, got {len(values)}")
            )
            continue
        if not all(math.isfinite(v) for v in values):
            violations.append(Violation(ex.sample_id, "non-finite probability entry"))
            continue
        bad = [v for v in values if v < 0.0 or v > 1.0]
        if bad:
            violations.append(
                Violation(ex.sample_id, f"probability {bad[0]:.9g} outside [0, 1]")
            )
        mass = math.fsum(values)
        if abs(mass - 1.0) > SILENT_TOL:
            violations.append(
                Violation(ex.sample_id, f"probability mass {mass:.9g} outside tolerance")
            )
    return violations


def _resolve_label(raw: str, universe: ClassUniverse, line: int) -> int:
    try:
        index = int(raw)
    except ValueError:
        resolved = universe.index_of(raw.strip())
        if resolved is None:
            raise UnknownLabelError(f"unknown class label {raw!r}", line=line)
        return resolved
    if not 0 <= index < universe.k:
        raise UnknownLabelError(f"class index {index} outside [0, {universe.k})", line=line)
    return index


def load_csv_rows(path, universe: ClassUniverse | None) -> Dataset:
    """The dataset CSV at ``path``, read row by row; errors name their line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError("empty file: missing header", line=1)
    header = lines[0].split(",")
    if len(header) < 4 or header[0] != "sample_id" or header[1] != "true_label":
        raise ParseError("header must be sample_id,true_label,p_0,...,p_{K-1} with K >= 2",
                         line=1)
    if universe is None:
        universe = ClassUniverse.generic(len(header) - 2)
    ids, labels, values, numbers = [], [], [], []
    error = None
    for offset, row in enumerate(lines[1:], start=2):
        if not row.strip():
            continue
        fields = row.split(",")
        try:
            if len(fields) < 3:
                raise ParseError(f"expected {len(header)} fields, got {len(fields)}", line=offset)
            if len(fields) - 2 != universe.k:
                raise DimensionMismatchError(
                    f"line {offset}: expected {universe.k} probabilities, got {len(fields) - 2}"
                )
            label = _resolve_label(fields[1], universe, offset)
            try:
                row_values = [float(v) for v in fields[2:]]
            except ValueError as exc:
                raise ParseError(f"bad probability value: {exc}", line=offset) from exc
        except (ParseError, DimensionMismatchError) as exc:
            error = exc
            break
        ids.append(fields[0])
        labels.append(label)
        values.extend(row_values)
        numbers.append(offset)

    probs = np.array(values, dtype=np.float64).reshape(len(ids), universe.k)
    dataset = Dataset(universe, ids, labels, probs, lines=numbers)
    for v in dataset.violations:
        if v.reason != "duplicate sample_id":
            raise ParseError(v.reason, line=numbers[v.row])
    if error is not None:
        raise error
    if dataset.violations:
        v = dataset.violations[0]
        first = numbers[ids.index(v.sample_id)]
        raise ParseError(f"duplicate sample_id {v.sample_id!r} (first seen on line {first})",
                         line=numbers[v.row])
    return dataset


def load_predictions_rows(path, k: int) -> PredictionSets:
    """Prediction JSONL decoded and checked one line at a time; errors name their line.

    As the loader was before its column checks, with ``members`` required to
    be a JSON array, too-deep nesting and integers of more than 4300 digits
    reported as bad JSON, and lines split at LF.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    ids, rows, columns = [], [], []
    for offset, row in enumerate(lines, start=1):
        if not row.strip():
            continue
        try:
            obj = json.loads(row)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}", line=offset) from exc
        try:
            sample_id, members = obj["sample_id"], obj["members"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad prediction record: {exc}", line=offset) from exc
        if type(sample_id) is not str:
            raise ParseError(f"sample_id {sample_id!r} is not a JSON string", line=offset)
        if type(members) is not list:
            raise ParseError(f"members {members!r} is not a JSON array", line=offset)
        for m in members:
            if type(m) is not int or not 0 <= m < k:
                raise ParseError(f"member {m!r} is not a class index in [0, {k})", line=offset)
        size = len(set(members))
        if "set_size" in obj and type(obj["set_size"]) is not int:
            raise ParseError(f"set_size {obj['set_size']!r} is not a JSON integer", line=offset)
        if "set_size" in obj and obj["set_size"] != size:
            raise ParseError(
                f"set_size {obj['set_size']!r} differs from the {size} members", line=offset
            )
        rows.extend([len(ids)] * len(members))
        columns.extend(members)
        ids.append(sample_id)
    mask = np.zeros((len(ids), k), dtype=bool)
    mask[rows, columns] = True
    return PredictionSets(ids, mask)


@dataclass(frozen=True)
class TupleCalibration:
    """A calibration result with every derived value stored."""

    alpha: float
    n: int
    qlevel: float
    sorted_scores: tuple[float, ...]
    threshold: float

    def threshold_rank(self) -> int | None:
        if self.threshold == ALL_INCLUSIVE:
            return None
        return exact_rank(self.n, self.alpha)


def exact_rank(n: int, alpha: float) -> int:
    """ceil((1 - alpha)(n + 1)) in rational arithmetic, alpha being the decimal ``repr`` prints."""
    return math.ceil((1 - Fraction(repr(alpha))) * (n + 1))


def calibrate_scores_tuple(scores, alpha: float) -> TupleCalibration:
    """Sort the scores into a tuple and take the one at rank ceil((1 - alpha)(n + 1))."""
    n = len(scores)
    ordered = tuple(sorted(float(s) for s in scores))
    qlevel = (1.0 - alpha) * (n + 1) / n
    rank = exact_rank(n, alpha)
    threshold = ALL_INCLUSIVE if rank > n else ordered[rank - 1]
    return TupleCalibration(alpha, n, qlevel, ordered, threshold)


def curve_csv_tuple(result: TupleCalibration) -> str:
    """The curve CSV from ``(rank, score)`` pairs and the threshold row."""
    points = tuple((i, s) for i, s in enumerate(result.sorted_scores))
    lines = ["rank,score"]
    lines.extend(f"{rank},{score!r}" for rank, score in points)
    lines.append("threshold," + ("inf" if result.threshold == ALL_INCLUSIVE
                                 else repr(result.threshold)))
    return "\n".join(lines) + "\n"


def split_lists(dataset: Dataset, spec: SplitSpec) -> dict[str, Dataset]:
    """The seeded split with Python index lists, sliced per class when stratified."""
    order = _shuffled_indices(len(dataset), spec.seed)
    fractions = [f for _, f in spec.fractions]
    names = [name for name, _ in spec.fractions]
    part_indices: list[list[int]] = [[] for _ in names]

    if spec.stratified:
        labels = dataset.labels.tolist()
        by_class: dict[int, list[int]] = {}
        for idx in order:
            by_class.setdefault(labels[idx], []).append(idx)
        for label in sorted(by_class):
            members = by_class[label]
            sizes = largest_remainder_sizes(len(members), fractions)
            cursor = 0
            for part, size in enumerate(sizes):
                part_indices[part].extend(members[cursor:cursor + size])
                cursor += size
    else:
        sizes = largest_remainder_sizes(len(dataset), fractions)
        cursor = 0
        for part, size in enumerate(sizes):
            part_indices[part] = order[cursor:cursor + size]
            cursor += size

    parts: dict[str, Dataset] = {}
    for name, indices in zip(names, part_indices):
        if not indices:
            logging.getLogger("conformal_gate.io").warning("split part %r is empty", name)
        rows = np.array(indices, dtype=np.intp)
        parts[name] = Dataset(
            dataset.universe,
            tuple(dataset.ids[i] for i in indices),
            dataset.labels[rows],
            dataset.probs[rows],
        )
    return parts
