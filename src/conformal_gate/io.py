"""File formats and the seeded dataset-splitting protocol.

Formats (UTF-8, LF line endings, ``.`` decimal separator):

* dataset CSV    - header ``sample_id,true_label,p_0,...,p_{K-1}``; labels
  may be class indices or class names resolvable via the universe;
* dataset JSONL  - one ``{"sample_id", "true_label", "probs": [...]}``
  object per line; the id is a JSON string, probs an array of numbers;
* prediction JSONL - one ``{"sample_id", "members", "set_size"}`` object per
  set, plus ``"true_label"`` when known; members are sorted class indices;
* classes.json   - ``[{"index": 0, "name": "..."}, ...]``;
* report JSON    - full precision, schema defined by EvaluationReport;
* report CSV     - one row per class plus a trailing ``overall`` row,
  columns ``recall,avg_set_size,strict_coverage`` rendered to 4 decimals
  (the ``overall`` recall cell holds the accuracy); missing per-class
  values render as ``n/a``.

Splitting shuffles once with a seeded Fisher-Yates pass, then slices
contiguously with largest-remainder rounding so part sizes sum exactly to
the input size.  Stratified splits apply the slicing per class (in shuffled
order) and concatenate the class slices per part.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import secrets
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from .calibration import CurveData
from .core_types import (
    ClassLabel,
    ClassUniverse,
    DUPLICATE_ID,
    DataError,
    Dataset,
    DimensionMismatchError,
)
from .metrics import EvaluationReport
from .predictor import PredictionSets
from .rng import output_block

logger = logging.getLogger("conformal_gate.io")


class ParseError(DataError):
    """A file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class UnknownLabelError(ParseError):
    """A true_label value is neither a valid index nor a known class name."""


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, never a partial file.

    The file gets the mode a plain ``open`` gives it (0o666 less the umask).
    The file is synced to disk before the rename and its directory after it.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


# ---------------------------------------------------------------------------
# class universe


def load_universe(path: str | Path) -> ClassUniverse:
    """Read classes.json; each entry needs an integer ``index`` and a string ``name``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            entries = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed classes file {path}: {exc}") from exc
    try:
        labels = [ClassLabel(e["index"], e["name"]) for e in entries]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed classes file {path}: {exc}") from exc
    for label in labels:
        if type(label.index) is not int or type(label.name) is not str:
            raise ParseError(
                f"malformed classes file {path}: index {label.index!r} and name"
                f" {label.name!r} are not an integer and a string"
            )
    return ClassUniverse(tuple(sorted(labels, key=lambda label: label.index)))


def write_universe(universe: ClassUniverse, path: str | Path) -> None:
    write_atomic(path, universe_json_text(universe))


def universe_json_text(universe: ClassUniverse) -> str:
    entries = [{"index": lab.index, "name": lab.name} for lab in universe.labels]
    return json.dumps(entries, indent=2) + "\n"


def universe_digest(universe: ClassUniverse) -> str:
    """Stable sha256 of the class universe, for artifact cross-checks."""
    canonical = json.dumps(
        [[lab.index, lab.name] for lab in universe.labels], separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ---------------------------------------------------------------------------
# dataset load/write


def _resolve_label(raw: str | int, universe: ClassUniverse, line: int | None) -> int:
    if isinstance(raw, bool):
        raise UnknownLabelError(f"true_label {raw!r} is not a class index or name", line=line)
    if isinstance(raw, int):
        index = raw
    else:
        text = str(raw).strip()
        try:
            index = int(text)
        except ValueError:
            resolved = universe.index_of(text)
            if resolved is None:
                raise UnknownLabelError(f"unknown class label {text!r}", line=line)
            return resolved
    if not 0 <= index < universe.k:
        raise UnknownLabelError(
            f"class index {index} outside [0, {universe.k})", line=line
        )
    return index


def _check_width(width: int, universe: ClassUniverse, line: int) -> None:
    if width != universe.k:
        raise DimensionMismatchError(
            f"line {line}: expected {universe.k} probabilities, got {width}"
        )


class _Rows:
    """Rows parsed from a JSONL dataset file, in file order, with their line numbers."""

    def __init__(self):
        self.ids: list[str] = []
        self.labels: list[int] = []
        self.values: list[float] = []
        self.lines: list[int] = []

    def append(self, sample_id: str, label: int, values: list[float], line: int) -> None:
        self.ids.append(sample_id)
        self.labels.append(label)
        self.values.extend(values)
        self.lines.append(line)

    def dataset(self, universe: ClassUniverse, error: DataError | None) -> Dataset:
        probs = np.array(self.values, dtype=np.float64).reshape(len(self.ids), universe.k)
        dataset = Dataset(universe, self.ids, self.labels, probs, lines=self.lines)
        return _checked(dataset, self.lines, error)


def _checked(dataset: Dataset, lines: Sequence[int], error: DataError | None) -> Dataset:
    """The dataset read from a file, or the first problem in file order.

    ``lines`` is each row's 1-based line.  ``error`` is the parse error that
    stopped reading, if any; the rows before it are checked first.
    Duplicate ids are reported last.
    """
    for v in dataset.violations:
        if v.reason != DUPLICATE_ID:
            raise ParseError(v.reason, line=lines[v.row])
    if error is not None:
        raise error
    if dataset.violations:
        v = dataset.violations[0]
        first = lines[dataset.ids.index(v.sample_id)]
        raise ParseError(
            f"duplicate sample_id {v.sample_id!r} (first seen on line {first})",
            line=lines[v.row],
        )
    return dataset


def _infer_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    return "csv"


def load_probabilities(
    path: str | Path,
    universe: ClassUniverse | None = None,
    fmt: str | None = None,
) -> Dataset:
    """Load a labeled probability file (CSV or JSONL) into a Dataset.

    When no universe is given, one is inferred from the file with generic
    class names (labels must then be numeric indices).  Any parse error or
    dataset violation raises with the 1-based line number of its row.
    """
    fmt = fmt or _infer_format(path)
    if fmt == "csv":
        return _load_csv(path, universe)
    if fmt == "jsonl":
        return _load_jsonl(path, universe)
    raise DataError(f"unknown dataset format {fmt!r}")


def _load_csv(path: str | Path, universe: ClassUniverse | None) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError("empty file: missing header", line=1)
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "sample_id" or header[1] != "true_label":
        raise ParseError(
            "header must be sample_id,true_label,p_0,...,p_{K-1}", line=1
        )
    if universe is None:
        universe = ClassUniverse.generic(len(header) - 2)
    rows, numbers = lines[1:], range(2, len(lines) + 1)
    if not all(map(str.strip, rows)):
        numbers = [n for n, row in zip(numbers, rows) if row.strip()]
        rows = [lines[n - 1] for n in numbers]
    try:
        columns, error = _csv_columns(rows, universe), None
    except ValueError:
        stop, error = _first_bad_row(rows, numbers, universe, len(header))
        rows, numbers = rows[:stop], numbers[:stop]
        columns = _csv_columns(rows, universe)
    return _checked(Dataset(universe, *columns, lines=numbers), numbers, error)


def _csv_columns(
    rows: list[str], universe: ClassUniverse
) -> tuple[list[str], list[int], np.ndarray]:
    """Ids, label indices and the (n, K) matrix of non-blank CSV rows, in one pass.

    Raises ValueError, with no line, when :func:`_first_bad_row` would
    reject any row; the caller then asks it which row.
    """
    k = universe.k
    if set(map(str.count, rows, repeat(","))) - {k + 1}:
        raise ValueError("a row does not hold K + 2 fields")
    ids: list[str] = []
    raw_labels: list[str] = []

    def cells():
        for row in rows:
            sample_id, label, *values = row.split(",")
            ids.append(sample_id)
            raw_labels.append(label)
            yield values

    probs = np.fromiter(map(float, chain.from_iterable(cells())), np.float64, len(rows) * k)
    try:
        labels = list(map(int, raw_labels))
    except ValueError:  # class names
        labels = [_resolve_label(raw, universe, None) for raw in raw_labels]
    if labels and not (min(labels) >= 0 and max(labels) < k):
        raise ValueError("a label is outside [0, K)")
    return ids, labels, probs.reshape(len(rows), k)


def _first_bad_row(
    rows: list[str], lines: Sequence[int], universe: ClassUniverse, width: int
) -> tuple[int, DataError]:
    """The index of the first row :func:`_csv_columns` rejects, and its error.

    ``width`` is the header's field count.  Each row is checked in a fixed
    order: field count, probability count, label, probability values.
    """
    for i, (row, line) in enumerate(zip(rows, lines)):
        fields = row.split(",")
        try:
            if len(fields) < 3:
                raise ParseError(f"expected {width} fields, got {len(fields)}", line=line)
            _check_width(len(fields) - 2, universe, line)
            _resolve_label(fields[1], universe, line)
            try:
                list(map(float, fields[2:]))
            except ValueError as exc:
                raise ParseError(f"bad probability value: {exc}", line=line) from exc
        except DataError as exc:
            return i, exc
    raise AssertionError("the bulk CSV parse rejected rows the row check accepts")


def _load_jsonl(path: str | Path, universe: ClassUniverse | None) -> Dataset:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = _Rows()
    try:
        for offset, row in enumerate(lines, start=1):
            if not row.strip():
                continue
            try:
                obj = json.loads(row)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc}", line=offset) from exc
            try:
                sample_id, raw_label, probs = obj["sample_id"], obj["true_label"], obj["probs"]
            except (KeyError, TypeError) as exc:
                raise ParseError(f"malformed record: {exc}", line=offset) from exc
            if type(sample_id) is not str:
                raise ParseError(f"sample_id {sample_id!r} is not a JSON string", line=offset)
            if type(probs) is not list or not all(type(v) in (int, float) for v in probs):
                raise ParseError("probs is not a JSON array of numbers", line=offset)
            try:
                values = [float(v) for v in probs]
            except OverflowError as exc:
                raise ParseError(f"probs entry out of float range: {exc}", line=offset) from exc
            if universe is None:
                universe = ClassUniverse.generic(len(values))
            label = _resolve_label(raw_label, universe, offset)
            _check_width(len(values), universe, offset)
            rows.append(sample_id, label, values, offset)
    except DataError as exc:
        if universe is None:
            raise
        return rows.dataset(universe, exc)
    if universe is None:
        raise ParseError("empty JSONL file: cannot infer the class universe", line=1)
    return rows.dataset(universe, None)


# The loader splits the file with str.splitlines and each row on ",", with
# no quoting, so an id may hold no comma, quote or line-breaking character.
_CSV_UNSAFE_ID = re.compile('[,"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]')


def dataset_csv_text(dataset: Dataset) -> str:
    for sample_id in dataset.ids:
        if _CSV_UNSAFE_ID.search(sample_id):
            raise DataError(
                f"sample_id {sample_id!r} cannot be written to CSV:"
                " it contains a comma, a double quote or a line break"
            )
    header = "sample_id,true_label," + ",".join(
        f"p_{i}" for i in range(dataset.universe.k)
    )
    rows = [header]
    for sample_id, label, probs in zip(
        dataset.ids, dataset.labels.tolist(), dataset.probs.tolist()
    ):
        rows.append(f"{sample_id},{label}," + ",".join(repr(v) for v in probs))
    return "\n".join(rows) + "\n"


def dataset_jsonl_text(dataset: Dataset) -> str:
    lines = []
    for sample_id, label, probs in zip(
        dataset.ids, dataset.labels.tolist(), dataset.probs.tolist()
    ):
        lines.append(json.dumps({
            "sample_id": sample_id,
            "true_label": label,
            "probs": probs,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


def write_dataset(dataset: Dataset, path: str | Path, fmt: str | None = None) -> None:
    fmt = fmt or _infer_format(path)
    if fmt == "csv":
        write_atomic(path, dataset_csv_text(dataset))
    elif fmt == "jsonl":
        write_atomic(path, dataset_jsonl_text(dataset))
    else:
        raise DataError(f"unknown dataset format {fmt!r}")


# ---------------------------------------------------------------------------
# prediction sets


def write_predictions(
    sets: PredictionSets, path: str | Path, labels: np.ndarray | None = None
) -> None:
    """Write one prediction JSONL line per set, with ``true_label`` when labels are given.

    Each line is what ``json.dumps`` writes for the record: ids are escaped
    by its ASCII string encoder, and a list of ints prints as JSON.
    """
    ends = (["}\n"] * len(sets) if labels is None
            else [f', "true_label": {label}}}\n' for label in np.asarray(labels).tolist()])
    write_atomic(path, "".join(
        f'{{"sample_id": {sample_id}, "members": {members}, "set_size": {len(members)}{end}'
        for sample_id, members, end in zip(
            map(encode_basestring_ascii, sets.ids), sets.member_lists(), ends)
    ))


def load_predictions(path: str | Path, k: int) -> PredictionSets:
    """Read prediction JSONL into sets over k classes.

    A member that is not an int in [0, k) (bools included), or a ``set_size``
    other than the count of distinct members, is a ParseError with its line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    ids: list[str] = []
    rows: list[int] = []
    columns: list[int] = []
    for offset, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            sample_id, members = obj["sample_id"], list(obj["members"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad prediction record: {exc}", line=offset) from exc
        if type(sample_id) is not str:
            raise ParseError(f"sample_id {sample_id!r} is not a JSON string", line=offset)
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


# ---------------------------------------------------------------------------
# splitting


@dataclass(frozen=True)
class SplitSpec:
    """Named fractions summing to 1, a shuffle seed, optional stratification."""

    fractions: tuple[tuple[str, float], ...]
    seed: int
    stratified: bool = False

    def __post_init__(self):
        fractions = tuple((str(name), float(f)) for name, f in self.fractions)
        object.__setattr__(self, "fractions", fractions)
        if not fractions:
            raise DataError("need at least one split part")
        if any(not 0.0 < f <= 1.0 for _, f in fractions):
            raise DataError("every fraction must lie in (0, 1]")
        total = math.fsum(f for _, f in fractions)
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"fractions sum to {total!r}, not 1")
        names = [name for name, _ in fractions]
        if len(set(names)) != len(names):
            raise DataError("split part names must be unique")


def largest_remainder_sizes(total: int, fractions: Sequence[float]) -> list[int]:
    """Apportion ``total`` into integer part sizes that sum exactly to it.

    Each part gets floor(f * total); leftovers go to the largest fractional
    remainders, earliest part first on ties.
    """
    quotas = [f * total for f in fractions]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(
        range(len(fractions)), key=lambda i: (-(quotas[i] - sizes[i]), i)
    )
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def _shuffled_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates, drawing j in [0, i] from stream output r as ((r >> 11) * (i + 1)) >> 53.

    The product is taken on Python ints: in uint64 it overflows once i + 1 > 2048.
    """
    indices = list(range(n))
    for i, r in zip(range(n - 1, 0, -1), output_block(seed, n - 1).tolist()):
        j = ((r >> 11) * (i + 1)) >> 53
        indices[i], indices[j] = indices[j], indices[i]
    return indices


def split(dataset: Dataset, spec: SplitSpec) -> dict[str, Dataset]:
    """Deterministic seeded split into named parts.

    Parts are disjoint, their union is the input, and sizes follow
    largest-remainder rounding.  Stratified splits keep per-class
    proportions within one sample per class per part.
    """
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
            logger.warning("split part %r is empty", name)
        rows = np.array(indices, dtype=np.intp)
        parts[name] = Dataset(
            dataset.universe,
            tuple(dataset.ids[i] for i in indices),
            dataset.labels[rows],
            dataset.probs[rows],
        )
    return parts


# ---------------------------------------------------------------------------
# reports and curves


def _cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def report_csv_text(report: EvaluationReport) -> str:
    """Per-class metric table: class rows, then an overall row.

    The overall row's recall column carries the accuracy.
    """
    lines = ["class,recall,avg_set_size,strict_coverage"]
    for i, name in enumerate(report.class_names):
        lines.append(
            f"{name},{_cell(report.per_class_recall[i])},"
            f"{_cell(report.per_class_avg_set_size[i])},"
            f"{_cell(report.per_class_strict_coverage[i])}"
        )
    lines.append(
        f"overall,{_cell(report.accuracy)},"
        f"{_cell(report.overall_avg_set_size)},"
        f"{_cell(report.overall_strict_coverage)}"
    )
    return "\n".join(lines) + "\n"


def report_json_text(report: EvaluationReport) -> str:
    """``json.dumps(report.to_json_obj(), indent=2)`` and a newline.

    The confusion matrix, the last key, is written here row by row:
    ``json.dumps`` encodes with pure Python whenever ``indent`` is set.
    """
    obj = report.to_json_obj()
    rows = [",\n      ".join(map(str, row)) for row in obj.pop("confusion_matrix")]
    matrix = ",".join(f"\n    [\n      {row}\n    ]" if row else "\n    []" for row in rows)
    matrix = f"[{matrix}\n  ]" if rows else "[]"
    return json.dumps(obj, indent=2)[:-2] + f',\n  "confusion_matrix": {matrix}\n}}\n'


def write_report(report: EvaluationReport, path: str | Path, fmt: str | None = None) -> None:
    fmt = fmt or ("csv" if Path(path).suffix.lower() == ".csv" else "json")
    if fmt == "json":
        write_atomic(path, report_json_text(report))
    elif fmt == "csv":
        write_atomic(path, report_csv_text(report))
    else:
        raise DataError(f"unknown report format {fmt!r}")


def read_report(path: str | Path) -> EvaluationReport:
    with open(path, "r", encoding="utf-8") as handle:
        return EvaluationReport.from_json_obj(json.load(handle))


def write_curve(curve: CurveData, path: str | Path) -> None:
    """Write the curve CSV: ``rank,score`` rows, then the threshold row."""
    write_atomic(path, curve.to_csv_text())
