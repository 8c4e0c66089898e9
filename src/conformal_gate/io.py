"""File formats and the seeded dataset-splitting protocol.

Formats (UTF-8, LF line endings, ``.`` decimal separator):

* dataset CSV    - header ``sample_id,true_label,p_0,...,p_{K-1}``; labels
  may be class indices or class names resolvable via the universe.  One
  ``np.loadtxt`` call returns every row's raw id and label strings and the
  (n, K) matrix, and rejects a row of any other width; a file it rejects,
  or one holding a U+001F, goes to the row loop, which reads each cell with
  ``float()``, to the same bits;
* dataset JSONL  - one ``{"sample_id", "true_label", "probs": [...]}``
  object per line; the id is a JSON string, probs an array of numbers;
* prediction JSONL - one ``{"sample_id", "members", "set_size"}`` object per
  set, plus ``"true_label"`` when known; members are sorted class indices.
  A file in the exact layout :func:`write_predictions` writes is read with
  one regex match over the text, one ``json.loads`` for the ids and one for
  the set sizes, and one ``np.fromstring`` of all members once whole-text
  checks prove them digit runs joined by ``", "``; any other goes to the row
  loop, to the same sets or the same error;
* classes.json   - ``[{"index": 0, "name": "..."}, ...]``;
* report JSON    - full precision, schema defined by EvaluationReport; the
  confusion matrix is an all-zero template with the nonzero counts written in;
* report CSV     - one row per class plus a trailing ``overall`` row,
  columns ``recall,avg_set_size,strict_coverage`` rendered to 4 decimals
  (the ``overall`` recall cell holds the accuracy); missing per-class
  values render as ``n/a``.

The three line readers share one row loop, :func:`_parse_rows`: it parses
the non-blank rows in order, each by its reader's row parse, and stops at
the first bad row with the rows before it and that row's error.  CSV rows
are split as ``str.splitlines`` does; JSON lines at LF only, since U+0085,
U+2028 and U+2029 may stand unescaped in a JSON string.

Splitting shuffles once with a seeded Fisher-Yates pass, then slices
contiguously with largest-remainder rounding so part sizes sum exactly to
the input size.  Stratified splits apply the slicing per class (in shuffled
order) and concatenate the class slices per part.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .core_types import (
    ClassUniverse,
    DUPLICATE_ID,
    DataError,
    Dataset,
    DimensionMismatchError,
    LengthMismatchError,
)

# Annotations only: so that importing io loads no layer but core_types, the
# functions that need predictor or rng at run time import them themselves.
if TYPE_CHECKING:
    from .metrics import EvaluationReport
    from .predictor import PredictionSets

logger = logging.getLogger("conformal_gate.io")


class ParseError(DataError):
    """A file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class UnknownLabelError(ParseError):
    """A true_label value is neither a valid index nor a known class name."""


def _read_text(path: str | Path, lf_lines: bool = False) -> str:
    """The UTF-8 text of an input file, line endings translated as text-mode ``open`` does.

    The one place that opens an input file to read text.  A byte that is not
    UTF-8 is a ParseError citing its line, numbered as the caller splits the
    text: at LF after that translation when ``lf_lines``, else as
    ``str.splitlines`` does.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        line = len(re.split("\r\n?|\n", before) if lf_lines else (before + "x").splitlines())
        raise ParseError(
            f"{path} is not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", line=line
        ) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value in a file; invalid JSON is a ParseError naming ``what`` and the path."""
    text = _read_text(path, lf_lines=True)  # json's own errors count lines at LF
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, or over 4300 digits
        raise ParseError(f"malformed {what} {path}: {exc}") from exc


def _non_blank(rows: list[str], first: int) -> tuple[list[str], Sequence[int]]:
    """The rows that hold more than whitespace, and their lines; ``rows[0]`` is line ``first``."""
    if all(map(str.strip, rows)):
        return rows, range(first, first + len(rows))
    lines = [line for line, row in enumerate(rows, first) if row.strip()]
    return [rows[line - first] for line in lines], lines


def _parse_rows(rows: Sequence[str], lines: Sequence[int], parse: Callable[[str, int], Any]
                ) -> tuple[list[Any], DataError | None]:
    """``parse(row, line)`` of each row up to the first that raises a DataError, and that error."""
    parsed = []
    for row, line in zip(rows, lines):
        try:
            parsed.append(parse(row, line))
        except DataError as exc:
            return parsed, exc
    return parsed, None


def _json_record(row: str, line: int, keys: tuple[str, ...], malformed: str) -> tuple[Any, ...]:
    """The object of one JSON-lines line, then the values of its ``sample_id`` and ``keys``.

    Text that is not JSON, a value that is not an object holding those keys (the
    message begins ``malformed``) and a non-string id are ParseErrors citing ``line``.
    """
    try:
        obj = json.loads(row)
    except (ValueError, RecursionError) as exc:  # an integer over 4300 digits too
        raise ParseError(f"bad JSON: {exc}", line=line) from exc
    try:
        values = [obj[key] for key in ("sample_id", *keys)]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{malformed}: {exc}", line=line) from exc
    if type(values[0]) is not str:
        raise ParseError(f"sample_id {values[0]!r} is not a JSON string", line=line)
    return obj, *values


def write_texts(outputs: Sequence[tuple[str | Path, str]]) -> None:
    """Write each (path, text) pair's text to its path: all of them, or none.

    Each text goes to a temp file in its path's directory, and every temp
    file is written and synced to disk before the first is renamed over its
    path; the directories are synced after the renames.  So a failure while
    writing any of them (a missing directory, a full disk, a text UTF-8
    cannot encode) unlinks every temp file and leaves no output.  A rename
    that fails after an earlier one succeeded, say because a later path is a
    directory, leaves the earlier outputs written.  Each file gets the mode
    a plain ``open`` gives it (0o666 less the umask).  An OSError names the
    path as the caller gave it, with the errno it had.
    """
    staged: list[Path] = []
    try:
        for path, text in outputs:
            target = Path(path)
            tmp = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged:
            try:
                os.unlink(tmp)
            except OSError:  # renamed already
                pass
        if isinstance(exc, OSError):  # name the file the caller asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    for parent in dict.fromkeys(tmp.parent for tmp in staged):
        directory = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, never a partial file (:func:`write_texts`)."""
    write_texts([(path, text)])


def json_text(obj: Any) -> str:
    """``obj`` as JSON indented by 2, and a newline."""
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# class universe


def load_universe(path: str | Path) -> ClassUniverse:
    """Read classes.json.

    Each entry needs an integer ``index`` and a string ``name``, and the
    indices of K entries are 0..K-1, each used once, in any order.
    """
    entries = read_json(path, "classes file")
    if type(entries) is not list:
        raise ParseError(f'malformed classes file {path}: not a JSON array of'
                         ' {"index": ..., "name": ...} objects')
    for i, e in enumerate(entries):
        if type(e) is not dict or "index" not in e or "name" not in e:
            raise ParseError(f'malformed classes file {path}: entry {i} is not a'
                             ' {"index": ..., "name": ...} object')
    pairs = [(e["index"], e["name"]) for e in entries]
    for index, name in pairs:
        if type(index) is not int or type(name) is not str:
            raise ParseError(
                f"malformed classes file {path}: index {index!r} and name"
                f" {name!r} are not an integer and a string"
            )
    names = dict(pairs)
    if sorted(names) != list(range(len(pairs))):
        raise ParseError(
            f"malformed classes file {path}: the indices of {len(pairs)} classes"
            f" are not 0..{len(pairs) - 1}, each used once"
        )
    try:
        return ClassUniverse(tuple(names[i] for i in range(len(pairs))))
    except DataError as exc:  # fewer than 2 classes, or a name used twice
        raise ParseError(f"malformed classes file {path}: {exc}") from exc


def universe_digest(universe: ClassUniverse) -> str:
    """Stable sha256 of the class universe, for artifact cross-checks."""
    import hashlib  # here, not at the top: commands that hash nothing skip loading OpenSSL

    canonical = json.dumps(
        [[i, name] for i, name in enumerate(universe.names)], separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    import hashlib

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
        text = str(raw)
        try:
            index = int(text)  # not int(text.strip()): str.strip also drops U+001C-U+001F
        except ValueError:
            resolved = universe.index_of(text)
            if resolved is None:
                resolved = universe.index_of(text.strip())
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


def _checked(universe: ClassUniverse, columns: tuple[Any, Any, Any], lines: Sequence[int],
             error: DataError | None) -> Dataset:
    """The dataset of a file's ids, labels and probabilities, or its first problem in file order.

    ``lines`` is each row's 1-based line.  ``error`` is the parse error that stopped
    reading, if any; the rows before it are checked first.  Duplicate ids come last.
    """
    dataset = Dataset(universe, *columns, lines=lines)
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


def _row_columns(parsed: list[tuple[str, int, list[float]]], k: int) -> tuple[Any, Any, np.ndarray]:
    ids, labels, probs = zip(*parsed) if parsed else ((), (), ())
    return ids, labels, np.array(probs, dtype=np.float64).reshape(len(ids), k)


def _is_jsonl(path: str | Path) -> bool:
    return Path(path).suffix.lower() in (".jsonl", ".ndjson")


def load_probabilities(path: str | Path, universe: ClassUniverse | None = None) -> Dataset:
    """Load a labeled probability file (CSV or JSONL) into a Dataset.

    The suffix picks the format: ``.jsonl`` and ``.ndjson`` are JSONL, any
    other is CSV.  When no universe is given, one is inferred from the file
    with generic class names (labels must then be numeric indices).  Any
    parse error or dataset violation raises with the 1-based line number of
    its row.
    """
    if _is_jsonl(path):
        return _load_jsonl(path, universe)
    return _load_csv(path, universe)


def require_samples(dataset: Dataset, path: str | Path, what: str) -> Dataset:
    """``dataset``, loaded from ``path``, unless it holds no sample: then a ParseError.

    The error names ``what`` and the file, and cites the line after its last
    record, as :func:`load_predictions` does for a file short of sets: line 2,
    after a CSV header, or line 1 of a JSONL file.
    """
    if not len(dataset):
        raise ParseError(f"{what} {path} holds no samples", line=1 if _is_jsonl(path) else 2)
    return dataset


def _load_csv(path: str | Path, universe: ClassUniverse | None) -> Dataset:
    text = _read_text(path)
    c_reader, lines = "\x1f" not in text, text.splitlines()
    del text  # its lines hold the same characters: one copy is enough while they are parsed
    if not lines:
        raise ParseError("empty file: missing header", line=1)
    header = lines[0].split(",")
    if len(header) < 4 or header[0] != "sample_id" or header[1] != "true_label":
        raise ParseError("unexpected UTF-8 byte-order mark (BOM)" if header[0][:1] == "\ufeff"
                         else "header must be sample_id,true_label,p_0,...,p_{K-1} with K >= 2",
                         line=1)
    if universe is None:
        universe = ClassUniverse.generic(len(header) - 2)
    rows, numbers = _non_blank(lines[1:], 2)
    columns, error = _csv_columns(rows, numbers, universe, len(header), c_reader)
    del lines, rows  # the row texts go before the dataset is built and validated
    return _checked(universe, columns, numbers, error)


def _csv_columns(
    rows: list[str], lines: Sequence[int], universe: ClassUniverse, width: int, c_reader: bool
) -> tuple[tuple[list[str], Any, np.ndarray], DataError | None]:
    """Ids, labels and the (n, K) matrix of the rows before the first bad one, and its error.

    ``rows`` are the non-blank CSV rows, ``lines`` their 1-based lines.  One
    call of numpy's C reader splits each row into its raw id and label
    strings and its K numbers, and rejects a row of any other width; each
    distinct label string then goes through :func:`_resolve_label` once.  When
    either rejects a row, a cell or a label, or ``c_reader`` is false (the text holds
    a U+001F, which it strips around a cell), the row loop reads each row with
    ``float()``, to the same bits, checking its field count (``width`` is the
    header's), probability count, label and values in that order.
    """
    k = universe.k
    if c_reader and rows:  # loadtxt warns on no data
        # labels stay strings: the C reader would strip U+001F around an int64 too
        dtype = [("id", object), ("label", object), ("p", np.float64, (k,))]
        try:
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                               encoding=None)
            raw = table["label"].tolist()
            index = {label: _resolve_label(label, universe, None) for label in set(raw)}
            labels = np.fromiter(map(index.__getitem__, raw), np.int64, len(raw))
            return (table["id"].tolist(), labels, table["p"]), None
        except ValueError:  # a bad row or label, or a spelling only float() reads, such as 1_0
            pass

    def parse(row: str, line: int) -> tuple[str, int, list[float]]:
        fields = row.split(",")
        if len(fields) < 3:
            raise ParseError(f"expected {width} fields, got {len(fields)}", line=line)
        _check_width(len(fields) - 2, universe, line)
        label = _resolve_label(fields[1], universe, line)
        try:
            return fields[0], label, [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise ParseError(f"bad probability value: {exc}", line=line) from exc

    parsed, error = _parse_rows(rows, lines, parse)
    return _row_columns(parsed, k), error


def _load_jsonl(path: str | Path, universe: ClassUniverse | None) -> Dataset:
    def parse(row: str, line: int) -> tuple[str, int, list[float]]:
        nonlocal universe
        _, sample_id, raw_label, probs = _json_record(row, line, ("true_label", "probs"),
                                                      "malformed record")
        if type(probs) is not list or not all(type(v) in (int, float) for v in probs):
            raise ParseError("probs is not a JSON array of numbers", line=line)
        try:
            values = [float(v) for v in probs]
        except OverflowError as exc:
            raise ParseError(f"probs entry out of float range: {exc}", line=line) from exc
        if universe is None:
            try:
                universe = ClassUniverse.generic(len(values))
            except DataError as exc:
                raise ParseError(str(exc), line=line) from exc  # fewer than 2 probs
        label = _resolve_label(raw_label, universe, line)
        _check_width(len(values), universe, line)
        return sample_id, label, values

    rows, lines = _non_blank(_read_text(path, lf_lines=True).split("\n"), 1)
    parsed, error = _parse_rows(rows, lines, parse)
    del rows
    if universe is None:  # no row, or the first row failed before its probs were counted
        raise error or ParseError("empty JSONL file: cannot infer the class universe", line=1)
    columns = _row_columns(parsed, universe.k)
    del parsed  # the row texts and per-row lists go before the dataset is built and validated
    return _checked(universe, columns, lines, error)


# The loader splits the file with str.splitlines and each row on ",", with
# no quoting, so a cell (an id, or a class name in the report CSV) may hold
# no comma, quote or line-breaking character, nor a lone surrogate: no UTF-8.
_CSV_UNSAFE_ID = re.compile('[,"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ud800-\udfff]')


def require_csv_safe(cells, what: str) -> None:
    """A DataError naming ``what`` and the first cell that a CSV cell cannot hold."""
    for cell in cells:
        if _CSV_UNSAFE_ID.search(cell):
            raise DataError(
                f"{what} {cell!r} cannot be written to CSV:"
                " it contains a comma, a double quote, a line break or a lone surrogate"
            )


def dataset_csv_text(dataset: Dataset) -> str:
    require_csv_safe(dataset.ids, "sample_id")
    header = "sample_id,true_label," + ",".join(f"p_{i}" for i in range(dataset.universe.k))
    rows = zip(dataset.ids, dataset.labels.tolist(), dataset.probs.tolist())
    return "\n".join([header, *(f"{sample_id},{label}," + ",".join(map(repr, probs))
                               for sample_id, label, probs in rows)]) + "\n"


def dataset_jsonl_text(dataset: Dataset) -> str:
    rows = zip(dataset.ids, dataset.labels.tolist(), dataset.probs.tolist())
    return "".join(json.dumps({"sample_id": sample_id, "true_label": label, "probs": probs}) + "\n"
                   for sample_id, label, probs in rows)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write JSONL for a ``.jsonl`` or ``.ndjson`` suffix, CSV otherwise."""
    text = dataset_jsonl_text(dataset) if _is_jsonl(path) else dataset_csv_text(dataset)
    write_atomic(path, text)


# ---------------------------------------------------------------------------
# prediction sets


def write_predictions(
    sets: PredictionSets, path: str | Path, labels: np.ndarray | None = None
) -> None:
    """Write one prediction JSONL line per set, with ``true_label`` when labels are given.

    Each line is what ``json.dumps`` writes for the record: ids are escaped
    by its ASCII string encoder, and a list of ints prints as JSON.  Labels
    that are not one per set are a LengthMismatchError, and no file is written.
    """
    if labels is None:
        ends = ["}\n"] * len(sets)
    else:
        labels = np.asarray(labels)
        if labels.shape != (len(sets),):
            raise LengthMismatchError(
                f"{len(sets)} prediction sets vs labels of shape {labels.shape}")
        ends = [f', "true_label": {label}}}\n' for label in labels.tolist()]
    digits = np.array(list(map(str, range(sets.mask.shape[1]))), dtype=object)
    write_atomic(path, "".join(
        f'{{"sample_id": {sample_id}, "members": [{", ".join(members)}], '
        f'"set_size": {len(members)}{end}'
        for sample_id, members, end in zip(
            map(encode_basestring_ascii, sets.ids),
            sets.by_set(digits[np.nonzero(sets.mask)[1]]), ends)
    ))


# The line write_predictions writes.  json.loads checks the ids and set sizes
# it captures; a true_label is only checked, as a JSON integer.
_WRITTEN_LINE = (r'^\{"sample_id": ("[^"\\\n]*(?:\\.[^"\\\n]*)*"), "members": \[([0-9, ]*)\], '
                 r'"set_size": ([0-9]+)(?:, "true_label": -?(?:0|[1-9][0-9]*))?\}$')


def _written_predictions(text: str, k: int) -> tuple[list[str], np.ndarray, range] | None:
    """The ids, member cells and lines of a file in the layout :func:`write_predictions` writes.

    Each member of set ``i`` is the cell ``i * k + member``.  Every line must
    match that layout, with JSON ids and integers, members strictly ascending
    in [0, k) and each ``set_size`` their count.  Any other file gives None,
    and :func:`load_predictions` reads it line by line.
    """
    rows = re.findall(_WRITTEN_LINE, text, re.M)
    n = len(rows)
    if n != text.count("\n") or not text.endswith("\n"):  # a line that does not match
        return None
    ids, members, sizes = zip(*rows)
    # The members of all sets must be digit runs, each pair joined by ", " and nothing
    # else: each comma has the one space after it, each space a comma before it, and no
    # run is empty.  np.fromstring then reads the text to its end; what it makes of
    # other text (an empty run read as 0, or an error) depends on the numpy version.
    joined = ", ".join(filter(None, members))
    separators = joined.count(", ")
    if (not joined.count(",") == separators == joined.count(" ")
            or ", , " in joined or joined[:1] == "," or joined[-1:] == " "):
        return None
    flat = np.fromstring(joined, dtype=np.int64, sep=",")
    if flat.size and flat.max() >= k:
        return None
    # A run with a leading zero, which JSON does not allow, has more digits than its
    # value in [0, k): then the values' digits fall short of the text's.
    digits = flat.size + sum(np.count_nonzero(flat >= 10 ** e) for e in range(1, len(str(k - 1))))
    if digits != len(joined) - 2 * separators:
        return None
    counts = (np.fromiter(map(str.count, members, repeat(",")), np.int64, n)
              + np.fromiter(map(bool, members), bool, n))
    try:
        ids = json.loads(f"[{','.join(ids)}]")
        if json.loads(f"[{','.join(sizes)}]") != counts.tolist():
            return None
    except (ValueError, OverflowError):  # ValueError: JSONDecodeError, or over 4300 digits
        return None
    cells = np.repeat(np.arange(n) * k, counts) + flat
    if np.any(np.diff(cells) <= 0):
        return None
    return ids, cells, range(1, n + 1)


def load_predictions(path: str | Path, k: int, ids: Sequence[str] | None = None) -> PredictionSets:
    """Read prediction JSONL into sets over k classes.

    A file in the layout :func:`write_predictions` writes is read in one pass.
    Any other is read line by line, each record checked once as it is decoded:
    ``members`` that is not a JSON array, a member that is not an int in
    [0, k) (bools included), a ``set_size`` other than the count of distinct
    members, or a line that is not JSON, is a ParseError with its line.

    With ``ids``, the sample ids of the dataset the sets are for, the file
    must hold one set per id, and a set's non-empty ``sample_id`` must be the
    id at its position.  Otherwise the ParseError names the file, and cites
    the line of the first set that does not align, of the first set past
    the ids, or after the last set when there are fewer sets than ids.
    """
    from .predictor import PredictionSets

    text = _read_text(path, lf_lines=True)
    set_ids, cells, lines = _written_predictions(text, k) or _row_predictions(text, k)
    mask = np.zeros((len(set_ids), k), dtype=bool)
    mask.reshape(-1)[cells] = True
    sets = PredictionSets(set_ids, mask)
    if ids is None:
        return sets
    if len(sets) > len(ids):
        raise ParseError(f"{path} holds {len(sets)} prediction sets,"
                         f" {len(sets) - len(ids)} more than the {len(ids)} labels",
                         line=lines[len(ids)])
    if len(sets) < len(ids):
        raise ParseError(f"{path} ends after {len(sets)} prediction sets,"
                         f" {len(ids) - len(sets)} short of the {len(ids)} labels",
                         line=lines[-1] + 1 if lines else 1)
    row = sets.misaligned(ids)
    if row is not None:
        raise ParseError(f"prediction for {sets.ids[row]!r} in {path} does not align"
                         f" with sample {ids[row]!r}", line=lines[row])
    return sets


def _row_predictions(text: str, k: int) -> tuple[Sequence[str], np.ndarray, Sequence[int]]:
    """The ids, member cells and lines of prediction JSONL text read line by line."""

    def parse(row: str, line: int) -> tuple[str, list[int]]:
        obj, sample_id, members = _json_record(row, line, ("members",), "bad prediction record")
        if type(members) is not list:
            raise ParseError(f"members {members!r} is not a JSON array", line=line)
        for m in members:
            if type(m) is not int or not 0 <= m < k:
                raise ParseError(f"member {m!r} is not a class index in [0, {k})", line=line)
        distinct = len(set(members))
        size = obj.get("set_size", distinct)
        if type(size) is not int:
            raise ParseError(f"set_size {size!r} is not a JSON integer", line=line)
        if size != distinct:
            raise ParseError(f"set_size {size!r} differs from the {distinct} members", line=line)
        return sample_id, members

    rows, lines = _non_blank(text.split("\n"), 1)
    parsed, error = _parse_rows(rows, lines, parse)
    if error is not None:
        raise error
    ids, all_members = zip(*parsed) if parsed else ((), ())
    cells = (np.repeat(np.arange(len(ids)) * k, list(map(len, all_members)))
             + np.fromiter(chain.from_iterable(all_members), np.intp))
    return ids, cells, lines


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
    from .rng import output_block

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
    order = np.array(_shuffled_indices(len(dataset), spec.seed), dtype=np.intp)
    labels = dataset.labels[order]
    # a plain split slices one group, a stratified one slices each class in label order
    groups = [order[labels == c] for c in np.unique(labels)] if spec.stratified else [order]
    fractions = [f for _, f in spec.fractions]
    # order[:0] starts each part: a stratified split of 0 rows has no groups
    pieces = [[order[:0]] for _ in fractions]
    for group in groups:
        cuts = np.cumsum(largest_remainder_sizes(len(group), fractions))[:-1]
        for part, piece in zip(pieces, np.split(group, cuts)):
            part.append(piece)
    parts: dict[str, Dataset] = {}
    for (name, _), part in zip(spec.fractions, pieces):
        rows = np.concatenate(part)
        if not len(rows):
            logger.warning("split part %r is empty", name)
        ids = [dataset.ids[i] for i in rows.tolist()]
        parts[name] = Dataset(dataset.universe, ids, dataset.labels[rows], dataset.probs[rows])
    return parts


# ---------------------------------------------------------------------------
# reports and curves


def _cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def report_rows(report: EvaluationReport) -> list[list[str]]:
    """The cells of each :func:`report_csv_text` row, for the CSV and the evaluate summary."""
    rows = zip(report.class_names, report.per_class_recall,
               report.per_class_avg_set_size, report.per_class_strict_coverage)
    overall = ("overall", report.accuracy, report.overall_avg_set_size,
               report.overall_strict_coverage)
    return [[name, *map(_cell, values)] for name, *values in (*rows, overall)]


def report_csv_text(report: EvaluationReport) -> str:
    """Per-class metric table: class rows, then an overall row.

    The overall row's recall column carries the accuracy.  A class name
    that :func:`require_csv_safe` rejects is a DataError.
    """
    require_csv_safe(report.class_names, "class name")
    lines = ["class,recall,avg_set_size,strict_coverage", *map(",".join, report_rows(report))]
    return "\n".join(lines) + "\n"


# What json.dumps(indent=2) writes between two cells of a row, and between two
# rows, of the report object's last value, the confusion matrix.
_CELL, _ROW = ",\n      ", "\n    ],\n    [\n      "


def _matrix_text(counts: np.ndarray) -> str:
    """``json.dumps(counts.tolist(), indent=2)`` as the report object's last value.

    The text of the all-zero matrix is one template, and numpy computes the
    offset of each nonzero cell's ``"0"`` in it.  One loop over the nonzero
    cells, in order, takes the template text up to each one and the count's
    own text, then the template's tail: Python-level work is O(nonzero
    cells), never more than ``n_test``, not O(cells).
    """
    rows, cols = counts.shape
    if not counts.size:  # no rows, or rows of no cells
        return json.dumps(counts.tolist(), indent=2).replace("\n", "\n  ")
    template = _ROW.join([_CELL.join(["0"] * cols)] * rows)
    flat = np.flatnonzero(counts)
    starts = flat * (1 + len(_CELL)) + flat // cols * (len(_ROW) - len(_CELL))  # of each "0"
    pieces, end = [], 0
    for start, count in zip(starts.tolist(), counts.reshape(-1)[flat].tolist()):
        pieces += template[end:start], str(count)
        end = start + 1
    pieces.append(template[end:])
    return f"[\n    [\n      {''.join(pieces)}\n    ]\n  ]"


def report_json_text(report: EvaluationReport) -> str:
    """``json.dumps(report.to_json_obj(), indent=2)`` and a newline.

    ``json.dumps`` encodes with pure Python whenever ``indent`` is set, so
    it writes every key but the last; the last, the K x K confusion matrix,
    is :func:`_matrix_text`, one loop over the nonzero counts (never more
    than ``n_test``) rather than over K² cells.
    """
    obj = report.to_json_obj()
    del obj["confusion_matrix"]  # the last key
    head = json.dumps(obj, indent=2)[:-2]  # up to the closing "\n}"
    return f'{head},\n  "confusion_matrix": {_matrix_text(report.confusion)}\n}}\n'


def write_report(report: EvaluationReport, json_path: str | Path, csv_path: str | Path
                 ) -> None:
    """Write the report JSON and the per-class report CSV together (:func:`write_texts`)."""
    write_texts([(json_path, report_json_text(report)), (csv_path, report_csv_text(report))])


def write_curve(text: str, path: str | Path) -> None:
    """Write the curve CSV text of :func:`~conformal_gate.calibration.export_calibration_curve`."""
    write_atomic(path, text)
