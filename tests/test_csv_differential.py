"""The bulk CSV loader against the row-at-a-time loader in ``row_oracle``.

Files mix valid rows with blank and whitespace-only lines, wrong widths,
every float spelling ``float()`` accepts or rejects, label names, labels out
of range and duplicate ids.  A file that loads must give the same ids and
labels and bit-identical probabilities; a file that fails must fail with the
same exception type, message and line, after the same log messages.

The bulk loader reads each row's id, label and numbers with one call of
numpy's C reader; a file it rejects, or one holding a U+001F, is read by one
row loop with ``float()`` up to its first bad row.  The pools hold cells on
which the two part (``0.5#1``, NUL, U+001F, hex floats, Unicode digits), ids
and labels the C reader might strip or convert differently from
``str.split`` and ``int()``, and rows with a trailing comma.  The spellings
the writers produce, and files labelled by class name, must load through one
C reader call and no row loop.
"""

from __future__ import annotations

import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate import io as cgio
from conformal_gate.core_types import ClassUniverse
from conformal_gate.io import _csv_columns, _load_csv, write_dataset
from conformal_gate.synth import SyntheticSpec, generate

from row_oracle import load_csv_rows

NAMES = ("cat", "dog", "1", "eel", "fox")
BLANKS = ("", " ", "\t", "  \t ")
ZERO = ("0", "0.0", " 0", "+0", "-0", "0e5", "0_0", ".0 ", "1e-400", "\xa00 ")
ONE = ("1", "1.", " 1.0 ", "+1e0", "1_0e-1", "10e-1", "1.0000000001", "0.9999999",
       "1.0000005", "1.0001", "0.9995", "1.01")  # the last four: silent, warn, warn, reject
OTHER = ("0.5", ".5", "+1e-3", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.1",
         "2", "abc", "", "0x1", "1__0", "1,5", " ", "1e", "١",
         # cells on which numpy's C reader and float() may part
         "0.5#1", "#", "\x00", "0.5\x00", "\xa00.5 ", "0x1p-1", "٠.٥", "\x1f0.5", "0.5\x1f")
LABELS = ("0", "1", "2", " 1", "+1", "1_0", "-1", "3", "5", "", "1.0", "cat", " dog ",
          "zebra", "\xa01\xa0", "99999999999999999999", "nan",
          "\x1f1", "1\x1f", "٣", "00", "-0", "9" * 5000)
IDS = ("a", "b", "c", "d", " e", "é", "", "#", "f#1", "\x00", "g\x00", "\x1f", "\t", "  ")


@st.composite
def csv_files(draw):
    k = draw(st.integers(2, 4))
    header = "sample_id,true_label," + ",".join(f"p_{i}" for i in range(k))
    rows = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["blank", "good", "good", "good", "odd", "mixed"]))
        if kind == "blank":
            rows.append(draw(st.sampled_from(BLANKS)))
            continue
        width = k + draw(st.sampled_from([0] * 12 + [-1, 1, -k]))
        hot = draw(st.integers(0, max(width - 1, 0)))
        pool = ZERO + ONE + OTHER if kind == "mixed" else None
        cells = [draw(st.sampled_from(pool or (ONE if j == hot else ZERO)))
                 for j in range(width)]
        if kind == "odd" and cells:  # a good row but for one cell
            cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(OTHER))
        names = LABELS if kind == "mixed" else LABELS[:5] + ("cat", " dog ")
        label = draw(st.sampled_from(names))
        trailing = draw(st.sampled_from([""] * 12 + [","]))
        rows.append(",".join([draw(st.sampled_from(IDS)), label] + cells) + trailing)
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from(BLANKS)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    universe = draw(st.sampled_from([None, None, "names", "names", "wrong_k"]))
    if universe == "names":
        universe = ClassUniverse(NAMES[:k])
    elif universe == "wrong_k":
        universe = ClassUniverse.generic(k + 1)
    return ending.join(rows) + draw(st.sampled_from(["", ending])), universe


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(load, path, universe):
    """What a loader returns or raises, with the log messages it emits."""
    handler = _Messages()
    logger = logging.getLogger("conformal_gate")
    logger.addHandler(handler)
    try:
        d = load(path, universe)
        result = ("ok", d.universe, d.ids, d.labels.tobytes(), d.probs.tobytes(), d.probs.shape)
    except ValueError as exc:
        result = ("error", type(exc), str(exc), getattr(exc, "line", None))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_bulk_loader_matches_the_row_loader(case):
    text, universe = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(_load_csv, path, universe) == outcome(load_csv_rows, path, universe)


@pytest.mark.parametrize("row", ["#,0,{},0", "b,1,{},1"])
@pytest.mark.parametrize("cell", sorted(set(ZERO + ONE + OTHER)))
def test_each_spelling_in_an_otherwise_good_file_matches_the_row_loader(tmp_path, cell, row):
    """A random file seldom holds one odd cell and no earlier fault; here each does."""
    path = tmp_path / "d.csv"
    text = "sample_id,true_label,p_0,p_1\na,0,1,0\n" + row.format(cell) + "\nc,1,0,1\n"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(_load_csv, path, None) == outcome(load_csv_rows, path, None)


@pytest.mark.parametrize("row", [*(f"{i},0,0,1" for i in IDS),
                                 *(f"b,{label},0,1" for label in LABELS),
                                 "b,1,0,1,", "b,1,0,1,,", "b,1,1", "b,1,0,1,0"])
def test_each_id_label_and_width_in_an_otherwise_good_file_matches_the_row_loader(tmp_path, row):
    """Every pooled id and label, a trailing comma, and K + 1 and K + 3 fields, one at a time."""
    path = tmp_path / "d.csv"
    text = "sample_id,true_label,p_0,p_1\na,0,1,0\n" + row + "\nc,1,0,1\n"
    path.write_text(text, encoding="utf-8", newline="")
    for universe in (None, ClassUniverse(("cat", "dog"))):
        assert outcome(_load_csv, path, universe) == outcome(load_csv_rows, path, universe)


# What dataset_csv_text writes for a float64, and the shortest float32
# string a float32 softmax export writes.
WRITTEN = st.one_of(st.floats().map(repr), st.floats(width=32).map(lambda v: str(np.float32(v))))


def spied(call):
    """What ``call()`` gives, its ``np.loadtxt`` calls and the CSV rows it checks one by one."""
    counts = {"loadtxt": 0, "rows": 0}

    def counted(name, function):
        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return spy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        patch.setattr(cgio, "_check_width", counted("rows", cgio._check_width))
        result = call()
    return result, counts["loadtxt"], counts["rows"]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5), st.lists(WRITTEN, min_size=1, max_size=16))
def test_written_spellings_load_bit_exactly_through_one_c_reader_call(k, cells):
    cells = cells + ["0"] * (-len(cells) % k)
    rows = [f"s{i},0," + ",".join(cells[i:i + k]) for i in range(0, len(cells), k)]
    lines = range(2, len(rows) + 2)
    ((_, _, probs), error), calls, checked = spied(
        lambda: _csv_columns(rows, lines, ClassUniverse.generic(k), k + 2, True))
    assert (error, calls, checked) == (None, 1, 0)
    expected = np.array([float(cell) for cell in cells]).reshape(-1, k)
    assert probs.tobytes() == expected.tobytes()


def float32_export(path: Path) -> None:
    """A softmax export printed as float32, so the mass policy renormalizes most rows."""
    data = generate(SyntheticSpec(k=9, seed=3), 200)
    rows = ["sample_id,true_label," + ",".join(f"p_{j}" for j in range(9))]
    rows += [f"img{i},{label}," + ",".join(map(str, probs.astype(np.float32)))
             for i, (label, probs) in enumerate(zip(data.labels.tolist(), data.probs))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def named_labels(path: Path) -> ClassUniverse:
    path.write_text("sample_id,true_label,p_0,p_1\na,cat,1,0\nb, dog ,0,1\nc,1,0,1\n")
    return ClassUniverse(("cat", "dog"))


def underscore_cell(path: Path) -> None:
    """A spelling only ``float()`` reads: the C reader rejects it, and the row loop reads all."""
    path.write_text("sample_id,true_label,p_0,p_1\na,0,1_0e-1,0\nb,1,0,1\n")


@pytest.mark.parametrize("make, calls, checked", [
    (float32_export, 1, 0),
    (lambda path: write_dataset(generate(SyntheticSpec(k=4, seed=5), 50), path), 1, 0),
    (named_labels, 1, 0),
    (underscore_cell, 1, 2),
], ids=["float32-export", "write_dataset", "class-names", "underscore-cell"])
def test_a_file_the_row_check_accepts_is_read_by_the_c_reader_alone(tmp_path, make, calls,
                                                                    checked):
    path = tmp_path / "d.csv"
    universe = make(path)
    result, *counts = spied(lambda: outcome(_load_csv, path, universe))
    assert counts == [calls, checked]
    assert result[0][0] == "ok"
    assert result == outcome(load_csv_rows, path, universe)


GOOD_ROWS = "a,0,0.25,0.75\nb,1,0.5,0.5\nc,1,0.125,0.875\n"


@pytest.mark.parametrize("last, calls", [
    ("d,0,0.5,abc", 1),
    ("d,7,0.5,0.5", 1),
    ("d,0,0.5", 1),
    ("d,0,0.5,\x1f0.5", 0),  # the C reader would strip the U+001F: it is not called
], ids=["bad-last-cell", "bad-last-label", "short-last-row", "u001f-cell"])
def test_a_file_the_c_reader_rejects_is_read_by_one_row_pass_to_its_first_bad_row(
        tmp_path, last, calls):
    path = tmp_path / "d.csv"
    path.write_text("sample_id,true_label,p_0,p_1\n" + GOOD_ROWS + last + "\n",
                    encoding="utf-8")
    result, *counts = spied(lambda: outcome(_load_csv, path, None))
    assert counts == [calls, 4]
    assert result == outcome(load_csv_rows, path, None)


def test_a_u001f_in_the_header_only_gives_the_c_readers_bits(tmp_path):
    """The text is tested for U+001F once, so the header's sends the rows to the row loop."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    float32_export(plain)
    text = plain.read_text(encoding="utf-8")
    marked.write_text(text.replace("p_8", "p\x1f8", 1), encoding="utf-8")
    c_read, *c_counts = spied(lambda: outcome(_load_csv, plain, None))
    row_read, *row_counts = spied(lambda: outcome(_load_csv, marked, None))
    assert c_counts == [1, 0]
    assert row_counts == [0, 200]
    assert c_read[0][0] == "ok"
    assert row_read == c_read


def test_the_c_reader_resolves_each_distinct_label_once(tmp_path, monkeypatch):
    """A per-row label path beside the C reader would resolve each row's label."""
    labels = ["Shredder", "1", "Steel Sheets", " Shredder ", "Shredder", "1"] * 20
    path = tmp_path / "d.csv"
    path.write_text("sample_id,true_label,p_0,p_1\n"
                    + "".join(f"s{i},{label},0.5,0.5\n" for i, label in enumerate(labels)))
    resolve, calls = cgio._resolve_label, []

    def counted(raw, universe, line):
        calls.append(raw)
        return resolve(raw, universe, line)

    monkeypatch.setattr(cgio, "_resolve_label", counted)
    dataset = _load_csv(path, ClassUniverse(("Steel Sheets", "Shredder")))
    assert sorted(calls) == sorted(set(labels))
    assert dataset.labels.tolist() == [1, 1, 0, 1, 1, 1] * 20
