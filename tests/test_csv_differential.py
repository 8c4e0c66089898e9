"""The bulk CSV loader against the row-at-a-time loader in ``row_oracle``.

Files mix valid rows with blank and whitespace-only lines, wrong widths,
every float spelling ``float()`` accepts or rejects, label names, labels out
of range and duplicate ids.  A file that loads must give the same ids and
labels and bit-identical probabilities; a file that fails must fail with the
same exception type, message and line, after the same log messages.
"""

from __future__ import annotations

import logging
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate.core_types import ClassUniverse
from conformal_gate.io import _load_csv

from row_oracle import load_csv_rows

NAMES = ("cat", "dog", "1", "eel", "fox")
BLANKS = ("", " ", "\t", "  \t ")
ZERO = ("0", "0.0", " 0", "+0", "-0", "0e5", "0_0", ".0 ")
ONE = ("1", "1.", " 1.0 ", "+1e0", "1_0e-1", "10e-1", "1.0000000001", "0.9999999",
       "1.0000005", "1.0001", "0.9995", "1.01")  # the last four: silent, warn, warn, reject
OTHER = ("0.5", ".5", "+1e-3", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.1",
         "2", "abc", "", "0x1", "1__0", "1,5", " ", "1e", "١")
LABELS = ("0", "1", "2", " 1", "+1", "1_0", "-1", "3", "5", "", "1.0", "cat", " dog ",
          "zebra", "\xa01\xa0", "99999999999999999999", "nan")
IDS = ("a", "b", "c", "d", " e", "é", "")


@st.composite
def csv_files(draw):
    k = draw(st.integers(2, 4))
    header = "sample_id,true_label," + ",".join(f"p_{i}" for i in range(k))
    rows = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["blank", "good", "good", "good", "mixed"]))
        if kind == "blank":
            rows.append(draw(st.sampled_from(BLANKS)))
            continue
        width = k + draw(st.sampled_from([0] * 12 + [-1, 1, -k]))
        hot = draw(st.integers(0, max(width - 1, 0)))
        pool = ZERO + ONE + OTHER if kind == "mixed" else None
        cells = [draw(st.sampled_from(pool or (ONE if j == hot else ZERO)))
                 for j in range(width)]
        names = LABELS if kind == "mixed" else LABELS[:5] + ("cat", " dog ")
        label = draw(st.sampled_from(names))
        rows.append(",".join([draw(st.sampled_from(IDS)), label] + cells))
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
