"""The column checks of ``load_predictions`` against the row-at-a-time loader.

Files hold valid prediction records, blank lines and records corrupted one
field at a time, or lines that are not one JSON value.  ``load_predictions``
must give the same ids and mask as ``row_oracle.load_predictions_rows``, or
the same error type, message and line.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_gate.io import ParseError, load_predictions

from row_oracle import load_predictions_rows

BAD_IDS = (None, 1, True, [], {}, 1.5)
BAD_MEMBERS = ("", {}, "01", None, 3, [[0]], [True], [1.0], [-1], [10**30], ["0"])
BAD_SIZES = (True, 1.0, -1, 10**30, "1", None, [1])
BAD_LINES = ("{oops", "[" * 5000, "[1] [2]", '{"a": [1', "\ufeff{}", "\xa0{}", "1 x", "}")
BAD_RECORDS = ([], "x", 5, None, {"members": [0]}, {"sample_id": "a"})


def outcome(load):
    try:
        sets = load()
    except ParseError as exc:
        return "error", type(exc), str(exc), exc.line
    return "sets", sets.ids, sets.mask.shape, sets.mask.tobytes()


@st.composite
def prediction_files(draw):
    k = draw(st.integers(1, 6))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        members = draw(st.lists(st.integers(0, k - 1), max_size=k + 2))
        record = {"sample_id": draw(st.text(max_size=4)), "members": members}
        if draw(st.booleans()):
            record["set_size"] = len(set(members))
        if draw(st.booleans()):
            record["true_label"] = draw(st.integers(0, k - 1))
        fault = draw(st.sampled_from(["none", "none", "id", "members", "size", "record", "line"]))
        if fault == "id":
            record["sample_id"] = draw(st.sampled_from(BAD_IDS))
        elif fault == "members":
            record["members"] = draw(st.sampled_from(BAD_MEMBERS + ([k],)))
        elif fault == "size":
            record["set_size"] = draw(st.sampled_from(BAD_SIZES + (len(set(members)) + 1,)))
        elif fault == "record":
            record = draw(st.sampled_from(BAD_RECORDS))
        text = (draw(st.sampled_from(BAD_LINES)) if fault == "line"
                else json.dumps(record, ensure_ascii=draw(st.booleans())))
        lines.append(draw(st.sampled_from(["", " ", "\t", "  "])) + text
                     + draw(st.sampled_from(["", " ", "\t "])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return k, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(prediction_files())
@example((2, '{"sample_id": "a", "members": [0]}\n[1] [2]\n'))
@example((2, '{"sample_id": "a", "members": {}}\n'))
@example((2, '{"sample_id": "a", "members": [1], "set_size": true}\n'))
def test_column_checks_equal_the_per_row_checker(case):
    k, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sets.jsonl"
        path.write_text(text, encoding="utf-8")
        expected = outcome(lambda: load_predictions_rows(path, k))
        assert outcome(lambda: load_predictions(path, k)) == expected

