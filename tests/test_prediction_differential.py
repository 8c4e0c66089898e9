"""``load_predictions`` against the row-at-a-time loader.

Files hold valid prediction records, blank lines and records corrupted one
field at a time, or lines that are not one JSON value.  Others are written
in ``write_predictions``' layout, which ``load_predictions`` reads in one
pass, with lines changed to text that layout does not hold, so that they
are read line by line.  ``load_predictions`` must give the same ids and mask
as ``row_oracle.load_predictions_rows``, or the same error type, message
and line.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_gate import io as cgio
from conformal_gate.io import load_predictions, write_predictions
from conformal_gate.predictor import PredictionSets

from row_oracle import load_predictions_rows

BAD_IDS = (None, 1, True, [], {}, 1.5)
BAD_MEMBERS = ("", {}, "01", None, 3, [[0]], [True], [1.0], [-1], [10**30], ["0"])
BAD_SIZES = (True, 1.0, -1, 10**30, "1", None, [1])
BAD_LINES = ("{oops", "[" * 5000, "[1] [2]", '{"a": [1', "\ufeff{}", "\xa0{}", "1 x", "}")
BAD_RECORDS = ([], "x", 5, None, {"members": [0]}, {"sample_id": "a"})


# Field texts of a written line replaced by ones the writer never writes: JSON
# it does not write, text that is not JSON, or values out of range.
BIG = str(2**63)
HUGE = "9" * 5000  # beyond the 4300 digits json.loads converts: bad JSON on its line
ODD_FIELDS = {
    "sample_id": ['"\\/x"', '"\\u00e9"', '"\\q"', '"\\u12"', '"é"', '"\u2028"', '"\x85"',
                  '"\x01"', '"a\\"', "1"],
    "members": ["[01]", "[-0]", "[0, 01]", "[00]", f"[{BIG}]", "[1, 1]", "[0, 0]", "[1, 0]",
                "[0,1]", "[ 0]", "[0 ]", "[0,  1]", "[0, 1,]", "[0, ]", "[, 0]", "[ ]", "[,]",
                "[1.0]", "[true]", "[]", "[0, 1, 2, 3, 4, 5]", f"[{HUGE}]",
                # leading zeros and empty runs after a first member, and 19 and 20 digits
                "[0, 00]", "[1, 010]", "[007]", "[0, , 1]", "[0,, 1]", "[9223372036854775807]",
                "[9999999999999999999]", "[0, 10000000000000000000]"],
    "set_size": ["01", "-0", "00", BIG, HUGE, "-1", "1.0", "true", "0", "2"],
    "true_label": ["01", "-0", "00", BIG, f"-{BIG}0", "-1", "1.0", "null", '"x"'],
}
# Whole lines from field texts: keys dropped or reordered, other spacing, and
# members that their set_size counts but that are out of range or not integers.
ODD_LINES = (
    lambda fields: layout({k: v for k, v in fields.items() if k != "set_size"}),
    lambda fields: layout({"set_size": fields["set_size"], **fields}),
    lambda fields: layout({"true_label": "0", **fields}),
    lambda fields: " " + layout(fields),
    lambda fields: layout(fields) + " ",
    lambda fields: layout(fields) + "\t",
    lambda fields: layout(fields).replace(": ", ":", 1),
    lambda fields: layout(fields).replace(", ", ",  ", 1),
    lambda fields: layout(fields).replace("{", "{ ", 1),
    lambda fields: layout(fields)[:-1] + " }",
    lambda fields: layout({**fields, "members": "[3]", "set_size": "1"}),
    lambda fields: layout({**fields, "members": f"[{BIG}]", "set_size": "1"}),
    lambda fields: layout({**fields, "members": "[ ]", "set_size": "1"}),
)


def layout(fields: dict) -> str:
    """The line ``write_predictions`` writes for these field texts."""
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}"


def outcome(load):
    try:
        sets = load()
    except cgio.ParseError as exc:  # any other error fails the test
        return "error", type(exc), str(exc), getattr(exc, "line", None)
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


def check(k: int, text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sets.jsonl"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(lambda: load_predictions_rows(path, k))
        assert outcome(lambda: load_predictions(path, k)) == expected


@settings(max_examples=300, deadline=None)
@given(prediction_files())
@example((2, '{"sample_id": "a", "members": [0]}\n[1] [2]\n'))
@example((2, '{"sample_id": "a", "members": {}}\n'))
@example((2, '{"sample_id": "a", "members": [1], "set_size": true}\n'))
def test_any_file_equals_the_per_row_checker(case):
    check(*case)


@st.composite
def written_files(draw):
    """Files in the writer's layout, some lines or line breaks then changed."""
    k = draw(st.integers(1, 6))
    labeled = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        members = sorted(draw(st.sets(st.integers(0, k - 1))))
        record = {"sample_id": draw(st.text(max_size=4)), "members": members,
                  "set_size": len(members)}
        if labeled:
            record["true_label"] = draw(st.integers(0, k - 1))
        fields = {key: json.dumps(value) for key, value in record.items()}
        assert layout(fields) == json.dumps(record)
        change = draw(st.sampled_from(["none"] * 6 + ["field", "line"]))
        if change == "field":
            key = draw(st.sampled_from(sorted(ODD_FIELDS)))
            fields[key] = draw(st.sampled_from(ODD_FIELDS[key]))
        lines.append(draw(st.sampled_from(ODD_LINES))(fields) if change == "line"
                     else layout(fields))
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    return k, end.join(lines) + draw(st.sampled_from([end] * 6 + [""]))


@settings(max_examples=300, deadline=None)
@given(written_files())
# line 1's set_size is wrong, line 2's too long to convert: line 1's error comes first
@example((1, '{"sample_id": "a", "members": [0], "set_size": 2}\n'
             f'{{"sample_id": "b", "members": [], "set_size": {HUGE}}}\n'))
def test_written_layout_and_its_mutations_equal_the_per_row_checker(case):
    check(*case)


WRITTEN = [{"sample_id": '"a"', "members": "[0, 2]", "set_size": "2", "true_label": "2"},
           {"sample_id": '"b"', "members": "[]", "set_size": "0", "true_label": "0"},
           {"sample_id": '"c"', "members": "[1]", "set_size": "1", "true_label": "1"}]


@pytest.mark.parametrize("row", [0, 1, 2])  # the first set, an empty set and a singleton
@pytest.mark.parametrize("key, text", [(key, text) for key, texts in ODD_FIELDS.items()
                                       for text in texts])
def test_each_odd_field_gives_the_per_row_result(key, text, row):
    lines = list(map(layout, WRITTEN))
    lines[row] = layout({**WRITTEN[row], key: text})
    check(3, "\n".join(lines) + "\n")


@pytest.mark.parametrize("change", ODD_LINES)
def test_each_odd_line_gives_the_per_row_result(change):
    lines = list(map(layout, WRITTEN))
    lines[1] = change(WRITTEN[1])
    check(3, "\n".join(lines) + "\n")


def test_the_first_huge_integer_in_line_order_is_reported():
    lines = list(map(layout, WRITTEN))
    lines[0] = layout({**WRITTEN[0], "set_size": HUGE})
    lines[1] = layout({**WRITTEN[1], "members": f"[{HUGE}9]", "set_size": "1"})
    check(3, "\n".join(lines) + "\n")


@pytest.mark.parametrize("text", ["{0}\n{1}\n\n{2}\n", "\n{0}\n{1}\n{2}\n", "{0}\r\n{1}\r\n{2}\r\n",
                                  "{0}\n{1}\n{2}", "{0}\n{1}\n{2}\n\n", ""])
def test_line_breaks_give_the_per_row_result(text):
    check(3, text.format(*map(layout, WRITTEN)))


@pytest.mark.parametrize("old, new", [(", ", ",  "), ("[0, 1", "[0,1")])
def test_a_written_file_is_read_without_the_line_decoder(tmp_path, old, new):
    ids = ("a", "café", "ls\u2028ps", 'q"\\', "", "日本", "\x00")
    mask = np.random.default_rng(0).random((len(ids), 4)) < 0.5
    mask[0] = True
    path = tmp_path / "sets.jsonl"
    write_predictions(PredictionSets(ids, mask), path, np.arange(len(ids)) % 4)
    calls = []
    parse_rows = cgio._parse_rows

    def spy(rows, lines, parse):
        calls.append(rows)
        return parse_rows(rows, lines, parse)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cgio, "_parse_rows", spy)
        written = outcome(lambda: load_predictions(path, 4))
        assert calls == []
        lines = path.read_text(encoding="utf-8").split("\n")
        assert old in lines[0]  # the full set: members 0, 1, 2, 3
        lines[0] = lines[0].replace(old, new, 1)
        path.write_text("\n".join(lines), encoding="utf-8")
        spaced = outcome(lambda: load_predictions(path, 4))
        assert len(calls) == 1
    assert written == spaced == ("sets", ids, mask.shape, mask.tobytes())
