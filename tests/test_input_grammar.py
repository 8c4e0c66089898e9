"""Every kind of input file the CLI reads, drawn from a small grammar and then mutated.

The five kinds are the dataset CSV, the dataset JSONL, the prediction JSONL,
classes.json and the calibration artifact.  Each file is first rendered
from its grammar: records or rows of tokens, where a token is the value a
valid file holds or, at a per-file rate, one from the pools below.  The
pools hold JSON string escapes (lone surrogates included), numbers at the
float, int64 and 4,300-digit ``int()`` limits, JSON values of the wrong
type, and values nested past the decoder's recursion limit.  Up to two text
mutations follow: an inserted BOM, CR, U+0085, U+2028, U+001C-U+001F or raw
lone surrogate (written with ``surrogatepass``, so the file is not UTF-8),
a truncation, CRLF line ends, the first line alone, or an empty file.
(Grammar-based fuzzing as in Zeller et al., *The Fuzzing Book*, "Fuzzing
with Grammars".)

The file then goes through the commands that read it, by ``main(argv)``,
until one exits nonzero.  Each exits 0, 2 or 3, never 1 and never with an
exception.  On exit 2 stderr cites a line of a line format, or names a JSON
file.  A command that exits nonzero leaves no file it did not find, and what
a command that exits 0 prints can be encoded as UTF-8.
"""

from __future__ import annotations

import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate.cli import main

# Numbers at the edges of float, int64 and the 4,300-digit int() limit, and plain ones.
# Integers past the float range, within the digit limit.
HUGE = ("1" + "0" * 309, "-" + "9" * 400, "9" * 4300)
LIMITS = HUGE + ("5e-324", "1E-400", "1.7976931348623157e308", "1e309", "-1e309",
                 "9223372036854775807", "9223372036854775808", "-9223372036854775809",
                 "0." + "0" * 4300 + "1")
# Past the decoder's limits: integers of 4,301 digits, and values nested too deep.
UNDECODABLE = ("9" * 4301, "-" + "9" * 4301, "[" * 3000 + "]" * 3000,
               '{"a": ' * 3000 + "1" + "}" * 3000)
NUMBERS = ("0", "1", "2", "-1", "0.5", "-0", "-0.0", "1.0", "1e0")
# What Python's json reads beyond the JSON grammar, and cells only float() reads.
JSON_ONLY = ("NaN", "Infinity", "-Infinity")
CSV_ONLY = ("nan", "inf", "1_0", "0x1", "+1", ".5", "1.", " 1 ", "", "\u0661", "\xa00")
# JSON strings: escapes, lone and paired surrogates, and characters that end a line somewhere.
SURROGATES = ('"\\ud800"', '"\\udbff"', '"\\udc00"', '"\\udfff"', '"a\\udc00\\ud800b"')
STRINGS = SURROGATES + (
    '"a"', '""', '"\\u00e9"', '"\xe9"', '"\\ud83d\\ude00"', '"\\u0000"', '"a,b"', '"\\""', '"\\n"',
    '"\\u2028"', '"\u2028"', '"\x85"', '"\\u001f1"', '"\x1f"', '"1"', '"\\\\"', '"\\q"',
    '"all_inclusive"')
# JSON values of the wrong type.
WRONG = ("null", "true", "false", "[]", "{}", '[0.5, "x"]')
# A token in place of a JSON value: each of these kinds a fifth of the time.
JSON_TOKENS = (st.sampled_from(NUMBERS + JSON_ONLY) | st.sampled_from(LIMITS)
               | st.sampled_from(STRINGS) | st.sampled_from(WRONG) | st.sampled_from(UNDECODABLE))
CSV_TOKENS = st.sampled_from(NUMBERS + CSV_ONLY) | st.sampled_from(LIMITS + UNDECODABLE[:2])
# Characters inserted into the text; the last is a lone surrogate, which is not UTF-8.
SPECIALS = ("\ufeff", "\r", "\r\n", "\n", "\x85", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e",
            "\x1f", "\x00", "\x0b", "\x0c", " ", ",", '"', "{", "\ud800")

# The three-class dataset that the commands reading the other kinds run on.
SAMPLES = "sample_id,true_label,p_0,p_1,p_2\na,2,0,0,1\nb,0,1,0,0\nc,1,0,1,0\n"


def token(draw, good: str, tokens: st.SearchStrategy[str], rate: int) -> str:
    """``good``, or at ``rate`` in 20 a token drawn from ``tokens``."""
    return draw(tokens) if draw(st.integers(0, 19)) < rate else good


def record(pairs) -> str:
    return "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}"


def one_hot(draw, k: int) -> tuple[int, list[str]]:
    hot = draw(st.integers(0, k - 1))
    return hot, ["1" if j == hot else "0" for j in range(k)]


@st.composite
def dataset_csv(draw, rate):
    k = draw(st.integers(2, 4))
    rows = ["sample_id,true_label," + ",".join(f"p_{j}" for j in range(k))]
    for i in range(draw(st.integers(1, 4))):
        hot, cells = one_hot(draw, k)
        cells = [token(draw, cell, CSV_TOKENS, rate) for cell in cells]
        label = token(draw, str(hot), CSV_TOKENS, rate)
        sample_id = token(draw, f"s{i}", st.sampled_from(("s0", "", "\x1f", "\xe9")), rate)
        rows.append(",".join([sample_id, label, *cells]))
    return "\n".join(rows) + "\n"


@st.composite
def dataset_jsonl(draw, rate):
    k = draw(st.integers(2, 4))
    lines = []
    for i in range(draw(st.integers(1, 4))):
        hot, cells = one_hot(draw, k)
        probs = "[" + ", ".join(token(draw, cell, JSON_TOKENS, rate) for cell in cells) + "]"
        lines.append(record([("sample_id", token(draw, f'"s{i}"', JSON_TOKENS, rate)),
                             ("true_label", token(draw, str(hot), JSON_TOKENS, rate)),
                             ("probs", token(draw, probs, JSON_TOKENS, rate))]))
    return "".join(line + "\n" for line in lines)


@st.composite
def prediction_jsonl(draw, rate):
    lines = []
    for sample_id, label in (("a", 2), ("b", 0), ("c", 1)):
        members = [str(m) for m in range(3) if draw(st.booleans())]
        members = [token(draw, m, JSON_TOKENS, rate) for m in members]
        lines.append(record([
            ("sample_id", token(draw, f'"{sample_id}"', JSON_TOKENS, rate)),
            ("members", token(draw, "[" + ", ".join(members) + "]", JSON_TOKENS, rate)),
            ("set_size", token(draw, str(len(members)), JSON_TOKENS, rate)),
            ("true_label", token(draw, str(label), JSON_TOKENS, rate))]))
    return "".join(line + "\n" for line in lines)


@st.composite
def classes_json(draw, rate):
    # a name is free text: C<i>, any string, or one with a lone surrogate, a third of the time each
    entries = [record([("index", token(draw, str(i), JSON_TOKENS, rate)),
                       ("name", draw(st.just(f'"C{i}"') | st.sampled_from(STRINGS)
                                     | st.sampled_from(SURROGATES)))])
               for i in range(3)]
    entries = [token(draw, entry, JSON_TOKENS, rate) for entry in entries]
    return token(draw, "[" + ", ".join(entries) + "]", JSON_TOKENS, rate) + "\n"


@st.composite
def artifact(draw, rate):
    # the threshold, the one value predict reads: a valid one, one past the float range, or any
    threshold = draw(st.sampled_from(("0.5", "0", "1", '"all_inclusive"')) | st.sampled_from(HUGE)
                     | JSON_TOKENS)
    return token(draw, record([("alpha", "0.1"), ("n", "3"), ("qlevel", "1.0"),
                               ("threshold", threshold),
                               ("k", token(draw, "3", JSON_TOKENS, rate)),
                               ("input_sha256", '"0"'), ("universe_sha256", '"0"')]),
                 JSON_TOKENS, rate) + "\n"


def mutated(draw, text: str) -> str:
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        how = draw(st.sampled_from(["insert", "insert", "insert", "insert", "truncate", "bom",
                                    "crlf", "first line", "empty"]))
        if how == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(SPECIALS)) + text[at:]
        elif how == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif how == "bom":
            text = "\ufeff" + text
        elif how == "crlf":
            text = text.replace("\n", "\r\n")
        elif how == "first line":
            text = text[:text.find("\n") + 1]
        else:
            text = ""
    return text


def commands(kind: str, work: Path) -> tuple[str, list[list[str]]]:
    """The drawn file's name and the commands that read it, in order."""
    a, d = str(work / "a.json"), str(work / "d.csv")
    r = ["--out-json", str(work / "r.json"), "--out-csv", str(work / "r.csv")]
    if kind in ("dataset CSV", "dataset JSONL"):
        f = str(work / ("in.csv" if kind == "dataset CSV" else "in.jsonl"))
        return f, [["calibrate", "--input", f, "--out", a],
                   ["evaluate", "--calibration", a, "--input", f, *r]]
    if kind == "prediction JSONL":
        f = str(work / "sets.jsonl")
        return f, [["evaluate", "--input", d, "--predictions", f, *r]]
    if kind == "classes.json":
        f = str(work / "classes.json")
        return f, [["calibrate", "--input", d, "--classes", f, "--out", a],
                   ["evaluate", "--calibration", a, "--input", d, "--classes", f, *r]]
    f = str(work / "artifact.json")
    return f, [["predict", "--calibration", f, "--input", d, "--out", str(work / "p.jsonl")],
               ["evaluate", "--calibration", f, "--input", d, *r]]


KINDS = {"dataset CSV": dataset_csv, "dataset JSONL": dataset_jsonl,
         "prediction JSONL": prediction_jsonl, "classes.json": classes_json,
         "calibration artifact": artifact}
LINE_KINDS = ("dataset CSV", "dataset JSONL", "prediction JSONL")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_drawn_input_works_or_fails_with_exit_2_and_its_place(kind, data):
    rate = data.draw(st.sampled_from([0, 2, 5]), label="rate")
    text = data.draw(KINDS[kind](rate), label="grammar")
    text = mutated(data.draw, text)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "d.csv").write_text(SAMPLES, encoding="utf-8")
        path, argvs = commands(kind, work)
        Path(path).write_bytes(text.encode("utf-8", "surrogatepass"))
        for argv in argvs:
            before = sorted(work.iterdir())
            with redirect_stdout(StringIO()) as out, redirect_stderr(StringIO()) as err:
                code = main(argv)
            err = err.getvalue()
            assert code in (0, 2, 3), err
            if code == 0:
                out.getvalue().encode("utf-8")  # a console's stdout takes no lone surrogate
                continue
            assert sorted(work.iterdir()) == before, err
            if code == 2:
                if kind in LINE_KINDS:
                    assert re.search(r"\bline \d+", err), err
                else:
                    assert path in err, err
            break
