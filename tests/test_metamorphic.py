"""Metamorphic relations over the four file commands: changes to an input that must not
change the outputs.

Each drawn case is a calibration file and a test file of rows that load,
drawn with ``test_end_to_end_oracle``'s row strategy, and K class names.  The
rows are written as CSV and as dataset JSONL, labelled by index and by name,
and five runs of ``calibrate --curve``, ``predict`` and both ``evaluate`` paths
by ``main(argv)`` read them; every command exits 0.
Seven relations need no oracle:

* **Format.**  The same rows as CSV and as dataset JSONL give byte-identical
  outputs and stdout, with and without ``--classes``.  The artifacts differ only
  in ``input_sha256``.  stderr is not compared: a renormalization warning
  cites lines, and the CSV header shifts them by one.
* **Names.**  With one ``--classes`` file, labels written as class names give
  the same outputs, stdout and stderr as the labels written as indices.  A
  CSV file of names goes through the C reader's label lookup, or through the
  row loop when a name holds a U+001F.
* **Class permutation.**  Permuting the probability columns, the labels and
  classes.json's indices together (the file keeps its entries' order) leaves
  the artifact's threshold and the curve bit-identical, maps each set and
  its ``true_label`` through the permutation, and permutes the report's class
  rows, its per-class lists and its confusion matrix.  The argmax metrics
  (recall, accuracy, the matrix) are compared only when no test row ties at
  its maximum, since ``np.argmax`` takes the first of tied columns.
* **Alpha nesting.**  For alpha1 < alpha2 on one calibration file, each set at
  alpha2 is a subset of its set at alpha1.
* **The two evaluate paths.**  ``evaluate --predictions`` gives the report of
  ``evaluate --calibration``, both on ``predict``'s file, which the layout
  path reads, and on a rewrite of it (keys reversed, or compact separators)
  that the row path reads.
* **Row permutation.**  Shuffling the calibration rows leaves the artifact
  (apart from ``input_sha256``) and the curve byte-identical; shuffling the
  test rows permutes the lines of the sets file the same way and leaves both
  reports byte-identical.  stdout is unchanged; stderr is not compared, since
  a renormalization warning cites lines.
* **Layout.**  Blank or whitespace-only lines, CRLF or CR line endings and a
  missing final newline, in the calibration, test and prediction files
  alike, leave every output and stdout unchanged.

Names are the kind an operator writes (``Steel Sheets``), often beside one
that differs only in surrounding whitespace, or drawn text that a CSV cell
can hold and ``int()`` does not read: a name ``int()`` reads is an index.
"""

from __future__ import annotations

import json
import logging
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_gate.cli import main
from conformal_gate.io import _CSV_UNSAFE_ID, _written_predictions, load_probabilities

from test_end_to_end_oracle import ALPHAS, good_row


def _reads_as_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# Names that str.strip makes equal, so that a lookup that strips first picks the wrong one.
NAMES = st.sampled_from(("Steel Sheets", " Steel Sheets", "Shredder", "Shredder\t", "Cast", "é",
                         "", " ", "\x1fcat", "cat")) | st.text(
    st.characters(codec="utf-8"), max_size=5).filter(lambda name: not _CSV_UNSAFE_ID.search(name))


@st.composite
def cases(draw):
    k = draw(st.integers(2, 5))
    alpha = draw(st.sampled_from(ALPHAS))
    names = draw(st.lists(NAMES.filter(lambda name: not _reads_as_int(name)),
                          min_size=k, max_size=k, unique=True))
    calib = [good_row(draw, k) for _ in range(draw(st.integers(1, 40)))]
    test = [good_row(draw, k) for _ in range(draw(st.integers(1, 20)))]
    return alpha, names, calib, test


def csv_text(rows, label) -> str:
    k = len(rows[0][1])
    header = "sample_id,true_label," + ",".join(f"p_{j}" for j in range(k))
    return "\n".join([header, *(",".join([f"s{i}", label(int(y)), *cells])
                                for i, (y, cells) in enumerate(rows))]) + "\n"


def jsonl_text(rows, label) -> str:
    return "".join(json.dumps({"sample_id": f"s{i}", "true_label": label(int(y)),
                               "probs": [float(cell) for cell in cells]}) + "\n"
                   for i, (y, cells) in enumerate(rows))


def quiet(*commands: list[str]) -> tuple[str, str]:
    """The stdout and stderr of ``main`` on each argv in turn; each call exits 0."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()  # so that main logs to the stderr captured here
    try:
        with redirect_stdout(StringIO()) as stdout, redirect_stderr(StringIO()) as stderr:
            codes = [main(argv) for argv in commands]
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    assert codes == [0] * len(commands), stderr.getvalue()
    return stdout.getvalue(), stderr.getvalue()


def run_all(work: Path, alpha: float, calib: Path, test: Path, classes: Path | None):
    """The output bytes, stdout and stderr of the four commands on ``calib`` and ``test``.

    The outputs go to one directory for every call, so that stdout, which names
    the sets file, is the same for each way of writing the inputs.
    """
    out = work / "out"
    out.mkdir(exist_ok=True)
    extra = ["--classes", str(classes)] if classes else []
    commands = [
        ["calibrate", "--input", str(calib), "--alpha", repr(alpha), "--out", str(out / "a.json"),
         "--curve", str(out / "curve.csv")],
        ["predict", "--calibration", str(out / "a.json"), "--input", str(test),
         "--out", str(out / "sets.jsonl")],
        ["evaluate", "--calibration", str(out / "a.json"), "--input", str(test),
         "--out-json", str(out / "r1.json"), "--out-csv", str(out / "r1.csv")],
        ["evaluate", "--predictions", str(out / "sets.jsonl"), "--input", str(test),
         "--out-json", str(out / "r2.json"), "--out-csv", str(out / "r2.csv")],
    ]
    stdout, stderr = quiet(*(argv + extra for argv in commands))
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    files["a.json"] = re.sub(rb'"input_sha256": "[0-9a-f]{64}"', b'"input_sha256": ""',
                             files["a.json"])
    return files, stdout, stderr


@settings(max_examples=40, deadline=None)
@given(cases())
@example((0.25, ["Shredder", "Shredder\t", " Steel Sheets", "Steel Sheets"],
          [(str(y), ["0.25"] * 4) for y in (1, 3, 0, 2, 1)], [("1", ["0", "1", "0", "0"])]))
def test_format_and_names_leave_every_output_unchanged(case):
    alpha, names, calib_rows, test_rows = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        classes = work / "classes.json"
        classes.write_text(json.dumps([{"index": i, "name": n} for i, n in enumerate(names)]),
                           encoding="utf-8")

        def written(fmt: str, labels: str):
            """The calibration and test files, in ``fmt``, labelled by index or by name."""
            label = names.__getitem__ if labels == "names" else str if fmt == "csv" else int
            text = csv_text if fmt == "csv" else jsonl_text
            paths = [work / f"{role}-{labels}.{fmt}" for role in ("calib", "test")]
            for path, rows in zip(paths, (calib_rows, test_rows)):
                path.write_text(text(rows, label), encoding="utf-8")
            return paths

        plain = run_all(work, alpha, *written("csv", "index"), None)
        assert run_all(work, alpha, *written("jsonl", "index"), None)[:2] == plain[:2]  # format
        indexed = run_all(work, alpha, *written("csv", "index"), classes)
        named = run_all(work, alpha, *written("csv", "names"), classes)
        assert named == indexed  # names, stderr included
        assert run_all(work, alpha, *written("jsonl", "names"), classes)[:2] == named[:2]  # format


@st.composite
def permuted_cases(draw):
    """A case, a permutation of its classes, a second alpha and a row-path rewrite style."""
    alpha, names, calib, test = draw(cases())
    return (alpha, names, calib, test, draw(st.permutations(range(len(names)))),
            draw(st.sampled_from(ALPHAS)), draw(st.sampled_from(("reversed", "compact"))))


def classes_text(names, indices) -> str:
    return json.dumps([{"index": i, "name": n} for i, n in zip(indices, names)])


def sets_of(text: bytes) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


@settings(max_examples=40, deadline=None)
@given(permuted_cases())
@example((0.05, ["Cast", "é", "Shredder"], [("2", ["0.25", "0.5", "0.25"])] * 3,
          [("1", ["0.5", "0.25", "0.25"]), ("0", ["1", "0", "0"])], [2, 0, 1], 0.5, "compact"))
def test_class_permutation_alpha_nesting_and_the_two_evaluate_paths(case):
    alpha, names, calib_rows, test_rows, perm, alpha2, style = case
    k = len(names)

    def permuted(rows):
        return [(str(perm[int(y)]), [cells[perm.index(j)] for j in range(k)]) for y, cells in rows]

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = {name: work / name for name in ("calib.csv", "test.csv", "classes.json",
                                                "p-calib.csv", "p-test.csv", "p-classes.json")}
        for prefix, calib, test, indices in (("", calib_rows, test_rows, range(k)),
                                             ("p-", permuted(calib_rows), permuted(test_rows),
                                              perm)):
            paths[f"{prefix}calib.csv"].write_text(csv_text(calib, str), encoding="utf-8")
            paths[f"{prefix}test.csv"].write_text(csv_text(test, str), encoding="utf-8")
            paths[f"{prefix}classes.json"].write_text(classes_text(names, indices),
                                                      encoding="utf-8")
        plain = run_all(work, alpha, paths["calib.csv"], paths["test.csv"],
                        paths["classes.json"])[0]
        moved = run_all(work, alpha, paths["p-calib.csv"], paths["p-test.csv"],
                        paths["p-classes.json"])[0]

        # class permutation
        artifact, moved_artifact = json.loads(plain["a.json"]), json.loads(moved["a.json"])
        assert repr(moved_artifact["threshold"]) == repr(artifact["threshold"])
        assert moved["curve.csv"] == plain["curve.csv"]
        for got, want in zip(sets_of(moved["sets.jsonl"]), sets_of(plain["sets.jsonl"]),
                             strict=True):
            assert got == {**want, "members": sorted(perm[m] for m in want["members"]),
                           "true_label": perm[want["true_label"]]}
        probs = load_probabilities(paths["test.csv"]).probs
        untied = bool(((probs == probs.max(axis=1, keepdims=True)).sum(axis=1) == 1).all())
        report, moved_report = json.loads(plain["r1.json"]), json.loads(moved["r1.json"])
        for key, value in report.items():
            if key in ("accuracy", "per_class_recall", "confusion_matrix") and not untied:
                continue
            if key == "confusion_matrix":
                value = [[value[perm.index(i)][perm.index(j)] for j in range(k)]
                         for i in range(k)]
            elif key == "class_names" or key.startswith("per_class_"):
                value = [value[perm.index(j)] for j in range(k)]
            assert moved_report[key] == value, key

        def table(text: bytes) -> list[list[str]]:
            cells = [line.split(",") for line in text.decode().splitlines()]
            return cells if untied else [[c[0], *c[2:]] for c in cells]  # recall is argmax's

        rows = table(plain["r1.csv"])
        assert table(moved["r1.csv"]) == [rows[0], *(rows[1 + perm.index(j)] for j in range(k)),
                                          rows[-1]]

        # alpha nesting, and the two evaluate paths on predict's file and on a rewrite
        out = work / "out"
        rewrite = out / "rewrite.jsonl"
        sets = sets_of(plain["sets.jsonl"])
        rewrite.write_text("".join(
            (json.dumps(dict(reversed(obj.items()))) if style == "reversed"
             else json.dumps(obj, separators=(",", ":"))) + "\n" for obj in sets),
            encoding="utf-8")
        assert _written_predictions(rewrite.read_text(encoding="utf-8"), k) is None
        extra = ["--classes", str(paths["classes.json"])]
        quiet(["calibrate", "--input", str(paths["calib.csv"]), "--alpha", repr(alpha2),
               "--out", str(out / "a2.json"), *extra],
              ["predict", "--calibration", str(out / "a2.json"), "--input", str(paths["test.csv"]),
               "--out", str(out / "sets2.jsonl"), *extra],
              ["evaluate", "--predictions", str(rewrite), "--input", str(paths["test.csv"]),
               "--out-json", str(out / "r3.json"), "--out-csv", str(out / "r3.csv"), *extra])
        sets2 = sets_of((out / "sets2.jsonl").read_bytes())
        wide, narrow = (sets, sets2) if alpha <= alpha2 else (sets2, sets)
        for larger, smaller in zip(wide, narrow, strict=True):
            assert set(smaller["members"]) <= set(larger["members"])
        assert plain["r2.json"] == plain["r1.json"] == (out / "r3.json").read_bytes()
        assert plain["r2.csv"] == plain["r1.csv"] == (out / "r3.csv").read_bytes()


# Lines that hold nothing, or only whitespace as str.strip sees it.
BLANKS = ("", " ", " \t", "\xa0")


@st.composite
def shuffled_cases(draw):
    """A case, a format, a shuffle of each file's rows and a layout for every file.

    The layout is a list of (position, blank) lines to insert after a file's
    first line, a line ending, and whether the last line ends with it.
    """
    alpha, _, calib, test = draw(cases())
    blanks = st.lists(st.tuples(st.integers(0, 40), st.sampled_from(BLANKS)), max_size=3)
    layout = draw(blanks), draw(st.sampled_from(("\n", "\r\n", "\r"))), draw(st.booleans())
    return (alpha, draw(st.sampled_from(("csv", "jsonl"))), calib, test,
            draw(st.permutations(range(len(calib)))), draw(st.permutations(range(len(test)))),
            layout)


def lay_out(text: str, layout) -> str:
    """``text`` with blank lines inserted after its first line and the given line ending."""
    blanks, ending, final = layout
    lines = text.splitlines()
    for position, blank in blanks:
        lines.insert(1 + position % len(lines), blank)
    return ending.join(lines) + (ending if final else "")


def shuffled(text: str, fmt: str, order) -> str:
    """``text`` with its records, every line after a CSV header, in ``order``."""
    lines = text.splitlines(keepends=True)
    head = lines[:1] if fmt == "csv" else []
    records = lines[len(head):]
    return "".join(head + [records[j] for j in order])


@settings(max_examples=40, deadline=None)
@given(shuffled_cases())
@example((0.25, "csv", [(str(y), ["0.25", "0.25", "0.5001"]) for y in (2, 0, 1, 2, 2)],
          [("0", ["0.5", "0.5", "0"]), ("2", ["0", " 1.0 ", "0"]), ("1", ["0.25"] * 2 + ["0.5"])],
          [4, 2, 0, 3, 1], [2, 0, 1], ([(0, " "), (2, "")], "\r\n", False)))
def test_row_permutation_and_layout_leave_every_output_unchanged(case):
    alpha, fmt, calib_rows, test_rows, calib_order, test_order, layout = case
    text = csv_text if fmt == "csv" else jsonl_text
    label = str if fmt == "csv" else int
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def written(name: str, calib: str, test: str) -> tuple[Path, Path]:
            paths = (work / f"calib-{name}.{fmt}", work / f"test-{name}.{fmt}")
            for path, content in zip(paths, (calib, test)):
                path.write_bytes(content.encode("utf-8"))  # as given: no newline translation
            return paths

        calib, test = text(calib_rows, label), text(test_rows, label)
        plain, stdout, _ = run_all(work, alpha, *written("plain", calib, test), None)
        sets = plain["sets.jsonl"].splitlines(keepends=True)

        # row permutation
        moved, moved_stdout, _ = run_all(work, alpha, *written(
            "shuffled", shuffled(calib, fmt, calib_order), shuffled(test, fmt, test_order)), None)
        assert moved_stdout == stdout
        assert moved.pop("sets.jsonl") == b"".join(sets[j] for j in test_order)
        assert moved == {name: data for name, data in plain.items() if name != "sets.jsonl"}

        # layout, of the two input files, then of the sets file
        laid_out = written("laid-out", lay_out(calib, layout), lay_out(test, layout))
        assert run_all(work, alpha, *laid_out, None)[:2] == (plain, stdout)
        out = work / "out"
        (out / "laid-out.jsonl").write_bytes(lay_out(b"".join(sets).decode(), layout).encode())
        quiet(["evaluate", "--predictions", str(out / "laid-out.jsonl"),
               "--input", str(laid_out[1]),
               "--out-json", str(out / "r4.json"), "--out-csv", str(out / "r4.csv")])
        assert (out / "r4.json").read_bytes() == plain["r2.json"]
        assert (out / "r4.csv").read_bytes() == plain["r2.csv"]
