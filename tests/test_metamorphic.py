"""Metamorphic relations over the four file commands: changes to an input that must not
change the outputs.

Each drawn case is a calibration file and a test file of rows that load,
drawn with ``test_end_to_end_oracle``'s row strategy, and K class names.  The
rows are written as CSV and as dataset JSONL, labelled by index and by name,
and five runs of ``calibrate --curve``, ``predict`` and both ``evaluate`` paths
by ``main(argv)`` read them; every command exits 0.
Two relations need no oracle:

* **Format.**  The same rows as CSV and as dataset JSONL give byte-identical
  outputs and stdout, with and without ``--classes``.  The artifacts differ only
  in ``input_sha256``.  stderr is not compared: a renormalization warning
  cites lines, and the CSV header shifts them by one.
* **Names.**  With one ``--classes`` file, labels written as class names give
  the same outputs, stdout and stderr as the labels written as indices.  A
  CSV file of names goes through the C reader's label lookup, or through the
  row loop when a name holds a U+001F.

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
from conformal_gate.io import _CSV_UNSAFE_ID

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
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()  # so that main logs to the stderr captured here
    try:
        with redirect_stdout(StringIO()) as stdout, redirect_stderr(StringIO()) as stderr:
            codes = [main(argv + extra) for argv in commands]
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    assert codes == [0] * 4, stderr.getvalue()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    files["a.json"] = re.sub(rb'"input_sha256": "[0-9a-f]{64}"', b'"input_sha256": ""',
                             files["a.json"])
    return files, stdout.getvalue(), stderr.getvalue()


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
