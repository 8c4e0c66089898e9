"""The four file commands, end to end, against an oracle written here.

A drawn calibration file and test file go through ``calibrate``,
``predict`` and both ``evaluate`` paths by ``main(argv)``.  Every command
exits 0 or 2, never 1.  On exit 2, stderr is the error that
``row_oracle.load_csv_rows`` raises on the file the command read.  On exit 0
the artifact's threshold is the calibration score at rank
``ceil((1 - alpha)(n + 1))``, taken in integers, or ``all_inclusive`` past
n; each set is ``{k : 1 - p_k <= tau}``; and both reports give the share of
test samples whose set holds their label.

Rows are drawn from small integer weights and from the one-hot cells of
``test_csv_differential``'s pools, and are repeated, so that scores tie at
the threshold; the test file repeats calibration rows.  Half the files have
one mutated row: a cell or a label from those pools, a label that ``int()``
reads only after ``str.strip`` or one outside [0, K), a row of another width
or a repeated id.  Alphas include points where ``(1 - alpha)(n + 1)`` is an
integer.  Two explicit examples hold the first two of those labels.
"""

from __future__ import annotations

import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_gate.cli import main
from conformal_gate.core_types import DataError

from row_oracle import load_csv_rows
from test_csv_differential import LABELS, ONE, OTHER, ZERO

ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95)
# The hot cells of a one-hot row that loads: 1.0000000001 stays above 1, and
# 1.01 is off unit mass beyond tolerance.
LOADS = tuple(cell for cell in ONE if cell not in ("1.0000000001", "1.01"))


def good_row(draw, k: int) -> tuple[str, list[str]]:
    """A label and K cells that load: small integer weights, or a one-hot row of pool cells."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        cells = [repr(w / sum(weights)) for w in weights]
    else:
        hot = draw(st.integers(0, k - 1))
        cells = [draw(st.sampled_from(LOADS if j == hot else ZERO)) for j in range(k)]
    return str(draw(st.integers(0, k - 1))), cells


def csv_text(draw, k: int, rows: list[tuple[str, list[str]]]) -> str:
    """The file of ``rows``, with ids s0, s1, ..., and one of them mutated half the time."""
    rows = [[f"s{i}", label, *cells] for i, (label, cells) in enumerate(rows)]
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "label", "odd label", "odd label", "width", "id"]))
        if kind == "cell":
            cells = OTHER + ("1.0000000001", "1.01")
            row[draw(st.integers(2, k + 1))] = draw(st.sampled_from(cells))
        elif kind == "label":
            row[1] = draw(st.sampled_from(LABELS))
        elif kind == "odd label":  # int() reads it only after str.strip, or outside [0, K)
            row[1] = draw(st.sampled_from(["\x1f1", "1\x1f", "\x1f0", "0\x1f", "-1", str(k)]))
        elif kind == "width":
            row[:] = row[:-1] if draw(st.booleans()) else row + ["0"]
        else:
            row[0] = "s0"
    header = "sample_id,true_label," + ",".join(f"p_{j}" for j in range(k))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


@st.composite
def cases(draw):
    k = draw(st.integers(2, 6))
    alpha = draw(st.sampled_from(ALPHAS))
    step = Fraction(repr(alpha)).denominator  # (1 - alpha)(n + 1) is whole where step | n + 1
    n = draw(st.integers(1, 60) | st.integers(1, 60 // step).map(lambda m: m * step - 1))
    calib: list[tuple[str, list[str]]] = []
    for _ in range(n):
        repeat = calib and draw(st.integers(0, 3)) == 0
        calib.append(draw(st.sampled_from(calib)) if repeat else good_row(draw, k))
    test = [draw(st.sampled_from(calib)) if draw(st.booleans()) else good_row(draw, k)
            for _ in range(draw(st.integers(1, 30)))]
    return alpha, csv_text(draw, k, calib), csv_text(draw, k, test)


def run(*argv: str) -> tuple[int, str]:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as stderr:
        code = main(list(argv))
    return code, stderr.getvalue()


def oracle_load(path: Path):
    """The row loader's dataset and None, or None and the stderr of its error."""
    try:
        return load_csv_rows(path, None), None
    except DataError as exc:
        return None, f"error: {exc}\n"


def threshold_at_rank(scores: list[float], alpha: float) -> float:
    """The score at rank ceil((1 - alpha)(n + 1)), alpha being the decimal ``repr`` prints."""
    a = Fraction(repr(alpha))
    n = len(scores)
    rank = -(-(a.denominator - a.numerator) * (n + 1) // a.denominator)
    return sorted(scores)[rank - 1] if rank <= n else math.inf


TWO_ROWS = "sample_id,true_label,p_0,p_1\ns0,0,1,0\ns1,{},0,1\n"


@settings(max_examples=150, deadline=None)
@given(cases())
@example((0.5, TWO_ROWS.format("\x1f1"), TWO_ROWS.format(1)))  # int() reads it after str.strip
@example((0.5, TWO_ROWS.format(2), TWO_ROWS.format(1)))  # one past K
def test_commands_match_the_oracle(case):
    alpha, calib_text, test_text = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        calib_csv, test_csv = work / "calib.csv", work / "test.csv"
        calib_csv.write_text(calib_text, encoding="utf-8")
        test_csv.write_text(test_text, encoding="utf-8")
        artifact, sets_path = work / "artifact.json", work / "sets.jsonl"
        report = [(work / f"r{i}.json", work / f"r{i}.csv") for i in range(2)]

        calib, error = oracle_load(calib_csv)
        code, stderr = run("calibrate", "--input", str(calib_csv), "--alpha", repr(alpha),
                           "--out", str(artifact))
        if error is not None:
            assert (code, stderr) == (2, error)
            return
        assert code == 0
        tau = threshold_at_rank(
            [1.0 - p[y] for p, y in zip(calib.probs.tolist(), calib.labels.tolist())], alpha)
        written = json.loads(artifact.read_text())["threshold"]
        assert written == ("all_inclusive" if tau == math.inf else tau)

        test, error = oracle_load(test_csv)
        results = [
            run("predict", "--calibration", str(artifact), "--input", str(test_csv),
                "--out", str(sets_path)),
            run("evaluate", "--calibration", str(artifact), "--input", str(test_csv),
                "--out-json", str(report[0][0]), "--out-csv", str(report[0][1])),
        ]
        if error is not None:
            assert results == [(2, error)] * 2
            return
        assert [code for code, _ in results] == [0, 0]
        assert run("evaluate", "--predictions", str(sets_path), "--input", str(test_csv),
                   "--out-json", str(report[1][0]), "--out-csv", str(report[1][1]))[0] == 0
        sets = [[j for j, p in enumerate(row) if 1.0 - p <= tau] for row in test.probs.tolist()]
        lines = sets_path.read_text().splitlines()
        assert [json.loads(line)["members"] for line in lines] == sets
        covered = sum(y in members for members, y in zip(sets, test.labels.tolist()))
        for json_path, _ in report:
            assert json.loads(json_path.read_text())["marginal_coverage"] == covered / len(sets)
