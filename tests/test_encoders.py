"""The report JSON and prediction JSONL writers against ``json.dumps``.

``report_json_text`` writes the confusion matrix itself, into an all-zero
template, and ``write_predictions`` builds each line with an f-string; both
must give the bytes ``json.dumps`` gives.  The matrix must also be the text
of the cell-by-cell renderer it replaced, ``row_oracle.matrix_text_table``.
``tests/data/golden_report.json``, ``golden_predictions.jsonl`` and ``golden_predictions_labeled.jsonl`` were
written by the ``json.dumps`` encoders, from the cases built below.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_gate.core_types import ClassUniverse, Dataset
from conformal_gate.io import _matrix_text, report_json_text, write_predictions, write_report
from conformal_gate.metrics import evaluate
from conformal_gate.predictor import PredictionSets

from row_oracle import matrix_text_table

DATA = Path(__file__).parent / "data"

# Non-ASCII, quote, backslash and control characters, and an empty id.
GOLDEN_IDS = ("plain", "café", "日本", "emoji \U0001F600", 'quote "q"',
              "back\\slash", "nul\x00", "tab\tnl\ncr\r", "unit\x1f del\x7f", "",
              "ls\u2028ps\u2029", "bell\x07")


def golden_sets() -> tuple[PredictionSets, np.ndarray]:
    """Sets over 4 classes, some empty and one full, and their labels."""
    n, k = len(GOLDEN_IDS), 4
    mask = np.zeros((n, k), dtype=bool)
    for i in range(n):
        if i % 4 != 1:  # every fourth set stays empty
            mask[i, [i % k, (3 * i) % k]] = True
    mask[6] = True
    return PredictionSets(GOLDEN_IDS, mask), np.arange(n) % 3


def golden_report():
    """A 4-class report from 60 rows; class 3 has no rows, so its entries are null."""
    k, n = 4, 60
    labels = np.arange(n) % 3
    predicted = (labels + (np.arange(n) % 5 == 0) + (np.arange(n) % 7 == 0)) % k
    probs = np.full((n, k), 0.1)
    probs[np.arange(n), predicted] = 0.7
    universe = ClassUniverse(("Steel Sheets", "Swarf é", "Shredder", "Cast"))
    data = Dataset(universe, tuple(f"s{i}" for i in range(n)), labels, probs)
    mask = probs >= 0.7
    mask[np.arange(n) % 4 == 0, 0] = True
    mask[np.arange(n) % 9 == 2] = False
    mask[np.arange(n) % 11 == 5] = True
    return evaluate(data, PredictionSets(data.ids, mask))


def test_report_json_matches_golden(tmp_path):
    report = golden_report()
    assert report.per_class_recall[3] is None
    path = tmp_path / "report.json"
    write_report(report, path, tmp_path / "report.csv")
    assert path.read_bytes() == (DATA / "golden_report.json").read_bytes()


def test_prediction_jsonl_matches_golden(tmp_path):
    sets, labels = golden_sets()
    assert 0 in sets.sizes and 4 in sets.sizes
    write_predictions(sets, tmp_path / "p.jsonl")
    write_predictions(sets, tmp_path / "labeled.jsonl", labels)
    assert (tmp_path / "p.jsonl").read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
    assert ((tmp_path / "labeled.jsonl").read_bytes()
            == (DATA / "golden_predictions_labeled.jsonl").read_bytes())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 40), st.data())
def test_report_json_equals_json_dumps_for_any_matrix_shape(rows, columns, data):
    # repeated small counts, and many distinct ones over the whole int64 range
    cells = st.integers(0, 3) | st.integers(-10**12, 10**12) | st.integers(-2**63, 2**63 - 1)
    counts = data.draw(st.lists(cells, min_size=rows * columns, max_size=rows * columns))
    report = replace(golden_report(),
                     confusion=np.array(counts, dtype=np.int64).reshape(rows, columns))
    assert report_json_text(report) == json.dumps(report.to_json_obj(), indent=2) + "\n"


# Counts whose texts change width: 9 and 10, 99 and 100, and up to 10**12.
EDGE_COUNTS = (1, 9, 10, 99, 100, 999, 1000, 10**12 - 1, 10**12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 600), st.sampled_from(["none", "one", "diagonal", "sparse", "dense"]),
       st.integers(0, 2**32 - 1))
@example(600, "dense", 1)
@example(500, "diagonal", 2)
@example(500, "sparse", 3)
def test_the_template_matrix_equals_the_cell_by_cell_one(k, fill, seed):
    rng = np.random.default_rng(seed)
    counts = np.zeros(k * k, dtype=np.int64)
    nonzero = {"none": [], "one": rng.integers(0, k * k, 1), "diagonal": np.arange(k) * (k + 1),
               "sparse": rng.integers(0, k * k, k),
               "dense": np.flatnonzero(rng.random(k * k) < 0.9)}[fill]
    n = len(nonzero)
    counts[nonzero] = np.where(rng.random(n) < 0.5, rng.choice(EDGE_COUNTS, n),
                               rng.integers(1, 10**12, n, endpoint=True))
    counts = counts.reshape(k, k)
    assert _matrix_text(counts) == matrix_text_table(counts)
    report = replace(golden_report(), confusion=counts)
    assert report_json_text(report) == json.dumps(report.to_json_obj(), indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_prediction_lines_equal_json_dumps(tmp_path_factory, data):
    k = data.draw(st.integers(1, 6))
    ids = data.draw(st.lists(st.text(), max_size=8))
    mask = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                       min_size=len(ids), max_size=len(ids))),
                    dtype=bool).reshape(len(ids), k)
    labels = data.draw(st.none() | st.lists(st.integers(-2**63, 2**63 - 1),
                                            min_size=len(ids), max_size=len(ids)))
    path = tmp_path_factory.mktemp("sets") / "p.jsonl"
    write_predictions(PredictionSets(ids, mask), path,
                      None if labels is None else np.array(labels, dtype=np.int64))
    expected = []
    for i, sample_id in enumerate(ids):
        members = np.flatnonzero(mask[i]).tolist()
        obj = {"sample_id": sample_id, "members": members, "set_size": len(members)}
        if labels is not None:
            obj["true_label"] = labels[i]
        expected.append(json.dumps(obj) + "\n")
    assert path.read_text(encoding="utf-8") == "".join(expected)
