"""File formats, line-numbered errors, and the seeded split protocol."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate.calibration import calibrate, export_calibration_curve
from conformal_gate.core_types import (
    ClassUniverse,
    DataError,
    Dataset,
    DimensionMismatchError,
    LengthMismatchError,
)
from conformal_gate.io import (
    _CSV_UNSAFE_ID,
    ParseError,
    SplitSpec,
    UnknownLabelError,
    largest_remainder_sizes,
    load_predictions,
    load_probabilities,
    load_universe,
    report_csv_text,
    split,
    write_atomic,
    write_curve,
    write_dataset,
    write_predictions,
    write_report,
    write_texts,
)
from conformal_gate.metrics import evaluate
from conformal_gate.predictor import PredictionSets, predict_batch
from conformal_gate.synth import SyntheticSpec, generate

from conftest import make_dataset, make_sets, one_hot, probability_matrices

class TestLoadCsv:
    def test_three_one_hot_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,true_label,p_0,p_1,p_2\n"
            "a,0,1.0,0.0,0.0\n"
            "b,1,0.0,1.0,0.0\n"
            "c,2,0.0,0.0,1.0\n"
        )
        d = load_probabilities(path)
        assert len(d) == 3
        assert d.labels[1] == 1
        assert tuple(d.probs[2].tolist()) == (0.0, 0.0, 1.0)

    def test_short_row_is_dimension_mismatch_with_line(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["sample_id,true_label," + ",".join(f"p_{i}" for i in range(9))]
        rows.append("a,0," + ",".join(["0.1"] * 8 + ["0.2"]))
        rows.append("b,0," + ",".join(["0.125"] * 8))  # 8 probabilities under K=9
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DimensionMismatchError, match="line 3"):
            load_probabilities(path)

    def test_label_names_resolved_via_universe(self, tmp_path):
        universe = ClassUniverse(("Steel Sheets", "Shredder"))
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,true_label,p_0,p_1\n"
            "a,Shredder,0.2,0.8\n"
        )
        d = load_probabilities(path, universe=universe)
        assert d.labels[0] == 1

    def test_unknown_label_name(self, tmp_path):
        universe = ClassUniverse(("a", "b"))
        path = tmp_path / "d.csv"
        path.write_text("sample_id,true_label,p_0,p_1\nx,Karlsruhe,0.5,0.5\n")
        with pytest.raises(UnknownLabelError, match="line 2"):
            load_probabilities(path, universe=universe)

    def test_a_padded_class_name_is_matched_as_written_first(self, tmp_path):
        universe = ClassUniverse((" cat ", "dog", "cow", " cow"))
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,true_label,p_0,p_1,p_2,p_3\n"
            "a, cat ,0.25,0.25,0.25,0.25\n"
            "b, dog\t,0.25,0.25,0.25,0.25\n"
            "c, cow,0.25,0.25,0.25,0.25\n"
            "d,cow ,0.25,0.25,0.25,0.25\n"
        )
        d = load_probabilities(path, universe=universe)
        assert d.labels.tolist() == [0, 1, 3, 2]

    def test_bad_probability_value_cites_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,true_label,p_0,p_1\nx,0,0.5,0.5\ny,1,oops,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_probabilities(path)

    def test_out_of_tolerance_mass_cites_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,true_label,p_0,p_1\nx,0,0.4,0.4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_probabilities(path)

    def test_entries_are_checked_after_renormalization(self, tmp_path):
        # one mass policy for files and in-memory data: 1.0000005 / 1.0000005
        path = tmp_path / "d.csv"
        path.write_text("sample_id,true_label,p_0,p_1\nx,0,1.0000005,0.0\n")
        assert load_probabilities(path).probs.tolist() == [[1.0, 0.0]]
        # 1.0 / 0.9999995 is the entry outside [0, 1] once the row is renormalized
        path.write_text("sample_id,true_label,p_0,p_1\nx,0,1.0,-0.0000005\n")
        with pytest.raises(ParseError, match=r"line 2: probability 1\.0000005 outside"):
            load_probabilities(path)

    def test_duplicate_sample_id_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,true_label,p_0,p_1\na,0,1.0,0.0\na,1,0.0,1.0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_probabilities(path)

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,true_label,p_0,p_1\n"
            "a,0,1.0,0.0\na,1,0.0,1.0\nb,0,0.4,0.4\nc,0,oops,0.5\n"
        )
        with pytest.raises(ParseError, match="line 4: probability mass 0.8"):
            load_probabilities(path)
        path.write_text("sample_id,true_label,p_0,p_1\na,0,1.0,0.0\na,1,0.0,1.0\nc,0,oops,0.5\n")
        with pytest.raises(ParseError, match="line 4: bad probability value"):
            load_probabilities(path)

    def test_warn_band_rows_give_one_warning_with_line_numbers(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        rows = [f"s{i},0,0.5,0.5005" for i in range(1000)]
        path.write_text("sample_id,true_label,p_0,p_1\n" + "\n".join(rows) + "\n")
        with caplog.at_level("WARNING"):
            d = load_probabilities(path)
        assert len(d) == 1000
        [record] = [r for r in caplog.records if r.name.startswith("conformal_gate")]
        assert "renormalizing 1000 " in record.message
        assert record.message.endswith("first at lines 2, 3, 4, 5, 6")


class TestLoadJsonl:
    def test_label_name_resolution(self, tmp_path):
        universe = ClassUniverse(("Steel Sheets", "Shredder"))
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"sample_id": "a", "true_label": "Shredder", "probs": [0.25, 0.75]})
            + "\n"
        )
        d = load_probabilities(path, universe=universe)
        assert d.labels[0] == 1

    def test_a_padded_class_name_is_matched_as_written_first(self, tmp_path):
        universe = ClassUniverse((" cat ", "dog", "cow", " cow"))
        path = tmp_path / "d.jsonl"
        path.write_text("".join(
            json.dumps({"sample_id": i, "true_label": label, "probs": [0.25] * 4}) + "\n"
            for i, label in zip("abcd", [" cat ", " dog\t", " cow", "cow "])))
        d = load_probabilities(path, universe=universe)
        assert d.labels.tolist() == [0, 1, 3, 2]

    def test_bad_json_cites_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"sample_id": "a", "true_label": 0, "probs": [1.0, 0.0]}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            load_probabilities(path)

    def test_boolean_label_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"sample_id": "a", "true_label": 0, "probs": [1.0, 0.0]}\n'
            '{"sample_id": "b", "true_label": true, "probs": [0.0, 1.0]}\n'
        )
        with pytest.raises(UnknownLabelError, match="line 2"):
            load_probabilities(path)

    @pytest.mark.parametrize("record, problem", [
        ('{"sample_id": "b", "true_label": 0, "probs": "10"}', "probs"),
        ('{"sample_id": "b", "true_label": 0, "probs": [true, false]}', "probs"),
        ('{"sample_id": null, "true_label": 0, "probs": [0.0, 1.0]}', "sample_id"),
        ('{"sample_id": "b", "true_label": 0, "probs": [1' + "0" * 400 + ', 0]}', "probs"),
    ], ids=["string-probs", "boolean-probs", "null-id", "int-beyond-float"])
    def test_fields_of_the_wrong_json_type_rejected(self, tmp_path, record, problem):
        path = tmp_path / "d.jsonl"
        path.write_text('{"sample_id": "a", "true_label": 0, "probs": [1.0, 0.0]}\n'
                        + record + "\n")
        with pytest.raises(ParseError, match=f"line 2: {problem}"):
            load_probabilities(path)


class TestJsonLinesBreakAtLfOnly:
    # legal unescaped inside a JSON string; str.splitlines breaks a line at each
    IDS = ("a b", "c d", "e\x85f")

    def write(self, path, records):
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                        encoding="utf-8")

    def test_dataset_ids_with_unicode_line_separators_load_intact(self, tmp_path):
        path = tmp_path / "d.jsonl"
        self.write(path, [{"sample_id": i, "true_label": 0, "probs": [1.0, 0.0]}
                          for i in self.IDS])
        assert load_probabilities(path).ids == self.IDS
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{oops\n")
        with pytest.raises(ParseError, match="line 4"):
            load_probabilities(path)

    def test_prediction_ids_with_unicode_line_separators_load_intact(self, tmp_path):
        path = tmp_path / "sets.jsonl"
        self.write(path, [{"sample_id": i, "members": [1], "set_size": 1} for i in self.IDS])
        loaded = load_predictions(path, 2)
        assert loaded.ids == self.IDS
        assert loaded.mask.tolist() == [[False, True]] * 3


class TestPredictionJsonl:
    def test_round_trip_keeps_ids_and_mask(self, tmp_path):
        sets = make_sets(4, [{3, 1}, set(), range(4)], ids=("a", "b", "c"))
        path = tmp_path / "sets.jsonl"
        write_predictions(sets, path, labels=np.array([1, 0, 2]))
        assert json.loads(path.read_text().splitlines()[0]) == {
            "sample_id": "a", "members": [1, 3], "set_size": 2, "true_label": 1}
        loaded = load_predictions(path, 4)
        assert loaded.ids == sets.ids
        assert np.array_equal(loaded.mask, sets.mask)

    @pytest.mark.parametrize("labels", [[0], [0, 1, 2, 0], [[0, 1, 2]], [[0], [1], [2]], 1])
    def test_labels_not_one_per_set_are_an_error_and_write_no_file(self, tmp_path, labels):
        sets = make_sets(3, [{0}, {1, 2}, set()], ids=("a", "b", "c"))
        with pytest.raises(LengthMismatchError,
                           match=r"^3 prediction sets vs labels of shape \("):
            write_predictions(sets, tmp_path / "sets.jsonl", np.array(labels))
        assert list(tmp_path.iterdir()) == []

    def test_repeated_members_count_once(self, tmp_path):
        path = tmp_path / "sets.jsonl"
        path.write_text('{"sample_id": "a", "members": [2, 2], "set_size": 1}\n\n')
        loaded = load_predictions(path, 3)
        assert loaded.sizes.tolist() == [1]
        path.write_text('{"sample_id": "a", "members": [2, 2], "set_size": 2}\n')
        with pytest.raises(ParseError, match="line 1: set_size 2 differs from the 1 members"):
            load_predictions(path, 3)

    # written layout, then the row path: a blank line first, so set i is on line i + 2
    @pytest.mark.parametrize("before, first", [("", 1), ("\n", 2)])
    def test_sets_checked_against_ids_cite_the_file_and_line(self, tmp_path, before, first):
        path = tmp_path / "sets.jsonl"
        write_predictions(make_sets(3, [{0}, {1}, {2}], ids=("a", "x", "")), path)
        path.write_text(before + path.read_text())
        assert load_predictions(path, 3, ("a", "x", "c")).ids == ("a", "x", "")
        with pytest.raises(ParseError, match=rf"^line {first + 1}: prediction for 'x' in {path}"
                                             r" does not align with sample 'b'$"):
            load_predictions(path, 3, ("a", "b", "c"))
        with pytest.raises(ParseError, match=rf"^line {first + 3}: {path} ends after 3 prediction"
                                             r" sets, 1 short of the 4 labels$"):
            load_predictions(path, 3, ("a", "x", "c", "d"))
        with pytest.raises(ParseError, match=rf"^line {first + 2}: {path} holds 3 prediction"
                                             r" sets, 1 more than the 2 labels$"):
            load_predictions(path, 3, ("a", "x"))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_ids_and_masks_load_back_as_written(self, tmp_path_factory, data):
        k = data.draw(st.integers(1, 6))
        ids = data.draw(st.lists(st.text(), max_size=8))
        mask = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                           min_size=len(ids), max_size=len(ids))),
                        dtype=bool).reshape(len(ids), k)
        labels = data.draw(st.none() | st.lists(st.integers(0, k - 1), min_size=len(ids),
                                                max_size=len(ids)))
        path = tmp_path_factory.mktemp("sets") / "p.jsonl"
        write_predictions(PredictionSets(ids, mask), path,
                          None if labels is None else np.array(labels, dtype=np.int64))
        loaded = load_predictions(path, k)
        assert loaded.ids == tuple(ids)
        assert np.array_equal(loaded.mask, mask)


class TestWriteAtomic:
    def test_file_gets_the_umask_mode_and_no_temp_file_is_left(self, tmp_path):
        previous = os.umask(0o022)
        try:
            write_atomic(tmp_path / "out.txt", "x\n")
        finally:
            os.umask(previous)
        assert os.stat(tmp_path / "out.txt").st_mode == 0o100644
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_an_unwritable_path_is_named_and_nothing_is_left(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as raised:
            write_atomic(path, "x\n")
        assert raised.value.filename == str(path)
        assert os.listdir(tmp_path) == []

    def test_a_directory_in_the_way_is_named_and_nothing_is_left(self, tmp_path):
        (tmp_path / "out.txt").mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            write_atomic(tmp_path / "out.txt", "x\n")
        assert raised.value.filename == str(tmp_path / "out.txt")
        assert os.listdir(tmp_path) == ["out.txt"] and not os.listdir(tmp_path / "out.txt")


    def test_write_curve_writes_the_exported_curve_and_no_temp_file(self, tmp_path):
        text = export_calibration_curve(calibrate(generate(SyntheticSpec(k=4, seed=3), 30), 0.1))
        write_curve(text, tmp_path / "curve.csv")
        assert (tmp_path / "curve.csv").read_text(encoding="utf-8") == text
        assert os.listdir(tmp_path) == ["curve.csv"]


class TestWriteTexts:
    def test_every_output_is_written(self, tmp_path):
        (tmp_path / "sub").mkdir()
        write_texts([(tmp_path / "a.json", "{}\n"), (tmp_path / "sub" / "b.csv", "x\n")])
        assert (tmp_path / "a.json").read_text() == "{}\n"
        assert (tmp_path / "sub" / "b.csv").read_text() == "x\n"
        assert sorted(os.listdir(tmp_path)) == ["a.json", "sub"]
        assert os.listdir(tmp_path / "sub") == ["b.csv"]

    def test_a_missing_second_directory_leaves_neither_output(self, tmp_path):
        second = tmp_path / "missing" / "b.csv"
        with pytest.raises(FileNotFoundError) as raised:
            write_texts([(tmp_path / "a.json", "{}\n"), (second, "x\n")])
        assert raised.value.filename == str(second)
        assert os.listdir(tmp_path) == []

    def test_a_text_that_cannot_be_encoded_leaves_neither_output(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_texts([(tmp_path / "a.json", "{}\n"), (tmp_path / "b.csv", "\ud800\n")])
        assert os.listdir(tmp_path) == []

    def test_a_later_rename_that_fails_keeps_the_earlier_output(self, tmp_path):
        (tmp_path / "b.csv").mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            write_texts([(tmp_path / "a.json", "{}\n"), (tmp_path / "b.csv", "x\n")])
        assert raised.value.filename == str(tmp_path / "b.csv")
        assert sorted(os.listdir(tmp_path)) == ["a.json", "b.csv"]
        assert not os.listdir(tmp_path / "b.csv")


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_dataset_round_trip_is_exact(self, tmp_path, fmt):
        d = generate(SyntheticSpec(k=5, seed=91), 100)
        path = tmp_path / f"d.{fmt}"
        write_dataset(d, path)
        loaded = load_probabilities(path, universe=d.universe)
        assert loaded == d

    @pytest.mark.parametrize("sample_id", ["x,y", 'say "hi"', "two\nlines", "cr\r", "vt\x0b",
                                           "ls\u2028", "\ud800", "lone\udfff"])
    def test_csv_rejects_ids_it_cannot_load_back(self, tmp_path, sample_id):
        d = make_dataset(2, [(sample_id, 0, (1.0, 0.0))])
        with pytest.raises(DataError, match="cannot be written to CSV"):
            write_dataset(d, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()
        write_dataset(d, tmp_path / "d.jsonl")
        assert load_probabilities(tmp_path / "d.jsonl", universe=d.universe) == d

    @settings(max_examples=100, deadline=None)
    @given(probability_matrices(), st.booleans(), st.data())
    def test_csv_safe_ids_round_trip_exactly(self, tmp_path_factory, probs, float32, data):
        n, k = probs.shape
        if float32:  # rows the mass policy renormalizes
            probs = probs.astype(np.float32).astype(np.float64)
        ids = data.draw(st.lists(st.text().filter(lambda s: not _CSV_UNSAFE_ID.search(s)),
                                 min_size=n, max_size=n, unique=True))
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        d = Dataset(ClassUniverse.generic(k), ids, labels, probs)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dataset(d, path)
        assert load_probabilities(path) == d

    def test_universe_round_trip(self, tmp_path):
        universe = ClassUniverse(("Steel Sheets", "Swarf Scrap", "Shredder"))
        path = tmp_path / "classes.json"
        path.write_text(json.dumps([{"index": i, "name": name}
                                    for i, name in enumerate(universe.names)]))
        assert load_universe(path) == universe

    def test_report_json_round_trip(self, tmp_path):
        data = generate(SyntheticSpec(k=4, seed=17), 200)
        report = evaluate(data, predict_batch(data, 0.5))
        json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        write_report(report, json_path, csv_path)
        assert json.loads(json_path.read_text()) == report.to_json_obj()
        assert csv_path.read_text() == report_csv_text(report)


class TestLoadUniverse:
    @pytest.mark.parametrize("indices", [(1, 2), (0, 0), (-1, 0), (0, 2, 1, 3, 5)],
                             ids=["sparse", "duplicate", "negative", "gap"])
    def test_indices_must_be_dense_and_zero_based(self, tmp_path, indices):
        path = tmp_path / "classes.json"
        path.write_text(json.dumps([{"index": i, "name": f"c{n}"} for n, i in enumerate(indices)]))
        with pytest.raises(ParseError, match="each used once"):
            load_universe(path)

    def test_entries_may_come_in_any_order(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text('[{"index": 1, "name": "b"}, {"index": 0, "name": "a"}]')
        assert load_universe(path).names == ("a", "b")

    def test_crlf_file_reports_the_json_position_of_its_lf_form(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_bytes(b'[\r\n {"index": 0, "name": "a"},\r\n {"index": 1 "name": "b"}]')
        with pytest.raises(ParseError, match=r"line 3 column 14 \(char 43\)$"):
            load_universe(path)


class TestNonUtf8Input:
    @pytest.mark.parametrize("before, line", [
        (b"", 1), (b"sample_id", 1), (b"a\n", 2), (b"a\n\nb", 3), (b"a\r\nb\r\n", 3),
        (b"a\rb\r", 3), ("a\u2028b\x85".encode(), 3), (b"a\x0cb", 2),
    ])
    def test_bad_byte_cites_its_line_as_splitlines_numbers_it(self, tmp_path, before, line):
        path = tmp_path / "d.csv"
        path.write_bytes(before + b"\xff\n")
        with pytest.raises(ParseError, match=f"^line {line}: .* is not UTF-8: byte 0xff"):
            load_probabilities(path)

    @pytest.mark.parametrize("before, line", [
        (b"", 1), (b"a\n", 2), (b"a\n\nb", 3), (b"a\r\nb\r\n", 3), (b"a\rb\r", 3),
        ("a\u2028b\x85c\x0c".encode(), 1), ("a\u2029\n".encode(), 2),
    ])
    def test_json_lines_cite_the_lf_line_of_a_bad_byte(self, tmp_path, before, line):
        path = tmp_path / "d.jsonl"
        path.write_bytes(before + b"\xff\n")
        pattern = f"^line {line}: .* is not UTF-8: byte 0xff"
        with pytest.raises(ParseError, match=pattern):
            load_probabilities(path)
        with pytest.raises(ParseError, match=pattern):
            load_predictions(path, 2)

    @pytest.mark.parametrize("second", [b'{"sample_id": "\xff"}\n', b"{oops\n"])
    def test_json_lines_bad_byte_and_bad_json_cite_the_same_line(self, tmp_path, second):
        first = '{"sample_id": "a\u2028b", "true_label": 0, "probs": [1.0, 0.0]}\n'.encode()
        path = tmp_path / "d.jsonl"
        path.write_bytes(first + second)
        with pytest.raises(ParseError, match="^line 2: "):
            load_probabilities(path)

    @pytest.mark.parametrize("value, message", [
        (b'"\xff"', "line 2: .* is not UTF-8"), (b"", "line 2 column"),
    ])
    def test_json_file_bad_byte_and_bad_json_cite_the_same_line(self, tmp_path, value, message):
        path = tmp_path / "classes.json"
        path.write_bytes('[{"index": 0, "name": "a\u2028b"},\n'.encode()
                         + b' {"index": 1, "name": ' + value + b"}]\n")
        with pytest.raises(ParseError, match=message):
            load_universe(path)

    def test_truncated_sequence_at_the_end(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"{}\n\xe2\x82")
        with pytest.raises(ParseError, match=r"^line 2: .*byte 0xe2 \(unexpected end of data\)"):
            load_probabilities(path)


class TestLargestRemainder:
    def test_ten_examples_three_parts(self):
        assert largest_remainder_sizes(10, [0.75, 0.15, 0.10]) == [8, 1, 1]

    def test_half_and_half_on_822(self):
        assert largest_remainder_sizes(822, [0.5, 0.5]) == [411, 411]

    def test_sizes_always_sum_to_total(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            parts = int(rng.integers(1, 6))
            raw = rng.random(parts)
            fractions = (raw / raw.sum()).tolist()
            total = int(rng.integers(0, 500))
            sizes = largest_remainder_sizes(total, fractions)
            assert sum(sizes) == total
            assert all(s >= 0 for s in sizes)


class TestSplit:
    def _dataset(self, n=822, k=4, seed=6):
        return generate(SyntheticSpec(k=k, seed=seed), n)

    def test_half_and_half_on_822_examples(self):
        d = self._dataset()
        parts = split(d, SplitSpec((("calib", 0.5), ("test", 0.5)), seed=1))
        assert len(parts["calib"]) == 411
        assert len(parts["test"]) == 411

    def test_parts_are_disjoint_and_cover_the_input(self):
        d = self._dataset(n=101)
        parts = split(
            d, SplitSpec((("train", 0.75), ("val", 0.15), ("test", 0.10)), seed=9)
        )
        ids = [sample_id for part in parts.values() for sample_id in part.ids]
        assert sorted(ids) == sorted(d.ids)
        assert len(set(ids)) == len(ids)

    def test_same_seed_twice_is_identical(self):
        d = self._dataset(n=200)
        spec = SplitSpec((("a", 0.3), ("b", 0.7)), seed=77)
        first = split(d, spec)
        second = split(d, spec)
        assert first == second

    def test_different_seeds_differ(self):
        d = self._dataset(n=200)
        a = split(d, SplitSpec((("a", 0.5), ("b", 0.5)), seed=1))
        b = split(d, SplitSpec((("a", 0.5), ("b", 0.5)), seed=2))
        assert a != b

    def test_stratified_split_preserves_class_proportions(self):
        d = self._dataset(n=600, k=3, seed=44)
        spec = SplitSpec((("calib", 0.5), ("test", 0.5)), seed=3, stratified=True)
        parts = split(d, spec)
        for label in range(3):
            total = int((d.labels == label).sum())
            for part in parts.values():
                count = int((part.labels == label).sum())
                assert abs(count - total / 2) <= 1

    def test_empty_part_warns_but_does_not_fail(self, caplog):
        d = self._dataset(n=3, k=3)
        with caplog.at_level("WARNING", logger="conformal_gate.io"):
            parts = split(d, SplitSpec((("big", 0.9), ("tiny", 0.1)), seed=0))
        assert len(parts["tiny"]) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_fraction_validation(self):
        with pytest.raises(Exception):
            SplitSpec((("a", 0.5), ("b", 0.6)), seed=0)
        with pytest.raises(Exception):
            SplitSpec((), seed=0)


class TestReportCsv:
    def test_all_correct_singletons_render_as_ones(self):
        d = make_dataset(2, [("a", 0, one_hot(2, 0)), ("b", 1, one_hot(2, 1))])
        report = evaluate(d, predict_batch(d, 0.0))
        text = report_csv_text(report)
        lines = text.splitlines()
        assert lines[0] == "class,recall,avg_set_size,strict_coverage"
        assert lines[1] == "class_0,1.0000,1.0000,1.0000"
        assert lines[-1] == "overall,1.0000,1.0000,1.0000"

    def test_absent_class_renders_na(self):
        d = make_dataset(3, [("a", 0, one_hot(3, 0))])
        report = evaluate(d, predict_batch(d, 0.0))
        lines = report_csv_text(report).splitlines()
        assert lines[2] == "class_1,n/a,n/a,n/a"

    def test_rates_use_four_decimals(self):
        data = generate(SyntheticSpec(k=3, seed=20), 90)
        report = evaluate(data, predict_batch(data, 0.7))
        for line in report_csv_text(report).splitlines()[1:]:
            for cell in line.split(",")[1:]:
                if cell != "n/a":
                    whole, frac = cell.split(".")
                    assert len(frac) == 4
