"""CLI contracts: artifacts, exit codes, determinism, pipeline equivalence."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
from pathlib import Path

import pytest

from conformal_gate import cli, synth
from conformal_gate.calibration import Alpha, calibrate
from conformal_gate.cli import main
from conformal_gate.io import load_predictions, load_probabilities, write_dataset
from conformal_gate.metrics import evaluate, marginal_coverage
from conformal_gate.predictor import predict_batch
from conformal_gate.synth import MAX_K, SyntheticSpec, generate

from conftest import one_hot
from test_startup import run_child


def run(*argv) -> int:
    return main(list(argv))


# simulate's stdout, trial JSON and the sha256 of each --write-data CSV, recorded for two
# specs (one is the benchmark's simulate shape): a change anywhere from the generator to the
# writers that moves one byte of simulate's outputs fails here.
GOLDEN_TRIAL = json.loads((Path(__file__).parent / "data" / "golden_trial.json").read_text("utf-8"))


# Runs ``main(argv)`` in a child held to 1 GiB of address space, then prints its exit code,
# its wall time in seconds, and what it wrote to stdout and stderr.  The limit turns an
# allocation that grows with a flag into a MemoryError in the child, where without it the
# allocation would grow until the host runs out of memory.  BLAS runs one thread, since
# each thread it starts reserves address space.
LIMITED_PROBE = """
import contextlib, io, json, os, resource, sys, time
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conformal_gate.cli import main
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, time.perf_counter() - start, out.getvalue(), err.getvalue()]))
"""


def one_hot_csv(tmp_path, n=100, k=3, name="calib.csv"):
    rows = ["sample_id,true_label," + ",".join(f"p_{i}" for i in range(k))]
    for i in range(n):
        label = i % k
        rows.append(f"s{i},{label}," + ",".join(repr(v) for v in one_hot(k, label)))
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


class TestCalibrateCommand:
    def test_one_hot_rows_give_zero_threshold(self, tmp_path):
        calib = one_hot_csv(tmp_path)
        out = tmp_path / "artifact.json"
        assert run("calibrate", "--input", str(calib), "--alpha", "0.05",
                   "--out", str(out)) == 0
        artifact = json.loads(out.read_text())
        assert artifact["threshold"] == 0.0
        assert artifact["alpha"] == 0.05
        assert artifact["n"] == 100
        assert artifact["k"] == 3
        assert len(artifact["input_sha256"]) == 64
        assert len(artifact["universe_sha256"]) == 64

    def test_ten_rows_give_all_inclusive(self, tmp_path):
        calib = one_hot_csv(tmp_path, n=10)
        out = tmp_path / "artifact.json"
        assert run("calibrate", "--input", str(calib), "--out", str(out)) == 0
        assert json.loads(out.read_text())["threshold"] == "all_inclusive"

    def test_malformed_row_exits_2_citing_line(self, tmp_path, capsys):
        calib = one_hot_csv(tmp_path, n=10)
        lines = calib.read_text().splitlines()
        lines[6] = "s5,0,broken,0.0,0.0"
        calib.write_text("\n".join(lines) + "\n")
        out = tmp_path / "artifact.json"
        assert run("calibrate", "--input", str(calib), "--out", str(out)) == 2
        assert "line 7" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        assert run("calibrate", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "a.json")) == 1

    def test_usage_error_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            run("calibrate")
        assert exc.value.code == 3

    def test_curve_file_written(self, tmp_path):
        calib = one_hot_csv(tmp_path)
        curve = tmp_path / "curve.csv"
        assert run("calibrate", "--input", str(calib), "--out",
                   str(tmp_path / "a.json"), "--curve", str(curve)) == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "rank,score"
        assert len(lines) == 102  # header + 100 points + threshold row

    @pytest.mark.parametrize("classes, problem", [
        ('[{"index": 0, "name": "a"}, {"index": 1, "name": "b"', "malformed classes file"),
        ('[{"index": 0, "name": "a"}, {"index": 1.9, "name": "b"}]', "index 1.9 and name 'b'"),
        ('[{"index": 0, "name": "a"}, {"index": true, "name": "b"}]', "index True and"),
        ('[{"index": 0, "name": "a"}, {"index": 1, "name": null}]', "name None are not"),
        ('[{"index": 0, "name": "a"}, {"index": 1}]', "malformed classes file"),
    ], ids=["bad-json", "float-index", "bool-index", "null-name", "no-name"])
    def test_bad_classes_file_exits_2(self, tmp_path, capsys, classes, problem):
        path = tmp_path / "classes.json"
        path.write_text(classes)
        calib = one_hot_csv(tmp_path, k=2)
        assert run("calibrate", "--input", str(calib), "--classes", str(path),
                   "--out", str(tmp_path / "a.json")) == 2
        assert problem in capsys.readouterr().err


class TestPredictCommand:
    def _artifact(self, tmp_path, threshold):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"threshold": threshold, "alpha": 0.05}))
        return path

    def test_confident_row_gets_singleton(self, tmp_path):
        artifact = self._artifact(tmp_path, 0.2)
        test = tmp_path / "test.csv"
        test.write_text("sample_id,true_label,p_0,p_1,p_2\nx,0,0.9,0.05,0.05\n")
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(out)) == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record == {"sample_id": "x", "members": [0], "set_size": 1,
                          "true_label": 0}

    def test_all_inclusive_lists_every_class(self, tmp_path):
        artifact = self._artifact(tmp_path, "all_inclusive")
        test = one_hot_csv(tmp_path, n=4, name="test.csv")
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(out)) == 0
        for row in out.read_text().splitlines():
            assert json.loads(row)["members"] == [0, 1, 2]

    def test_an_output_in_a_missing_directory_exits_1_naming_it(self, tmp_path, monkeypatch,
                                                                capsys):
        monkeypatch.chdir(tmp_path)
        self._artifact(tmp_path, 0.5)
        one_hot_csv(tmp_path, n=4, name="test.csv")
        assert run("predict", "--calibration", "artifact.json", "--input", "test.csv",
                   "--out", "missing/sets.jsonl") == 1
        assert capsys.readouterr() == (
            "", "i/o error: [Errno 2] No such file or directory: 'missing/sets.jsonl'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json", "test.csv"]

    def test_empty_input_gives_empty_output(self, tmp_path):
        artifact = self._artifact(tmp_path, 0.5)
        test = tmp_path / "test.csv"
        test.write_text("sample_id,true_label,p_0,p_1\n")
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_ragged_row_exits_2(self, tmp_path, capsys):
        artifact = self._artifact(tmp_path, 0.5)
        test = tmp_path / "test.csv"
        test.write_text("sample_id,true_label,p_0,p_1,p_2\nx,0,0.5,0.5\n")
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        assert "line 2" in capsys.readouterr().err

    def test_universe_mismatch_warns_but_proceeds(self, tmp_path, caplog):
        # same K, different class names: the threshold still applies
        calib = one_hot_csv(tmp_path, k=3)
        artifact = tmp_path / "a.json"
        run("calibrate", "--input", str(calib), "--out", str(artifact))
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps(
            [{"index": i, "name": name} for i, name in enumerate(["sheet", "swarf", "shred"])]
        ))
        out = tmp_path / "p.jsonl"
        with caplog.at_level("WARNING", logger="conformal_gate.cli"):
            assert run("predict", "--calibration", str(artifact), "--input", str(calib),
                       "--classes", str(classes), "--out", str(out)) == 0
        assert any("universe" in r.message for r in caplog.records)
        assert len(out.read_text().splitlines()) == 100

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        calib = one_hot_csv(tmp_path, k=3)
        artifact = tmp_path / "a.json"
        run("calibrate", "--input", str(calib), "--out", str(artifact))
        other = one_hot_csv(tmp_path, k=5, name="other.csv")
        out = tmp_path / "p.jsonl"
        assert run("predict", "--calibration", str(artifact),
                   "--input", str(other), "--out", str(out)) == 2
        assert "k=3" in capsys.readouterr().err
        assert not out.exists()
        assert run("evaluate", "--calibration", str(artifact), "--input", str(other),
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-csv", str(tmp_path / "r.csv")) == 2

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf"),
                                           "0.5", True, None])
    def test_bad_threshold_exits_2(self, tmp_path, capsys, threshold):
        artifact = self._artifact(tmp_path, threshold)
        test = one_hot_csv(tmp_path, n=4, name="test.csv")
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(out)) == 2
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "[0.5]", '"all_inclusive"', "null"])
    def test_artifact_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        artifact = tmp_path / "artifact.json"
        artifact.write_text(text)
        test = one_hot_csv(tmp_path, n=4, name="test.csv")
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(tmp_path / "pred.jsonl")) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_deeply_nested_artifact_exits_2(self, tmp_path, capsys):
        artifact = tmp_path / "artifact.json"
        artifact.write_text("[" * 100_000)
        test = one_hot_csv(tmp_path, n=4, name="test.csv")
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(tmp_path / "pred.jsonl")) == 2
        assert f"malformed calibration artifact {artifact}" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [0, 0.0, 1, 1.0, "all_inclusive"])
    def test_threshold_bounds_are_accepted(self, tmp_path, threshold):
        artifact = self._artifact(tmp_path, threshold)
        test = one_hot_csv(tmp_path, n=4, name="test.csv")
        assert run("predict", "--calibration", str(artifact), "--input", str(test),
                   "--out", str(tmp_path / "pred.jsonl")) == 0


class TestEvaluateCommand:
    def test_all_correct_singletons(self, tmp_path, capsys):
        calib = one_hot_csv(tmp_path)
        artifact = tmp_path / "a.json"
        run("calibrate", "--input", str(calib), "--out", str(artifact))
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        assert run("evaluate", "--calibration", str(artifact), "--input", str(calib),
                   "--out-json", str(out_json), "--out-csv", str(out_csv)) == 0
        assert "overall,1.0000,1.0000,1.0000" in out_csv.read_text()
        report = json.loads(out_json.read_text())
        assert report["overall_strict_coverage"] == 1.0
        assert report["overall_strict_coverage"] <= report["marginal_coverage"]
        assert "marginal_coverage" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["Steel, sheets", 'E3 "shred"', "E3\nshred", "E3\r\nshred",
                                      "E3\u2028shred", "E3\ud800"])
    def test_class_name_the_report_csv_cannot_hold_exits_2(self, tmp_path, capsys, name):
        data = one_hot_csv(tmp_path, n=30)
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps([{"index": i, "name": n}
                                       for i, n in enumerate(["E1", name, "E8"])]))
        artifact = tmp_path / "a.json"
        assert run("calibrate", "--input", str(data), "--classes", str(classes),
                   "--out", str(artifact)) == 0
        out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
        assert run("evaluate", "--calibration", str(artifact), "--input", str(data),
                   "--classes", str(classes),
                   "--out-json", str(out_json), "--out-csv", str(out_csv)) == 2
        assert (f"error: classes file {classes}: class name {name!r} cannot be written to CSV"
                in capsys.readouterr().err)
        assert not out_json.exists() and not out_csv.exists()

    def test_mismatched_prediction_count_exits_2(self, tmp_path):
        calib = one_hot_csv(tmp_path)
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text('{"sample_id": "s0", "members": [0]}\n')
        assert run("evaluate", "--input", str(calib),
                   "--predictions", str(predictions),
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-csv", str(tmp_path / "r.csv")) == 2

    @pytest.mark.parametrize("record", [
        '{"sample_id": "s1", "members": [7]}',
        '{"sample_id": "s1", "members": [-1]}',
        '{"sample_id": "s1", "members": [true]}',
        '{"sample_id": "s1", "members": [1.0]}',
        '{"sample_id": "s1", "members": [1, 2], "set_size": 1}',
        '{"sample_id": null, "members": [1]}',
        '{"sample_id": 1, "members": [1]}',
        '{"sample_id": "s1", "members": [1], "set_size": true}',
        '{"sample_id": "s1", "members": [1], "set_size": 1.0}',
    ])
    def test_bad_prediction_record_exits_2_citing_line(self, tmp_path, capsys, record):
        data = one_hot_csv(tmp_path, n=3)
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text('{"sample_id": "s0", "members": [0], "set_size": 1}\n'
                               + record + '\n{"sample_id": "s2", "members": [2]}\n')
        assert run("evaluate", "--input", str(data), "--predictions", str(predictions),
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-csv", str(tmp_path / "r.csv")) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("members", ['""', "{}", '"01"', "null", "3"])
    def test_members_that_are_not_an_array_exit_2(self, tmp_path, capsys, members):
        data = one_hot_csv(tmp_path, n=2)
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text('{"sample_id": "s0", "members": [0]}\n'
                               f'{{"sample_id": "s1", "members": {members}}}\n')
        assert run("evaluate", "--input", str(data), "--predictions", str(predictions),
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-csv", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert "line 2: members" in err and "is not a JSON array" in err
        assert not (tmp_path / "r.json").exists()

    def test_deeply_nested_prediction_line_exits_2_citing_line(self, tmp_path, capsys):
        data = one_hot_csv(tmp_path, n=2)
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text('{"sample_id": "s0", "members": [0]}\n' + "[" * 100_000 + "\n")
        assert run("evaluate", "--input", str(data), "--predictions", str(predictions),
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-csv", str(tmp_path / "r.csv")) == 2
        assert "error: line 2: bad JSON" in capsys.readouterr().err

    def test_needs_calibration_or_predictions(self, tmp_path, capsys):
        calib = one_hot_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--input", str(calib), "--out-json", str(tmp_path / "r.json"),
                "--out-csv", str(tmp_path / "r.csv"))
        assert exc.value.code == 3
        assert capsys.readouterr().err.endswith(
            "error: one of the arguments --calibration --predictions is required\n")
        assert sorted(tmp_path.iterdir()) == [calib]

    def test_takes_calibration_or_predictions_not_both(self, tmp_path, capsys):
        calib = one_hot_csv(tmp_path)
        artifact, sets = tmp_path / "a.json", tmp_path / "sets.jsonl"
        assert run("calibrate", "--input", str(calib), "--out", str(artifact)) == 0
        assert run("predict", "--calibration", str(artifact), "--input", str(calib),
                   "--out", str(sets)) == 0
        inputs = sorted(tmp_path.iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--calibration", str(artifact), "--predictions", str(sets),
                "--input", str(calib), "--out-json", str(tmp_path / "r.json"),
                "--out-csv", str(tmp_path / "r.csv"))
        assert exc.value.code == 3
        assert capsys.readouterr().err.endswith(
            "error: argument --predictions: not allowed with argument --calibration\n")
        assert sorted(tmp_path.iterdir()) == inputs

    def test_precomputed_predictions_match_inprocess(self, tmp_path):
        data = generate(SyntheticSpec(k=4, seed=31, sharpness=3.0), 200)
        data_path = tmp_path / "data.csv"
        write_dataset(data, data_path)
        artifact = tmp_path / "a.json"
        run("calibrate", "--input", str(data_path), "--out", str(artifact))
        pred_path = tmp_path / "pred.jsonl"
        run("predict", "--calibration", str(artifact), "--input", str(data_path),
            "--out", str(pred_path))
        direct_json = tmp_path / "direct.json"
        via_file_json = tmp_path / "via_file.json"
        run("evaluate", "--calibration", str(artifact), "--input", str(data_path),
            "--out-json", str(direct_json), "--out-csv", str(tmp_path / "d.csv"))
        assert run("evaluate", "--predictions", str(pred_path), "--input", str(data_path),
                   "--out-json", str(via_file_json), "--out-csv", str(tmp_path / "v.csv")) == 0
        assert direct_json.read_bytes() == via_file_json.read_bytes()


class TestNonUtf8Input:
    FILES = {
        "d.csv": "sample_id,true_label,p_0,p_1\ns0,0,1.0,0.0\ns1,1,0.0,1.0\n",
        "d.jsonl": '{"sample_id": "s0", "true_label": 0, "probs": [1.0, 0.0]}\n'
                   '{"sample_id": "s1", "true_label": 1, "probs": [0.0, 1.0]}\n',
        "pred.jsonl": '{"sample_id": "s0", "members": [0]}\n{"sample_id": "s1", "members": [1]}\n',
        "classes.json": '[\n  {"index": 0, "name": "a"},\n  {"index": 1, "name": "b"}\n]\n',
        "artifact.json": '{\n  "threshold": 0.5\n}\n',
    }

    @pytest.mark.parametrize("corrupt, line, argv", [
        ("d.csv", 3, ["calibrate", "--input", "d.csv", "--out", "a.json"]),
        ("d.jsonl", 2, ["calibrate", "--input", "d.jsonl", "--out", "a.json"]),
        ("pred.jsonl", 2, ["evaluate", "--input", "d.csv", "--predictions", "pred.jsonl",
                           "--out-json", "r.json", "--out-csv", "r.csv"]),
        ("classes.json", 3, ["calibrate", "--input", "d.csv", "--classes", "classes.json",
                             "--out", "a.json"]),
        ("artifact.json", 2, ["predict", "--calibration", "artifact.json", "--input", "d.csv",
                              "--out", "sets.jsonl"]),
    ], ids=["dataset-csv", "dataset-jsonl", "predictions", "classes", "artifact"])
    def test_non_utf8_byte_exits_2_citing_line(self, tmp_path, monkeypatch, capsys,
                                               corrupt, line, argv):
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            lines = [row.encode() for row in text.splitlines(keepends=True)]
            if name == corrupt:
                lines[line - 1] = lines[line - 1][:1] + b"\xff" + lines[line - 1][1:]
            (tmp_path / name).write_bytes(b"".join(lines))
        assert run(*argv) == 2
        assert f"error: line {line}: {corrupt} is not UTF-8: byte 0xff" in capsys.readouterr().err


class TestIntegerTooLongForJson:
    """An integer of more than 4300 digits, which ``json`` will not convert, is bad JSON."""

    HUGE = "9" * 5001

    @pytest.mark.parametrize("name, text, argv, cited", [
        ("artifact.json", '{{"threshold": 0.5, "k": {}}}',
         ["predict", "--calibration", "artifact.json", "--input", "d.csv", "--out", "sets.jsonl"],
         "error: malformed calibration artifact artifact.json: "),
        ("classes.json", '[{{"index": 0, "name": "a"}}, {{"index": {}, "name": "b"}}]',
         ["calibrate", "--input", "d.csv", "--classes", "classes.json", "--out", "a.json"],
         "error: malformed classes file classes.json: "),
        ("d.jsonl", '{{"sample_id": "s0", "true_label": 0, "probs": [1.0, 0.0]}}\n'
                    '{{"sample_id": "s1", "true_label": {}, "probs": [0.0, 1.0]}}\n',
         ["calibrate", "--input", "d.jsonl", "--out", "a.json"], "error: line 2: bad JSON: "),
        ("pred.jsonl", '{{"sample_id": "s0", "members": [0], "set_size": 1}}\n'
                       '{{"sample_id": "s1", "members": [1], "set_size": {}}}\n',
         ["evaluate", "--input", "d.csv", "--predictions", "pred.jsonl",
          "--out-json", "r.json", "--out-csv", "r.csv"], "error: line 2: bad JSON: "),
    ], ids=["artifact-k", "classes-index", "dataset-jsonl-label", "predictions-set-size"])
    def test_exits_2_citing_the_line_or_path(self, tmp_path, monkeypatch, capsys, name, text,
                                            argv, cited):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text(TestNonUtf8Input.FILES["d.csv"])
        (tmp_path / name).write_text(text.format(self.HUGE))
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(cited) and "4300" in err
        assert not any((tmp_path / out).exists() for out in ("a.json", "sets.jsonl", "r.json"))



class TestCsvWithoutRowsOrWithBom:
    HEADER = "sample_id,true_label,p_0,p_1\n"
    ARGV = {
        "calibrate": ["calibrate", "--input", "d.csv", "--out", "a.json"],
        "predict": ["predict", "--calibration", "art.json", "--input", "d.csv",
                    "--out", "sets.jsonl"],
        "evaluate": ["evaluate", "--calibration", "art.json", "--input", "d.csv",
                     "--out-json", "r.json", "--out-csv", "r.csv"],
    }

    @pytest.fixture(autouse=True)
    def _files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "art.json").write_text('{"threshold": 0.5}')

    @pytest.mark.parametrize("body", ["", "\n \n\t\n"], ids=["header-only", "blank-lines"])
    @pytest.mark.parametrize("command, message", [
        ("calibrate", "error: line 2: calibration file d.csv holds no samples\n"),
        ("evaluate", "error: line 2: test file d.csv holds no samples\n"),
    ])
    def test_no_rows_exits_2(self, tmp_path, capsys, body, command, message):
        (tmp_path / "d.csv").write_text(self.HEADER + body)
        assert run(*self.ARGV[command]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command, what", [("calibrate", "calibration"), ("evaluate", "test")])
    def test_a_jsonl_of_no_records_exits_2_citing_line_1(self, tmp_path, capsys, command, what):
        (tmp_path / "d.jsonl").write_text("\n \n")
        (tmp_path / "c.json").write_text('[{"index": 0, "name": "a"}, {"index": 1, "name": "b"}]')
        argv = [arg.replace("d.csv", "d.jsonl") for arg in self.ARGV[command]]
        assert run(*argv, "--classes", "c.json") == 2
        assert capsys.readouterr().err == f"error: line 1: {what} file d.jsonl holds no samples\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["art.json", "c.json", "d.jsonl"]

    @pytest.mark.parametrize("command", ["calibrate", "predict", "evaluate"])
    def test_byte_order_mark_exits_2_naming_it(self, tmp_path, capsys, command):
        (tmp_path / "d.csv").write_text("\ufeff" + self.HEADER + "s0,0,1.0,0.0\n",
                                        encoding="utf-8")
        assert run(*self.ARGV[command]) == 2
        assert capsys.readouterr().err == "error: line 1: unexpected UTF-8 byte-order mark (BOM)\n"


class TestSimulateCommand:
    def test_default_shape(self, tmp_path):
        out = tmp_path / "trial.json"
        assert run("simulate", "--k", "4", "--n-calib", "100", "--n-test", "200",
                   "--seeds", "5", "--seed", "0", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert len(obj["per_seed"]) == 5
        assert obj["n_seeds"] == 5

    def test_tiny_calibration_gives_full_coverage(self, tmp_path):
        out = tmp_path / "trial.json"
        assert run("simulate", "--n-calib", "5", "--n-test", "100", "--seeds", "4",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["per_seed"] == [1.0, 1.0, 1.0, 1.0]

    def test_alpha_half_lands_near_half(self, tmp_path):
        out = tmp_path / "trial.json"
        assert run("simulate", "--alpha", "0.5", "--n-calib", "500",
                   "--n-test", "1000", "--seeds", "10", "--out", str(out)) == 0
        assert json.loads(out.read_text())["mean"] == pytest.approx(0.5, abs=0.05)

    def test_invalid_spec_exits_2(self, tmp_path):
        assert run("simulate", "--k", "1", "--out", str(tmp_path / "t.json")) == 2

    @pytest.mark.parametrize("sharpness", ["inf", "1e308"])
    def test_a_sharpness_that_overflows_exits_2_naming_the_flag(self, tmp_path, capsys, sharpness):
        assert run("simulate", "--k", "3", "--n-calib", "20", "--n-test", "20", "--seeds", "2",
                   "--sharpness", sharpness, "--out", str(tmp_path / "t.json")) == 2
        assert capsys.readouterr().err == (
            f"error: sharpness (--sharpness) {float(sharpness)!r} is too large: the target"
            " variate, up to 53 ln 2, times 1 + sharpness overflows a float\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_size_numpy_cannot_allocate_exits_1_in_one_line(self, tmp_path, monkeypatch,
                                                              capsys):
        """853 PiB, past any host's address space, so numpy refuses it before touching memory.

        ``synth.MAX_DRAWS`` is lifted, so that the draw reaches numpy.
        """
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(synth, "MAX_DRAWS", 10**18)
        assert run("simulate", "--n-test", str(10**16), "--seeds", "1", "--out", "t.json",
                   "--write-data", "H") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("out of memory: Unable to allocate 853. PiB for an array with shape")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_an_oversized_k_exits_2_at_once_naming_the_flag(self, tmp_path):
        done = run_child(LIMITED_PROBE, "simulate", "--k", str(10**11), "--out", "t.json",
                         cwd=tmp_path)
        code, seconds, out, err = json.loads(done.stdout)
        assert (code, out, err) == (
            2, "", f"error: class count (--k) {10**11} is too large: at most {MAX_K} classes\n")
        assert seconds < 1.0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, sizes", [
        ("--n-calib", ["--n-calib", "10000", "--n-test", "10"]),
        ("--n-test", ["--n-calib", "10", "--n-test", "10000"]),
    ])
    def test_an_oversized_draw_exits_2_at_once_naming_the_flags(self, tmp_path, flag, sizes):
        done = run_child(LIMITED_PROBE, "simulate", "--k", "100000", *sizes, "--seeds", "1",
                         "--out", "t.json", cwd=tmp_path)
        code, seconds, out, err = json.loads(done.stdout)
        assert (code, out, err) == (
            2, "", f"error: sample count ({flag}) 10000 is too large for --k 100000:"
            f" n * (k + 3) = 1000030000 draws, at most {synth.MAX_DRAWS}\n")
        assert seconds < 1.0
        assert list(tmp_path.iterdir()) == []

    def test_a_memory_error_with_no_message_exits_1_in_one_line(self, tmp_path, monkeypatch,
                                                                capsys):
        def bare(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "simulate", bare)
        assert run("simulate", "--out", str(tmp_path / "t.json")) == 1
        assert capsys.readouterr() == ("", "out of memory\n")

    def test_write_data_emits_csvs(self, tmp_path):
        out_dir = tmp_path / "data"
        assert run("simulate", "--k", "3", "--n-calib", "50", "--n-test", "60",
                   "--seeds", "2", "--out", str(tmp_path / "t.json"),
                   "--write-data", str(out_dir)) == 0
        calib = load_probabilities(out_dir / "calibration.csv")
        test = load_probabilities(out_dir / "test.csv")
        assert len(calib) == 50
        assert len(test) == 60

    @pytest.fixture
    def draws(self, monkeypatch):
        """The sample count of each ``synth.generate`` call, in call order."""
        calls = []
        draw = synth.generate
        monkeypatch.setattr(synth, "generate", lambda spec, n: calls.append(n) or draw(spec, n))
        return calls

    def test_write_data_draws_each_trial_once(self, tmp_path, draws):
        assert run("simulate", "--k", "3", "--n-calib", "50", "--n-test", "60", "--seeds", "3",
                   "--out", str(tmp_path / "t.json"), "--write-data", str(tmp_path / "d")) == 0
        assert draws == [50, 60] * 3

    @pytest.mark.parametrize("n_test", ["0", "-1"])
    def test_a_test_size_below_one_exits_2_before_any_draw(self, tmp_path, capsys, draws, n_test):
        assert run("simulate", "--n-test", n_test, "--seeds", "2",
                   "--out", str(tmp_path / "t.json")) == 2
        assert capsys.readouterr() == ("", f"error: n_test must be >= 1, got {n_test}\n")
        assert list(tmp_path.iterdir()) == []
        assert draws == []

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRIAL))
    def test_outputs_match_the_golden_trial_bytes(self, tmp_path, capsys, name):
        golden = GOLDEN_TRIAL[name]
        assert run("simulate", *golden["argv"], "--out", str(tmp_path / "trial.json"),
                   "--write-data", str(tmp_path / "data")) == 0
        assert capsys.readouterr() == (golden["stdout"], "")
        assert (tmp_path / "trial.json").read_bytes() == golden["trial.json"].encode("utf-8")
        for csv in ("calibration.csv", "test.csv"):
            assert hashlib.sha256((tmp_path / "data" / csv).read_bytes()).hexdigest() == golden[csv]

    # seeds whose three trials give three different coverages
    @pytest.mark.parametrize("k, n_calib, n_test, alpha, seed", [
        ("4", "40", "400", "0.2", "5"),
        ("9", "300", "2000", "0.05", "8"),
    ])
    def test_written_data_reproduces_the_last_trial(self, tmp_path, k, n_calib, n_test, alpha,
                                                    seed):
        out_dir = tmp_path / "data"
        assert run("simulate", "--k", k, "--n-calib", n_calib, "--n-test", n_test,
                   "--alpha", alpha, "--seeds", "3", "--seed", seed,
                   "--out", str(tmp_path / "t.json"), "--write-data", str(out_dir)) == 0
        per_seed = json.loads((tmp_path / "t.json").read_text())["per_seed"]
        assert len(set(per_seed)) == 3
        artifact, sets = tmp_path / "a.json", tmp_path / "sets.jsonl"
        assert run("calibrate", "--input", str(out_dir / "calibration.csv"), "--alpha", alpha,
                   "--out", str(artifact)) == 0
        assert run("predict", "--calibration", str(artifact),
                   "--input", str(out_dir / "test.csv"), "--out", str(sets)) == 0
        test = load_probabilities(out_dir / "test.csv")
        coverage = marginal_coverage(load_predictions(sets, test.universe.k), test.labels)
        assert coverage == per_seed[-1]
        report = tmp_path / "r.json"
        assert run("evaluate", "--calibration", str(artifact), "--input", str(out_dir / "test.csv"),
                   "--out-json", str(report), "--out-csv", str(tmp_path / "r.csv")) == 0
        assert json.loads(report.read_text())["marginal_coverage"] == per_seed[-1]


class TestOutputsThatNameOneFile:
    """Two outputs of one command that resolve to one file are a usage error."""

    ARGV = {
        "calibrate": ["calibrate", "--input", "calib.csv", "--out", "x", "--curve", "./x"],
        "evaluate": ["evaluate", "--calibration", "a.json", "--input", "calib.csv",
                     "--out-json", "r", "--out-csv", "link/r"],
        "simulate": ["simulate", "--k", "3", "--n-calib", "20", "--n-test", "20", "--seeds",
                     "1", "--out", "d/test.csv", "--write-data", "d"],
    }
    MESSAGES = {
        "calibrate": "error: --out and --curve name one file: ./x\n",
        "evaluate": "error: --out-json and --out-csv name one file: link/r\n",
        "simulate": "error: --out and --write-data's test.csv name one file: d/test.csv\n",
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_exits_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        one_hot_csv(tmp_path, n=20)
        assert run("calibrate", "--input", "calib.csv", "--out", "a.json") == 0
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        capsys.readouterr()
        inputs = sorted(tmp_path.iterdir())
        assert run(*self.ARGV[command]) == 3
        assert capsys.readouterr() == ("", self.MESSAGES[command])
        assert sorted(tmp_path.iterdir()) == inputs


class TestEmptyPathIsAUsageError:
    """An empty path is a usage error, never read as an option left out."""

    ARGV = {
        "calibrate-curve": ["calibrate", "--input", "calib.csv", "--out", "a2.json",
                            "--curve", ""],
        "simulate-write-data": ["simulate", "--k", "3", "--n-calib", "20", "--n-test", "20",
                                "--seeds", "1", "--out", "t.json", "--write-data", ""],
        "predict-classes": ["predict", "--calibration", "a.json", "--input", "calib.csv",
                            "--out", "s.jsonl", "--classes", ""],
        "evaluate-predictions": ["evaluate", "--calibration", "a.json", "--predictions", "",
                                 "--input", "calib.csv", "--out-json", "r.json",
                                 "--out-csv", "r.csv"],
    }

    @pytest.mark.parametrize("case", list(ARGV))
    def test_exits_3_before_any_layer_loads(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        one_hot_csv(tmp_path, n=20)
        assert run("calibrate", "--input", "calib.csv", "--out", "a.json") == 0
        capsys.readouterr()
        inputs = sorted(tmp_path.iterdir())
        loaded = []
        monkeypatch.setattr(cli, "_import_layers", loaded.append)  # where numpy would load
        argv = self.ARGV[case]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 3
        option = argv[argv.index("") - 1]
        assert capsys.readouterr().err.endswith(
            f"conformal-gate {argv[0]}: error: argument {option}: an empty path names no file\n")
        assert loaded == []
        assert sorted(tmp_path.iterdir()) == inputs


class TestOutputsAreWrittenTogether:
    """When a later output cannot be written, no earlier one is left behind."""

    ARGV = {
        "calibrate": ["calibrate", "--input", "calib.csv", "--out", "a2.json",
                      "--curve", "missing/c.csv"],
        "evaluate": ["evaluate", "--calibration", "a.json", "--input", "calib.csv",
                     "--out-json", "r.json", "--out-csv", "missing/r.csv"],
        "simulate": ["simulate", "--k", "3", "--n-calib", "20", "--n-test", "20", "--seeds",
                     "1", "--out", "t.json", "--write-data", "calib.csv"],
        # the directories that --write-data made are removed
        "simulate-new-dir": ["simulate", "--k", "3", "--n-calib", "20", "--n-test", "20",
                             "--seeds", "1", "--out", "missing/t.json", "--write-data", "H/I"],
    }
    MESSAGES = {
        "calibrate": "i/o error: [Errno 2] No such file or directory: 'missing/c.csv'\n",
        "evaluate": "i/o error: [Errno 2] No such file or directory: 'missing/r.csv'\n",
        "simulate": "i/o error: [Errno 17] File exists: 'calib.csv'\n",
        "simulate-new-dir": "i/o error: [Errno 2] No such file or directory: 'missing/t.json'\n",
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_exits_1_naming_the_path_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                         command):
        monkeypatch.chdir(tmp_path)
        one_hot_csv(tmp_path, n=20)
        assert run("calibrate", "--input", "calib.csv", "--out", "a.json") == 0
        capsys.readouterr()
        inputs = sorted(tmp_path.iterdir())
        assert run(*self.ARGV[command]) == 1
        assert capsys.readouterr() == ("", self.MESSAGES[command])
        assert sorted(tmp_path.iterdir()) == inputs

    def test_a_failed_simulate_keeps_the_directories_it_did_not_make(self, tmp_path,
                                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "H").mkdir()
        assert run("simulate", "--k", "3", "--n-calib", "20", "--n-test", "20", "--seeds", "1",
                   "--out", "missing/t.json", "--write-data", "H/I/J") == 1
        assert capsys.readouterr() == (
            "", "i/o error: [Errno 2] No such file or directory: 'missing/t.json'\n")
        assert list(tmp_path.rglob("*")) == [tmp_path / "H"]


class TestLogging:
    def test_each_call_logs_at_its_own_level_to_its_own_stderr(self, tmp_path, monkeypatch):
        """A library caller that configured no logging runs ``main(argv)`` four times."""
        path = tmp_path / "d.csv"
        path.write_text("sample_id,true_label,p_0,p_1\n"
                        + "".join(f"s{i},{i % 2},0.5001,0.5\n" for i in range(4)))
        root = logging.getLogger()
        handlers, level = root.handlers[:], root.level
        root.handlers.clear()
        counts = []
        try:
            for name in ("WARNING", "WARNING", "ERROR", "WARNING"):
                monkeypatch.setenv("CONFORMAL_GATE_LOG", name)
                with contextlib.redirect_stderr(io.StringIO()) as stderr:
                    assert run("calibrate", "--input", str(path),
                               "--out", str(tmp_path / "a.json")) == 0
                counts.append(stderr.getvalue().count(
                    "WARNING conformal_gate.core_types: renormalizing 4 probability vector(s)"))
        finally:
            root.handlers[:] = handlers
            root.setLevel(level)
        assert counts == [1, 1, 0, 1]


class TestDeterminism:
    def test_rerun_produces_byte_identical_artifacts(self, tmp_path):
        data = generate(SyntheticSpec(k=5, seed=77, sharpness=2.5, noise=0.2), 300)
        data_path = tmp_path / "data.csv"
        write_dataset(data, data_path)

        def pipeline(tag: str) -> tuple[bytes, bytes, bytes, bytes]:
            artifact = tmp_path / f"a_{tag}.json"
            pred = tmp_path / f"p_{tag}.jsonl"
            rep_json = tmp_path / f"r_{tag}.json"
            rep_csv = tmp_path / f"r_{tag}.csv"
            assert run("calibrate", "--input", str(data_path), "--alpha", "0.1",
                       "--out", str(artifact)) == 0
            assert run("predict", "--calibration", str(artifact),
                       "--input", str(data_path), "--out", str(pred)) == 0
            assert run("evaluate", "--calibration", str(artifact),
                       "--input", str(data_path), "--out-json", str(rep_json),
                       "--out-csv", str(rep_csv)) == 0
            return (artifact.read_bytes(), pred.read_bytes(),
                    rep_json.read_bytes(), rep_csv.read_bytes())

        assert pipeline("first") == pipeline("second")

    def test_simulate_rerun_is_byte_identical(self, tmp_path):
        args = ("simulate", "--k", "4", "--n-calib", "80", "--n-test", "150",
                "--seeds", "3", "--seed", "9")
        first = tmp_path / "t1.json"
        second = tmp_path / "t2.json"
        assert run(*args, "--out", str(first)) == 0
        assert run(*args, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestPipelineEqualsLibrary:
    def test_file_pipeline_matches_in_process_composition(self, tmp_path):
        data = generate(SyntheticSpec(k=6, seed=13, sharpness=3.0, noise=0.15), 400)
        parts_path = tmp_path / "data.csv"
        write_dataset(data, parts_path)

        artifact = tmp_path / "a.json"
        pred = tmp_path / "p.jsonl"
        rep_json = tmp_path / "r.json"
        assert run("calibrate", "--input", str(parts_path), "--alpha", "0.05",
                   "--out", str(artifact)) == 0
        assert run("predict", "--calibration", str(artifact), "--input",
                   str(parts_path), "--out", str(pred)) == 0
        assert run("evaluate", "--calibration", str(artifact), "--input",
                   str(parts_path), "--out-json", str(rep_json),
                   "--out-csv", str(tmp_path / "r.csv")) == 0

        loaded = load_probabilities(parts_path)
        result = calibrate(loaded, Alpha(0.05))
        sets = predict_batch(loaded, result)
        report = evaluate(loaded, sets)

        assert json.loads(artifact.read_text())["threshold"] == result.threshold
        file_sets = [json.loads(row) for row in pred.read_text().splitlines()]
        assert [r["members"] for r in file_sets] == [sorted(s.members) for s in sets]
        assert json.loads(rep_json.read_text()) == report.to_json_obj()
