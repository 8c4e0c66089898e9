"""Self-tests of the benchmark: the oracle must reject corrupted outputs.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
from children import child_env, run_child
from inputs import Shape, make_split
from run import ALPHA, COMMANDS, ROOT, SRC, Workload, command_args
from spans import Tracer

sys.path.insert(0, str(SRC))
cli = importlib.import_module("conformal_gate.cli")

SMALL = Workload(Shape(5, 6.0, 0.05, float32=True), 200, 300, 200, 500, 3)


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    calib_text, test_text = make_split(3, SMALL.shape, SMALL.n_calib, SMALL.n_test, ALPHA)
    (work / "calib.csv").write_text(calib_text, encoding="utf-8")
    (work / "test.csv").write_text(test_text, encoding="utf-8")
    args = command_args(SMALL, work, seed=3)
    for command in COMMANDS:
        assert run_cli(args[command]) == 0, command
    calib = oracle.load_csv(work / "calib.csv")
    test = oracle.load_csv(work / "test.csv")
    _, tau = oracle.threshold(calib, ALPHA)
    return work, calib, test, tau


def corrupt(src: Path, dst: Path, edit) -> Path:
    dst.write_text(edit(src.read_text(encoding="utf-8")), encoding="utf-8")
    return dst


def check_calibration(work, calib, artifact=None, curve=None):
    return oracle.check_calibration(artifact or work / "artifact.json", curve or work / "curve.csv",
                                    work / "calib.csv", calib, ALPHA)


def check_trial(path):
    return oracle.check_trial(path, SMALL.shape.k, SMALL.sim_calib, SMALL.sim_test, ALPHA,
                              SMALL.sim_seeds)


def test_oracle_accepts_the_program_outputs(outputs):
    work, calib, test, tau = outputs
    assert calib.renormalised > 0  # float32 exports take the silent-renormalise branch
    assert check_calibration(work, calib) == []
    assert oracle.check_sets(work / "sets.jsonl", test, tau) == []
    assert oracle.check_report(work / "report.json", work / "report.csv", test, tau) == []
    assert oracle.check_report(work / "report_sets.json", work / "report_sets.csv", test, tau) == []
    assert oracle.check_same(work / "report.json", work / "report_sets.json") == []
    assert check_trial(work / "trial.json") == []


def test_test_file_holds_a_score_equal_to_the_threshold(outputs):
    _, _, test, tau = outputs
    assert ((1.0 - test.probs) == tau).any()


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_threshold_moved_one_ulp_is_rejected(outputs, tmp_path, direction):
    work, calib, _, tau = outputs
    art = json.loads((work / "artifact.json").read_text(encoding="utf-8"))
    art["threshold"] = math.nextafter(tau, direction)
    moved = tmp_path / "artifact.json"
    moved.write_text(json.dumps(art), encoding="utf-8")
    assert any("threshold" in p for p in check_calibration(work, calib, artifact=moved))


def test_curve_with_a_moved_score_is_rejected(outputs, tmp_path):
    work, calib, _, _ = outputs
    lines = (work / "curve.csv").read_text(encoding="utf-8").splitlines()
    rank, score = lines[5].split(",")
    lines[5] = f"{rank},{math.nextafter(float(score), 1.0)!r}"
    curve = tmp_path / "curve.csv"
    curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert check_calibration(work, calib, curve=curve)


@pytest.mark.parametrize("row", [0, 7, 299])
def test_flipped_set_member_is_rejected(outputs, tmp_path, row):
    work, _, test, tau = outputs
    records = [json.loads(line) for line in
               (work / "sets.jsonl").read_text(encoding="utf-8").splitlines()]
    members = set(records[row]["members"])
    members ^= {max(members) if len(members) > 1 else (min(members, default=0) + 1) % 5}
    records[row]["members"] = sorted(members)
    records[row]["set_size"] = len(members)  # consistent, so only membership is wrong
    flipped = tmp_path / "sets.jsonl"
    flipped.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert oracle.check_sets(flipped, test, tau)


def test_inconsistent_set_size_is_rejected(outputs, tmp_path):
    work, _, test, tau = outputs
    sets = corrupt(work / "sets.jsonl", tmp_path / "sets.jsonl",
                   lambda text: text.replace('"set_size": ', '"set_size": 1', 1))
    assert oracle.check_sets(sets, test, tau)


@pytest.mark.parametrize("key", ["marginal_coverage", "accuracy", "overall_avg_set_size"])
def test_report_rate_moved_one_ulp_is_rejected(outputs, tmp_path, key):
    work, _, test, tau = outputs
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    report[key] = math.nextafter(report[key], 0.0)
    moved = tmp_path / "report.json"
    moved.write_text(json.dumps(report), encoding="utf-8")
    problems = oracle.check_report(moved, work / "report.csv", test, tau)
    assert problems == [f"report {key} differs from numpy"]


def test_report_confusion_count_off_by_one_is_rejected(outputs, tmp_path):
    work, _, test, tau = outputs
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    report["confusion_matrix"][1][0] += 1
    moved = tmp_path / "report.json"
    moved.write_text(json.dumps(report), encoding="utf-8")
    assert oracle.check_report(moved, work / "report.csv", test, tau)


def test_report_csv_cell_change_is_rejected(outputs, tmp_path):
    work, _, test, tau = outputs
    table = corrupt(work / "report.csv", tmp_path / "report.csv",
                    lambda text: text.replace("overall,0.", "overall,1.", 1))
    assert oracle.check_report(work / "report.json", table, test, tau)


def test_evaluate_paths_must_agree(outputs, tmp_path):
    work, *_ = outputs
    other = corrupt(work / "report.json", tmp_path / "report_sets.json", lambda t: t + " ")
    assert oracle.check_same(work / "report.json", other)


def test_trial_outside_the_coverage_interval_is_rejected(outputs, tmp_path):
    work, *_ = outputs
    trial = json.loads((work / "trial.json").read_text(encoding="utf-8"))
    trial["per_seed"] = [c - 0.2 for c in trial["per_seed"]]
    values = np.array(trial["per_seed"])
    trial.update(mean=values.mean(), std=values.std(), min=values.min(), max=values.max())
    low = tmp_path / "trial.json"
    low.write_text(json.dumps(trial), encoding="utf-8")
    assert any("outside" in p for p in check_trial(low))


def test_trial_with_a_non_count_coverage_is_rejected(outputs, tmp_path):
    work, *_ = outputs
    trial = json.loads((work / "trial.json").read_text(encoding="utf-8"))
    trial["per_seed"][0] += 1e-7
    bad = tmp_path / "trial.json"
    bad.write_text(json.dumps(trial), encoding="utf-8")
    assert check_trial(bad)


def test_threshold_uses_the_conformal_rank():
    def data(scores):
        probs = np.column_stack([1.0 - np.asarray(scores), np.asarray(scores)])
        labels = np.zeros(len(scores), dtype=np.int64)
        return oracle.Data([str(i) for i in range(len(scores))], labels, probs, 0)

    scores = [i / 100 for i in range(1, 100)]  # n = 99: rank ceil(0.95 * 100) = 95
    assert oracle.threshold(data(scores), 0.05)[1] == 1.0 - (1.0 - scores[94])
    assert oracle.threshold(data(scores[:18]), 0.05)[1] == math.inf  # qlevel > 1


def test_load_csv_applies_the_mass_policy(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("sample_id,true_label,p_0,p_1\n"
                    "a,0,0.5,0.5000000005\n"  # within 1e-9: kept
                    "b,1,0.5,0.5000005\n",  # within 1e-6: divided by fsum
                    encoding="utf-8")
    data = oracle.load_csv(path)
    assert data.probs[0].tolist() == [0.5, 0.5000000005]
    assert data.probs[1].tolist() == [0.5 / 1.0000005, 0.5000005 / 1.0000005]
    assert data.renormalised == 1
    path.write_text("sample_id,true_label,p_0,p_1\na,0,0.5,0.6\n", encoding="utf-8")
    with pytest.raises(ValueError):
        oracle.load_csv(path)


def test_tracer_patches_every_caller_and_restores(outputs):
    work, *_ = outputs
    args = command_args(SMALL, work, seed=3)
    original = cli.predict_batch
    tracer = Tracer()
    tracer.install()
    try:
        for command in ("calibrate", "predict", "simulate"):
            tracer.command = command
            assert run_cli(args[command]) == 0
    finally:
        tracer.uninstall()
    assert cli.predict_batch is original
    for binding in ("cli.predict_batch", "calibration.require_valid", "predictor.require_valid",
                    "synth.calibrate", "synth.predict_batch", "synth.marginal_coverage",
                    "synth.output_block"):
        assert f"conformal_gate.{binding}" in tracer.bindings
    names = {span.name for span in tracer.spans}
    assert {"io.load_probabilities", "synth.generate", "rng.output_block"} <= names
    assert all(span.self_ns >= 0 for span in tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.command for s in roots] == ["calibrate", "predict", "simulate"]
    assert sum(s.self_ns for s in tracer.spans) == sum(s.end_ns - s.start_ns for s in roots)
    assert tracer.counters["predict"]["predictor.sets_built"] == SMALL.n_test
    assert tracer.counters["simulate"]["synth.rows_generated"] == 3 * (200 + 500)


def test_child_accounting_and_timeout(tmp_path):
    env = child_env(SRC)
    done = run_child([sys.executable, "-c", "import sys; sys.exit(3)"], env, tmp_path, 30)
    assert done.exit_code == 3 and done.maxrss_mib > 0 and 0 <= done.cpu_s
    start = time.perf_counter()
    hung = run_child([sys.executable, "-c", "import time; time.sleep(30)"], env, tmp_path, 0.5)
    assert hung.exit_code is None and time.perf_counter() - start < 10


def test_benchmark_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "tall", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
