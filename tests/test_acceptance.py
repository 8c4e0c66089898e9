"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criterion 1's tolerance: the 20-seed mean must lie in
[1 - alpha - EPS, 1 - alpha + 1/(n_calib + 1) + EPS] with EPS = 0.01.
EPS was frozen after a one-time Monte-Carlo spread measurement (4 alphas x
5 base seeds, 20 trials each): the worst observed deviation of the mean
from the theoretical band was 0.00705, so 0.01 covers it with margin.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from conformal_gate.calibration import (
    ALL_INCLUSIVE,
    Alpha,
    calibrate,
    calibrate_scores,
    quantile_level,
)
from conformal_gate.cli import main as cli_main
from conformal_gate.io import load_probabilities, report_csv_text, write_dataset
from conformal_gate.metrics import evaluate
from conformal_gate.predictor import predict_batch
from conformal_gate.synth import SyntheticSpec, coverage_trial, generate

from test_calibration import brute_force_threshold
from test_predictor import brute_force_members, prediction_set
from test_scores import true_class_score

GOLDEN_REPORT = Path(__file__).parent / "data" / "golden_report.csv"
COVERAGE_EPS = 0.01


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}", flush=True)
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_coverage_guarantee():
    """Empirical marginal coverage honors the finite-sample band at every alpha."""
    n_calib, n_test, n_seeds = 1000, 10000, 20
    details = []
    ok = True
    for alpha in (0.05, 0.5, 0.1, 0.01):
        started = time.perf_counter()
        trial = coverage_trial(
            SyntheticSpec(k=9, seed=20240809), n_calib, n_test, alpha, n_seeds
        )
        elapsed = time.perf_counter() - started
        low = 1.0 - alpha - COVERAGE_EPS
        high = 1.0 - alpha + 1.0 / (n_calib + 1) + COVERAGE_EPS
        inside = low <= trial.mean <= high
        fast_enough = elapsed < 10.0
        ok = ok and inside and fast_enough
        details.append(f"alpha={alpha}: mean={trial.mean:.4f} in [{low:.4f},{high:.4f}] {elapsed:.1f}s")
    _report("criterion 1: coverage guarantee", ok, "; ".join(details))


def test_criterion_2_quantile_oracle_equivalence():
    """Threshold equals the brute-force smallest-score-with-enough-mass oracle."""
    rng = np.random.default_rng(1001)
    alphas = [0.5, 0.2, 0.1, 0.05, 0.01]
    mismatches = 0
    all_inclusive = 0
    for trial in range(1000):
        n = int(rng.integers(1, 501))
        alpha = alphas[trial % len(alphas)]
        scores = rng.random(n)
        if trial % 4 == 0:
            scores = np.round(scores, 2)  # exercise heavy ties
        result = calibrate_scores(scores.tolist(), alpha)
        if result.threshold != brute_force_threshold(scores.tolist(), alpha):
            mismatches += 1
        if result.qlevel > 1.0:
            all_inclusive += 1
            if not result.is_all_inclusive:
                mismatches += 1
    _report(
        "criterion 2: quantile oracle equivalence",
        mismatches == 0 and all_inclusive > 0,
        f"1000 multisets, {all_inclusive} all-inclusive cases, {mismatches} mismatches",
    )


def test_criterion_3_inference_equivalence_and_monotonicity():
    """Membership matches { k : p_k >= 1 - tau }; sets grow with tau."""
    rng = np.random.default_rng(1002)
    membership_bad = 0
    monotonicity_bad = 0
    for _ in range(1000):
        k = int(rng.integers(2, 15))
        raw = rng.random(k)
        probs = tuple(raw / raw.sum())
        tau = float(rng.uniform(0.0, 1.0))
        if set(prediction_set(probs, tau).members) != brute_force_members(probs, tau):
            membership_bad += 1
    for _ in range(1000):
        k = int(rng.integers(2, 15))
        raw = rng.random(k)
        probs = tuple(raw / raw.sum())
        t1, t2 = sorted(rng.uniform(0.0, 1.1, size=2))
        if not prediction_set(probs, t1).members <= prediction_set(probs, t2).members:
            monotonicity_bad += 1
        if not prediction_set(probs, t2).members <= prediction_set(probs, ALL_INCLUSIVE).members:
            monotonicity_bad += 1
    _report(
        "criterion 3: inference equivalence",
        membership_bad == 0 and monotonicity_bad == 0,
        f"{membership_bad} membership mismatches, {monotonicity_bad} monotonicity breaks",
    )


def test_criterion_4_metric_identities():
    """Exact identities hold on every synthetic evaluation run."""
    ok = True
    runs = 0
    for seed in (3, 17, 99, 1234):
        for alpha in (0.5, 0.1, 0.02):
            calib = generate(SyntheticSpec(k=7, seed=seed, sharpness=2.0, noise=0.25), 150)
            test = generate(SyntheticSpec(k=7, seed=seed + 1, sharpness=2.0, noise=0.25), 400)
            sets = predict_batch(test, calibrate(calib, alpha))
            report = evaluate(test, sets)
            runs += 1
            ok = ok and report.overall_strict_coverage <= report.marginal_coverage
            total_size = sum(s.set_size for s in sets)
            ok = ok and total_size == sum(
                size * count for size, count in report.uncertain_counts.items()
            )
            ok = ok and report.overall_avg_set_size == total_size / report.n_test
            class_counts = tuple(int((test.labels == c).sum()) for c in range(7))
            counts = report.confusion
            ok = ok and tuple(counts.sum(axis=1).tolist()) == class_counts
            ok = ok and report.accuracy == int(np.trace(counts)) / int(counts.sum())
    _report("criterion 4: metric identities", ok, f"{runs} synthetic runs")


def test_criterion_5_exact_worked_cases():
    """Hand-checkable cases come out exactly as derived."""
    checks = []

    checks.append(("qlevel(19, 0.05) == 1.0", quantile_level(19, 0.05) == 1.0))

    staircase = [(i + 1) / 100 for i in range(99)]
    result = calibrate_scores(staircase, 0.05)
    checks.append(("staircase threshold == 0.95", result.threshold == 0.95))
    checks.append(
        ("staircase matches oracle", result.threshold == brute_force_threshold(staircase, 0.05))
    )

    score = true_class_score(0, (0.82, 0.09, 0.09))
    checks.append(("score(p_true=0.82) == 0.18", math.isclose(score, 0.18, abs_tol=1e-12)))

    uniform9 = (1.0 / 9,) * 9
    checks.append(
        ("uniform 9-class set empty at 0.4858", prediction_set(uniform9, 0.4858).set_size == 0)
    )

    ok = all(flag for _, flag in checks)
    _report(
        "criterion 5: exact worked cases",
        ok,
        "; ".join(name for name, flag in checks if not flag) or "all 5 exact",
    )


def test_criterion_6_determinism_and_round_trips(tmp_path):
    """CLI reruns are byte-identical; dataset round trips are exact."""
    data = generate(SyntheticSpec(k=5, seed=8, sharpness=2.5, noise=0.2), 250)

    round_trip_ok = True
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"data.{fmt}"
        write_dataset(data, path)
        round_trip_ok = round_trip_ok and (
            load_probabilities(path, universe=data.universe) == data
        )

    data_path = tmp_path / "data.csv"

    def pipeline(tag: str) -> tuple[bytes, ...]:
        artifact = tmp_path / f"a_{tag}.json"
        pred = tmp_path / f"p_{tag}.jsonl"
        rep_json = tmp_path / f"r_{tag}.json"
        rep_csv = tmp_path / f"r_{tag}.csv"
        trial = tmp_path / f"t_{tag}.json"
        assert cli_main(["calibrate", "--input", str(data_path), "--alpha", "0.1",
                         "--out", str(artifact)]) == 0
        assert cli_main(["predict", "--calibration", str(artifact),
                         "--input", str(data_path), "--out", str(pred)]) == 0
        assert cli_main(["evaluate", "--calibration", str(artifact),
                         "--input", str(data_path), "--out-json", str(rep_json),
                         "--out-csv", str(rep_csv)]) == 0
        assert cli_main(["simulate", "--k", "4", "--n-calib", "60", "--n-test", "120",
                         "--seeds", "3", "--seed", "5", "--out", str(trial)]) == 0
        return (artifact.read_bytes(), pred.read_bytes(), rep_json.read_bytes(),
                rep_csv.read_bytes(), trial.read_bytes())

    identical = pipeline("first") == pipeline("second")
    _report(
        "criterion 6: determinism",
        round_trip_ok and identical,
        f"round trips exact: {round_trip_ok}; rerun byte-identical: {identical}",
    )


def test_criterion_7_report_format_fidelity():
    """The evaluation CSV matches the frozen golden file byte for byte.

    The fixture simulates a strong classifier over 9 classes, one of them
    rare enough to be absent from the test split (exercising the n/a cells).
    """
    rare = 0.004
    weights = tuple([(1.0 - rare) / 8] * 8 + [rare])
    kwargs = dict(k=9, class_weights=weights, sharpness=200.0, noise=0.03)
    calib = generate(SyntheticSpec(seed=424242, **kwargs), 400)
    test = generate(SyntheticSpec(seed=424243, **kwargs), 300)
    report = evaluate(test, predict_batch(test, calibrate(calib, Alpha(0.05))))
    produced = report_csv_text(report)
    with open(GOLDEN_REPORT, "r", encoding="utf-8") as handle:
        golden = handle.read()
    _report(
        "criterion 7: report format fidelity",
        produced == golden,
        f"{len(produced.splitlines())} CSV lines compared",
    )
