"""Independent numpy oracle for every output the benchmark's commands write.

Inputs are parsed here with numpy and the README mass policy is applied:
rows whose ``|fsum - 1|`` lies in ``(1e-9, 1e-3]`` are divided by
``math.fsum`` of the row, rows within ``1e-9`` are kept as they are.  The
threshold is the score at rank ``ceil(qlevel * n)`` with
``qlevel = (1 - alpha)(n + 1)/n`` (Angelopoulos & Bates, arXiv 2107.07511,
sections 1-3), and class k is in a set when ``1 - p_k <= tau``.

Every ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOOP_TOL = 1e-9
WARN_TOL = 1e-3


@dataclass(frozen=True)
class Data:
    """A parsed dataset CSV after the mass policy."""

    ids: list[str]
    labels: np.ndarray
    probs: np.ndarray
    renormalised: int

    @property
    def k(self) -> int:
        return self.probs.shape[1]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_csv(path: Path) -> Data:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    raw = np.array([row[2:] for row in rows], dtype=np.float64)
    masses = np.array([math.fsum(row) for row in raw.tolist()])
    deviation = np.abs(masses - 1.0)
    if (deviation > WARN_TOL).any() or not np.isfinite(raw).all():
        raise ValueError(f"{path.name}: a row is outside the mass policy")
    probs = raw.copy()
    renorm = deviation > NOOP_TOL
    probs[renorm] = raw[renorm] / masses[renorm, None]
    return Data(
        ids=[row[0] for row in rows],
        labels=np.array([row[1] for row in rows], dtype=np.int64),
        probs=probs,
        renormalised=int(renorm.sum()),
    )


def threshold(calib: Data, alpha: float) -> tuple[float, float]:
    """(qlevel, tau) of split conformal calibration; tau is inf when qlevel > 1."""
    n = len(calib.labels)
    qlevel = (1.0 - alpha) * (n + 1) / n
    if qlevel > 1.0:
        return qlevel, math.inf
    scores = np.sort(1.0 - calib.probs[np.arange(n), calib.labels])
    return qlevel, float(scores[math.ceil(qlevel * n) - 1])


def membership(data: Data, tau: float) -> np.ndarray:
    return (1.0 - data.probs) <= tau


def _threshold_value(value) -> float:
    return math.inf if value == "all_inclusive" else value


def check_calibration(artifact: Path, curve: Path, calib_csv: Path, calib: Data,
                      alpha: float) -> list[str]:
    problems = []
    art = json.loads(artifact.read_text(encoding="utf-8"))
    qlevel, tau = threshold(calib, alpha)
    expected = {
        "alpha": alpha,
        "n": len(calib.labels),
        "qlevel": qlevel,
        "k": calib.k,
        "input_sha256": sha256(calib_csv),
    }
    for key, value in expected.items():
        if art.get(key) != value:
            problems.append(f"artifact {key} {art.get(key)!r} != {value!r}")
    got = _threshold_value(art.get("threshold"))
    if not (isinstance(got, float) and got == tau):
        problems.append(f"artifact threshold {got!r} != rank statistic {tau!r}")

    lines = curve.read_text(encoding="utf-8").splitlines()
    scores = np.sort(1.0 - calib.probs[np.arange(len(calib.labels)), calib.labels])
    body = [line.split(",") for line in lines[1:-1]]
    ranks = [int(rank) for rank, _ in body]
    if lines[0] != "rank,score" or len(body) != len(scores):
        problems.append("curve layout differs from rank,score rows")
    elif ranks != list(range(ranks[0], ranks[0] + len(ranks))):
        problems.append("curve ranks are not consecutive")
    elif not np.array_equal(np.array([score for _, score in body], dtype=np.float64), scores):
        problems.append("curve scores differ from the sorted calibration scores")
    kind, _, value = lines[-1].partition(",")
    if kind != "threshold" or float(value) != tau:
        problems.append(f"curve threshold row {lines[-1]!r} != {tau!r}")
    return problems


def check_sets(sets_jsonl: Path, test: Data, tau: float) -> list[str]:
    records = [json.loads(line) for line in sets_jsonl.read_text(encoding="utf-8").splitlines()]
    if len(records) != len(test.labels):
        return [f"{len(records)} prediction records for {len(test.labels)} samples"]
    problems = []
    if [r["sample_id"] for r in records] != test.ids:
        problems.append("prediction sample_ids differ from the test file")
    if [r.get("true_label") for r in records] != test.labels.tolist():
        problems.append("prediction true_labels differ from the test file")
    mask = membership(test, tau)
    sizes = np.array([len(r["members"]) for r in records])
    members = np.fromiter(itertools.chain.from_iterable(r["members"] for r in records),
                          dtype=np.int64, count=int(sizes.sum()))
    if not np.array_equal(sizes, mask.sum(axis=1)):
        row = int(np.flatnonzero(sizes != mask.sum(axis=1))[0])
        problems.append(f"set of row {row} has {sizes[row]} members, expected {mask[row].sum()}")
    elif not np.array_equal(members, np.nonzero(mask)[1]):
        problems.append("a set's members differ from flatnonzero(1 - p <= tau)")
    if [r["set_size"] for r in records] != sizes.tolist():
        problems.append("a set_size differs from its member count")
    return problems


def expected_report(test: Data, tau: float) -> dict:
    """The report JSON object, computed from the membership mask with numpy."""
    n, k = test.probs.shape
    labels = test.labels
    mask = membership(test, tau)
    sizes = mask.sum(axis=1)
    covered = mask[np.arange(n), labels]
    totals = np.bincount(labels, minlength=k)
    strict = np.bincount(labels[covered & (sizes == 1)], minlength=k)
    size_sums = np.zeros(k, dtype=np.int64)
    np.add.at(size_sums, labels, sizes)
    confusion = np.bincount(labels * k + np.argmax(test.probs, axis=1),
                            minlength=k * k).reshape(k, k)

    def per_class(hits) -> list:
        return [int(h) / int(t) if t else None for h, t in zip(hits, totals)]

    return {
        "n_test": n,
        "class_names": [f"class_{i}" for i in range(k)],
        "accuracy": int(np.trace(confusion)) / n,
        "marginal_coverage": int(covered.sum()) / n,
        "overall_strict_coverage": int(strict.sum()) / n,
        "overall_avg_set_size": int(sizes.sum()) / n,
        "per_class_recall": per_class(np.diag(confusion)),
        "per_class_strict_coverage": per_class(strict),
        "per_class_avg_set_size": per_class(size_sums),
        "uncertain_counts": {str(s): c for s, c in sorted(Counter(sizes.tolist()).items())},
        "uncertain_total": int((sizes != 1).sum()),
        "confusion_matrix": confusion.tolist(),
    }


def _cell(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def report_csv(report: dict) -> str:
    lines = ["class,recall,avg_set_size,strict_coverage"]
    rows = zip(report["class_names"], report["per_class_recall"],
               report["per_class_avg_set_size"], report["per_class_strict_coverage"])
    lines.extend(f"{name},{_cell(r)},{_cell(s)},{_cell(c)}" for name, r, s, c in rows)
    lines.append(f"overall,{_cell(report['accuracy'])},{_cell(report['overall_avg_set_size'])},"
                 f"{_cell(report['overall_strict_coverage'])}")
    return "\n".join(lines) + "\n"


def check_report(report_json: Path, report_csv_path: Path, test: Data, tau: float) -> list[str]:
    got = json.loads(report_json.read_text(encoding="utf-8"))
    expected = expected_report(test, tau)
    problems = [f"report {key} differs from numpy"
                for key in expected if got.get(key) != expected[key]]
    if set(got) != set(expected):
        problems.append(f"report keys {sorted(set(got) ^ set(expected))} unexpected or missing")
    if report_csv_path.read_text(encoding="utf-8") != report_csv(expected):
        problems.append("report CSV differs from the documented table")
    return problems


def check_same(a: Path, b: Path) -> list[str]:
    if a.read_bytes() != b.read_bytes():
        return [f"{b.name} differs from {a.name}"]
    return []


def coverage_tolerance(alpha: float, n_calib: int, n_test: int, seeds: int) -> float:
    """Five standard deviations of the mean coverage over ``seeds`` trials.

    One trial's coverage varies with its calibration draw, as a
    Beta(n + 1 - l, l) variable with variance about alpha(1 - alpha)/(n + 2),
    and with its test draw, binomially with variance alpha(1 - alpha)/n_test.
    """
    var = alpha * (1 - alpha) * (1 / (n_calib + 2) + 1 / n_test)
    return 5.0 * math.sqrt(var / seeds)


def check_trial(trial_json: Path, k: int, n_calib: int, n_test: int, alpha: float,
                seeds: int) -> list[str]:
    got = json.loads(trial_json.read_text(encoding="utf-8"))
    problems = []
    expected = {"alpha": alpha, "n_calib": n_calib, "n_test": n_test, "k": k, "n_seeds": seeds}
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"trial {key} {got.get(key)!r} != {value!r}")
    per_seed = np.array(got["per_seed"], dtype=np.float64)
    counts = per_seed * n_test
    if len(per_seed) != seeds or not np.array_equal(np.rint(counts) / n_test, per_seed):
        problems.append("per-seed coverages are not covered counts over n_test")
    summary = {"mean": per_seed.mean(), "std": per_seed.std(),
               "min": per_seed.min(), "max": per_seed.max()}
    for key, value in summary.items():
        if got.get(key) != float(value):
            problems.append(f"trial {key} {got.get(key)!r} != {float(value)!r}")
    low, high = 1 - alpha, 1 - alpha + 1 / (n_calib + 1)
    tol = coverage_tolerance(alpha, n_calib, n_test, seeds)
    if not low - tol <= got["mean"] <= high + tol:
        problems.append(f"mean coverage {got['mean']!r} outside [{low}, {high}] +- {tol:.4g}")
    return problems
