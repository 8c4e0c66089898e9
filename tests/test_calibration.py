"""Calibration: quantile level, rank-statistic threshold, curve export.

The brute-force oracle used throughout is independent of the sort-and-index
implementation: it scans every candidate score and picks the smallest one
covering at least ceil((1 - alpha)(n + 1)) of the calibration scores, the
rank computed in rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_gate.calibration import (
    ALL_INCLUSIVE,
    Alpha,
    CalibrationResult,
    _conformal_rank,
    calibrate,
    calibrate_scores,
    export_calibration_curve,
    quantile_level,
)
from conformal_gate.cli import main
from conformal_gate.core_types import ClassUniverse, DataError, Dataset, EmptyCalibrationError

from conftest import make_dataset, one_hot, probability_matrices
from row_oracle import calibrate_scores_tuple, curve_csv_tuple, exact_rank

DATA = Path(__file__).parent / "data"


def brute_force_threshold(scores, alpha: float) -> float:
    """Smallest score covering at least ceil((1 - alpha)(n + 1)) of the multiset.

    Counts the mass under every candidate score directly (no rank
    indexing), so it checks the implementation's quantile selection by an
    independent route.
    """
    n = len(scores)
    needed = exact_rank(n, alpha)
    if needed > n:
        return ALL_INCLUSIVE
    values = np.asarray(scores, dtype=np.float64)
    candidates = np.sort(values)
    counts = (values[None, :] <= candidates[:, None]).sum(axis=1)
    for candidate, count in zip(candidates, counts):
        if count >= needed:
            return float(candidate)
    raise AssertionError("unreachable: a rank <= n always has a candidate")


class TestQuantileLevel:
    def test_hundred_samples(self):
        assert quantile_level(100, 0.05) == pytest.approx(0.9595, abs=1e-12)

    def test_nineteen_samples_is_exactly_one(self):
        assert quantile_level(19, 0.05) == 1.0

    def test_ten_samples_exceeds_one(self):
        assert quantile_level(10, 0.05) == pytest.approx(1.045, abs=1e-12)
        assert quantile_level(10, 0.05) > 1.0

    def test_rejects_zero_samples(self):
        with pytest.raises(EmptyCalibrationError):
            quantile_level(0, 0.05)

    def test_alpha_must_be_in_open_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                Alpha(bad)


class TestCalibrate:
    def test_all_correct_one_hot_scores_give_zero_threshold(self):
        d = make_dataset(3, [(f"s{i}", i % 3, one_hot(3, i % 3)) for i in range(100)])
        result = calibrate(d, 0.05)
        assert result.threshold == 0.0
        assert not result.is_all_inclusive

    def test_ten_examples_force_all_inclusive(self):
        d = make_dataset(3, [(f"s{i}", 0, one_hot(3, 0)) for i in range(10)])
        result = calibrate(d, 0.05)
        assert result.is_all_inclusive
        assert result.qlevel > 1.0

    def test_staircase_of_99_scores(self):
        # true-class probabilities 1 - s give scores s = 0.01 ... 0.99;
        # rank ceil(0.95 * 100) = 95 picks the score 0.95
        scores = [(i + 1) / 100 for i in range(99)]
        result = calibrate_scores(scores, 0.05)
        assert result.threshold == 0.95
        assert result.threshold == brute_force_threshold(scores, 0.05)
        assert result.threshold_rank() == 95

    def test_empty_calibration_rejected(self):
        d = make_dataset(2, [])
        with pytest.raises(EmptyCalibrationError):
            calibrate(d, 0.05)

    def test_invalid_dataset_propagates(self):
        d = make_dataset(2, [("a", 0, (0.4, 0.2))])
        with pytest.raises(DataError):
            calibrate(d, 0.05)

    def test_permutation_invariance_is_bitwise(self):
        rng = np.random.default_rng(11)
        raw = rng.random((60, 4))
        raw /= raw.sum(axis=1, keepdims=True)
        rows = [(f"s{i}", int(rng.integers(0, 4)), tuple(raw[i])) for i in range(60)]
        base = calibrate(make_dataset(4, rows), 0.1)
        shuffler = random.Random(99)
        for _ in range(5):
            shuffled = rows[:]
            shuffler.shuffle(shuffled)
            result = calibrate(make_dataset(4, shuffled), 0.1)
            assert result == base
            assert result.sorted_scores.tobytes() == base.sorted_scores.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(probability_matrices(), st.floats(0.001, 0.999), st.data())
    def test_any_permutation_gives_the_same_scores_bitwise(self, probs, alpha, data):
        n, k = probs.shape
        ids = np.array([f"s{i}" for i in range(n)])
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        order = data.draw(st.permutations(range(n)))
        universe = ClassUniverse.generic(k)
        base = calibrate(Dataset(universe, ids.tolist(), labels, probs), alpha)
        moved = calibrate(Dataset(universe, ids[order].tolist(), labels[order], probs[order]),
                          alpha)
        assert moved.sorted_scores.tobytes() == base.sorted_scores.tobytes()
        assert repr(moved.threshold) == repr(base.threshold)

    def test_dataset_path_equals_score_path(self):
        rng = np.random.default_rng(12)
        raw = rng.random((40, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=40)
        d = make_dataset(3, [(f"s{i}", int(labels[i]), tuple(raw[i])) for i in range(40)])
        scores = [1.0 - raw[i, labels[i]] for i in range(40)]
        assert calibrate(d, 0.2) == calibrate_scores(scores, 0.2)


class TestOracleEquivalence:
    def test_random_multisets_match_brute_force(self):
        rng = np.random.default_rng(13)
        alphas = [0.5, 0.1, 0.05, 0.01]
        all_inclusive_seen = 0
        for trial in range(1000):
            n = int(rng.integers(1, 501))
            alpha = alphas[trial % len(alphas)]
            scores = rng.random(n)
            if trial % 3 == 0:  # force ties: duplicates must keep multiset semantics
                scores = np.round(scores, 2)
            result = calibrate_scores(scores.tolist(), alpha)
            expected = brute_force_threshold(scores.tolist(), alpha)
            assert result.threshold == expected
            if result.is_all_inclusive:
                all_inclusive_seen += 1
                assert result.qlevel > 1.0
            else:
                assert result.threshold in set(scores.tolist())
        assert all_inclusive_seen > 0

    def test_threshold_monotone_in_alpha(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            scores = rng.random(int(rng.integers(1, 200))).tolist()
            alphas = sorted(rng.uniform(0.005, 0.6, size=4))
            thresholds = [calibrate_scores(scores, a).threshold for a in alphas]
            for t_small_alpha, t_large_alpha in zip(thresholds, thresholds[1:]):
                assert t_small_alpha >= t_large_alpha

    def test_finite_threshold_covers_required_mass(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            scores = rng.random(int(rng.integers(1, 300))).tolist()
            result = calibrate_scores(scores, 0.05)
            if not result.is_all_inclusive:
                covered = sum(1 for s in scores if s <= result.threshold)
                assert covered >= exact_rank(result.n, 0.05)


class TestThresholdRank:
    """The rank ceil((1 - alpha)(n + 1)): Angelopoulos & Bates (arXiv 2107.07511)
    take the ceil((n + 1)(1 - alpha)) / n quantile of the n calibration scores."""

    @pytest.mark.parametrize("alpha, n, rank", [
        (0.25, 79, 60),  # the float qlevel * n gives 61
        (0.2, 304, 244),  # the float qlevel * n gives 245
        (0.3, 9, 7),  # 0.3 in binary, just under 3/10, would give 8
        (0.05, 6000, 5701),
        (0.05, 250, 239),
        (0.05, 200, 191),
        (0.05, 19, 19),
        (0.05, 18, None),
        (1e-05, 99999, 99999),
        (1e-05, 99998, None),
    ])
    def test_worked_ranks(self, alpha, n, rank):
        result = CalibrationResult(alpha, np.arange(n, dtype=np.float64))
        assert result.threshold_rank() == rank
        assert result.is_all_inclusive == (rank is None)
        assert result.threshold == (ALL_INCLUSIVE if rank is None else rank - 1.0)

    def test_percent_grid_equals_rational_arithmetic(self):
        # alpha = 0.01 ... 0.99 and n <= 3000: the float product qlevel * n
        # rounds to one rank too many at 2,128 of the 297,000 points, each
        # one where (1 - alpha)(n + 1) is an integer
        float_rank_too_high = 0
        for percent in range(1, 100):
            alpha = percent / 100
            covered, scale = (1 - Fraction(percent, 100)).as_integer_ratio()
            for n in range(1, 3001):
                rank = _conformal_rank(n, alpha)
                assert rank == -(-covered * (n + 1) // scale)
                qlevel = (1.0 - alpha) * (n + 1) / n
                assert (rank > n) == (qlevel > 1.0)
                if rank <= n and math.ceil(qlevel * n) != rank:
                    assert math.ceil(qlevel * n) == rank + 1
                    assert covered * (n + 1) % scale == 0
                    float_rank_too_high += 1
        assert float_rank_too_high == 2128


class TestCalibrationResultInvariants:
    def test_fields_are_alpha_and_a_read_only_score_array(self):
        result = calibrate_scores([3, 1, 2, 2], 0.25)
        assert [f.name for f in fields(result)] == ["alpha", "sorted_scores"]
        assert result.sorted_scores.dtype == np.float64
        assert not result.sorted_scores.flags.writeable
        assert result.sorted_scores.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert type(result.threshold) is float

    def test_unsorted_scores_rejected(self):
        with pytest.raises(DataError, match="nondecreasing"):
            CalibrationResult(alpha=0.05, sorted_scores=np.array([0.3, 0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            calibrate_scores([0.3, bad, 0.1], 0.25)
        with pytest.raises(DataError, match="finite"):
            CalibrationResult(alpha=0.25, sorted_scores=np.array([0.1, 0.3, bad]))

    def test_empty_scores_rejected(self):
        with pytest.raises(EmptyCalibrationError):
            calibrate_scores([], 0.05)

    def test_derived_values_follow_alpha_and_scores(self):
        result = CalibrationResult(alpha=Alpha(0.1), sorted_scores=np.arange(1, 10) / 10)
        assert result.alpha == 0.1
        assert result.n == 9
        assert result.qlevel == quantile_level(9, 0.1)
        assert result.threshold_rank() == 9
        assert result.threshold == 0.9


class TestCurveExport:
    def test_points_and_threshold(self):
        # alpha = 0.25, n = 3: qlevel = 0.75 * 4 / 3 = 1.0, rank 3, tau = 0.3
        result = calibrate_scores([0.3, 0.1, 0.2], 0.25)
        lines = export_calibration_curve(result).splitlines()
        assert lines[1:-1] == ["0,0.1", "1,0.2", "2,0.3"]
        assert lines[-1] == "threshold,0.3"
        assert result.threshold == 0.3

    def test_single_score_goes_all_inclusive(self):
        result = calibrate_scores([0.5], 0.05)
        assert result.qlevel == pytest.approx(1.9, abs=1e-12)
        assert result.is_all_inclusive
        lines = export_calibration_curve(result).splitlines()
        assert lines[1:-1] == ["0,0.5"]

    def test_staircase_curve(self):
        scores = [(i + 1) / 100 for i in range(99)]
        lines = export_calibration_curve(calibrate_scores(scores, 0.05)).splitlines()
        assert len(lines) == 1 + 99 + 1
        assert lines[-1] == "threshold,0.95"

    def test_csv_text_layout(self):
        text = export_calibration_curve(calibrate_scores([0.3, 0.1, 0.2], 0.25))
        lines = text.splitlines()
        assert lines[0] == "rank,score"
        assert lines[1] == "0,0.1"
        assert lines[-1] == "threshold,0.3"

    def test_csv_marks_all_inclusive_as_inf(self):
        text = export_calibration_curve(calibrate_scores([0.5], 0.05))
        assert text.splitlines()[-1] == "threshold,inf"

    def test_csv_curve_shape(self):
        text = export_calibration_curve(calibrate_scores([0.5], 0.05))
        assert text == "rank,score\n0,0.5\nthreshold,inf\n"

    def test_signed_zeros_keep_their_input_order(self):
        # -0.0 == 0.0, so only a stable sort prints them in the tuple sort's order
        scores = [0.0, -0.0, 0.5] * 40
        text = export_calibration_curve(calibrate_scores(scores, 0.1))
        assert text == curve_csv_tuple(calibrate_scores_tuple(scores, 0.1))


class TestGoldenFiles:
    """``calibrate --curve`` against artifacts and curves written by the tuple-based code.

    ``golden_calib.csv`` holds 50 ``synth`` rows (k=4, seed=5) and a copy of
    each under another id, so every score is tied; it is calibrated at alpha
    0.1.  ``golden_calib_14.csv`` holds 14 rows (k=4, seed=6), too few for a
    finite threshold at alpha 0.05.
    """

    @pytest.mark.parametrize("calib, alpha, suffix", [
        ("golden_calib.csv", "0.1", ""),
        ("golden_calib_14.csv", "0.05", "_all_inclusive"),
    ])
    def test_calibrate_outputs_match_golden(self, tmp_path, calib, alpha, suffix):
        artifact, curve = tmp_path / "artifact.json", tmp_path / "curve.csv"
        assert main(["calibrate", "--input", str(DATA / calib), "--alpha", alpha,
                     "--out", str(artifact), "--curve", str(curve)]) == 0
        assert artifact.read_bytes() == (DATA / f"golden_artifact{suffix}.json").read_bytes()
        assert curve.read_bytes() == (DATA / f"golden_curve{suffix}.csv").read_bytes()


def _score_multisets():
    """Scores of n in 1..500 drawn from a pool of at most n values, so ties are common.

    The pool mixes -0.0 and 0.0, which compare equal but print differently.
    """
    return st.integers(1, 500).flatmap(lambda n: st.lists(
        st.floats(-1.0, 2.0, allow_nan=False) | st.sampled_from([-0.0, 0.0]),
        min_size=1, max_size=n,
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(_score_multisets(),
       st.sampled_from([0.5, 0.2, 0.1, 0.05, 0.01]) | st.floats(0.001, 0.999))
def test_array_calibration_matches_tuple_oracle(scores, alpha):
    result = calibrate_scores(scores, alpha)
    expected = calibrate_scores_tuple(scores, alpha)
    assert result.n == expected.n
    assert result.qlevel == expected.qlevel
    assert repr(result.threshold) == repr(expected.threshold)
    assert result.threshold_rank() == expected.threshold_rank()
    assert export_calibration_curve(result) == curve_csv_tuple(expected)
