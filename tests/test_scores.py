"""Nonconformity scores 1 - p: calibration and prediction share one function."""

from __future__ import annotations

import numpy as np
import pytest

from conformal_gate.calibration import calibrate, nonconformity

from conftest import make_dataset, one_hot


def true_class_score(label: int, probs) -> float:
    """The calibration score of a one-row dataset: 1 - probs[label]."""
    dataset = make_dataset(len(probs), [("x", label, probs)])
    (score,) = calibrate(dataset, 0.1).sorted_scores
    return score


def all_class_scores(probs) -> tuple[float, ...]:
    """The scores prediction compares with the threshold, for one stored row."""
    dataset = make_dataset(len(probs), [("x", 0, probs)])
    return tuple(nonconformity(dataset.probs)[0].tolist())


class TestTrueClassScore:
    def test_confident_correct_prediction(self):
        # probability 0.82 on the true class scores 0.18
        assert true_class_score(0, (0.82, 0.09, 0.09)) == pytest.approx(0.18, abs=1e-12)

    def test_one_hot_on_true_class_scores_zero(self):
        assert true_class_score(2, one_hot(4, 2)) == 0.0

    def test_uniform_nine_class_vector(self):
        assert true_class_score(5, (1.0 / 9,) * 9) == pytest.approx(8.0 / 9, abs=1e-15)


class TestAllClassScores:
    def test_three_class_example(self):
        scores = all_class_scores((0.9, 0.05, 0.05))
        assert scores == pytest.approx((0.1, 0.95, 0.95), abs=1e-15)

    def test_one_hot_at_index_two(self):
        scores = all_class_scores(one_hot(4, 2))
        assert scores == (1.0, 1.0, 0.0, 1.0)

    def test_uniform_nine_classes(self):
        scores = all_class_scores((1.0 / 9,) * 9)
        assert all(s == scores[0] for s in scores)
        assert scores[0] == pytest.approx(8.0 / 9, abs=1e-15)


class TestScoreProperties:
    def test_true_class_entry_is_bitwise_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = int(rng.integers(2, 15))
            raw = rng.random(k)
            probs = tuple(raw / raw.sum())
            label = int(rng.integers(0, k))
            assert all_class_scores(probs)[label] == true_class_score(label, probs)

    def test_scores_are_antitone_in_probability(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            raw = rng.random(6)
            probs = raw / raw.sum()
            scores = all_class_scores(tuple(probs))
            for i in range(6):
                for j in range(6):
                    if probs[i] > probs[j]:
                        assert scores[i] < scores[j]

    def test_scores_sum_to_k_minus_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 30))
            raw = rng.random(k)
            assert sum(all_class_scores(tuple(raw / raw.sum()))) == pytest.approx(k - 1, abs=1e-9)

    def test_matrix_path_matches_scalar_path(self):
        rng = np.random.default_rng(10)
        raw = rng.random((50, 7))
        raw /= raw.sum(axis=1, keepdims=True)
        matrix = nonconformity(raw)
        for i in range(50):
            assert tuple(matrix[i]) == all_class_scores(tuple(raw[i]))
