"""Prediction-set membership, the all-inclusive sentinel, argmax predictions."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings

from conformal_gate.calibration import ALL_INCLUSIVE, calibrate_scores
from conformal_gate.core_types import ClassUniverse, DataError, Dataset, DimensionMismatchError
from conformal_gate.io import write_predictions
from conformal_gate.metrics import confusion_and_recall
from conformal_gate.predictor import PredictionSet, PredictionSets, predict_batch

from conftest import make_dataset, make_sets, one_hot, probability_matrices


def prediction_set(probs, threshold, sample_id: str = "") -> PredictionSet:
    """The prediction set of a one-row dataset."""
    (ps,) = predict_batch(make_dataset(len(probs), [(sample_id, 0, probs)]), threshold)
    return ps


def argmax_class(probs) -> int:
    """The point prediction that evaluation counts, for a one-row dataset."""
    matrix, _, _ = confusion_and_recall(make_dataset(len(probs), [("x", 0, probs)]))
    return matrix.counts[0].tolist().index(1)


def brute_force_members(probs, threshold: float) -> set[int]:
    """Membership by the dual rule: p_k >= 1 - threshold."""
    if threshold == ALL_INCLUSIVE:
        return set(range(len(probs)))
    return {k for k, p in enumerate(probs) if p >= 1.0 - threshold}


class TestPredictionSet:
    def test_confident_vector_gives_singleton(self):
        ps = prediction_set((0.9, 0.05, 0.05), 0.2, sample_id="x")
        assert ps.members == frozenset({0})
        assert ps.set_size == 1

    def test_uniform_nine_class_vector_gives_empty_set(self):
        # every score is 8/9 > 0.4858, so no class survives
        ps = prediction_set((1.0 / 9,) * 9, 0.4858)
        assert ps.members == frozenset()
        assert ps.set_size == 0

    def test_all_inclusive_admits_all_nine_classes(self):
        ps = prediction_set((1.0 / 9,) * 9, ALL_INCLUSIVE)
        assert ps.members == frozenset(range(9))
        assert ps.set_size == 9

    def test_boundary_score_is_included(self):
        # 1 - 0.75 is exactly 0.25: a score equal to the threshold survives
        ps = prediction_set((0.75, 0.25), 0.25)
        assert ps.members == frozenset({0})
        assert prediction_set((0.75, 0.25), 0.2).members == frozenset()

    def test_accepts_labeled_example_and_calibration_result(self):
        result = calibrate_scores([0.1, 0.2, 0.3, 0.4], 0.5)
        (ps,) = predict_batch(make_dataset(2, [("sample-7", 0, (0.9, 0.1))]), result)
        assert ps.sample_id == "sample-7"
        assert 0 in ps.members

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict_batch(make_dataset(3, [("x", 0, (0.5, 0.5))]), 0.2)


class TestPredictBatch:
    def test_empty_dataset_gives_empty_list(self):
        sets = predict_batch(make_dataset(3, []), 0.5)
        assert list(sets) == [] and len(sets) == 0
        assert sets.mask.shape == (0, 3)

    def test_one_hot_examples_under_zero_threshold(self):
        d = make_dataset(3, [("a", 0, one_hot(3, 0)), ("b", 2, one_hot(3, 2))])
        sets = predict_batch(d, 0.0)
        assert [ps.members for ps in sets] == [frozenset({0}), frozenset({2})]

    def test_batch_matches_brute_force_rule(self):
        rng = np.random.default_rng(21)
        raw = rng.random((1000, 5))
        raw /= raw.sum(axis=1, keepdims=True)
        d = make_dataset(5, [(f"s{i}", 0, tuple(raw[i])) for i in range(1000)])
        for ps, row in zip(predict_batch(d, 0.5), raw):
            assert set(ps.members) == brute_force_members(tuple(row), 0.5)

    def test_batch_is_bitwise_identical_to_per_sample(self):
        rng = np.random.default_rng(22)
        raw = rng.random((200, 6))
        raw /= raw.sum(axis=1, keepdims=True)
        d = make_dataset(6, [(f"s{i}", 0, tuple(raw[i])) for i in range(200)])
        threshold = 0.37
        batch = predict_batch(d, threshold)
        for ps, sample_id, row in zip(batch, d.ids, d.probs):
            assert ps == prediction_set(tuple(row), threshold, sample_id=sample_id)

    def test_preserves_input_order(self):
        d = make_dataset(2, [(f"s{i}", 0, (0.8, 0.2)) for i in range(20)])
        assert [ps.sample_id for ps in predict_batch(d, 0.5)] == [
            f"s{i}" for i in range(20)
        ]


class TestMonotonicityAndDuality:
    def test_membership_grows_with_threshold(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            raw = rng.random(k)
            probs = tuple(raw / raw.sum())
            t1, t2 = sorted(rng.uniform(0.0, 1.2, size=2))
            small = prediction_set(probs, t1).members
            large = prediction_set(probs, t2).members
            assert small <= large
            assert prediction_set(probs, ALL_INCLUSIVE).members >= large

    def test_dual_formulations_agree_on_random_pairs(self):
        rng = np.random.default_rng(24)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            raw = rng.random(k)
            probs = tuple(raw / raw.sum())
            threshold = float(rng.uniform(0.0, 1.0))
            assert set(prediction_set(probs, threshold).members) == brute_force_members(
                probs, threshold
            )

    def test_argmax_always_in_nonempty_sets(self):
        rng = np.random.default_rng(25)
        for _ in range(500):
            raw = rng.random(9)
            probs = tuple(raw / raw.sum())
            threshold = float(rng.uniform(0.0, 1.0))
            members = prediction_set(probs, threshold).members
            if members:
                assert argmax_class(probs) in members

    def test_nine_class_sets_never_empty_above_eight_ninths(self):
        # the argmax has p >= 1/9, so its score is at most 8/9
        rng = np.random.default_rng(26)
        for _ in range(500):
            raw = rng.random(9)
            probs = tuple(raw / raw.sum())
            assert prediction_set(probs, 8.0 / 9).set_size >= 1

    @settings(max_examples=200, deadline=None)
    @given(probability_matrices())
    def test_sets_grow_with_tau_and_admit_scores_tied_at_it(self, probs):
        n, k = probs.shape
        dataset = Dataset(ClassUniverse.generic(k), [f"s{i}" for i in range(n)], [0] * n, probs)
        scores = 1.0 - dataset.probs
        previous = np.zeros(probs.shape, dtype=bool)
        for tau in np.unique(scores).tolist():  # each tau ties at least one score
            tied = scores == tau
            mask = predict_batch(dataset, tau).mask
            assert mask[tied].all()
            assert not (previous & ~mask).any()
            below = predict_batch(dataset, float(np.nextafter(tau, -np.inf))).mask
            assert not below[tied].any()
            assert not (below & ~mask).any()
            previous = mask
        assert predict_batch(dataset, ALL_INCLUSIVE).mask.all()


class TestArgmax:
    def test_plain_maximum(self):
        assert argmax_class((0.1, 0.7, 0.2)) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert argmax_class((0.5, 0.5)) == 0

    def test_one_hot_at_last_index(self):
        assert argmax_class(one_hot(9, 8)) == 8


class TestPredictionSets:
    def test_mask_sizes_and_row_views(self):
        sets = make_sets(3, [{2, 0}, set(), {1}], ids=("a", "b", "c"))
        assert sets.mask.tolist() == [[True, False, True], [False] * 3, [False, True, False]]
        assert sets.sizes.tolist() == [2, 0, 1]
        assert not sets.mask.flags.writeable and not sets.sizes.flags.writeable
        assert len(sets) == 3
        assert sets[0] == PredictionSet("a", frozenset({0, 2}))
        assert [ps.set_size for ps in sets] == [2, 0, 1]

    def test_ids_must_match_the_mask_rows(self):
        with pytest.raises(DataError):
            PredictionSets(("a",), np.zeros((2, 3), dtype=bool))


class TestSerialization:
    @staticmethod
    def _record(tmp_path, ps: PredictionSet, labels=None) -> dict:
        path = tmp_path / "sets.jsonl"
        write_predictions(make_sets(3, [ps.members], ids=(ps.sample_id,)), path, labels)
        (line,) = path.read_text().splitlines()
        return json.loads(line)

    def test_json_object_with_true_label(self, tmp_path):
        ps = prediction_set((0.9, 0.05, 0.05), 0.2, sample_id="x")
        obj = self._record(tmp_path, ps, labels=[0])
        assert obj == {"sample_id": "x", "members": [0], "set_size": 1, "true_label": 0}

    def test_json_object_without_true_label(self, tmp_path):
        ps = prediction_set((0.5, 0.5), ALL_INCLUSIVE, sample_id="y")
        assert self._record(tmp_path, ps) == {"sample_id": "y", "members": [0, 1], "set_size": 2}
