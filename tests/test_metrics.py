"""Metric definitions, exact identities, and independent counting oracles."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conformal_gate.core_types import (
    DataError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidDatasetError,
    LengthMismatchError,
)
from conformal_gate.io import report_json_text
from conformal_gate.metrics import (
    ConfusionMatrix,
    EvaluationReport,
    avg_set_size,
    confusion_and_recall,
    evaluate,
    marginal_coverage,
    strict_coverage,
    uncertain_histogram,
)
from conformal_gate.predictor import PredictionSets, predict_batch
from conformal_gate.synth import SyntheticSpec, generate

from conftest import make_dataset, make_sets, one_hot


# the hand-enumerated four-sample scenario: a correct singleton, a wrong
# singleton, a pair containing the truth, and an empty set
FOUR_SETS = make_sets(3, [{1}, {0}, {1, 2}, set()])
FOUR_LABELS = [1, 1, 1, 1]


class TestStrictCoverage:
    def test_all_correct_singletons(self):
        sets = make_sets(2, [{0}] * 10)
        per_class, overall = strict_coverage(sets, [0] * 10, 2)
        assert overall == 1.0
        assert per_class == (1.0, None)

    def test_correct_pair_counts_as_uncertain_not_covered(self):
        sets = make_sets(2, [{0}] * 9 + [{0, 1}])
        _, overall = strict_coverage(sets, [0] * 10, 2)
        assert overall == pytest.approx(0.9)

    def test_hand_enumerated_four_sample_case(self):
        _, overall = strict_coverage(FOUR_SETS, FOUR_LABELS, 3)
        assert overall == 0.25

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            strict_coverage(make_sets(2, [{0}]), [0, 1], 2)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            strict_coverage(make_sets(2, []), [], 2)


class TestMarginalCoverage:
    def test_all_inclusive_sets_cover_everything(self):
        sets = make_sets(3, [range(3)] * 5)
        assert marginal_coverage(sets, [0, 1, 2, 0, 1]) == 1.0

    def test_all_empty_sets_cover_nothing(self):
        sets = make_sets(3, [set()] * 5)
        assert marginal_coverage(sets, [0, 1, 2, 0, 1]) == 0.0

    def test_hand_enumerated_four_sample_case(self):
        assert marginal_coverage(FOUR_SETS, FOUR_LABELS) == 0.5

    def test_never_below_strict_coverage(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 8))
            labels = [int(x) for x in rng.integers(0, k, size=n)]
            sets = make_sets(k, [
                rng.choice(k, size=rng.integers(0, k + 1), replace=False).tolist()
                for _ in range(n)
            ])
            _, strict = strict_coverage(sets, labels, k)
            assert strict <= marginal_coverage(sets, labels)


class TestAvgSetSize:
    def test_mixed_sizes_average_to_one(self):
        sets = make_sets(2, [{0}, {1}, {0, 1}, set()])
        _, overall = avg_set_size(sets, [0, 0, 0, 0], 2)
        assert overall == 1.0

    def test_all_singletons_per_class(self):
        sets = make_sets(2, [{0}, {1}, {0}])
        per_class, overall = avg_set_size(sets, [0, 1, 0], 2)
        assert per_class == (1.0, 1.0)
        assert overall == 1.0

    def test_all_pairs(self):
        sets = make_sets(2, [{0, 1}] * 3)
        _, overall = avg_set_size(sets, [0, 0, 0], 2)
        assert overall == 2.0

    def test_absent_class_reports_none(self):
        per_class, _ = avg_set_size(make_sets(3, [{0}]), [0], 3)
        assert per_class == (1.0, None, None)


class TestUncertainHistogram:
    def test_mixed_histogram(self):
        sets = make_sets(2, [{0, 1}] * 28 + [{0}] * 72)
        by_size, total_uncertain = uncertain_histogram(sets)
        assert by_size == {1: 72, 2: 28}
        assert total_uncertain == 28

    def test_all_singletons_have_no_uncertainty(self):
        _, total_uncertain = uncertain_histogram(make_sets(2, [{0}] * 10))
        assert total_uncertain == 0

    def test_empty_sets_counted(self):
        sets = make_sets(2, [set()] * 5 + [{0}] * 77)
        by_size, total_uncertain = uncertain_histogram(sets)
        assert by_size[0] == 5
        assert total_uncertain == 5

    def test_empty_input_allowed(self):
        by_size, total_uncertain = uncertain_histogram(make_sets(2, []))
        assert by_size == {}
        assert total_uncertain == 0


class TestConfusionAndRecall:
    def test_all_correct_one_hot(self):
        d = make_dataset(3, [(f"s{i}", i % 3, one_hot(3, i % 3)) for i in range(9)])
        matrix, recalls, accuracy = confusion_and_recall(d)
        assert matrix.counts.tolist() == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
        assert recalls == (1.0, 1.0, 1.0)
        assert accuracy == 1.0

    def test_degenerate_predictor(self):
        d = make_dataset(2, [("a", 0, (0.9, 0.1)), ("b", 1, (0.8, 0.2))])
        matrix, recalls, accuracy = confusion_and_recall(d)
        assert matrix.counts.tolist() == [[1, 0], [1, 0]]
        assert recalls == (1.0, 0.0)
        assert accuracy == 0.5

    def test_recall_matches_independent_per_class_count(self):
        data = generate(SyntheticSpec(k=5, seed=77, sharpness=2.0, noise=0.3), 200)
        matrix, recalls, accuracy = confusion_and_recall(data)
        probs = data.probability_matrix()
        correct_total = 0
        for c in range(5):
            # second, deliberately naive implementation: filter then count
            members = np.flatnonzero(data.labels == c).tolist()
            hits = sum(
                1 for i in members if int(np.argmax(probs[i])) == c
            )
            correct_total += hits
            if members:
                assert recalls[c] == hits / len(members)
            else:
                assert recalls[c] is None
        assert accuracy == correct_total / len(data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            confusion_and_recall(make_dataset(2, []))

    def test_row_sums_and_trace(self):
        counts = ConfusionMatrix(((2, 1), (0, 3))).counts
        assert counts.sum(axis=1).tolist() == [3, 3]
        assert int(np.trace(counts)) == 5
        assert int(counts.sum()) == 6

    def test_counts_are_a_read_only_array_compared_by_value(self):
        matrix = ConfusionMatrix(((2, 1), (0, 3)))
        assert matrix.counts.dtype == np.int64 and not matrix.counts.flags.writeable
        assert matrix == ConfusionMatrix(np.array([[2, 1], [0, 3]]))
        assert matrix != ConfusionMatrix(((2, 1), (1, 3)))


class TestEvaluate:
    def _report(self, seed=123, n=400):
        data = generate(SyntheticSpec(k=4, seed=seed, sharpness=3.0, noise=0.2), n)
        sets = predict_batch(data, 0.6)
        return data, sets, evaluate(data, sets)

    def test_identities_hold(self):
        data, sets, report = self._report()
        assert report.n_test == len(data)
        assert report.overall_strict_coverage <= report.marginal_coverage
        total_size = sum(s.set_size for s in sets)
        assert total_size == sum(
            size * count for size, count in report.uncertain_counts.items()
        )
        assert report.overall_avg_set_size == total_size / report.n_test
        counts = report.confusion.counts
        assert counts.sum(axis=1).tolist() == [
            int((data.labels == c).sum()) for c in range(4)
        ]
        assert report.accuracy == int(np.trace(counts)) / int(counts.sum())

    def test_per_class_aggregates_to_overall(self):
        data, _, report = self._report(seed=321)
        counts = report.confusion.counts.sum(axis=1).tolist()
        n = report.n_test

        def aggregate(per_class):
            return sum(
                rate * count
                for rate, count in zip(per_class, counts)
                if rate is not None
            ) / n

        assert aggregate(report.per_class_strict_coverage) == pytest.approx(
            report.overall_strict_coverage, abs=1e-12
        )
        assert aggregate(report.per_class_avg_set_size) == pytest.approx(
            report.overall_avg_set_size, abs=1e-12
        )
        assert aggregate(report.per_class_recall) == pytest.approx(
            report.accuracy, abs=1e-12
        )

    def test_misaligned_sample_ids_rejected(self):
        data, sets, _ = self._report()
        rotated = PredictionSets(sets.ids[1:] + sets.ids[:1], np.roll(sets.mask, -1, axis=0))
        with pytest.raises(DataError):
            evaluate(data, rotated)

    def test_sets_over_another_class_count_rejected(self):
        data, sets, _ = self._report()
        with pytest.raises(DimensionMismatchError, match="over 3 classes"):
            evaluate(data, PredictionSets(sets.ids, sets.mask[:, :3]))

    def test_invalid_dataset_rejected_as_data_error(self):
        d = make_dataset(2, [("a", -1, (1.0, 0.0)), ("b", 1, (0.0, 1.0))])
        with pytest.raises(InvalidDatasetError, match="true_label -1"):
            evaluate(d, make_sets(2, [{0}, {1}]))
        with pytest.raises(InvalidDatasetError):
            confusion_and_recall(d)

    def test_json_round_trip_is_exact(self):
        _, _, report = self._report(seed=55)
        assert json.loads(report_json_text(report)) == report.to_json_obj()

    def test_strict_above_marginal_is_impossible_to_construct(self):
        _, _, report = self._report()
        with pytest.raises(DataError):
            EvaluationReport(
                class_names=report.class_names,
                n_test=report.n_test,
                accuracy=report.accuracy,
                per_class_recall=report.per_class_recall,
                overall_strict_coverage=0.9,
                per_class_strict_coverage=report.per_class_strict_coverage,
                marginal_coverage=0.5,
                overall_avg_set_size=report.overall_avg_set_size,
                per_class_avg_set_size=report.per_class_avg_set_size,
                uncertain_counts=report.uncertain_counts,
                uncertain_total=report.uncertain_total,
                confusion=report.confusion,
            )
