"""Metric definitions, exact identities, and independent counting oracles."""

from __future__ import annotations

import numpy as np
import pytest

from conformal_gate import (
    ConfusionMatrix,
    DataError,
    EmptyDatasetError,
    EvaluationReport,
    InvalidDatasetError,
    LengthMismatchError,
    PredictionSet,
    avg_set_size,
    confusion_and_recall,
    evaluate,
    marginal_coverage,
    predict_batch,
    strict_coverage,
    uncertain_histogram,
)
from conformal_gate.synth import SyntheticSpec, generate

from conftest import make_dataset, one_hot


def ps(members, sample_id="") -> PredictionSet:
    return PredictionSet(sample_id, frozenset(members))


# the hand-enumerated four-sample scenario: a correct singleton, a wrong
# singleton, a pair containing the truth, and an empty set
FOUR_SETS = [ps({1}), ps({0}), ps({1, 2}), ps(set())]
FOUR_LABELS = [1, 1, 1, 1]


class TestStrictCoverage:
    def test_all_correct_singletons(self):
        sets = [ps({0}) for _ in range(10)]
        per_class, overall = strict_coverage(sets, [0] * 10, 2)
        assert overall == 1.0
        assert per_class == (1.0, None)

    def test_correct_pair_counts_as_uncertain_not_covered(self):
        sets = [ps({0}) for _ in range(9)] + [ps({0, 1})]
        _, overall = strict_coverage(sets, [0] * 10, 2)
        assert overall == pytest.approx(0.9)

    def test_hand_enumerated_four_sample_case(self):
        _, overall = strict_coverage(FOUR_SETS, FOUR_LABELS, 3)
        assert overall == 0.25

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            strict_coverage([ps({0})], [0, 1], 2)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            strict_coverage([], [], 2)


class TestMarginalCoverage:
    def test_all_inclusive_sets_cover_everything(self):
        sets = [ps(range(3)) for _ in range(5)]
        assert marginal_coverage(sets, [0, 1, 2, 0, 1]) == 1.0

    def test_all_empty_sets_cover_nothing(self):
        sets = [ps(set()) for _ in range(5)]
        assert marginal_coverage(sets, [0, 1, 2, 0, 1]) == 0.0

    def test_hand_enumerated_four_sample_case(self):
        assert marginal_coverage(FOUR_SETS, FOUR_LABELS) == 0.5

    def test_never_below_strict_coverage(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 8))
            labels = [int(x) for x in rng.integers(0, k, size=n)]
            sets = [
                ps({int(c) for c in rng.choice(k, size=rng.integers(0, k + 1), replace=False)})
                for _ in range(n)
            ]
            _, strict = strict_coverage(sets, labels, k)
            assert strict <= marginal_coverage(sets, labels)


class TestAvgSetSize:
    def test_mixed_sizes_average_to_one(self):
        sets = [ps({0}), ps({1}), ps({0, 1}), ps(set())]
        _, overall = avg_set_size(sets, [0, 0, 0, 0], 2)
        assert overall == 1.0

    def test_all_singletons_per_class(self):
        sets = [ps({0}), ps({1}), ps({0})]
        per_class, overall = avg_set_size(sets, [0, 1, 0], 2)
        assert per_class == (1.0, 1.0)
        assert overall == 1.0

    def test_all_pairs(self):
        sets = [ps({0, 1}) for _ in range(3)]
        _, overall = avg_set_size(sets, [0, 0, 0], 2)
        assert overall == 2.0

    def test_absent_class_reports_none(self):
        per_class, _ = avg_set_size([ps({0})], [0], 3)
        assert per_class == (1.0, None, None)


class TestUncertainHistogram:
    def test_mixed_histogram(self):
        sets = [ps({0, 1}) for _ in range(28)] + [ps({0}) for _ in range(72)]
        hist = uncertain_histogram(sets)
        assert hist.by_size == {1: 72, 2: 28}
        assert hist.total_uncertain == 28

    def test_all_singletons_have_no_uncertainty(self):
        hist = uncertain_histogram([ps({0}) for _ in range(10)])
        assert hist.total_uncertain == 0

    def test_empty_sets_counted(self):
        sets = [ps(set()) for _ in range(5)] + [ps({0}) for _ in range(77)]
        hist = uncertain_histogram(sets)
        assert hist.by_size[0] == 5
        assert hist.total_uncertain == 5

    def test_empty_input_allowed(self):
        hist = uncertain_histogram([])
        assert hist.by_size == {}
        assert hist.total_uncertain == 0


class TestConfusionAndRecall:
    def test_all_correct_one_hot(self):
        d = make_dataset(3, [(f"s{i}", i % 3, one_hot(3, i % 3)) for i in range(9)])
        matrix, recalls, accuracy = confusion_and_recall(d)
        assert matrix.counts == ((3, 0, 0), (0, 3, 0), (0, 0, 3))
        assert recalls == (1.0, 1.0, 1.0)
        assert accuracy == 1.0

    def test_degenerate_predictor(self):
        d = make_dataset(2, [("a", 0, (0.9, 0.1)), ("b", 1, (0.8, 0.2))])
        matrix, recalls, accuracy = confusion_and_recall(d)
        assert matrix.counts == ((1, 0), (1, 0))
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
        matrix = ConfusionMatrix(((2, 1), (0, 3)))
        assert matrix.row_sums() == (3, 3)
        assert matrix.trace() == 5
        assert matrix.total() == 6


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
        assert report.confusion.row_sums() == tuple(
            int((data.labels == c).sum()) for c in range(4)
        )
        assert report.accuracy == report.confusion.trace() / report.confusion.total()

    def test_per_class_aggregates_to_overall(self):
        data, _, report = self._report(seed=321)
        counts = report.confusion.row_sums()
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
        rotated = sets[1:] + sets[:1]
        with pytest.raises(DataError):
            evaluate(data, rotated)

    def test_invalid_dataset_rejected_as_data_error(self):
        d = make_dataset(2, [("a", -1, (1.0, 0.0)), ("b", 1, (0.0, 1.0))])
        with pytest.raises(InvalidDatasetError, match="true_label -1"):
            evaluate(d, [ps({0}), ps({1})])
        with pytest.raises(InvalidDatasetError):
            confusion_and_recall(d)

    def test_json_round_trip_is_exact(self):
        _, _, report = self._report(seed=55)
        assert EvaluationReport.from_json_obj(report.to_json_obj()) == report

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
