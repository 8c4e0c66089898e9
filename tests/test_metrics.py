"""Metric definitions, exact identities, and independent counting oracles."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conformal_gate.core_types import (
    DataError,
    Dataset,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidDatasetError,
    LengthMismatchError,
)
from conformal_gate.io import report_json_text
from conformal_gate.metrics import (
    EvaluationReport,
    confusion_and_recall,
    evaluate,
    marginal_coverage,
)
from conformal_gate.predictor import PredictionSets, predict_batch
from conformal_gate.synth import SyntheticSpec, generate

from conftest import make_dataset, make_sets, one_hot


# the hand-enumerated four-sample scenario: a correct singleton, a wrong
# singleton, a pair containing the truth, and an empty set
FOUR_SETS = make_sets(3, [{1}, {0}, {1, 2}, set()])
FOUR_LABELS = [1, 1, 1, 1]


def report_of(sets: PredictionSets, labels) -> EvaluationReport:
    """evaluate() of the sets against one one-hot row per label."""
    k = sets.mask.shape[1]
    return evaluate(make_dataset(k, [(f"s{i}", label, one_hot(k, label))
                                     for i, label in enumerate(labels)]), sets)


def dataset_with_confusion(counts) -> Dataset:
    """A dataset whose argmax confusion matrix is ``counts``."""
    k = len(counts)
    return make_dataset(k, [(f"s{true}-{guess}-{j}", true, one_hot(k, guess))
                            for true, row in enumerate(counts)
                            for guess, count in enumerate(row) for j in range(count)])


class TestStrictCoverage:
    def test_all_correct_singletons(self):
        report = report_of(make_sets(2, [{0}] * 10), [0] * 10)
        assert report.overall_strict_coverage == 1.0
        assert report.per_class_strict_coverage == (1.0, None)

    def test_correct_pair_counts_as_uncertain_not_covered(self):
        report = report_of(make_sets(2, [{0}] * 9 + [{0, 1}]), [0] * 10)
        assert report.overall_strict_coverage == pytest.approx(0.9)

    def test_hand_enumerated_four_sample_case(self):
        report = report_of(FOUR_SETS, FOUR_LABELS)
        assert report.overall_strict_coverage == 0.25
        assert report.per_class_strict_coverage == (None, 0.25, None)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            report_of(make_sets(2, [{0}]), [0, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            report_of(make_sets(2, []), [])


class TestMarginalCoverage:
    def test_all_inclusive_sets_cover_everything(self):
        sets = make_sets(3, [range(3)] * 5)
        assert marginal_coverage(sets, [0, 1, 2, 0, 1]) == 1.0

    def test_all_empty_sets_cover_nothing(self):
        sets = make_sets(3, [set()] * 5)
        assert marginal_coverage(sets, [0, 1, 2, 0, 1]) == 0.0

    def test_hand_enumerated_four_sample_case(self):
        assert marginal_coverage(FOUR_SETS, FOUR_LABELS) == 0.5
        assert report_of(FOUR_SETS, FOUR_LABELS).marginal_coverage == 0.5

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
            report = report_of(sets, labels)
            assert report.marginal_coverage == marginal_coverage(sets, labels)
            assert report.overall_strict_coverage <= report.marginal_coverage


class TestAvgSetSize:
    def test_mixed_sizes_average_to_one(self):
        report = report_of(make_sets(2, [{0}, {1}, {0, 1}, set()]), [0, 0, 0, 0])
        assert report.overall_avg_set_size == 1.0

    def test_all_singletons_per_class(self):
        report = report_of(make_sets(2, [{0}, {1}, {0}]), [0, 1, 0])
        assert report.per_class_avg_set_size == (1.0, 1.0)
        assert report.overall_avg_set_size == 1.0

    def test_all_pairs(self):
        report = report_of(make_sets(2, [{0, 1}] * 3), [0, 0, 0])
        assert report.overall_avg_set_size == 2.0

    def test_absent_class_reports_none(self):
        report = report_of(make_sets(3, [{0}]), [0])
        assert report.per_class_avg_set_size == (1.0, None, None)


class TestUncertainHistogram:
    def test_mixed_histogram(self):
        report = report_of(make_sets(2, [{0, 1}] * 28 + [{0}] * 72), [0] * 100)
        assert report.uncertain_counts == {1: 72, 2: 28}
        assert report.uncertain_total == 28

    def test_all_singletons_have_no_uncertainty(self):
        report = report_of(make_sets(2, [{0}] * 10), [0] * 10)
        assert report.uncertain_total == 0

    def test_empty_sets_counted(self):
        report = report_of(make_sets(2, [set()] * 5 + [{0}] * 77), [0] * 82)
        assert report.uncertain_counts[0] == 5
        assert report.uncertain_total == 5

    def test_sizes_are_keyed_in_ascending_order(self):
        report = report_of(FOUR_SETS, FOUR_LABELS)
        assert list(report.uncertain_counts.items()) == [(0, 1), (1, 2), (2, 1)]
        assert report.uncertain_total == 2


class TestConfusionAndRecall:
    def test_all_correct_one_hot(self):
        d = make_dataset(3, [(f"s{i}", i % 3, one_hot(3, i % 3)) for i in range(9)])
        matrix, recalls, accuracy = confusion_and_recall(d)
        assert matrix.tolist() == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
        assert recalls == (1.0, 1.0, 1.0)
        assert accuracy == 1.0

    def test_degenerate_predictor(self):
        d = make_dataset(2, [("a", 0, (0.9, 0.1)), ("b", 1, (0.8, 0.2))])
        matrix, recalls, accuracy = confusion_and_recall(d)
        assert matrix.tolist() == [[1, 0], [1, 0]]
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
        counts, _, accuracy = confusion_and_recall(dataset_with_confusion(((2, 1), (0, 3))))
        assert counts.tolist() == [[2, 1], [0, 3]]
        assert counts.sum(axis=1).tolist() == [3, 3]
        assert int(np.trace(counts)) == 5
        assert int(counts.sum()) == 6
        assert accuracy == 5 / 6

    def test_matrix_is_a_read_only_int64_array(self):
        data = dataset_with_confusion(((2, 1), (0, 3)))
        matrix, _, _ = confusion_and_recall(data)
        confusion = evaluate(data, make_sets(2, [{0}] * 6)).confusion
        for counts in (matrix, confusion):
            assert type(counts) is np.ndarray and counts.dtype == np.int64
            assert counts.shape == (2, 2) and not counts.flags.writeable
        assert np.array_equal(confusion, matrix)


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
        counts = report.confusion
        assert counts.sum(axis=1).tolist() == [
            int((data.labels == c).sum()) for c in range(4)
        ]
        assert report.accuracy == int(np.trace(counts)) / int(counts.sum())

    def test_per_class_aggregates_to_overall(self):
        data, _, report = self._report(seed=321)
        counts = report.confusion.sum(axis=1).tolist()
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

    def test_checks_fail_in_a_fixed_order(self):
        # each case breaks the check it names and every later one it can
        bad_label = make_dataset(2, [("a", -1, (1.0, 0.0)), ("b", 1, (0.0, 1.0))])
        good = make_dataset(2, [("a", 0, (1.0, 0.0)), ("b", 1, (0.0, 1.0))])
        three_wrong_ids = make_sets(3, [{0}, {1}, {2}], ids=("x", "y", "z"))
        two_wrong_ids = make_sets(3, [{0}, {1}], ids=("b", "a"))
        cases = [
            (bad_label, three_wrong_ids, InvalidDatasetError, "true_label -1"),
            (good, three_wrong_ids, LengthMismatchError, "3 prediction sets vs 2 labels"),
            (make_dataset(2, []), make_sets(3, []), EmptyDatasetError, "no samples"),
            (good, two_wrong_ids, DimensionMismatchError, "over 3 classes"),
            (good, make_sets(2, [{0}, {1}], ids=("b", "a")), DataError, "'b' does not align"),
        ]
        for data, sets, error, message in cases:
            with pytest.raises(DataError, match=message) as caught:
                evaluate(data, sets)
            assert type(caught.value) is error

    def test_reports_compare_by_identity(self):
        _, _, first = self._report(seed=8)
        _, _, second = self._report(seed=8)
        assert first == first and first != second
        assert first.to_json_obj() == second.to_json_obj()

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


class TestReportChecks:
    @pytest.mark.parametrize("name", ["accuracy", "overall_strict_coverage", "marginal_coverage"])
    @pytest.mark.parametrize("rate", [-0.25, 1.5, float("nan")])
    def test_a_rate_outside_the_unit_interval_is_rejected(self, name, rate):
        report = report_of(FOUR_SETS, FOUR_LABELS)
        with pytest.raises(DataError, match=f"^{name} {re.escape(repr(rate))} outside \\[0, 1\\]$"):
            replace(report, **{name: rate})
