"""The mask evaluation against the per-set loop metrics kept in ``set_oracle``.

Masks are drawn with empty rows, full rows and random rows, and labels from
a random prefix of the classes so that some classes are absent.  Every rate
must equal the oracle's bit for bit, with None exactly where the oracle has
None; histograms must match in content and in ascending size order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import set_oracle
from conformal_gate.core_types import ClassUniverse, Dataset
from conformal_gate.metrics import evaluate, marginal_coverage
from conformal_gate.predictor import PredictionSets


@st.composite
def masks_and_labels(draw):
    k = draw(st.integers(2, 7))
    n = draw(st.integers(1, 40))
    present = draw(st.integers(1, k))
    labels = draw(st.lists(st.integers(0, present - 1), min_size=n, max_size=n))
    row = st.one_of(
        st.just([False] * k),
        st.just([True] * k),
        st.lists(st.booleans(), min_size=k, max_size=k),
    )
    mask = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=bool)
    return k, mask, labels


def assert_same(value, expected):
    """Equal in structure, None where None, floats equal bit for bit."""
    if isinstance(expected, tuple):
        assert isinstance(value, tuple) and len(value) == len(expected)
        for v, e in zip(value, expected):
            assert_same(v, e)
    elif isinstance(expected, float):
        assert type(value) is float and value.hex() == expected.hex()
    else:
        assert value == expected and type(value) is type(expected)


@settings(max_examples=300, deadline=None)
@given(masks_and_labels())
def test_metrics_equal_the_per_set_oracle(case):
    k, mask, labels = case
    n = len(labels)
    data = Dataset(ClassUniverse.generic(k), [f"s{i}" for i in range(n)], labels,
                   np.full((n, k), 1.0 / k))
    sets = PredictionSets(data.ids, mask)
    report = evaluate(data, sets)
    oracle_sets = set_oracle.sets_of(mask, data.ids)
    assert_same((report.per_class_strict_coverage, report.overall_strict_coverage),
                set_oracle.strict_coverage(oracle_sets, labels, k))
    assert_same(report.marginal_coverage, set_oracle.marginal_coverage(oracle_sets, labels))
    assert_same(marginal_coverage(sets, labels), set_oracle.marginal_coverage(oracle_sets, labels))
    assert_same((report.per_class_avg_set_size, report.overall_avg_set_size),
                set_oracle.avg_set_size(oracle_sets, labels, k))
    expected_by_size, expected_uncertain = set_oracle.uncertain_histogram(oracle_sets)
    assert list(report.uncertain_counts.items()) == list(expected_by_size.items())
    assert_same(report.uncertain_total, expected_uncertain)
    assert [ps.members for ps in sets] == [ps.members for ps in oracle_sets]


@settings(max_examples=300, deadline=None)
@given(masks_and_labels(), st.integers(0, 2**32 - 1))
def test_evaluate_equals_the_per_set_oracle(case, seed):
    k, mask, labels = case
    n = len(labels)
    probs = np.random.default_rng(seed).random((n, k))
    probs /= probs.sum(axis=1, keepdims=True)
    data = Dataset(ClassUniverse.generic(k), [f"s{i}" for i in range(n)], labels, probs)
    sets = PredictionSets(data.ids, mask)
    report = evaluate(data, sets)

    oracle_sets = set_oracle.sets_of(mask, data.ids)
    per_strict, strict = set_oracle.strict_coverage(oracle_sets, labels, k)
    marginal = set_oracle.marginal_coverage(oracle_sets, labels)
    per_size, size = set_oracle.avg_set_size(oracle_sets, labels, k)
    by_size, uncertain = set_oracle.uncertain_histogram(oracle_sets)
    predicted = np.argmax(data.probs, axis=1).tolist()
    counts, recalls, accuracy = set_oracle.confusion_and_recall(labels, predicted, k)
    assert_same(
        (report.overall_strict_coverage, report.per_class_strict_coverage,
         report.marginal_coverage, report.overall_avg_set_size, report.per_class_avg_set_size,
         report.uncertain_total, report.per_class_recall, report.accuracy),
        (strict, per_strict, marginal, size, per_size, uncertain, recalls, accuracy),
    )
    assert list(report.uncertain_counts.items()) == list(by_size.items())
    assert report.confusion.tolist() == [list(row) for row in counts]
