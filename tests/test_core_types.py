"""Domain type invariants, the probability-mass policy, and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_gate.core_types import (
    ClassUniverse,
    DataError,
    DimensionMismatchError,
    InvalidDatasetError,
    _fsum_rows,
    require_valid,
)

from conftest import make_dataset, one_hot


def stored(values) -> tuple[float, ...]:
    """The row a one-row dataset stores for ``values`` under the mass policy."""
    return tuple(make_dataset(len(values), [("x", 0, values)]).probs[0].tolist())


class TestClassUniverse:
    def test_names_must_be_unique(self):
        with pytest.raises(DataError):
            ClassUniverse(("a", "a"))

    def test_needs_at_least_two_classes(self):
        with pytest.raises(DataError):
            ClassUniverse(("only",))

    def test_name_lookup(self):
        universe = ClassUniverse(("Steel Sheets", "Shredder"))
        assert universe.k == 2
        assert universe.index_of("Shredder") == 1
        assert universe.index_of("nope") is None
        assert universe.names[0] == "Steel Sheets"


class TestProbVectorPolicy:
    def test_clean_vector_is_untouched(self):
        values = (0.25, 0.25, 0.5)
        assert stored(values) == values

    def test_tiny_deviation_is_left_alone(self):
        # within 1e-9 of unit mass: renormalizing float dust would break
        # bit-exact round trips
        values = (0.5, 0.5 + 1e-10)
        assert stored(values) == values

    def test_small_deviation_renormalized_silently(self, caplog):
        with caplog.at_level("WARNING", logger="conformal_gate"):
            row = stored((0.5, 0.5 + 1e-7))
        assert abs(math.fsum(row) - 1.0) < 1e-12
        assert not caplog.records

    def test_warn_band_renormalizes_and_logs(self, caplog):
        with caplog.at_level("WARNING", logger="conformal_gate.core_types"):
            row = stored((0.5, 0.5005))
        assert abs(math.fsum(row) - 1.0) < 1e-12
        assert any("renormalizing" in record.message for record in caplog.records)

    def test_warn_band_logs_one_line_naming_the_first_rows(self, caplog):
        rows = [(f"s{i}", 0, (0.5, 0.5005) if i % 2 else (0.5, 0.5)) for i in range(1000)]
        with caplog.at_level("WARNING"):
            make_dataset(2, rows)
        [record] = [r for r in caplog.records if r.name.startswith("conformal_gate")]
        assert "renormalizing 500 " in record.message
        assert record.message.endswith("first at rows 1, 3, 5, 7, 9")

    def test_large_deviation_left_raw_for_validation(self):
        assert stored((0.4, 0.4)) == (0.4, 0.4)

    def test_non_finite_left_raw(self):
        assert math.isnan(stored((float("nan"), 1.0))[0])

    def test_renormalization_preserves_argmax_and_order(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            k = int(rng.integers(2, 12))
            raw = rng.random(k)
            raw = raw / raw.sum() * (1.0 + rng.uniform(-9e-4, 9e-4))
            row = stored(tuple(raw))
            order_before = np.argsort(raw, kind="stable")
            order_after = np.argsort(row, kind="stable")
            assert order_before.tolist() == order_after.tolist()
            assert int(np.argmax(raw)) == int(np.argmax(row))


class TestValidateDataset:
    def test_bad_mass_reported_with_value(self):
        d = make_dataset(3, [("a", 0, (0.4, 0.2, 0.2))])
        report = list(d.violations)
        assert len(report) == 1
        assert report[0].sample_id == "a"
        assert "probability mass 0.8" in report[0].reason

    def test_three_valid_one_hot_examples(self):
        d = make_dataset(3, [(f"s{i}", i, one_hot(3, i)) for i in range(3)])
        assert list(d.violations) == []

    def test_duplicate_sample_id_named(self):
        d = make_dataset(2, [("a", 0, (1.0, 0.0)), ("a", 1, (0.0, 1.0))])
        report = list(d.violations)
        assert len(report) == 1
        assert report[0].sample_id == "a"
        assert "duplicate" in report[0].reason

    def test_nan_is_a_violation_never_clamped(self):
        d = make_dataset(2, [("a", 0, (float("nan"), 1.0))])
        report = list(d.violations)
        assert any("non-finite" in v.reason for v in report)

    def test_entry_outside_unit_interval(self):
        d = make_dataset(2, [("a", 0, (1.2, -0.2))])
        report = list(d.violations)
        assert any("outside [0, 1]" in v.reason for v in report)

    def test_label_out_of_range(self):
        d = make_dataset(2, [("a", 5, (1.0, 0.0))])
        report = list(d.violations)
        assert any("true_label" in v.reason for v in report)

    def test_wrong_dimension_reported(self):
        with pytest.raises(DimensionMismatchError, match="expected 3 probabilities"):
            make_dataset(3, [("a", 0, (1.0, 0.0))])

    def test_violations_name_their_row_and_require_valid_raises(self):
        d = make_dataset(2, [("a", 0, (1.0, 0.0)), ("b", 0, (0.4, 0.4))])
        [violation] = d.violations
        assert violation.row == 1
        with pytest.raises(InvalidDatasetError, match="probability mass 0.8"):
            require_valid(d)


class TestValidatedDataFlowsEverywhere:
    def test_accepted_datasets_never_raise_downstream(self, tmp_path):
        # empty validation report implies every operation succeeds
        from conformal_gate.calibration import calibrate
        from conformal_gate.io import SplitSpec, load_probabilities, split, write_dataset
        from conformal_gate.metrics import evaluate
        from conformal_gate.predictor import predict_batch
        from conformal_gate.synth import SyntheticSpec, generate

        rng = np.random.default_rng(90)
        for trial in range(5):
            d = generate(
                SyntheticSpec(
                    k=int(rng.integers(2, 8)),
                    seed=int(rng.integers(0, 2**32)),
                    sharpness=float(rng.uniform(0.5, 50.0)),
                    noise=float(rng.uniform(0.0, 0.5)),
                ),
                int(rng.integers(20, 120)),
            )
            assert list(d.violations) == []
            result = calibrate(d, 0.1)
            sets = predict_batch(d, result)
            evaluate(d, sets)
            split(d, SplitSpec((("a", 0.5), ("b", 0.5)), seed=trial))
            path = tmp_path / f"d{trial}.csv"
            write_dataset(d, path)
            assert load_probabilities(path, universe=d.universe) == d


class TestDatasetAccessors:
    def test_matrix_and_labels_round_trip(self):
        d = make_dataset(3, [("a", 0, (0.7, 0.2, 0.1)), ("b", 2, (0.1, 0.1, 0.8))])
        matrix = d.probability_matrix()
        assert matrix is d.probs
        assert matrix.shape == (2, 3)
        assert matrix[1, 2] == 0.8
        assert not matrix.flags.writeable
        assert not d.labels.flags.writeable
        assert d.labels.tolist() == [0, 2]
        assert d.ids == ("a", "b")

    def test_ragged_matrix_raises(self):
        with pytest.raises(DimensionMismatchError):
            make_dataset(3, [("a", 0, (1.0, 0.0))])

    def test_datasets_with_equal_content_compare_equal(self):
        rows = [("a", 0, (0.7, 0.3)), ("b", 1, (0.2, 0.8))]
        assert make_dataset(2, rows) == make_dataset(2, rows)


def fsum_or_inf(row: list[float]) -> float:
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def hex_row(*values: str) -> list[float]:
    return [float.fromhex(v) for v in values]


# Entries of rows whose sum lies near 1: probabilities, float32 exports,
# dust around ulp(1), signed zeros, subnormals and magnitudes that overflow.
ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0, width=32),
    st.builds(lambda m, e: m * 2.0**e, st.integers(-9, 9), st.integers(-110, -45)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 3.0, -2.0,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def row_matrices(draw) -> np.ndarray:
    """Rows of one width, most of them completed to a mass near 1."""
    k = draw(st.integers(2, 40))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.lists(ENTRIES, min_size=k - 1, max_size=k - 1))
        rest = fsum_or_inf(row)
        tail = 1.0 - rest if math.isfinite(rest) else 1.0
        rows.append(row + [draw(st.sampled_from([tail, 1.0, 0.0]) | ENTRIES)])
    rows = np.array(rows, dtype=np.float64)
    if draw(st.booleans()):  # as a float32 export, within float32's range
        return np.clip(rows, -3e38, 3e38).astype(np.float32).astype(np.float64)
    return rows


# The explicit examples: cancelling magnitudes whose sum lies next to a
# rounding tie of 1.  There the array sum of the rounding errors is off by
# more than one ulp, so the check needs its error bound.  A search found
# these among several million rows of that kind; generated rows miss them.
@settings(max_examples=200, deadline=None)
@given(row_matrices())
@example(np.array([hex_row("0x1p-106", "-0x1p-105", "-0x1.8p-106", "-0x1.0000000000001p-53",
                           "0x1p-106", "0x1.0000000000001p-52", "0x1p+2", "-0x1.8p+1")]))
@example(np.array([hex_row("-0x1p-53", "0x1p+3", "-0x1.cp+2", "-0x1.8p-105", "0x1p-52",
                           "0x1p-105", "0x1.8p-106")]))
@example(np.array([hex_row("-0x1.4p+2", "0x1.8p-104", "0x1p+0", "0x1.8p-105",
                           "-0x1.0000000000001p-51", "-0x1.8p-105", "0x1.0000000000003p-54",
                           "0x1p+3", "-0x1.8p+1")]))
def test_row_sums_are_the_fsum_bits(rows):
    expected = np.array([fsum_or_inf(row) for row in rows.tolist()])
    assert _fsum_rows(rows).tobytes() == expected.tobytes()
