"""Domain type invariants, the probability-mass policy, and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conformal_gate import (
    ClassUniverse,
    DataError,
    DimensionMismatchError,
    InvalidDatasetError,
    require_valid,
    validate_dataset,
)

from conftest import make_dataset, one_hot


def stored(values) -> tuple[float, ...]:
    """The row a one-row dataset stores for ``values`` under the mass policy."""
    return tuple(make_dataset(len(values), [("x", 0, values)]).probs[0].tolist())


class TestClassUniverse:
    def test_names_must_be_unique(self):
        with pytest.raises(DataError):
            ClassUniverse.from_names(["a", "a"])

    def test_needs_at_least_two_classes(self):
        with pytest.raises(DataError):
            ClassUniverse.from_names(["only"])

    def test_name_lookup(self):
        universe = ClassUniverse.from_names(["Steel Sheets", "Shredder"])
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
        report = validate_dataset(d)
        assert len(report) == 1
        assert report[0].sample_id == "a"
        assert "probability mass 0.8" in report[0].reason

    def test_three_valid_one_hot_examples(self):
        d = make_dataset(3, [(f"s{i}", i, one_hot(3, i)) for i in range(3)])
        assert validate_dataset(d) == []

    def test_duplicate_sample_id_named(self):
        d = make_dataset(2, [("a", 0, (1.0, 0.0)), ("a", 1, (0.0, 1.0))])
        report = validate_dataset(d)
        assert len(report) == 1
        assert report[0].sample_id == "a"
        assert "duplicate" in report[0].reason

    def test_nan_is_a_violation_never_clamped(self):
        d = make_dataset(2, [("a", 0, (float("nan"), 1.0))])
        report = validate_dataset(d)
        assert any("non-finite" in v.reason for v in report)

    def test_entry_outside_unit_interval(self):
        d = make_dataset(2, [("a", 0, (1.2, -0.2))])
        report = validate_dataset(d)
        assert any("outside [0, 1]" in v.reason for v in report)

    def test_label_out_of_range(self):
        d = make_dataset(2, [("a", 5, (1.0, 0.0))])
        report = validate_dataset(d)
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
        from conformal_gate import (
            SplitSpec,
            calibrate,
            evaluate,
            load_probabilities,
            predict_batch,
            split,
            write_dataset,
        )
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
            assert validate_dataset(d) == []
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
