"""Synthetic generator contracts and the empirical coverage oracle."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from conformal_gate.core_types import DataError
from conformal_gate.synth import SyntheticSpec, coverage_trial, generate


class TestSyntheticSpec:
    def test_default_weights_are_uniform(self):
        spec = SyntheticSpec(k=4)
        assert spec.class_weights == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DataError):
            SyntheticSpec(k=1)
        with pytest.raises(DataError):
            SyntheticSpec(k=3, class_weights=(0.5, 0.5))
        with pytest.raises(DataError):
            SyntheticSpec(k=2, class_weights=(0.9, 0.3))
        with pytest.raises(DataError):
            SyntheticSpec(k=2, sharpness=0.0)
        with pytest.raises(DataError):
            SyntheticSpec(k=2, noise=1.0)

    @pytest.mark.parametrize("sharpness", [math.inf, 1e308])
    def test_rejects_a_sharpness_whose_target_variate_overflows(self, sharpness):
        with pytest.raises(DataError, match=r"^sharpness \(--sharpness\) .* is too large"):
            SyntheticSpec(k=3, sharpness=sharpness)

    def test_the_largest_accepted_sharpness_generates_finite_rows(self):
        top = 53 * math.log(2)  # the largest variate: -log1p(-u) at u = 1 - 2**-53
        assert float(-np.log1p(-(1.0 - 2.0**-53))) == top
        largest = sys.float_info.max / top
        while not math.isfinite((1.0 + largest) * top):
            largest = math.nextafter(largest, 0.0)
        while math.isfinite((1.0 + math.nextafter(largest, math.inf)) * top):
            largest = math.nextafter(largest, math.inf)
        with pytest.raises(DataError):
            SyntheticSpec(k=4, sharpness=math.nextafter(largest, math.inf))
        # numpy's overflow warnings are errors under this suite's filterwarnings
        d = generate(SyntheticSpec(k=4, seed=2, sharpness=largest, noise=0.3), 500)
        assert np.isfinite(d.probs).all()
        assert list(d.violations) == []


class TestGenerate:
    def test_zero_samples_gives_empty_dataset(self):
        d = generate(SyntheticSpec(k=3), 0)
        assert len(d) == 0
        assert d.universe.k == 3

    def test_same_seed_is_bitwise_identical(self):
        spec = SyntheticSpec(k=9, seed=42)
        assert generate(spec, 50) == generate(spec, 50)

    def test_different_seeds_differ(self):
        assert generate(SyntheticSpec(k=3, seed=1), 20) != generate(
            SyntheticSpec(k=3, seed=2), 20
        )

    def test_generated_data_always_validates(self):
        for seed in (0, 9, 1234):
            d = generate(SyntheticSpec(k=6, seed=seed, noise=0.4, sharpness=0.5), 300)
            assert list(d.violations) == []

    def test_huge_sharpness_with_no_noise_makes_argmax_true(self):
        d = generate(SyntheticSpec(k=5, seed=3, sharpness=1e9, noise=0.0), 200)
        probs = d.probability_matrix()
        assert np.array_equal(np.argmax(probs, axis=1), d.labels)

    def test_class_weights_steer_the_label_prior(self):
        spec = SyntheticSpec(k=3, class_weights=(0.8, 0.1, 0.1), seed=5)
        labels = generate(spec, 2000).labels
        assert (labels == 0).mean() > 0.7

    def test_sample_ids_are_unique(self):
        d = generate(SyntheticSpec(k=3, seed=8), 500)
        assert len(set(d.ids)) == 500


class TestCoverageTrial:
    def test_tiny_calibration_forces_full_coverage(self):
        # n_calib = 5, alpha = 0.05: qlevel > 1 on every seed
        result = coverage_trial(SyntheticSpec(k=9, seed=0), 5, 200, 0.05, 5)
        assert result.per_seed == (1.0,) * 5
        assert result.mean == 1.0

    def test_mean_coverage_tracks_half_at_alpha_half(self):
        result = coverage_trial(SyntheticSpec(k=9, seed=1), 1000, 2000, 0.5, 20)
        assert result.mean == pytest.approx(0.5, abs=0.02)

    def test_coverage_monotone_in_target(self):
        means = []
        for alpha in (0.5, 0.25, 0.1, 0.05):
            result = coverage_trial(SyntheticSpec(k=5, seed=12), 500, 1000, alpha, 20)
            means.append(result.mean)
        for lower_target, higher_target in zip(means, means[1:]):
            assert higher_target >= lower_target - 0.01

    def test_no_trend_across_seed_index(self):
        # exchangeability: early and late trials draw from the same process
        result = coverage_trial(SyntheticSpec(k=5, seed=7), 400, 1000, 0.1, 24)
        first = np.mean(result.per_seed[:12])
        second = np.mean(result.per_seed[12:])
        assert abs(first - second) < 0.02

    def test_summary_statistics_describe_per_seed_values(self):
        result = coverage_trial(SyntheticSpec(k=4, seed=2), 100, 500, 0.1, 10)
        values = np.asarray(result.per_seed)
        assert result.mean == pytest.approx(values.mean())
        assert result.std == pytest.approx(values.std())
        assert result.min == values.min()
        assert result.max == values.max()

    def test_rejects_bad_arguments(self):
        spec = SyntheticSpec(k=3)
        with pytest.raises(DataError):
            coverage_trial(spec, 0, 100, 0.1, 5)
        with pytest.raises(DataError):
            coverage_trial(spec, 100, 100, 0.1, 0)

    def test_json_object_shape(self):
        result = coverage_trial(SyntheticSpec(k=3, seed=4), 50, 100, 0.1, 3)
        obj = result.to_json_obj()
        assert obj["n_seeds"] == 3
        assert len(obj["per_seed"]) == 3
        assert obj["alpha"] == 0.1


def beta_binomial_pmf(trials: int, a: int, b: int) -> np.ndarray:
    """P(C = c) for c = 0..trials when C ~ BetaBinomial(trials, a, b), from log-gamma."""

    def log_beta(x: float, y: float) -> float:
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    return np.array([
        math.exp(math.lgamma(trials + 1) - math.lgamma(c + 1) - math.lgamma(trials - c + 1)
                 + log_beta(c + a, trials - c + b) - log_beta(a, b))
        for c in range(trials + 1)
    ])


@pytest.mark.parametrize("base_seed", [0, 1, 2])
def test_per_seed_coverage_follows_the_beta_binomial_law(base_seed):
    # synth scores have no ties, so given the calibration set a test sample is
    # covered with probability U_(r) ~ Beta(r, n + 1 - r), r = ceil((1 - alpha)(n + 1)):
    # the covered count of each seed is BetaBinomial(n_test, r, n + 1 - r).
    n, n_test, alpha, seeds = 50, 1000, 0.05, 400
    r = math.ceil((1 - alpha) * (n + 1))
    pmf = beta_binomial_pmf(n_test, r, n + 1 - r)
    support = np.arange(n_test + 1) / n_test
    mean = float(pmf @ support)
    var = float(pmf @ (support - mean) ** 2)
    mu4 = float(pmf @ (support - mean) ** 4)
    assert mean == pytest.approx(r / (n + 1))

    trial = coverage_trial(SyntheticSpec(k=9, seed=base_seed), n_calib=n, n_test=n_test,
                           alpha=alpha, n_seeds=seeds)
    coverage = np.asarray(trial.per_seed)
    z_mean = (coverage.mean() - mean) / math.sqrt(var / seeds)
    # the standard error of the unbiased sample variance of iid draws
    var_se = math.sqrt(mu4 / seeds - var**2 * (seeds - 3) / (seeds * (seeds - 1)))
    z_var = (coverage.var(ddof=1) - var) / var_se
    assert abs(z_mean) < 4, z_mean
    assert abs(z_var) < 4, z_var
