"""Synthetic exchangeable (label, probability-vector) data and coverage trials.

Stands in for a trained classifier: each sample draws a label from the
class prior, then a probability vector from a simplex distribution
concentrated on a target class.  With probability ``noise`` the
concentration lands on a uniformly chosen wrong class instead of the true
one, simulating confident mistakes.

Simplex draw: one unit-scale exponential variate per class, the target
class's variate multiplied by (1 + sharpness), then the vector normalized
to sum 1.  Calibration and test samples come from the identical process,
so exchangeability holds by construction and empirical marginal coverage
must concentrate in [1 - alpha, 1 - alpha + 1/(n_calib + 1)].

All randomness flows from the deterministic streams in ``rng``; the same
(spec, n) always produces a bit-identical dataset.  Per-sample draw layout,
fixed at K + 3 uniforms per example:

    [label pick, noise flag, wrong-class pick, K exponentials]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .calibration import Alpha, calibrate
from .core_types import ClassUniverse, DataError, Dataset
from .metrics import marginal_coverage
from .predictor import predict_batch
from .rng import nth_output, output_block

_S11 = np.uint64(11)
_S53 = np.uint64(53)
_INV53 = 2.0**-53
# The largest exponential variate, -log1p(-u) at the largest uniform u = 1 - 2**-53.
_MAX_VARIATE = 53 * math.log(2)
# The most classes a spec takes, far above any real class count, so that a mistyped k
# is a data error before anything that grows with k is allocated.
MAX_K = 100_000
# The most uniforms, n * (k + 3), one coverage-trial set may draw: 256 MiB per array.
MAX_DRAWS = 2**25


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the simulated classifier."""

    k: int
    class_weights: tuple[float, ...] | None = None
    sharpness: float = 4.0
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise DataError(f"need at least 2 classes, got k={self.k}")
        if self.k > MAX_K:
            raise DataError(f"class count (--k) {self.k} is too large: at most {MAX_K} classes")
        if self.class_weights is None:
            weights = tuple(1.0 / self.k for _ in range(self.k))
        else:
            weights = tuple(float(w) for w in self.class_weights)
        object.__setattr__(self, "class_weights", weights)
        if len(weights) != self.k:
            raise DataError(f"expected {self.k} class weights, got {len(weights)}")
        if any(w < 0.0 for w in weights):
            raise DataError("class weights must be nonnegative")
        if abs(math.fsum(weights) - 1.0) > 1e-9:
            raise DataError(f"class weights sum to {math.fsum(weights)!r}, not 1")
        if not self.sharpness > 0.0:
            raise DataError(f"sharpness must be positive, got {self.sharpness!r}")
        if not math.isfinite((1.0 + self.sharpness) * _MAX_VARIATE):
            raise DataError(
                f"sharpness (--sharpness) {self.sharpness!r} is too large: the target variate,"
                " up to 53 ln 2, times 1 + sharpness overflows a float"
            )
        if not 0.0 <= self.noise < 1.0:
            raise DataError(f"noise must lie in [0, 1), got {self.noise!r}")


def generate(spec: SyntheticSpec, n: int) -> Dataset:
    """Draw n i.i.d. labeled examples from the simulated classifier."""
    if n < 0:
        raise DataError(f"sample count must be nonnegative, got {n}")
    k = spec.k
    raw = output_block(spec.seed, n * (k + 3)).reshape(n, k + 3)
    r53 = raw >> _S11
    uniforms = r53.astype(np.float64) * _INV53

    cum_weights = np.cumsum(np.asarray(spec.class_weights, dtype=np.float64))
    labels = np.searchsorted(cum_weights, uniforms[:, 0], side="right")
    labels = np.minimum(labels, k - 1).astype(np.int64)

    noisy = uniforms[:, 1] < spec.noise
    wrong_pick = ((r53[:, 2] * np.uint64(k - 1)) >> _S53).astype(np.int64)
    wrong = wrong_pick + (wrong_pick >= labels)
    target = np.where(noisy, wrong, labels)

    variates = -np.log1p(-uniforms[:, 3:])
    rows = np.arange(n)
    variates[rows, target] *= 1.0 + spec.sharpness
    probs = variates / variates.sum(axis=1, keepdims=True)

    return Dataset(ClassUniverse.generic(k), _ids(n), labels, probs)


@lru_cache(maxsize=2)  # a coverage trial's calibration and test sizes
def _ids(n: int) -> tuple[str, ...]:
    return tuple(f"synth-{i:06d}" for i in range(n))


@dataclass(frozen=True)
class CoverageTrialResult:
    """Distribution of empirical marginal coverage over independent seeds."""

    per_seed: tuple[float, ...]
    mean: float
    std: float
    min: float
    max: float
    alpha: float
    n_calib: int
    n_test: int
    k: int
    last_trial: tuple[Dataset, Dataset] = field(repr=False, compare=False)

    def to_json_obj(self) -> dict:
        return {
            "alpha": self.alpha,
            "n_calib": self.n_calib,
            "n_test": self.n_test,
            "k": self.k,
            "n_seeds": len(self.per_seed),
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "per_seed": list(self.per_seed),
        }


def coverage_trial(
    spec: SyntheticSpec,
    n_calib: int,
    n_test: int,
    alpha: float | Alpha,
    n_seeds: int,
) -> CoverageTrialResult:
    """Empirical marginal coverage of the full calibrate-then-predict pipeline.

    Trial t draws its calibration and test sets from independent substreams
    derived from spec.seed: stream outputs 2t and 2t + 1 are their seeds.
    Coverage is then measured on the test set.  The last trial's two sets are
    returned as ``last_trial``, which ``repr``, ``==`` and ``to_json_obj`` leave out.
    """
    if n_calib < 1:
        raise DataError(f"n_calib must be >= 1, got {n_calib}")
    if n_test < 1:
        raise DataError(f"n_test must be >= 1, got {n_test}")
    if n_seeds < 1:
        raise DataError(f"n_seeds must be >= 1, got {n_seeds}")
    for flag, n in (("--n-calib", n_calib), ("--n-test", n_test)):
        if n * (spec.k + 3) > MAX_DRAWS:
            raise DataError(f"sample count ({flag}) {n} is too large for --k {spec.k}:"
                            f" n * (k + 3) = {n * (spec.k + 3)} draws, at most {MAX_DRAWS}")
    if not isinstance(alpha, Alpha):
        alpha = Alpha(alpha)
    coverages: list[float] = []
    for trial in range(n_seeds):
        calib = generate(replace(spec, seed=nth_output(spec.seed, 2 * trial)), n_calib)
        test = generate(replace(spec, seed=nth_output(spec.seed, 2 * trial + 1)), n_test)
        result = calibrate(calib, alpha)
        coverages.append(marginal_coverage(predict_batch(test, result), test.labels))
    values = np.asarray(coverages, dtype=np.float64)
    return CoverageTrialResult(
        per_seed=tuple(coverages),
        mean=float(values.mean()),
        std=float(values.std()),
        min=float(values.min()),
        max=float(values.max()),
        alpha=alpha.value,
        n_calib=n_calib,
        n_test=n_test,
        k=spec.k,
        last_trial=(calib, test),
    )
