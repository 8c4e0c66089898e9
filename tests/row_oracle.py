"""The per-row probability-mass policy and validation loop, kept as a test oracle.

This is the row-at-a-time code that the columnar :class:`Dataset` replaced:
one frozen object per probability vector, the mass policy applied in its
constructor, and a Python loop over the rows that collects violations.
Differential tests require the columnar construction to store bit-identical
probabilities and to report the same violations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from conformal_gate import Violation

NOOP_TOL = 1e-9
SILENT_TOL = 1e-6
WARN_TOL = 1e-3


@dataclass(frozen=True)
class ProbVector:
    """A length-K probability vector with the mass policy applied.

    ``warned`` records whether the renormalization was one that warns.
    """

    values: tuple[float, ...]
    warned: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if values and all(math.isfinite(v) for v in values):
            mass = math.fsum(values)
            deviation = abs(mass - 1.0)
            if NOOP_TOL < deviation <= WARN_TOL:
                object.__setattr__(self, "warned", deviation > SILENT_TOL)
                values = tuple(v / mass for v in values)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LabeledExample:
    sample_id: str
    true_label: int
    probs: ProbVector


def validate_examples(examples: list[LabeledExample], k: int) -> list[Violation]:
    """Every invariant violation, row by row; empty list iff valid."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for ex in examples:
        if ex.sample_id in seen:
            violations.append(Violation(ex.sample_id, "duplicate sample_id"))
        seen.add(ex.sample_id)

        if not isinstance(ex.true_label, (int, np.integer)) or not 0 <= ex.true_label < k:
            violations.append(
                Violation(ex.sample_id, f"true_label {ex.true_label!r} outside [0, {k})")
            )

        values = ex.probs.values
        if len(values) != k:
            violations.append(
                Violation(ex.sample_id, f"expected {k} probabilities, got {len(values)}")
            )
            continue
        if not all(math.isfinite(v) for v in values):
            violations.append(Violation(ex.sample_id, "non-finite probability entry"))
            continue
        bad = [v for v in values if v < 0.0 or v > 1.0]
        if bad:
            violations.append(
                Violation(ex.sample_id, f"probability {bad[0]:.9g} outside [0, 1]")
            )
        mass = math.fsum(values)
        if abs(mass - 1.0) > SILENT_TOL:
            violations.append(
                Violation(ex.sample_id, f"probability mass {mass:.9g} outside tolerance")
            )
    return violations
